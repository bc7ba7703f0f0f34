"""Learn regularized Mahalanobis / bilinear / kernelized metrics and certify
their robustness constants and finite-sample generalization bounds."""

from .core import (
    FAMILIES,
    HINGE_U,
    PAIR_G0,
    Dataset,
    Family,
    KernelSpec,
    MetricModel,
    build_pairs,
    build_triplets,
    empirical_loss,
    empirical_triplet_loss,
    hinge,
    metric_eval,
    rbf_fH,
)
from .solver import (
    SolverConfig,
    loss_subgradient,
    objective,
    prox,
    psd_project,
    solve,
    solve_kernel,
    solve_triplet,
)
from .cover import (
    CoverConfig,
    Partition,
    build_partition,
    covering_number_upper_bound,
    greedy_cover,
)
from .bounds import (
    BhcResult,
    BoundQuery,
    BoundReport,
    EpsilonEstimate,
    bhc_simulate,
    bound_value,
    cell_stats,
    empirical_epsilon,
    pseudo_bound,
    pseudo_robust_count,
)
from .harness import (
    ExperimentConfig,
    SyntheticSpec,
    gap_curve,
    gen_synthetic,
    knn_eval,
    run_experiment,
    train_family,
    true_loss_estimate,
)

__version__ = "0.1.0"
