"""Learn regularized Mahalanobis / bilinear / kernelized metrics and certify
their robustness constants and finite-sample generalization bounds."""

from .core import (
    Dataset,
    KernelSpec,
    LabeledExample,
    LossSpec,
    MetricModel,
    PairSet,
    TripletSet,
    build_pairs,
    build_triplets,
    empirical_loss,
    empirical_triplet_loss,
    hinge,
    loss_bound_B,
    metric_eval,
    pair_loss,
    triplet_loss,
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
    OutOfCover,
    Partition,
    assign_cell,
    build_partition,
    cell_counts,
    covering_number_upper_bound,
    greedy_cover,
)
from .bounds import (
    BhcResult,
    BoundQuery,
    BoundReport,
    EpsilonEstimate,
    RobustnessQuery,
    bhc_simulate,
    bound_value,
    cell_stats,
    empirical_epsilon,
    epsilon_theoretical,
    pseudo_robust_count,
    rbf_fH,
)
from .harness import (
    ExperimentConfig,
    SyntheticSpec,
    gap_curve,
    gen_synthetic,
    knn_eval,
    run_experiment,
    true_loss_estimate,
)

__version__ = "0.1.0"
