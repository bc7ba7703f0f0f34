"""Synthetic data generation and end-to-end train/certify/validate runs."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import core
from .bounds import (
    BoundQuery,
    BoundReport,
    bound_value,
    cell_stats,
    empirical_epsilon_triplet,
)
from .core import (
    FAMILIES,
    HINGE_U,
    Dataset,
    KernelSpec,
    MetricModel,
    empirical_loss,
    empirical_triplet_loss,
    hinge,
    metric_blocks,
    metric_rowwise,
)
from .cover import CoverConfig, build_partition, covering_number_upper_bound
from .solver import SolverConfig, model_norm, solve, solve_kernel, solve_triplet

# the pseudo-robust bound's epsilon as a fraction of the certified one
PSEUDO_EPS_SCALE = 0.5


@dataclass(frozen=True)
class SyntheticSpec:
    """Equal-weight Gaussian mixture, rejection-sampled into the R-ball."""

    d: int = 2
    n: int = 100
    classes: int = 2
    means: tuple = ()         # one vector per class; defaults to +/- axis means
    cov_scale: float = 0.3
    R: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.d < 1 or self.n < 1 or self.classes < 1:
            raise ValueError("d, n and classes must be positive")
        if not 0.0 <= self.cov_scale < math.inf:
            raise ValueError(f"cov_scale must be nonnegative and finite, not {self.cov_scale!r}")
        if not 0.0 < self.R < math.inf:
            raise ValueError(f"R must be positive and finite, not {self.R!r}")
        means = self.means if self.means else _default_means(self.classes, self.d, self.R)
        means = tuple(tuple(float(v) for v in mvec) for mvec in means)
        if len(means) != self.classes:
            raise ValueError("need one mean per class")
        for mvec in means:
            if len(mvec) != self.d:
                raise ValueError("mean dimension mismatch")
            if not np.linalg.norm(mvec) <= self.R + 1e-9:
                raise ValueError("class means must lie inside the R-ball")
        object.__setattr__(self, "means", means)

    @property
    def label_names(self) -> tuple:
        return tuple(f"c{k}" for k in range(self.classes))


def _default_means(classes: int, d: int, R: float):
    means = np.zeros((classes, d))
    for k in range(classes):
        means[k, k % d] = (0.5 * R) * (1.0 if (k // d) % 2 == 0 else -1.0)
    return means


def gen_synthetic(spec: SyntheticSpec, seed: int | None = None) -> Dataset:
    """n IID draws: uniform class, Gaussian around the class mean, resampled
    until inside the R-ball.  Deterministic under the seed.

    All classes are drawn at once; then each round draws one normal row for
    every point still rejected, and accepted rows stay in place.
    """
    rng = np.random.default_rng(spec.seed if seed is None else seed)
    means = np.asarray(spec.means)
    k = rng.integers(spec.classes, size=spec.n)
    X = np.empty((spec.n, spec.d))
    todo = np.arange(spec.n)
    attempts = 0
    while todo.size:
        x = means[k[todo]] + spec.cov_scale * rng.standard_normal((todo.size, spec.d))
        inside = np.linalg.norm(x, axis=1) <= spec.R
        X[todo[inside]] = x[inside]
        attempts += todo.size
        todo = todo[~inside]
        accepted = spec.n - todo.size
        if todo.size and attempts > 100 * (accepted + 1) and attempts > 1000:
            raise ValueError(
                "rejection rate above 99%; increase R or shrink cov_scale"
            )
    names = spec.label_names
    return Dataset(X, [names[j] for j in k.tolist()], spec.R, names)


def _sample_points(spec: SyntheticSpec, count: int, rng) -> tuple[np.ndarray, list]:
    tmp = replace(spec, n=count)
    ds = gen_synthetic(tmp, seed=int(rng.integers(2**32)))
    return ds.X, ds.y


def true_loss_estimate(
    m: MetricModel, spec: SyntheticSpec, M_mc: int, seed: int = 0
) -> tuple[float, float]:
    """Monte-Carlo mean pair loss over independent draws, with its SE."""
    if M_mc < 2:
        raise ValueError("M_mc must be at least 2")
    rng = np.random.default_rng(seed)
    X1, y1 = _sample_points(spec, M_mc, rng)
    X2, y2 = _sample_points(spec, M_mc, rng)
    f = metric_rowwise(m, X1, X2)
    same = np.asarray(y1) == np.asarray(y2)
    ysign = np.where(same, 1.0, -1.0)
    losses = hinge(ysign * (1.0 - f))
    return float(losses.mean()), float(losses.std(ddof=1) / math.sqrt(M_mc))


def _true_triplet_loss_estimate(m, spec, M_mc, seed):
    """Monte-Carlo mean triplet hinge over the admissible triples
    (y_a = y_b != y_c) among M_mc independent draws, with its SE over those
    triples: the quantity empirical_triplet_loss averages over a sample."""
    rng = np.random.default_rng(seed)
    X1, y1 = _sample_points(spec, 3 * M_mc, rng)
    a, b, c = X1[:M_mc], X1[M_mc : 2 * M_mc], X1[2 * M_mc :]
    y1 = np.asarray(y1)
    ya, yb, yc = y1[:M_mc], y1[M_mc : 2 * M_mc], y1[2 * M_mc :]
    admissible = (ya == yb) & (ya != yc)
    if admissible.sum() < 2:
        raise ValueError("fewer than two admissible triples; increase mc_size")
    f13 = metric_rowwise(m, a[admissible], c[admissible])
    f12 = metric_rowwise(m, a[admissible], b[admissible])
    losses = np.maximum(0.0, 1.0 - f13 + f12)
    return float(losses.mean()), float(losses.std(ddof=1) / math.sqrt(len(losses)))


@dataclass(frozen=True)
class ExperimentConfig:
    synthetic: SyntheticSpec = SyntheticSpec()
    solver: SolverConfig = SolverConfig()
    cover: CoverConfig = CoverConfig(gamma=0.5)
    family: str = "fro"
    delta: float = 0.05
    probe_size: int = 100
    mc_size: int = 20_000
    repetitions: int = 1

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.probe_size < 1 or self.mc_size < 1 or self.repetitions < 1:
            raise ValueError("probe_size, mc_size, repetitions must be >= 1")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")


def train_family(ds: Dataset, family: str, cfg: SolverConfig, sigma: float = 1.0) -> MetricModel:
    """Fit the model of a FAMILIES entry; sigma is the rbf bandwidth."""
    fam = FAMILIES[family]
    if fam.triplet:
        return solve_triplet(ds, fam.reg, cfg)
    if fam.kind == "kernelized":
        return solve_kernel(ds, KernelSpec("rbf", sigma), cfg)
    return solve(ds, fam.reg, cfg, kind=fam.kind)


def certify(
    model: MetricModel,
    ds: Dataset,
    probe: Dataset,
    family: str,
    cover_cfg: CoverConfig,
    c: float,
    delta: float,
    seed: int = 0,
    gap: float | None = None,
) -> BoundReport:
    """Build the partition and assemble all certified quantities.

    The constants hold only for the family the model was fitted as and
    within its capacity, so a model of another kind or regularizer, or one
    with c*||M||_reg > g0, is refused; kernel-rbf reads its bandwidth from
    the model's kernel.  `empirical_gap` and `holds` are
    None unless a measured gap is given.
    """
    fam = FAMILIES[family]
    # a pair/triplet swap is not visible here: the model stores its kind
    # and regularizer, not its family
    if (model.kind, model.regularizer) != (fam.kind, fam.reg):
        raise ValueError(f"model is {model.kind}/{model.regularizer}, not a {family} model")
    if fam.kind == "kernelized" and model.kernel.kind != "rbf":
        raise ValueError(f"model has a {model.kernel.kind} kernel, not a {family} model")
    # epsilon and B hold for models within the capacity ||M|| <= g0/c
    capacity = c * model_norm(model, fam.reg)
    if capacity > fam.g0:
        raise ValueError(f"model is over capacity: c*||M|| = {capacity:.6g} > g0 = {fam.g0:g}")
    part = build_partition(ds, cover_cfg, probe=probe)
    sigma = model.kernel.sigma if fam.kind == "kernelized" else 0.0
    eps_theo = fam.epsilon(ds.R, cover_cfg.gamma, c, sigma)
    pseudo_eps = PSEUDO_EPS_SCALE * eps_theo
    if fam.triplet:
        est = empirical_epsilon_triplet(model, part, ds, probe)
    else:
        est, p_hat = cell_stats(model, part, ds, probe, pseudo_eps)
    B = fam.loss_bound(ds.R, c)
    K_theo = len(ds.labels) * covering_number_upper_bound(
        ds.R, cover_cfg.gamma / 2.0, ds.d, cover_cfg.norm
    )

    def bound(mode: str, epsilon: float = eps_theo, p_hat: int = 0) -> float:
        return bound_value(BoundQuery(epsilon, B, K_theo, ds.n, delta, mode, p_hat))

    bound_pair = bound("pair")
    bound_triplet = bound("triplet") if fam.triplet else None
    certified = bound_triplet if fam.triplet else bound_pair
    return BoundReport(
        family=family,
        U=HINGE_U,
        R=ds.R,
        gamma=cover_cfg.gamma,
        g0=fam.g0,
        c=c,
        K_theoretical=K_theo,
        K_empirical=part.K,
        B=B,
        epsilon_theoretical=eps_theo,
        epsilon_empirical=est.value,
        bound_pair=bound_pair,
        bound_pseudo=None if fam.triplet else bound("pseudo", pseudo_eps, p_hat),
        bound_triplet=bound_triplet,
        empirical_gap=None if gap is None else float(gap),
        holds=None if gap is None else bool(gap <= certified),
        sound=bool(est.value <= eps_theo),
        excluded_probes=est.excluded_probes,
        seed=seed,
    )


def run_repetition(cfg: ExperimentConfig, rep_seed: int) -> BoundReport:
    spec = replace(cfg.synthetic, seed=rep_seed)
    ds = gen_synthetic(spec)
    model = train_family(ds, cfg.family, cfg.solver)
    probe_spec = replace(spec, n=cfg.probe_size, seed=rep_seed + 10_000)
    probe = gen_synthetic(probe_spec)
    if FAMILIES[cfg.family].triplet:
        l_emp = empirical_triplet_loss(model, ds)
        true_est, _se = _true_triplet_loss_estimate(model, spec, cfg.mc_size, rep_seed + 20_000)
    else:
        l_emp = empirical_loss(model, ds)
        true_est, _se = true_loss_estimate(model, spec, cfg.mc_size, rep_seed + 20_000)
    gap = abs(true_est - l_emp)
    report = certify(
        model, ds, probe, cfg.family, cfg.cover, cfg.solver.c, cfg.delta,
        seed=rep_seed, gap=gap,
    )
    report.extra["empirical_loss"] = l_emp
    report.extra["true_loss_estimate"] = true_est
    report.extra["true_loss_se"] = _se
    return report


def run_experiment(cfg: ExperimentConfig) -> tuple[list[BoundReport], dict]:
    """Per-repetition reports plus a summary with the holds fraction and
    the mean certified bound (bound_triplet for a triplet family)."""
    reports = []
    for rep in range(cfg.repetitions):
        reports.append(run_repetition(cfg, cfg.synthetic.seed + rep))
    frac = sum(r.holds for r in reports) / len(reports)
    triplet = FAMILIES[cfg.family].triplet
    certified = [r.bound_triplet if triplet else r.bound_pair for r in reports]
    summary = {
        "repetitions": cfg.repetitions,
        "holds_fraction": frac,
        "mean_gap": float(np.mean([r.empirical_gap for r in reports])),
        "mean_bound": float(np.mean(certified)),
    }
    return reports, summary


def gap_curve(cfg: ExperimentConfig, n_ladder: list[int]) -> list[dict]:
    """Mean empirical gap and certified bound per sample size; also emits
    the bound's concentration part (its value at epsilon = 0) for the
    closed-form rate check."""
    if any(b <= a for a, b in zip(n_ladder, n_ladder[1:])):
        raise ValueError("n ladder must be strictly increasing")
    mode = "triplet" if FAMILIES[cfg.family].triplet else "pair"
    rows = []
    for n in n_ladder:
        sub = replace(cfg, synthetic=replace(cfg.synthetic, n=n))
        reports, summary = run_experiment(sub)
        r0 = reports[0]
        concentration = BoundQuery(0.0, r0.B, r0.K_theoretical, n, cfg.delta, mode)
        rows.append(
            {
                "n": n,
                "gap": summary["mean_gap"],
                "bound": summary["mean_bound"],
                "sqrt_term": bound_value(concentration),
            }
        )
    return rows


def knn_eval(m: MetricModel, train: Dataset, test: Dataset, k: int) -> float:
    """k-nearest-neighbor accuracy under the learned metric.

    Every family ranks neighbors by smallest f: training pushes f down for
    same-label pairs, bilinear similarities included.  Neighbor ties go to
    the lowest training index, vote ties to the smallest label in sort
    order.  Test points go in row blocks, and the partition copy and the
    chosen mask are buffers reused for every block, so memory is
    O(block * n).
    """
    if k < 1 or k > train.n:
        raise ValueError("k must satisfy 1 <= k <= train size")
    if test.n == 0:
        raise ValueError("empty test set")
    label_order = sorted(set(train.y), key=str)
    lookup = {lab: i for i, lab in enumerate(label_order)}
    train_lab = np.array([lookup[lab] for lab in train.y])
    test_lab = np.array([lookup.get(lab, -1) for lab in test.y])
    correct = 0
    rows = min(core.BLOCK_ROWS, test.n)
    part, mask = np.empty((rows, train.n)), np.empty((rows, train.n), dtype=bool)
    for start, F in metric_blocks(m, test.X, train.X):
        # the k smallest under a stable sort: every value below the k-th,
        # then the lowest-index ties at the k-th value; only rows with more
        # than k values at or below the k-th have ties left out
        P, chosen = part[: len(F)], mask[: len(F)]
        np.copyto(P, F)
        P.partition(k - 1, axis=1)
        kth = P[:, k - 1 : k]
        np.less_equal(F, kth, out=chosen)
        over = np.flatnonzero(chosen.sum(axis=1) > k)
        if len(over):
            Fo, ko = F[over], kth[over]
            below, ties = Fo < ko, Fo == ko
            need = k - below.sum(axis=1, keepdims=True)
            chosen[over] = below | (ties & (np.cumsum(ties, axis=1) <= need))
        # flat indices of the C-ordered mask: np.nonzero's (r, j), faster
        r, j = np.divmod(np.flatnonzero(chosen), train.n)
        votes = np.bincount(
            r * len(label_order) + train_lab[j], minlength=len(F) * len(label_order)
        ).reshape(len(F), len(label_order))
        correct += int((votes.argmax(axis=1) == test_lab[start : start + len(F)]).sum())
    return correct / test.n
