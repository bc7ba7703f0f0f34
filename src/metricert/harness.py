"""Synthetic data generation and end-to-end train/certify/validate runs."""

from __future__ import annotations

import functools
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
from .core import FAMILIES, HINGE_U, PAIR_LOSS, Dataset, KernelSpec, MetricModel, metric_blocks
from .cover import CoverConfig, build_partition, covering_number_upper_bound
from .solver import SolverConfig, model_norm, solve, solve_kernel, training_c

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
        if self.R * self.R == math.inf:
            # the mean check and gen_synthetic's acceptance test take norms
            # through squared norms, which would overflow to inf
            raise ValueError(f"R={self.R!r} is too large: its square overflows a float")
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
        # R^2 is finite (SyntheticSpec), so a squared norm that overflows to
        # inf belongs to a point outside the ball, which is rejected
        with np.errstate(over="ignore"):
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


def _sampler(spec: SyntheticSpec, draw):
    """The (count, seed) -> Dataset sampler of Loss.truth: draw(spec) at
    that n and seed, with draw gen_synthetic or a cache of it (gap_curve)."""
    return lambda count, seed: draw(replace(spec, n=count, seed=seed))


def true_loss_estimate(
    m: MetricModel, spec: SyntheticSpec, M_mc: int, seed: int = 0
) -> tuple[float, float]:
    """Monte-Carlo mean pair loss over independent draws, with its SE."""
    return PAIR_LOSS.truth(m, _sampler(spec, gen_synthetic), M_mc, seed)


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
    if fam.kind == "kernelized":
        return solve_kernel(ds, KernelSpec("rbf", sigma), cfg)
    return solve(ds, fam.reg, cfg, kind=fam.kind, loss=fam.loss)


def certify(
    model: MetricModel,
    ds: Dataset,
    probe: Dataset,
    family: str,
    cover_cfg: CoverConfig,
    delta: float,
    c: float | None = None,
    seed: int = 0,
    gap: float | None = None,
) -> BoundReport:
    """Build the partition and assemble all certified quantities.

    The constants hold only for the family the model was fitted as, at the
    c it was trained at and within its capacity, so a model of another
    kind or regularizer, a c other than the model's (training_c; c
    defaults to it), or c*||M||_reg > g0 is refused; kernel-rbf reads its
    bandwidth from the model's kernel.  `empirical_gap` and `holds` are
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
    c = training_c(model, c)
    capacity = c * model_norm(model)
    if capacity > fam.g0:
        raise ValueError(f"model is over capacity: c*||M|| = {capacity:.6g} > g0 = {fam.g0:g}")
    part = build_partition(ds, cover_cfg, probe=probe)
    sigma = model.kernel.sigma if fam.kind == "kernelized" else 0.0
    eps_theo = fam.epsilon(ds.R, cover_cfg.gamma, c, sigma)
    pseudo_eps = PSEUDO_EPS_SCALE * eps_theo
    B = fam.loss_bound(ds.R, c)
    K_theo = len(ds.labels) * covering_number_upper_bound(ds.R, cover_cfg.gamma / 2.0, ds.d)

    def bound(mode: str, epsilon: float = eps_theo, p_hat: int = 0) -> float:
        return bound_value(BoundQuery(epsilon, B, K_theo, ds.n, delta, mode, p_hat))

    # the loss picks the epsilon estimator and the bound only it reports
    if fam.loss is PAIR_LOSS:
        est, p_hat = cell_stats(model, part, ds, probe, pseudo_eps)
        own_bound = {"bound_pseudo": bound("pseudo", pseudo_eps, p_hat)}
    else:
        est = empirical_epsilon_triplet(model, part, ds, probe)
        own_bound = {"bound_triplet": bound("triplet")}
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
        bound_pair=bound("pair"),
        empirical_gap=None if gap is None else float(gap),
        holds=None if gap is None else bool(gap <= bound(fam.loss.name)),
        sound=bool(est.value <= eps_theo),
        excluded_probes=est.excluded_probes,
        seed=seed,
        **own_bound,
    )


def _run_repetition(cfg: ExperimentConfig, rep_seed: int, draw) -> BoundReport:
    """One train/certify/measure run; its probe and Monte-Carlo samples do
    not depend on cfg.synthetic.n, and are drawn by draw(spec), which is
    gen_synthetic or a cache of it (gap_curve)."""
    spec = replace(cfg.synthetic, seed=rep_seed)
    ds = gen_synthetic(spec)
    model = train_family(ds, cfg.family, cfg.solver)
    probe = draw(replace(spec, n=cfg.probe_size, seed=rep_seed + 10_000))
    loss = FAMILIES[cfg.family].loss
    l_emp = loss.empirical(model, ds)
    true_est, se = loss.truth(model, _sampler(spec, draw), cfg.mc_size, rep_seed + 20_000)
    gap = abs(true_est - l_emp)
    report = certify(model, ds, probe, cfg.family, cfg.cover, cfg.delta, seed=rep_seed, gap=gap)
    report.extra["empirical_loss"] = l_emp
    report.extra["true_loss_estimate"] = true_est
    report.extra["true_loss_se"] = se
    return report


def run_experiment(cfg: ExperimentConfig, draw=None) -> tuple[list[BoundReport], dict]:
    """Per-repetition reports plus a summary with the holds fraction and
    the mean certified bound (the report's bound_<loss name>).  draw
    draws the probe and Monte-Carlo samples, gen_synthetic when None;
    gap_curve passes a cache of it."""
    draw = gen_synthetic if draw is None else draw
    seeds = range(cfg.synthetic.seed, cfg.synthetic.seed + cfg.repetitions)
    reports = [_run_repetition(cfg, seed, draw) for seed in seeds]
    frac = sum(r.holds for r in reports) / len(reports)
    key = "bound_" + FAMILIES[cfg.family].loss.name
    certified = [getattr(r, key) for r in reports]
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
    closed-form rate check.

    A repetition's probe and Monte-Carlo samples are the same at every
    ladder step, so they are drawn once per call, through a cache of
    gen_synthetic that is dropped when the call returns.
    """
    if any(b <= a for a, b in zip(n_ladder, n_ladder[1:])):
        raise ValueError("n ladder must be strictly increasing")
    mode = FAMILIES[cfg.family].loss.name
    rows = []
    # keyed by the spec with its n and seed; datasets are never modified
    draw = functools.cache(gen_synthetic)
    for n in n_ladder:
        sub = replace(cfg, synthetic=replace(cfg.synthetic, n=n))
        reports, summary = run_experiment(sub, draw)
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


def _nearest(F: np.ndarray, k: int, starts: np.ndarray, mins: np.ndarray, mask: np.ndarray):
    """(row, column) of the k smallest f of each row of F, ties to the lowest
    column, as flat arrays sorted by row.

    mins and mask are buffers of F's rows: one value per column group that
    begins at `starts` (at least k groups), and one flag per entry.  The
    group minima are values of F in k distinct columns, so the k-th
    smallest minimum tau is at least the row's k-th smallest f, and the k
    neighbours lie among the entries F <= tau, which are then ordered by
    (value, column).  NaN is never a neighbour: a row whose tau is NaN
    (fewer than k groups free of NaN) takes all its other values as
    candidates, and has no neighbours when they are fewer than k.
    """
    lo = np.minimum.reduceat(F, starts, axis=1, out=mins)
    lo.partition(k - 1, axis=1)
    tau = lo[:, k - 1 : k]
    chosen = np.less_equal(F, tau, out=mask)
    for i in np.flatnonzero(np.isnan(tau[:, 0])):
        np.logical_not(np.isnan(F[i]), out=chosen[i])
        chosen[i] &= chosen[i].sum() >= k
    r, j = np.divmod(np.flatnonzero(chosen), F.shape[1])
    # flatnonzero is row-major, and lexsort is stable: by row, then value,
    # then column
    order = np.lexsort((F[chosen], r))
    r, j = r[order], j[order]
    counts = np.bincount(r, minlength=len(F))
    rank = np.arange(len(r)) - np.repeat(np.cumsum(counts) - counts, counts)
    return r[rank < k], j[rank < k]


def knn_eval(m: MetricModel, train: Dataset, test: Dataset, k: int) -> float:
    """k-nearest-neighbor accuracy under the learned metric.

    Every family ranks neighbors by smallest f: training pushes f down for
    same-label pairs, bilinear similarities included.  Neighbor ties go to
    the lowest training index, vote ties to the smallest label in sort
    order.  Test points go in row blocks, and each block's neighbours come
    from the minima of about sqrt(n) column groups (_nearest), whose
    buffers are reused for every block, so memory is O(block * n).
    """
    if k < 1 or k > train.n:
        raise ValueError("k must satisfy 1 <= k <= train size")
    if test.n == 0:
        raise ValueError("empty test set")
    label_order = sorted(set(train.y), key=str)
    lookup = {lab: i for i, lab in enumerate(label_order)}
    train_lab = np.array([lookup[lab] for lab in train.y])
    test_lab = np.array([lookup.get(lab, -1) for lab in test.y])
    groups = min(train.n, max(k, math.isqrt(train.n)))
    starts = np.arange(groups) * train.n // groups
    correct = 0
    rows = min(core.tile_rows(train.n), test.n)
    mins, mask = np.empty((rows, groups)), np.empty((rows, train.n), dtype=bool)
    for start, F in metric_blocks(m, test.X, train.X):
        r, j = _nearest(F, k, starts, mins[: len(F)], mask[: len(F)])
        votes = np.bincount(
            r * len(label_order) + train_lab[j], minlength=len(F) * len(label_order)
        ).reshape(len(F), len(label_order))
        correct += int((votes.argmax(axis=1) == test_lab[start : start + len(F)]).sum())
    return correct / test.n
