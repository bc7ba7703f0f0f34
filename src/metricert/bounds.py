"""Robustness constants, empirical robustness estimation and the
generalization bounds (pair, triplet and pseudo-robust variants), plus a
Monte-Carlo check of the multinomial concentration inequality."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import core
from .core import FAMILIES, Dataset, MetricModel, hinge, metric_columns, metric_matrix, metric_rows
from .cover import Partition, assign_cells


@dataclass(frozen=True)
class RobustnessQuery:
    family: str
    U: float
    R: float
    gamma: float
    g0: float
    c: float
    sigma: float = 0.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        for name in ("U", "R", "g0", "c"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        if FAMILIES[self.family].kind == "kernelized" and self.sigma <= 0:
            raise ValueError("kernel-rbf requires sigma > 0")


def rbf_fH(gamma: float, sigma: float) -> float:
    """sup of k(a,a) + k(b,b) - 2k(a,b) over ||a - b|| <= gamma for the rbf
    kernel; monotone in the distance, so the sup is at distance gamma."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    return 2.0 * (1.0 - math.exp(-(gamma**2) / (2.0 * sigma**2)))


def epsilon_theoretical(q: RobustnessQuery) -> float:
    """Certified loss-deviation constant for cell-matched pairs; for the rbf
    kernel a cell of diameter gamma has feature-space diameter sqrt(f_H)."""
    fam = FAMILIES[q.family]
    scale = math.sqrt(rbf_fH(q.gamma, q.sigma)) if fam.kind == "kernelized" else q.gamma
    return fam.eps_coef * fam.radius(q.R) * scale * (q.U * q.g0 / q.c)


@dataclass(frozen=True)
class BoundQuery:
    epsilon: float
    B: float
    K: int
    n: int
    delta: float
    mode: str = "pair"        # "pair", "triplet" or "pseudo"
    p_hat: int = 0            # pseudo mode only, in [0, n^2]

    def __post_init__(self):
        if self.epsilon < 0 or self.B < 0:
            raise ValueError("epsilon and B must be nonnegative")
        if self.K < 1 or self.n < 1:
            raise ValueError("K and n must be positive integers")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.mode not in ("pair", "triplet", "pseudo"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "pseudo" and not 0 <= self.p_hat <= self.n**2:
            raise ValueError("p_hat must lie in [0, n^2]")


def bound_value(q: BoundQuery) -> float:
    """Generalization bound on |true loss - empirical loss|."""
    root = math.sqrt((2.0 * q.K * math.log(2.0) + 2.0 * math.log(1.0 / q.delta)) / q.n)
    if q.mode == "pair":
        return q.epsilon + 2.0 * q.B * root
    if q.mode == "triplet":
        return q.epsilon + 3.0 * q.B * root
    n2 = q.n**2
    return (q.p_hat / n2) * q.epsilon + q.B * ((n2 - q.p_hat) / n2 + 2.0 * root)


# ---------------------------------------------------------------------------
# empirical robustness


@dataclass(frozen=True)
class EpsilonEstimate:
    value: float
    excluded_probes: int

    def __float__(self) -> float:
        return self.value


def _loss_blocks(m: MetricModel, X: np.ndarray, labels: np.ndarray):
    """Pair losses of the points X against themselves, BLOCK_ROWS rows at a
    time: yields (start, losses of X[start:start + BLOCK_ROWS] against all
    of X); `labels` holds one label index per point."""
    columns = metric_columns(m, X)
    for start in range(0, len(X), core.BLOCK_ROWS):
        rows = slice(start, start + core.BLOCK_ROWS)
        F = metric_rows(m, X[rows], columns)
        Y = np.where(labels[rows, None] == labels[None, :], 1.0, -1.0)
        yield start, hinge(Y * (1.0 - F))


def _probe_extrema(m: MetricModel, p: Partition, X: np.ndarray, ids: np.ndarray):
    """Per-cell-pair min and max of the probe pair loss.

    Returns the occupied cell ids (ascending) and two tables indexed by
    their positions.  Points are sorted by cell, so every cell is a run of
    rows and columns and each row block reduces with `reduceat` on both
    axes; a cell whose run straddles two blocks is merged into the table.
    """
    order = np.argsort(ids, kind="stable")
    X, ids = X[order], ids[order]
    cells, starts = np.unique(ids, return_index=True)
    labels = ids // p.centers.shape[0]
    lo = np.full((len(cells), len(cells)), np.inf)
    hi = np.full((len(cells), len(cells)), -np.inf)
    for start, L in _loss_blocks(m, X, labels):
        # runs of the block's rows: local starts and their positions in `cells`
        first = np.searchsorted(starts, start, side="right") - 1
        last = np.searchsorted(starts, min(start + core.BLOCK_ROWS, len(ids)), side="left")
        local = np.maximum(starts[first:last] - start, 0)
        at = slice(first, last)
        lo[at] = np.minimum(lo[at], np.minimum.reduceat(
            np.minimum.reduceat(L, starts, axis=1), local, axis=0))
        hi[at] = np.maximum(hi[at], np.maximum.reduceat(
            np.maximum.reduceat(L, starts, axis=1), local, axis=0))
    return cells, lo, hi


def cell_stats(
    m: MetricModel,
    p: Partition,
    ds: Dataset,
    probe: Dataset,
    epsilon: float,
) -> tuple[EpsilonEstimate, int]:
    """Empirical robustness and the pseudo-robust count from one pass.

    A training pair (i, j) is matched when some kept probe pair shares its
    cell pair; its deviation is the larger of L_ij minus the probe minimum
    and the probe maximum minus L_ij over that cell pair.  The estimate is
    the largest deviation over matched pairs (0 when none match), which is
    the max over cell pairs of hi_train - lo_probe and hi_probe - lo_train;
    the count is the number of pairs that are unmatched or deviate by at
    most `epsilon`.  Probe points outside the cover are excluded and
    counted; training points outside it are an error.  The loss is
    evaluated in row blocks, so memory is O(block * n) plus the
    cell-pair tables of the probe.
    """
    ids_tr = assign_cells(p, ds.X, ds.y)
    if (ids_tr < 0).any():
        raise ValueError("training points outside the cover")
    ids_pr = assign_cells(p, probe.X, probe.y)
    keep = ids_pr >= 0
    excluded = int((~keep).sum())
    n = ds.n
    if not keep.any():
        return EpsilonEstimate(0.0, excluded), n * n
    cells, lo_p, hi_p = _probe_extrema(m, p, probe.X[keep], ids_pr[keep])
    # each training cell's position among the probe cells; a cell the probe
    # does not occupy points at an appended row and column of empty extrema
    # (+inf, -inf), whose deviation is -inf
    pos = np.searchsorted(cells, ids_tr)
    pos[cells[np.minimum(pos, len(cells) - 1)] != ids_tr] = len(cells)
    lo_p = np.pad(lo_p, (0, 1), constant_values=np.inf)
    hi_p = np.pad(hi_p, (0, 1), constant_values=-np.inf)
    labels = ids_tr // p.centers.shape[0]
    worst, count = 0.0, 0
    for start, L in _loss_blocks(m, ds.X, labels):
        row_pos = pos[start : start + len(L)]
        lo = lo_p[row_pos][:, pos]
        hi = hi_p[row_pos][:, pos]
        dev = np.maximum(L - lo, hi - L)
        worst = max(worst, float(dev.max()))
        count += int((dev <= epsilon + 1e-12).sum())
    return EpsilonEstimate(worst, excluded), count


def empirical_epsilon(
    m: MetricModel,
    p: Partition,
    ds: Dataset,
    probe: Dataset,
) -> EpsilonEstimate:
    """Max loss deviation between training pairs and cell-matched probe pairs.

    Exhaustive over all n^2 training pairs and all matched probe pairs;
    probe points outside the cover are excluded and counted.
    """
    return cell_stats(m, p, ds, probe, 0.0)[0]


def pseudo_robust_count(
    m: MetricModel,
    p: Partition,
    ds: Dataset,
    probe: Dataset,
    epsilon: float,
) -> int:
    """Number of training pairs whose every cell-matched probe pair deviates
    by at most epsilon (vacuously robust pairs count)."""
    return cell_stats(m, p, ds, probe, epsilon)[1]


def _triplet_cell_extrema(m: MetricModel, p: Partition, X: np.ndarray, ids: np.ndarray) -> dict:
    """Min and max of the triplet hinge over each cell triple, without
    enumerating the triplets.

    Returns {anchor cell: (same-label cells, other-label cells, lo, hi)}
    with lo/hi indexed [same, other] over the occupied cells.  For one
    anchor i, the hinge max(0, fl(1 - F_ik) + F_ij) is monotone in F_ij and
    in fl(1 - F_ik), and fl(1 - x) is monotone in x, so its minimum over
    j in cell b and k in cell c is the hinge of fl(1 - max_c F_ik) and
    min_b F_ij (likewise for the maximum), bit for bit.
    """
    F = metric_matrix(m, X)
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    F = F[np.ix_(order, order)]
    cells, starts = np.unique(ids, return_index=True)
    fmin = np.minimum.reduceat(F, starts, axis=1)
    fmax = np.maximum.reduceat(F, starts, axis=1)
    labels = cells // p.centers.shape[0]
    out = {}
    for a, rows in enumerate(np.split(np.arange(len(ids)), starts[1:])):
        same, other = labels == labels[a], labels != labels[a]
        if not other.any():
            continue
        lo = (1.0 - fmax[rows][:, None, other]) + fmin[rows][:, same, None]
        hi = (1.0 - fmin[rows][:, None, other]) + fmax[rows][:, same, None]
        out[cells[a]] = (
            cells[same],
            cells[other],
            np.maximum(0.0, lo).min(axis=0),
            np.maximum(0.0, hi).max(axis=0),
        )
    return out


def empirical_epsilon_triplet(
    m: MetricModel,
    p: Partition,
    ds: Dataset,
    probe: Dataset,
) -> EpsilonEstimate:
    """Triplet analogue of empirical_epsilon over the admissible training
    triplets and cell-matched admissible probe triplets.

    The triplets come from the labels; each side reduces to per-cell-triple
    extrema, so time is O(n^2 + n C^2) for C occupied cells, not O(n^3).
    """
    ids_tr = assign_cells(p, ds.X, ds.y)
    if (ids_tr < 0).any():
        raise ValueError("training points outside the cover")
    ids_pr = assign_cells(p, probe.X, probe.y)
    keep = ids_pr >= 0
    excluded = int((~keep).sum())
    if not keep.any():
        return EpsilonEstimate(0.0, excluded)
    tr = _triplet_cell_extrema(m, p, ds.X, ids_tr)
    pr = _triplet_cell_extrema(m, p, probe.X[keep], ids_pr[keep])
    dev = 0.0
    for a, (same_t, other_t, lo_t, hi_t) in tr.items():
        if a not in pr:
            continue
        same_p, other_p, lo_p, hi_p = pr[a]
        _, bt, bp = np.intersect1d(same_t, same_p, return_indices=True)
        _, ct, cp = np.intersect1d(other_t, other_p, return_indices=True)
        if len(bt) and len(ct):
            t, q = np.ix_(bt, ct), np.ix_(bp, cp)
            dev = max(dev, float((hi_t[t] - lo_p[q]).max()), float((hi_p[q] - lo_t[t]).max()))
    return EpsilonEstimate(float(max(dev, 0.0)), excluded)


# ---------------------------------------------------------------------------
# Bretagnolle-Huber-Carol simulation

_BHC_CHUNK = 4096  # trials drawn at a time; bounds memory at _BHC_CHUNK * K counts


@dataclass(frozen=True)
class BhcResult:
    empirical_tail: float
    cap: float
    std_error: float
    violated: bool


def bhc_simulate(
    K: int,
    mu,
    n: int,
    lam: float,
    trials: int = 100_000,
    seed: int = 0,
) -> BhcResult:
    """Monte-Carlo tail of sum_i |N_i/n - mu_i| against the 2^K exp(-n lam^2/2)
    cap; flags a violation beyond 3 Monte-Carlo standard errors."""
    mu = np.asarray(mu, dtype=float)
    if len(mu) != K:
        raise ValueError("mu must have length K")
    if (mu < 0).any() or abs(mu.sum() - 1.0) > 1e-12:
        raise ValueError("mu must be a probability vector summing to 1")
    if lam <= 0:
        raise ValueError("lambda must be positive")
    rng = np.random.default_rng(seed)
    # successive draws from one generator continue its stream, so chunks
    # give the rows a single trials x K draw would
    hits = 0
    for start in range(0, trials, _BHC_CHUNK):
        counts = rng.multinomial(n, mu, size=min(_BHC_CHUNK, trials - start))
        stat = np.abs(counts / n - mu[None, :]).sum(axis=1)
        hits += int((stat >= lam).sum())
    tail = hits / trials
    cap = float(2.0**K * math.exp(-n * lam * lam / 2.0))
    se = math.sqrt(max(tail * (1.0 - tail), 1.0 / trials) / trials)
    return BhcResult(tail, cap, se, tail > cap + 3.0 * se)


# ---------------------------------------------------------------------------
# report


@dataclass
class BoundReport:
    family: str
    U: float
    R: float
    gamma: float
    g0: float
    c: float
    K_theoretical: int
    K_empirical: int
    B: float
    epsilon_theoretical: float
    epsilon_empirical: float
    bound_pair: float
    empirical_gap: float
    holds: bool
    excluded_probes: int
    seed: int
    bound_pseudo: float | None = None
    bound_triplet: float | None = None
    extra: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {
            "family": self.family,
            "U": self.U,
            "R": self.R,
            "gamma": self.gamma,
            "g0": self.g0,
            "c": self.c,
            "K_theoretical": self.K_theoretical,
            "K_empirical": self.K_empirical,
            "B": self.B,
            "epsilon_theoretical": self.epsilon_theoretical,
            "epsilon_empirical": self.epsilon_empirical,
            "bound_pair": self.bound_pair,
            "empirical_gap": self.empirical_gap,
            "holds": self.holds,
            "excluded_probes": self.excluded_probes,
            "seed": self.seed,
        }
        if self.bound_pseudo is not None:
            out["bound_pseudo"] = self.bound_pseudo
        if self.bound_triplet is not None:
            out["bound_triplet"] = self.bound_triplet
        out.update(self.extra)
        return out
