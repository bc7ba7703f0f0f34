"""Empirical robustness estimation and the generalization bounds (pair,
triplet and pseudo-robust variants), plus a Monte-Carlo check of the
multinomial concentration inequality.  The closed-form robustness constant
of each family is core.Family.epsilon."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .core import Dataset, MetricModel, metric_blocks, pair_loss_blocks
from .cover import Partition, assign_cells


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
        for name, value in (("epsilon", self.epsilon), ("B", self.B)):
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be nonnegative and finite, not {value!r}")
        if self.K < 1 or self.n < 1:
            raise ValueError("K and n must be positive integers")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.mode not in ("pair", "triplet", "pseudo"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "pseudo" and not 0 <= self.p_hat <= self.n**2:
            raise ValueError("p_hat must lie in [0, n^2]")


def concentration_root(K: int, n: int, delta: float) -> float:
    """The concentration term sqrt((2 K ln 2 + 2 ln(1/delta)) / n) of every family."""
    return math.sqrt((2.0 * K * math.log(2.0) + 2.0 * math.log(1.0 / delta)) / n)


def bound_value(q: BoundQuery) -> float:
    """Generalization bound on |true loss - empirical loss|."""
    root = concentration_root(q.K, q.n, q.delta)
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


def _run_extrema(L: np.ndarray, start: int, starts: np.ndarray, sizes: np.ndarray):
    """Min and max of a row block over each run of rows of one cell, per
    column cell.

    L holds the rows start, start + 1, ... of cell-sorted points against all
    of them; `starts` and `sizes` give each cell's first point and its
    number of points.  Returns the slice of cells whose runs the block
    holds, the run lengths and the (runs x cells) minima and maxima.  Each
    run reduces as one contiguous slice, then `reduceat` merges the column
    cells of the small result; min and max are exact in any order.
    """
    first = np.searchsorted(starts, start, side="right") - 1
    last = np.searchsorted(starts, start + len(L), side="left")
    a = np.maximum(starts[first:last] - start, 0)
    b = np.minimum(starts[first:last] + sizes[first:last] - start, len(L))
    lo = np.empty((last - first, L.shape[1]))
    hi = np.empty_like(lo)
    for k, (s, e) in enumerate(zip(a.tolist(), b.tolist())):
        L[s:e].min(axis=0, out=lo[k])
        L[s:e].max(axis=0, out=hi[k])
    return (
        slice(first, last),
        b - a,
        np.minimum.reduceat(lo, starts, axis=1),
        np.maximum.reduceat(hi, starts, axis=1),
    )


def _cell_runs(ids: np.ndarray):
    # the stable cell order of the points, and per occupied cell (ascending)
    # its id, its first position in that order and its number of points
    order = np.argsort(ids, kind="stable")
    cells, starts, sizes = np.unique(ids[order], return_index=True, return_counts=True)
    return order, cells, starts, sizes


def _assign(p: Partition, ds: Dataset, probe: Dataset):
    """Training cell ids, then the covered probe points, their ids and the excluded count."""
    ids_tr = assign_cells(p, ds.X, ds.y)
    if (ids_tr < 0).any():
        raise ValueError("training points outside the cover")
    ids_pr = assign_cells(p, probe.X, probe.y)
    keep = ids_pr >= 0
    return ids_tr, probe.X[keep], ids_pr[keep], int((~keep).sum())


def _probe_extrema(m: MetricModel, p: Partition, X: np.ndarray, ids: np.ndarray):
    """Per-cell-pair min and max of the probe pair loss.

    Returns the occupied cell ids (ascending) and two tables indexed by
    their positions.  Points are sorted by cell, so every cell is a run of
    rows and columns; each row block reduces through `_run_extrema`, and a
    cell whose run straddles two blocks is merged into the table.
    """
    order, cells, starts, sizes = _cell_runs(ids)
    lo = np.full((len(cells), len(cells)), np.inf)
    hi = np.full((len(cells), len(cells)), -np.inf)
    for start, L in pair_loss_blocks(m, X[order], ids[order] // p.centers.shape[0]):
        at, _, lo_run, hi_run = _run_extrema(L, start, starts, sizes)
        np.minimum(lo[at], lo_run, out=lo[at])
        np.maximum(hi[at], hi_run, out=hi[at])
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
    the largest deviation over matched pairs (0 when none match); the
    count is the number of pairs that are unmatched or deviate by at most
    `epsilon`.  Probe points outside the cover are excluded and counted;
    training points outside it are an error.

    Both sides are sorted by cell, so the pairs of one run of block rows
    and one column cell form a sub-block with one pair of probe extrema
    (lo, hi).  fl(a - c) is monotone in a, so the sub-block's largest
    deviation is max(fl(hi_run - lo), fl(hi - lo_run)) exactly, from the
    run extrema of `_run_extrema`; every pair of the sub-block is within
    `epsilon` when both terms are, and none is when fl(lo_run - lo) or
    fl(hi - hi_run) exceeds it.  Only a block with an undecided sub-block
    tests its pairs one by one, masked to those sub-blocks.  Cells the
    probe does not occupy have extrema (+inf, -inf): their pairs count and
    deviate by -inf.  The loss is evaluated in row blocks, so memory is
    O(block * n) plus the cell-pair tables of the probe.
    """
    ids_tr, X_pr, ids_pr, excluded = _assign(p, ds, probe)
    if not len(ids_pr):
        return EpsilonEstimate(0.0, excluded), ds.n**2
    cells, lo_p, hi_p = _probe_extrema(m, p, X_pr, ids_pr)
    order, cells_t, starts, sizes = _cell_runs(ids_tr)
    # each training cell's position among the probe cells; a cell the probe
    # does not occupy points at an appended row and column of empty extrema
    pos = np.searchsorted(cells, cells_t)
    pos[cells[np.minimum(pos, len(cells) - 1)] != cells_t] = len(cells)
    lo_p = np.pad(lo_p, (0, 1), constant_values=np.inf)
    hi_p = np.pad(hi_p, (0, 1), constant_values=-np.inf)
    tol = epsilon + 1e-12
    worst, count = 0.0, 0
    for start, L in pair_loss_blocks(m, ds.X[order], ids_tr[order] // p.centers.shape[0]):
        at, runs, lo_run, hi_run = _run_extrema(L, start, starts, sizes)
        cell_pairs = np.ix_(pos[at], pos)
        lo, hi = lo_p[cell_pairs], hi_p[cell_pairs]
        up, down = hi_run - lo, hi - lo_run
        worst = max(worst, float(up.max()), float(down.max()))
        good = (up <= tol) & (down <= tol)
        count += int(runs @ (good @ sizes))
        undecided = ~good & (lo_run - lo <= tol) & (hi - hi_run <= tol)
        if undecided.any():
            # the per-pair test, on the undecided sub-blocks only: the
            # others get NaN extrema, which no comparison passes
            lo = np.repeat(np.repeat(np.where(undecided, lo, np.nan), runs, axis=0), sizes, axis=1)
            hi = np.repeat(np.repeat(np.where(undecided, hi, np.nan), runs, axis=0), sizes, axis=1)
            count += int(((L - lo <= tol) & (hi - L <= tol)).sum())
    return EpsilonEstimate(worst, excluded), count


def empirical_epsilon(
    m: MetricModel,
    p: Partition,
    ds: Dataset,
    probe: Dataset,
) -> EpsilonEstimate:
    """Max loss deviation between training pairs and cell-matched probe pairs.

    Exhaustive over all n^2 training pairs and all matched probe pairs;
    probe points outside the cover are excluded and counted.  The count is
    discarded, so it is asked at epsilon = inf, where every sub-block is
    decided without a per-pair test.
    """
    return cell_stats(m, p, ds, probe, math.inf)[0]


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
    min_b F_ij (likewise for the maximum), bit for bit.  F is reduced a row
    block at a time into n x C tables, so memory is O(block * n + n * C).
    """
    order, cells, starts, _ = _cell_runs(ids)
    fmin = np.empty((len(ids), len(cells)))
    fmax = np.empty_like(fmin)
    for start, F in metric_blocks(m, X[order]):
        np.minimum.reduceat(F, starts, axis=1, out=fmin[start : start + len(F)])
        np.maximum.reduceat(F, starts, axis=1, out=fmax[start : start + len(F)])
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
    ids_tr, X_pr, ids_pr, excluded = _assign(p, ds, probe)
    if not len(ids_pr):
        return EpsilonEstimate(0.0, excluded)
    tr = _triplet_cell_extrema(m, p, ds.X, ids_tr)
    pr = _triplet_cell_extrema(m, p, X_pr, ids_pr)
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

_BHC_DRAWS = 1 << 16  # values drawn per chunk of whole trials; bhc holds O(_BHC_DRAWS + n)
# Per trial the alias sampler draws n uniforms and rng.multinomial K - 1
# binomials.  One binomial cost as much as 4 to 15 alias draws (timed at
# K = 2 ... 256, n = 2K ... 32K, uniform and skewed mu), so the alias
# sampler draws when n <= 4 (K - 1).
_BINOMIAL_COST = 4


@dataclass(frozen=True)
class BhcResult:
    empirical_tail: float
    cap: float
    std_error: float
    violated: bool


def _alias_table(mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vose's alias table of the categorical law mu: a uniform column j of
    K stays in cell j with probability prob[j] and goes to alias[j] otherwise,
    so cell i gets (prob[i] + sum over alias[j] = i of (1 - prob[j])) / K = mu_i.
    Cells of zero mass get prob 0 and are never an alias."""
    K = len(mu)
    scaled = mu * K
    prob = np.ones(K)
    alias = np.arange(K)
    small = [i for i in range(K) if scaled[i] < 1.0]
    large = [i for i in range(K) if scaled[i] >= 1.0]
    while small and large:
        s, g = small.pop(), large.pop()
        prob[s], alias[s] = scaled[s], g
        scaled[g] = (scaled[g] + scaled[s]) - 1.0
        (small if scaled[g] < 1.0 else large).append(g)
    # what is left on either list holds 1 up to rounding, and keeps prob 1
    return prob, alias


def _multinomial_chunks(rng, n: int, mu: np.ndarray, trials: int):
    """Yield the cell counts of `trials` independent multinomial(n, mu)
    draws, a (chunk, K) integer array at a time, each chunk about
    _BHC_DRAWS values.  Successive draws continue the generator's stream,
    so the counts do not depend on the chunk size."""
    K = len(mu)
    if n > _BINOMIAL_COST * (K - 1):
        t = max(1, _BHC_DRAWS // K)
        for start in range(0, trials, t):
            yield rng.multinomial(n, mu, size=min(t, trials - start))
        return
    # one point per uniform u: x = u K, column j = floor(x) (< K, since
    # u <= 1 - 2^-53), then cell j if x - j < prob[j], else alias[j]
    prob, alias = _alias_table(mu)
    t = max(1, _BHC_DRAWS // n)
    x = np.empty(t * n)
    j = np.empty(t * n, dtype=np.intp)
    p = np.empty(t * n)
    moves = np.empty(t * n, dtype=bool)
    offset = np.repeat(np.arange(t) * K, n)  # trial * K, so one bincount counts all trials
    for start in range(0, trials, t):
        rows = min(t, trials - start)
        m = rows * n
        xs, js, ps, ms = x[:m], j[:m], p[:m], moves[:m]
        rng.random(out=xs)
        np.multiply(xs, K, out=xs)
        np.copyto(js, xs, casting="unsafe")
        np.subtract(xs, js, out=xs)
        np.take(prob, js, out=ps, mode="clip")  # "clip": in range, and unbuffered
        np.greater_equal(xs, ps, out=ms)
        at = np.flatnonzero(ms)
        js[at] = alias[js[at]]
        np.add(js, offset[:m], out=js)
        yield np.bincount(js, minlength=rows * K).reshape(rows, K)


def bhc_simulate(
    K: int,
    mu,
    n: int,
    lam: float,
    trials: int = 100_000,
    seed: int = 0,
) -> BhcResult:
    """Monte-Carlo tail of sum_i |N_i/n - mu_i| against the 2^K exp(-n lam^2/2)
    cap; flags a violation beyond 3 Monte-Carlo standard errors.

    The counts N are exact multinomial(n, mu) draws: Vose's alias method
    when n <= 4 (K - 1), numpy's conditional binomials above that."""
    mu = np.asarray(mu, dtype=float)
    if len(mu) != K:
        raise ValueError("mu must have length K")
    if not np.isfinite(mu).all() or (mu < 0).any() or abs(mu.sum() - 1.0) > 1e-12:
        raise ValueError("mu must be a finite probability vector summing to 1")
    if n < 1:
        raise ValueError("n must be at least 1")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError("lambda must be finite and positive")
    rng = np.random.default_rng(seed)
    hits = 0
    for counts in _multinomial_chunks(rng, n, mu, trials):
        stat = np.abs(counts / n - mu[None, :]).sum(axis=1)
        hits += int((stat >= lam).sum())
    tail = hits / trials
    try:
        cap = math.exp(K * math.log(2.0) - n * lam * lam / 2.0)
    except OverflowError:  # 2^K exp(-n lam^2/2) beyond the float range
        cap = math.inf
    se = math.sqrt(max(tail * (1.0 - tail), 1.0 / trials) / trials)
    return BhcResult(tail, cap, se, tail > cap + 3.0 * se)


# ---------------------------------------------------------------------------
# report


@dataclass
class BoundReport:
    """Certified quantities of one model.  `empirical_gap` and `holds`
    (the gap within the certified bound) are None when no gap was measured;
    `sound` says whether epsilon_empirical <= epsilon_theoretical."""

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
    empirical_gap: float | None
    holds: bool | None
    sound: bool
    excluded_probes: int
    seed: int
    bound_pseudo: float | None = None
    bound_triplet: float | None = None
    extra: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        """The fields, less the unset optional bounds, merged with `extra`."""
        out = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "extra" and not (f.default is None and getattr(self, f.name) is None)
        }
        out.update(self.extra)
        return out
