"""Empirical robustness estimation (cell_stats for pairs,
empirical_epsilon_triplet for triplets) and the generalization bounds (pair
and triplet, which differ only in their core.Loss order, and pseudo-robust),
plus a Monte-Carlo check of the multinomial concentration inequality.  The
closed-form robustness constant of each family is core.Family.epsilon."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .core import (
    PAIR_LOSS, TRIPLET_LOSS, Dataset, MetricModel, metric_blocks, pair_hinge, sorted_runs, tile_rows
)
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
        for name, value in (("K", self.K), ("n", self.n)):
            # the bound computes in floats; compared as integers, exactly
            if value > sys.float_info.max:
                raise ValueError(f"{name} must be at most {sys.float_info.max!r}, not a "
                                 f"{value.bit_length()}-bit integer")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.mode not in ("pair", "triplet", "pseudo"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "pseudo" and not 0 <= self.p_hat <= self.n**2:
            raise ValueError("p_hat must lie in [0, n^2]")


def concentration_root(K: int, n: int, delta: float) -> float:
    """The concentration term sqrt((2 K ln 2 + 2 ln(1/delta)) / n) of every
    family; a K whose 2 K ln 2 overflows a float is refused."""
    root = math.sqrt((2.0 * K * math.log(2.0) + 2.0 * math.log(1.0 / delta)) / n)
    if not math.isfinite(root):
        raise ValueError(f"K = {K:.6g} is too large: 2 K ln 2 overflows a float")
    return root


def bound_value(q: BoundQuery) -> float:
    """Generalization bound on |true loss - empirical loss|."""
    root = concentration_root(q.K, q.n, q.delta)
    if q.mode == "pseudo":
        n2 = q.n**2
        return (q.p_hat / n2) * q.epsilon + q.B * ((n2 - q.p_hat) / n2 + 2.0 * root)
    order = PAIR_LOSS.order if q.mode == "pair" else TRIPLET_LOSS.order
    return q.epsilon + order * q.B * root


# ---------------------------------------------------------------------------
# empirical robustness


@dataclass(frozen=True)
class EpsilonEstimate:
    value: float
    excluded_probes: int


def _run_extrema(F: np.ndarray, start: int, starts: np.ndarray, sizes: np.ndarray):
    """Min and max of a row block over each run of rows of one cell, per
    column cell.

    F holds the rows start, start + 1, ... of cell-sorted points against all
    of them; `starts` and `sizes` give each cell's first point and its
    number of points.  Returns the slice of cells whose runs the block
    holds, the run lengths and the (runs x cells) minima and maxima.  Each
    run reduces as one contiguous slice, then `reduceat` merges the column
    cells of the small result; min and max are exact in any order.
    """
    first = np.searchsorted(starts, start, side="right") - 1
    last = np.searchsorted(starts, start + len(F), side="left")
    a = np.maximum(starts[first:last] - start, 0)
    b = np.minimum(starts[first:last] + sizes[first:last] - start, len(F))
    lo = np.empty((last - first, F.shape[1]))
    hi = np.empty_like(lo)
    for k, (s, e) in enumerate(zip(a.tolist(), b.tolist())):
        F[s:e].min(axis=0, out=lo[k])
        F[s:e].max(axis=0, out=hi[k])
    return (
        slice(first, last),
        b - a,
        np.minimum.reduceat(lo, starts, axis=1),
        np.maximum.reduceat(hi, starts, axis=1),
    )


def _loss_extrema(lo_f: np.ndarray, hi_f: np.ndarray, row_labels: np.ndarray, labels: np.ndarray):
    """Min and max pair loss of cell-pair tables of f extrema.

    Labels are constant within a cell, and fl(1 - f) is monotone in f, so
    the pair loss hinge(y (1 - f)) is non-decreasing in f when y = +1 and
    non-increasing when y = -1: its extrema are the losses of the f extrema,
    bit for bit.  pair_hinge's steps run in place (y = -1 is an exact negation)."""
    same = row_labels[:, None] == labels[None, :]
    out = []
    for a, b in ((lo_f, hi_f), (hi_f, lo_f)):
        t = np.where(same, a, b)
        np.subtract(1.0, t, out=t)
        np.negative(t, out=t, where=~same)
        np.subtract(1.0, t, out=t)
        out.append(np.maximum(0.0, t, out=t))
    return tuple(out)


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

    Returns the C occupied cell ids (ascending) and two (C + 1) x (C + 1)
    tables indexed by their positions, whose last row and column are the
    empty extrema (+inf, -inf) of a cell the probe does not occupy.  Points
    are sorted by cell, so every cell is a run of rows and columns; each
    row block of f reduces through `_run_extrema`, a cell whose run
    straddles two blocks is merged into the f tables, and `_loss_extrema`
    maps the finished tables to losses in place, a chunk of rows at a time,
    so no C x C temporary is made.
    """
    order, cells, starts, sizes = sorted_runs(ids)
    C = len(cells)
    lo = np.full((C + 1, C + 1), np.inf)
    hi = np.full((C + 1, C + 1), -np.inf)
    for start, F in metric_blocks(m, X[order]):
        at, _, lo_run, hi_run = _run_extrema(F, start, starts, sizes)
        np.minimum(lo[at, :C], lo_run, out=lo[at, :C])
        np.maximum(hi[at, :C], hi_run, out=hi[at, :C])
    # the last block is a view of the sweep's buffer: drop it before the
    # chunk temporaries
    F = None
    labels = p.cell_labels(cells)
    chunk = tile_rows(C)
    for s in range(0, C, chunk):
        r = slice(s, min(s + chunk, C))
        lo[r, :C], hi[r, :C] = _loss_extrema(lo[r, :C], hi[r, :C], labels[r], labels)
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
    run extrema of f (`_run_extrema`) mapped to losses (`_loss_extrema`);
    every pair of the sub-block is within `epsilon` when both terms are,
    and none is when fl(lo_run - lo) or fl(hi - hi_run) exceeds it.  Only
    a block with an undecided sub-block builds its n-column block of losses
    and tests its pairs one by one, masked to those sub-blocks.  Cells the
    probe does not occupy have extrema (+inf, -inf): their pairs count and
    deviate by -inf.  f is evaluated in row blocks, so memory is
    O(block * n) plus the cell-pair tables of the probe.
    """
    ids_tr, X_pr, ids_pr, excluded = _assign(p, ds, probe)
    if not len(ids_pr):
        return EpsilonEstimate(0.0, excluded), ds.n**2
    cells, lo_p, hi_p = _probe_extrema(m, p, X_pr, ids_pr)
    order, cells_t, starts, sizes = sorted_runs(ids_tr)
    # each training cell's position among the probe cells; a cell the probe
    # does not occupy points at the tables' last row and column
    pos = np.searchsorted(cells, cells_t)
    pos[cells[np.minimum(pos, len(cells) - 1)] != cells_t] = len(cells)
    tol = epsilon + 1e-12
    worst, count = 0.0, 0
    labels = p.cell_labels(ids_tr[order])
    cell_labels = p.cell_labels(cells_t)
    for start, F in metric_blocks(m, ds.X[order]):
        at, runs, lo_f, hi_f = _run_extrema(F, start, starts, sizes)
        lo_run, hi_run = _loss_extrema(lo_f, hi_f, cell_labels[at], cell_labels)
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
            L = pair_hinge(F, labels[start : start + len(F)], labels)
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


def _triplet_cell_extrema(m: MetricModel, X: np.ndarray, runs: tuple, cells: np.ndarray):
    """Each point's min and max of f over each of `cells`, the ascending
    ids of cells that the sample occupies.

    `runs` is sorted_runs of the sample's cell ids.  Each row block of f,
    over the points sorted by cell, reduces over the sample's own cell runs
    with `reduceat` and keeps the columns of `cells`.  Returns the two
    n x len(cells) tables, rows in the sorted order, and the first row and
    row count of each of `cells`.  Memory is O(block * n + n * len(cells)).
    """
    order, own, starts, sizes = runs
    keep = np.isin(own, cells)
    fmin = np.empty((len(order), len(cells)))
    fmax = np.empty_like(fmin)
    for start, F in metric_blocks(m, X[order]):
        fmin[start : start + len(F)] = np.minimum.reduceat(F, starts, axis=1)[:, keep]
        fmax[start : start + len(F)] = np.maximum.reduceat(F, starts, axis=1)[:, keep]
    F = None  # as in _probe_extrema
    return fmin, fmax, starts[keep], sizes[keep]


def empirical_epsilon_triplet(
    m: MetricModel,
    p: Partition,
    ds: Dataset,
    probe: Dataset,
) -> EpsilonEstimate:
    """Triplet analogue of empirical_epsilon over the admissible training
    triplets and cell-matched admissible probe triplets.

    Only a cell triple whose cells both samples occupy can match, so each
    sample reduces f to per-point extrema over those common cells
    (`_triplet_cell_extrema`), and the samples are compared one anchor cell
    at a time.  For one anchor i, the hinge max(0, fl(1 - F_ik) + F_ij) is
    monotone in F_ij and in fl(1 - F_ik), and fl(1 - x) is monotone in x,
    so its minimum over j in cell b and k in cell c is the hinge of
    fl(1 - max_c F_ik) and min_b F_ij (likewise for the maximum), bit for
    bit, without enumerating the triplets.  Time is O(n^2 + n C^2) for C
    common cells, not O(n^3); memory is O(block * n + n * C) plus one
    anchor cell's rows x same-label x other-label cells.
    """
    ids_tr, X_pr, ids_pr, excluded = _assign(p, ds, probe)
    # the runs' cell ids are unique; numpy 2.4's plain np.unique (also inside
    # intersect1d) imports numpy.ma, 0.5 MB, on its first call
    runs_tr, runs_pr = sorted_runs(ids_tr), sorted_runs(ids_pr)
    cells = np.intersect1d(runs_tr[1], runs_pr[1], assume_unique=True)
    labels = p.cell_labels(cells)
    if len(set(labels.tolist())) < 2:  # no covered probe point, or no triplet matches
        return EpsilonEstimate(0.0, excluded)
    tr = _triplet_cell_extrema(m, ds.X, runs_tr, cells)
    pr = _triplet_cell_extrema(m, X_pr, runs_pr, cells)
    dev = 0.0
    for a, label in enumerate(labels):
        same, other = labels == label, labels != label  # both nonempty
        ranges = []
        for fmin, fmax, starts, sizes in (tr, pr):
            rows = slice(starts[a], starts[a] + sizes[a])
            lo = (1.0 - fmax[rows][:, None, other]) + fmin[rows][:, same, None]
            hi = (1.0 - fmin[rows][:, None, other]) + fmax[rows][:, same, None]
            ranges.append((np.maximum(0.0, lo).min(axis=0), np.maximum(0.0, hi).max(axis=0)))
        (lo_t, hi_t), (lo_p, hi_p) = ranges
        dev = max(dev, float((hi_t - lo_p).max()), float((hi_p - lo_t).max()))
    return EpsilonEstimate(dev, excluded)


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
