"""Domain types, the model-family table, pair/triplet enumeration and the losses.

The learned metric is either a d x d matrix (Mahalanobis distance or bilinear
similarity) or an n x n coefficient matrix over kernel coordinates.  The loss
is the hinge g(t) = max(0, 1 - t), with Lipschitz constant U = 1, over pairs
or triplets.  Each is one Loss record, PAIR_LOSS or TRIPLET_LOSS, held by its
families: its bound's name and order, its zero-matrix loss g0, its evaluator
(pair_eval or triplet_eval, shared by the solver and the empirical loss) and
its Monte-Carlo true loss.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

ATOL = 1e-8

# Wherever an all-pairs array is evaluated in pieces (cover distances,
# certification losses, k-NN, the training evaluators), a tile of m float64
# columns holds tile_rows(m) rows: as many as fit in TILE_BYTES (2 MiB, one
# core's L2 cache on common hosts), at most BLOCK_ROWS and at least 16.  So
# memory grows linearly in the sample size, not with its square, and every
# array of at most 1024 columns keeps BLOCK_ROWS rows.  Below 16 rows the
# per-tile reductions over all m columns (bounds._run_extrema) cost more
# than the smaller tile saves.  Both constants are read at call time, so
# tests can shrink them to force many tiles.
BLOCK_ROWS = 256
TILE_BYTES = 1 << 21


def tile_rows(cols: int) -> int:
    """Rows per tile of an all-pairs array with `cols` float64 columns."""
    return min(BLOCK_ROWS, max(16, TILE_BYTES // (8 * max(cols, 1))))


@dataclass
class Dataset:
    """An ordered sample of labeled points inside the radius-R ball."""

    X: np.ndarray            # (n, d) float64
    y: list                  # n labels from a finite set
    R: float
    labels: tuple = ()       # sorted label set; derived when empty

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        if self.X.ndim != 2:
            raise ValueError("X must be a 2-D array of shape (n, d)")
        if len(self.y) != self.X.shape[0]:
            raise ValueError("label count does not match point count")
        if self.X.shape[0] < 1:
            raise ValueError("dataset must contain at least one example")
        if not self.labels:
            self.labels = tuple(sorted(set(self.y), key=str))
        missing = set(self.y) - set(self.labels)
        if missing:
            raise ValueError(f"labels {missing} outside the declared label set")
        norms = np.linalg.norm(self.X, axis=1)
        # the max is NaN or inf when any coordinate is; a NaN would pass the
        # radius check below, since nan > R is False
        if not np.isfinite(norms.max()):
            raise ValueError("X has non-finite entries (NaN or inf)")
        if not np.isfinite(self.R):
            raise ValueError(f"radius R={self.R} is not finite")
        if norms.max() > self.R + ATOL:
            raise ValueError(
                f"point norm {norms.max():.6g} exceeds declared radius R={self.R}"
            )

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def __len__(self) -> int:
        return self.n

    def label_indices(self) -> np.ndarray:
        lookup = {lab: k for k, lab in enumerate(self.labels)}
        return np.array([lookup[lab] for lab in self.y], dtype=int)


def sorted_runs(ids: np.ndarray):
    """The stable sort order of `ids`, and per distinct id (ascending) the id,
    the first position of its run in that order and the run's length."""
    order = np.argsort(ids, kind="stable")
    values, starts, sizes = np.unique(ids[order], return_index=True, return_counts=True)
    return order, values, starts, sizes


def run_tiles(starts: np.ndarray, n: int) -> list:
    """The row tiles (s, e, a0, a1) of n points sorted into runs that begin
    at `starts` (sorted_runs): rows s..e-1, tile_rows(n) at most, of the one
    run [a0, a1) that holds them.  Every row falls in exactly one tile."""
    ends = starts[1:].tolist() + [n]
    rows = tile_rows(n)
    return [
        (s, min(s + rows, a1), a0, a1)
        for a0, a1 in zip(starts.tolist(), ends)
        for s in range(a0, a1, rows)
    ]


@dataclass(frozen=True)
class KernelSpec:
    kind: str = "rbf"        # "linear" or "rbf"
    sigma: float = 1.0

    def __post_init__(self):
        if self.kind not in ("linear", "rbf"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "rbf" and not 0.0 < self.sigma < math.inf:
            raise ValueError(f"rbf bandwidth sigma must be positive and finite, not {self.sigma!r}")


@dataclass
class MetricModel:
    """A learned metric.

    kind "mahalanobis": f(x, x') = (x - x')^T M (x - x'), M symmetric PSD.
    kind "bilinear":    f(x, x') = x^T M x', no PSD constraint.
    kind "kernelized":  f(x, x') = (k(x) - k(x'))^T M (k(x) - k(x')) where
    k(x) is the kernel vector against the anchor points and M is PSD.

    A kernelized model's `support` is derived once, here: the indices of
    the anchors whose row or column of M is not all zero.  Its kernel
    vectors, its checks and its norm need only those anchors and the
    block of M on them (kernel_form), so a model supported on landmarks
    (solver.solve_kernel) costs O(n * landmarks) to evaluate, not O(n^2).
    """

    kind: str
    M: np.ndarray
    kernel: KernelSpec | None = None
    anchors: "Dataset | None" = None
    regularizer: str = "fro"
    info: dict = field(default_factory=dict)
    support: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("mahalanobis", "bilinear", "kernelized"):
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if self.kind == "kernelized" and (self.kernel is None or self.anchors is None):
            raise ValueError("kernelized model needs a kernel and anchors")
        self.M = np.asarray(self.M, dtype=float)
        if self.M.ndim != 2 or self.M.shape[0] != self.M.shape[1]:
            raise ValueError("M must be square")
        M = self.M
        if self.kind == "kernelized":
            if len(M) != self.anchors.n:
                raise ValueError(f"M must be {self.anchors.n} x {self.anchors.n}, one row per anchor")
            self.support = np.flatnonzero(M.any(axis=1) | M.any(axis=0))
            # M is exactly 0 off the block, so the checks decide on it alone
            M = self.kernel_form()[1]
        if self.kind != "bilinear":
            if not np.allclose(M, M.T, atol=1e-7):
                raise ValueError("M must be symmetric")
            w = np.linalg.eigvalsh((M + M.T) / 2.0)
            # a rounding margin relative to max|w|: solver models reach
            # -5e-16 of it, and a same-label f >= -1e-12 max|w| ||x - x'||^2
            # stays at rounding level (README, "Memory")
            if len(w) and w.min() < -1e-12 * np.abs(w).max():
                raise ValueError(f"M has negative eigenvalue {w.min():.3g}")

    def kernel_form(self) -> tuple[np.ndarray, np.ndarray]:
        """A kernelized model's anchor rows and the block of M on its
        support: the anchors' X and M itself when it holds every anchor."""
        S = self.support
        if len(S) == len(self.M):
            return self.anchors.X, self.M
        return self.anchors.X[S], self.M[np.ix_(S, S)]

    @property
    def d(self) -> int:
        if self.kind == "kernelized":
            return self.anchors.d
        return self.M.shape[0]


# the hinge g(t) = max(0, 1 - t): Lipschitz constant U
HINGE_U = 1.0


def hinge(t):
    return np.maximum(0.0, 1.0 - np.asarray(t, dtype=float))


def rbf_fH(gamma: float, sigma: float) -> float:
    """sup of k(a,a) + k(b,b) - 2k(a,b) over ||a - b|| <= gamma for the rbf
    kernel; monotone in the distance, so the sup is at distance gamma."""
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, not {sigma!r}")
    if not 0.0 <= gamma < math.inf:
        raise ValueError(f"gamma must be nonnegative and finite, not {gamma!r}")
    try:
        t = gamma**2 / (2.0 * sigma**2)
    except (OverflowError, ZeroDivisionError):
        # a square beyond the float range, or sigma^2 rounded to 0: t from
        # the ratio gamma/sigma, and a t that overflows saturates f_H at 2
        r = gamma / sigma
        t = r * r / 2.0
    return 2.0 * (1.0 - math.exp(-t))


@dataclass(frozen=True)
class Family:
    """One model family: the model it fits and its certificate constants,
    a loss-deviation bound times the capacity g0/c.

    epsilon = eps_coef * radius * scale * U g0/c and
    B = g0 + f_coef * radius^2 * g0/c, with g0 the loss's.  Data only:
    harness.train_family fits the model from kind, reg and loss.
    """

    kind: str          # MetricModel kind
    reg: str           # regularizer
    loss: Loss         # PAIR_LOSS or TRIPLET_LOSS
    eps_coef: float
    f_coef: float

    @property
    def g0(self) -> float:
        return self.loss.g0

    def radius(self, R: float) -> float:
        """Radius of the feature space: R, or 1 for the rbf kernel, whose
        features have norm sqrt(k(x, x)) = 1."""
        if not 0.0 < R < math.inf:
            raise ValueError(f"radius R must be positive and finite, not {R!r}")
        return 1.0 if self.kind == "kernelized" else R

    def loss_bound(self, R: float, c: float) -> float:
        """Uniform loss bound B from the capacity inequality ||M*|| <= g0/c."""
        if not 0.0 < c < math.inf:
            raise ValueError(f"regularization weight c must be positive and finite, not {c!r}")
        r = self.radius(R)
        return self.g0 + self.f_coef * r * r * self.g0 / c

    def epsilon(self, R: float, gamma: float, c: float, sigma: float = 0.0) -> float:
        """Certified loss-deviation constant at cell diameter gamma; a
        kernel-rbf cell has feature-space diameter sqrt(rbf_fH(gamma, sigma))."""
        if not 0.0 < c < math.inf:
            raise ValueError(f"regularization weight c must be positive and finite, not {c!r}")
        if not 0.0 <= gamma < math.inf:
            raise ValueError(f"gamma must be nonnegative and finite, not {gamma!r}")
        scale = math.sqrt(rbf_fH(gamma, sigma)) if self.kind == "kernelized" else gamma
        return self.eps_coef * self.radius(R) * scale * (HINGE_U * self.g0 / c)


# ---------------------------------------------------------------------------
# pair / triplet enumeration: oracles for the tests; the solvers and the
# certificates work on row blocks of all-pairs arrays and never build these
# lists


def build_pairs(ds: Dataset) -> list:
    """All n^2 ordered index pairs, self-pairs included, row-major order."""
    n = ds.n
    return [(i, j) for i in range(n) for j in range(n)]


def build_triplets(ds: Dataset) -> list:
    """All admissible (i, j, k): y_i == y_j, y_i != y_k, lexicographic order.

    i == j is allowed; the triplet loss is well defined for it.
    """
    n = ds.n
    y = ds.y
    out = []
    for i in range(n):
        for j in range(n):
            if y[i] != y[j]:
                continue
            for k in range(n):
                if y[i] != y[k]:
                    out.append((i, j, k))
    return out


# ---------------------------------------------------------------------------
# metric evaluation


def _equal_rows(X1: np.ndarray, X2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs (i, j) with X1[i] == X2[j] in every coordinate,
    found by hashing the rows of X2: a row's hash is a wrapping integer sum
    of its coordinates' bit patterns (of x + 0.0, which maps -0.0 to 0.0)
    times odd constants, and only rows of equal hash are compared."""
    weights = np.arange(1, 2 * X1.shape[1], 2, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    h1, h2 = (
        (np.ascontiguousarray(X + 0.0).view(np.uint64) * weights).sum(axis=1, dtype=np.uint64)
        for X in (X1, X2)
    )
    order = np.argsort(h2, kind="stable")
    lo = np.searchsorted(h2[order], h1, side="left")
    counts = np.searchsorted(h2[order], h1, side="right") - lo
    i = np.repeat(np.arange(len(X1)), counts)
    # the k-th row of X2 with row i's hash sits at lo[i] + k in that order
    j = order[np.arange(len(i)) + np.repeat(lo + counts - np.cumsum(counts), counts)]
    same = (X1[i] == X2[j]).all(axis=1)
    return i[same], j[same]


def kernel_gram(ks: KernelSpec, X1: np.ndarray, X2: np.ndarray | None = None) -> np.ndarray:
    """Gram matrix k(x1_i, x2_j); X2 defaults to X1.  The rbf k(x, x') is
    exactly 1 at any sigma for equal x and x': on the diagonal when X2 is
    X1, and for every pair of equal rows (_equal_rows) when X2 is given."""
    X1 = np.atleast_2d(np.asarray(X1, dtype=float))
    square = X2 is None
    X2 = X1 if square else np.atleast_2d(np.asarray(X2, dtype=float))
    if ks.kind == "linear":
        return X1 @ X2.T
    eye = np.eye(X1.shape[1])
    sq = sq_dists(X1, eye, X2, quad_rows(X2, eye, X2))
    # a self-distance is 0, not the expansion's rounding residue
    if square:
        np.fill_diagonal(sq, 0.0)
    else:
        sq[_equal_rows(X1, X2)] = 0.0
    np.maximum(sq, 0.0, out=sq)
    try:
        s2 = ks.sigma**2
    except OverflowError:
        s2 = math.inf
    # a quotient beyond the float range is -inf, whose exp is the limit 0
    with np.errstate(over="ignore"):
        if 0.0 < s2 < math.inf:
            sq /= -2.0 * s2
        else:
            # sigma^2 beyond the float range or rounded to 0: divide by
            # sigma twice, so the Gram tends to all ones, or its entries
            # off a zero distance to 0
            sq /= -2.0 * ks.sigma
            sq /= ks.sigma
    return np.exp(sq, out=sq)


def features(m: MetricModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Feature rows and form matrix (F, Q) of a model, with f(x, x') =
    (phi(x) - phi(x'))^T Q (phi(x) - phi(x')), or phi(x)^T Q phi(x') for a
    bilinear model: the rows of X for mahalanobis and bilinear models and
    their kernel vectors k(anchor_i, x) against the anchors of the model's
    support for kernelized ones, with M on that support (kernel_form)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if m.kind == "kernelized":
        anchors, M = m.kernel_form()
        return kernel_gram(m.kernel, X, anchors), M
    return X, m.M


def metric_rowwise(m: MetricModel, X1: np.ndarray, X2: np.ndarray) -> np.ndarray:
    """f(x1_i, x2_i) of matched rows in the unexpanded form, not all pairs."""
    (F1, Q), (F2, _) = features(m, X1), features(m, X2)
    if m.kind == "bilinear":
        return quad_rows(F1, Q, F2)
    D = F1 - F2
    return quad_rows(D, Q, D)


def metric_eval(m: MetricModel, x1: np.ndarray, x2: np.ndarray) -> float:
    """f(x1, x2) of one pair of points, in the unexpanded form."""
    x1 = np.asarray(x1, dtype=float).ravel()
    x2 = np.asarray(x2, dtype=float).ravel()
    if x1.shape != x2.shape:
        raise ValueError("input vectors have mismatched dimensions")
    if x1.shape[0] != m.d:
        raise ValueError(f"expected dimension {m.d}, got {x1.shape[0]}")
    return float(metric_rowwise(m, x1, x2)[0])


def quad_rows(A: np.ndarray, Q: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The row-wise quadratic forms a_i^T Q b_i, through one matrix product
    (a three-operand einsum runs as an unoptimised loop)."""
    return ((A @ Q) * B).sum(axis=1)


# Values per chunk of the q1_i + q2_j sums in sq_dists: 2^16 float64
# (512 KB), so a chunk is added into its block while it is still in cache.
_SUM_CHUNK = 1 << 16


def _sum_buffer(cols: int) -> np.ndarray:
    """A scratch chunk of whole rows of `cols` values for sq_dists."""
    return np.empty((max(1, _SUM_CHUNK // max(cols, 1)), cols))


def sq_dists(
    F1: np.ndarray, Q: np.ndarray, F2: np.ndarray, q2: np.ndarray, out=None, work=None
) -> np.ndarray:
    """All-pairs (f1_i - f2_j)^T Q (f1_i - f2_j) for symmetric Q, expanded
    as (q1_i + q2_j) - 2 f1_i^T Q f2_j; q2 = quad_rows(F2, Q, F2) is passed in
    so a column side used by many row blocks is computed once.

    The cross term goes into `out` (a len(F1) x len(F2) array) when it is
    given, and the sums q1_i + q2_j are formed a chunk of rows at a time
    in `work` (a _sum_buffer) and added to it, so a sweep reuses both for
    every block.  Scaling by -2 is exact, so (-2 F1 Q) F2^T is
    -2 (F1 Q F2^T) bit for bit, and IEEE addition is commutative, so the
    value is (q1_i + q2_j) - 2 f1_i^T Q f2_j bit for bit."""
    F1Q = F1 @ Q
    q1 = (F1Q * F1).sum(axis=1)
    F1Q *= -2.0
    f = np.matmul(F1Q, F2.T, out=out)
    work = _sum_buffer(len(F2)) if work is None else work
    for s in range(0, len(f), len(work)):
        q1_rows = q1[s : s + len(work), None]
        f[s : s + len(q1_rows)] += np.add(q1_rows, q2[None, :], out=work[: len(q1_rows)])
    return f


def metric_blocks(m: MetricModel, X1: np.ndarray, X2: np.ndarray | None = None):
    """All-pairs metric values f(x1_i, x2_j) in row blocks: yields (start,
    f of the rows X1[start:start + tile_rows(len(X2))] against all of X2);
    X2 defaults to X1.  The column side is computed once, and every block
    is written into the same buffers (one block and one _sum_buffer),
    allocated once per sweep, so memory is O(tile_rows(len(X2)) * len(X2)).

    Aliasing: a yielded block is a view of those buffers, and the next
    block overwrites it.  A caller must be done with it, and with any view
    of it, inside the loop body; it must not keep a block or list() them.
    """
    X1 = np.atleast_2d(np.asarray(X1, dtype=float))
    F2, Q = features(m, X1 if X2 is None else X2)
    q2 = None if m.kind == "bilinear" else quad_rows(F2, Q, F2)
    block = tile_rows(len(F2))
    f = np.empty((min(block, len(X1)), len(F2)))
    work = None if q2 is None else _sum_buffer(len(F2))
    for start in range(0, len(X1), block):
        rows = min(block, len(X1) - start)
        F1 = features(m, X1[start : start + rows])[0]
        if q2 is None:
            yield start, np.matmul(F1 @ Q, F2.T, out=f[:rows])
        else:
            yield start, sq_dists(F1, Q, F2, q2, f[:rows], work)


def metric_matrix(m: MetricModel, X1: np.ndarray, X2: np.ndarray | None = None) -> np.ndarray:
    """All-pairs metric values f(x1_i, x2_j); X2 defaults to X1.  Assembled
    from metric_blocks, so it equals every blocked sweep bit for bit: the
    rounding of a BLAS product can depend on how many rows it has."""
    X1 = np.atleast_2d(np.asarray(X1, dtype=float))
    X2 = X1 if X2 is None else np.atleast_2d(np.asarray(X2, dtype=float))
    out = np.empty((len(X1), len(X2)))
    for start, F in metric_blocks(m, X1, X2):
        out[start : start + len(F)] = F
    return out


# ---------------------------------------------------------------------------
# losses


def pair_hinge(F: np.ndarray, same: np.ndarray, out=None) -> np.ndarray:
    """Pair losses hinge(y (1 - f)) of f values F, with y = +1 where the
    boolean mask `same` (of F's shape) is set and -1 elsewhere; written
    into `out` when it is given (F itself is allowed).  Negating is exact,
    so this is hinge(y * (1 - f)) bit for bit."""
    t = np.subtract(1.0, F, out=out)
    np.negative(t, out=t, where=~same)
    np.subtract(1.0, t, out=t)
    return np.maximum(0.0, t, out=t)


def triplet_hinge(F: np.ndarray, a0: int, a1: int) -> tuple:
    """Triplet hinge of a block of anchors of one label over every admissible
    (i, j, k), without enumerating them.

    The rows of F hold the anchors' f against all n points sorted by label
    (sorted_runs), and [a0, a1) is the anchors' own label run, so the
    same-label columns are one slice.  For an anchor i, let
    A_k = fl(1 - F_ik) over the other-label k and B_j = F_ij over the
    same-label j (j = i included).  Triplet (i, j, k) is active when
    A_k + B_j rounds above 0, which holds exactly when A_k > -B_j.  One
    stable sort of the row [A, -B] (ties keep A first, so equality counts
    as inactive) gives the integer counts Wp[i, j] = #active k and
    Wn[i, k] = #active j; they equal the enumeration exactly.  Returns
    (total, W, nt): the hinge sum sum Wn * (1 - F) + sum Wp * F over the
    block's nt admissible triplets, and W = Wp - Wn in the columns of F
    (Wp on [a0, a1), -Wn elsewhere).  Memory is O(len(F) * n).
    """
    rows, n = F.shape
    other = n - (a1 - a0)
    if other == 0:
        raise ValueError("empty triplet set (fewer than two labels?)")
    V = np.empty(F.shape)
    np.subtract(1.0, F[:, :a0], out=V[:, :a0])
    np.subtract(1.0, F[:, a1:], out=V[:, a0:other])
    np.negative(F[:, a0:a1], out=V[:, other:])
    order = np.argsort(V, axis=1, kind="stable")
    is_b = order >= other
    # at a sorted A entry, the -B values before it (active j, entered as
    # -Wn); at a -B value, the A entries after it (active k, Wp)
    b_upto = np.cumsum(is_b, axis=1)
    sorted_counts = np.where(is_b, b_upto - np.arange(1 - other, n + 1 - other), -b_upto)
    C = np.empty(F.shape)
    C[np.arange(rows)[:, None], order] = sorted_counts
    # C * V is -Wn * A on the A columns and Wp * -B on the B columns
    total = -float(C.ravel() @ V.ravel())
    W = np.concatenate([C[:, :a0], C[:, other:], C[:, a0:other]], axis=1)
    return total, W, rows * (a1 - a0) * other


@dataclass(frozen=True)
class Evaluation:
    """A mean hinge loss evaluated at M, as pair_eval and triplet_eval return it.

    `loss` is the mean over `terms` pairs (n^2) or admissible triplets and
    `grad` a subgradient of it at M.  `same` and `other` count the active
    terms on same-label and on other-label pairs; an active triplet counts
    as `other`.  `slope` is the G of the loss's linear minorant at M: with
    v = g0 * other / terms (g0 the hinge's constant part, 2 for a pair and
    1 for a triplet), loss(M') >= v + <M', G> on the model's domain (the PSD
    cone, or every matrix for a bilinear model), with equality at M.  It is
    `grad` except for the distance pairs at M = 0, where it adds the
    same-label term S/n^2 that the subgradient leaves out at its kink.
    """

    loss: float
    grad: np.ndarray
    same: int
    other: int
    terms: int
    slope: np.ndarray

    @property
    def active(self) -> float:
        """The active share of the terms."""
        return (self.same + self.other) / self.terms


def _laplacian(X: np.ndarray, deg: np.ndarray, P: np.ndarray) -> np.ndarray:
    # sum_ij W_ij (x_i - x_j)(x_i - x_j)^T = X^T (diag(deg) - W - W^T) X for
    # pair weights W, from the degrees deg = row plus column sums of W and
    # P = X^T W X, so W itself is never held whole
    return X.T @ (deg[:, None] * X) - P - P.T


def _bilinear_eval(X: np.ndarray, labels: np.ndarray):
    """eval_fn(M) for the bilinear similarity f = x_i^T M x_j: the mean hinge
    over all n^2 ordered pairs, max(0, f) for a same-label pair and
    max(0, 2 - f) for the others.

    Off the PSD cone f can be negative, so every pair is evaluated.  Each
    tile of run_tiles holds the rows s..e-1 of one label run [a0, a1)
    against all n label-sorted columns, with h = f on the same-label
    columns [a0, a1) and h = 2 - f on the others; a pair is active where
    h > 0, the kink itself taking the 0-side subgradient.  The subgradient
    sum_ij y_ij [h_ij > 0] x_i x_j^T gets X_s^T (2 w_same X_same - w X) from
    a tile with active mask w.  The tile buffers are allocated here, once
    per evaluator, so the evaluator holds O(tile_rows(n) * n) memory, not
    n x n; its sums run in another order than a full n x n evaluation, so
    it agrees with one to rounding.
    """
    n, d = X.shape
    order, _, starts, _ = sorted_runs(labels)
    X = X[order]
    tiles = run_tiles(starts, n)
    rows = max(e - s for s, e, _, _ in tiles)
    XM, H, W = np.empty((n, d)), np.empty((rows, n)), np.empty((rows, n))

    def eval_fn(M):
        np.matmul(X, M, out=XM)
        grad = np.zeros((d, d))
        hinge, same, count = 0.0, 0.0, 0.0
        for s, e, a0, a1 in tiles:
            h, w = H[: e - s], W[: e - s]
            np.matmul(XM[s:e], X.T, out=h)
            np.subtract(2.0, h[:, :a0], out=h[:, :a0])
            np.subtract(2.0, h[:, a1:], out=h[:, a1:])
            np.greater(h, 0.0, out=w)
            hinge += float(h.ravel() @ w.ravel())
            same += w[:, a0:a1].sum()
            count += w.sum()
            grad += X[s:e].T @ (2.0 * (w[:, a0:a1] @ X[a0:a1]) - w @ X)
        grad /= n * n
        return Evaluation(hinge / (n * n), grad, int(same), int(count - same), n * n, grad)

    return eval_fn


def pair_eval(X: np.ndarray, labels: np.ndarray, kind: str):
    """eval_fn(M) -> Evaluation of the mean hinge
    over all n^2 ordered pairs, for f = (x_i - x_j)^T M (x_i - x_j) with M
    on the PSD cone (or f = x_i^T M x_j for kind "bilinear").

    On the PSD cone f >= 0, so a same-label pair's hinge max(0, f) is f
    itself, and the same-label sum is linear in M:
    sum_same f_ij = <M, S>, S = 2 sum_a (n_a X_a^T X_a - s_a s_a^T) with s_a
    the sum of the n_a rows X_a of label a.  S is built once, as
    2 sum_a n_a Xc_a^T Xc_a over the class-centred rows Xc_a, which does not
    cancel.  An iterate's same-label loss is <M, S> and its subgradient S.
    At M = 0 both are 0 and no same-label pair is active, as the kink takes
    the 0-side subgradient; at M != 0 every same-label pair of two different
    indices counts as active, also one whose difference lies in null(M).

    Only the other-label pairs are evaluated, each once, in the label-run
    tiles of run_tiles: rows of one label run against the columns from
    the next label's first point on, so every pair of a tile has
    label_j > label_i and stands for its two ordered pairs.  The tile
    buffers are allocated here, once per evaluator, so the evaluator holds
    O(tile_rows(n) * n) memory, not n x n.  The sum of the hinges runs in
    another order than a full n x n evaluation, so it agrees with one to
    rounding.
    """
    if kind == "bilinear":
        return _bilinear_eval(X, labels)
    n, d = X.shape
    order, _, starts, counts = sorted_runs(labels)
    X = X[order]
    Xc = X - np.repeat(np.add.reduceat(X, starts) / counts[:, None], counts, axis=0)
    S = 2.0 * Xc.T @ (np.repeat(counts, counts)[:, None] * Xc)
    same_pairs = int((counts * (counts - 1)).sum())
    # the tiles of every run but the last, against the later labels' columns
    tiles = [(s, e, a1) for s, e, _, a1 in run_tiles(starts, n) if a1 < n]
    size = max([(e - s) * (n - c0) for s, e, c0 in tiles], default=0)
    H, W = np.empty(size), np.empty(size)

    def eval_fn(M):
        XM2 = X @ (2.0 * M)
        q = quad_rows(X, M, X)
        deg, P = np.zeros(n), np.zeros((d, d))
        hinge, count = 0.0, 0
        for s, e, c0 in tiles:
            Xr, Xcol = X[s:e], X[c0:]
            h = H[: (e - s) * (n - c0)].reshape(e - s, n - c0)
            w = W[: h.size].reshape(h.shape)
            # h = 2 - f, the other-label hinge before clamping at 0
            np.matmul(XM2[s:e], Xcol.T, out=h)
            h -= q[c0:]
            h += 2.0 - q[s:e, None]
            np.greater(h, 0.0, out=w)
            hinge += float(h.ravel() @ w.ravel())
            r = w.sum(axis=1)
            count += int(r.sum())
            deg[s:e] += r
            deg[c0:] += w.sum(axis=0)
            P += Xr.T @ (w @ Xcol)
        # sum of (x_i - x_j)(x_i - x_j)^T over the active other-label pairs
        loss, grad = 2.0 * hinge, -2.0 * _laplacian(X, deg, P)
        slope = (grad + S) / (n * n)
        if M.any():
            loss += float((M * S).sum())
            return Evaluation(loss / (n * n), slope, same_pairs, 2 * count, n * n, slope)
        return Evaluation(loss / (n * n), grad / (n * n), 0, 2 * count, n * n, slope)

    return eval_fn


def triplet_eval(X: np.ndarray, labels: np.ndarray, kind: str = "mahalanobis"):
    """eval_fn(M) -> Evaluation of the mean
    triplet hinge over every admissible triplet, from the exact sorted
    active-set counts of triplet_hinge.  The points are sorted into
    label runs once, and each tile of run_tiles passes the rows of one
    run against all n points, its f written into buffers allocated once
    per evaluator; memory is O(tile_rows(n) * n).  The triplet loss
    compares distances, so a bilinear `kind` is refused."""
    if kind == "bilinear":
        raise ValueError("the triplet loss needs a distance metric, not a bilinear model")
    n, d = X.shape
    order, _, starts, _ = sorted_runs(labels)
    X = X[order]
    tiles = run_tiles(starts, n)
    rows = max(e - s for s, e, _, _ in tiles)
    out, work = np.empty((rows, n)), _sum_buffer(n)

    def eval_fn(M):
        q = quad_rows(X, M, X)
        deg, P = np.zeros(n), np.zeros((d, d))
        total, active, nt = 0.0, 0.0, 0
        for s, e, a0, a1 in tiles:
            F = sq_dists(X[s:e], M, X, q, out[: e - s], work)
            block_total, W, block_nt = triplet_hinge(F, a0, a1)
            total, active, nt = total + block_total, active + W[:, a0:a1].sum(), nt + block_nt
            deg[s:e] += W.sum(axis=1)
            deg += W.sum(axis=0)
            P += X[s:e].T @ (W @ X)
        grad = _laplacian(X, deg, P) / nt
        return Evaluation(total / nt, grad, 0, int(active), nt, grad)

    return eval_fn


def _draws(draw, seed: int, *counts: int) -> list:
    """draw(count, s) per count, each s drawn in turn from one seeded generator."""
    rng = np.random.default_rng(seed)
    return [draw(count, int(rng.integers(2**32))) for count in counts]


def _mean_se(losses: np.ndarray) -> tuple[float, float]:
    return float(losses.mean()), float(losses.std(ddof=1) / math.sqrt(len(losses)))


def _pair_truth(m: MetricModel, draw, size: int, seed: int) -> tuple[float, float]:
    """Mean pair loss over `size` pairs of independent draws, and its SE."""
    if size < 2:
        raise ValueError("M_mc must be at least 2")
    a, b = _draws(draw, seed, size, size)
    f = metric_rowwise(m, a.X, b.X)
    same = np.fromiter(map(operator.eq, a.y, b.y), dtype=bool, count=size)
    return _mean_se(pair_hinge(f, same, out=f))


def _triplet_truth(m: MetricModel, draw, size: int, seed: int) -> tuple[float, float]:
    """Mean triplet hinge over the admissible triples (y_a = y_b != y_c)
    among `size` triples of independent draws, and its SE over them."""
    (s,) = _draws(draw, seed, 3 * size)
    (a, b, c), (ya, yb, yc) = np.split(s.X, 3), np.split(np.asarray(s.y), 3)
    admissible = (ya == yb) & (ya != yc)
    if admissible.sum() < 2:
        raise ValueError("fewer than two admissible triples; increase mc_size")
    f13 = metric_rowwise(m, a[admissible], c[admissible])
    f12 = metric_rowwise(m, a[admissible], b[admissible])
    return _mean_se(np.maximum(0.0, 1.0 - f13 + f12))


@dataclass(frozen=True)
class Loss:
    """The pair or the triplet loss.  `name` is the BoundQuery mode of its
    bound and the report field bound_<name>; `order` is its tuple size, so
    the bound is epsilon + order * B * root; `g0` is the zero matrix's
    loss.  evaluator(X, labels, kind) gives the eval_fn(M) -> Evaluation
    the solver runs, and truth(m, draw, size, seed) the Monte-Carlo loss
    and its SE on samples draw(count, seed) -> Dataset."""

    name: str
    order: int
    g0: float
    evaluator: Callable
    truth: Callable

    def empirical(self, m: MetricModel, ds: Dataset) -> float:
        """Mean loss of the model over the sample, from the evaluator."""
        F, Q = features(m, ds.X)
        return self.evaluator(F, ds.label_indices(), m.kind)(Q).loss


# g0: g(-1) = 2 on every other-label pair, 1 - 0 + 0 on every triplet
PAIR_LOSS = Loss("pair", 2, 2.0, pair_eval, _pair_truth)
TRIPLET_LOSS = Loss("triplet", 3, 1.0, triplet_eval, _triplet_truth)
PAIR_G0 = PAIR_LOSS.g0
empirical_loss = PAIR_LOSS.empirical
empirical_triplet_loss = TRIPLET_LOSS.empirical


# squared distances |f| <= 4 R^2 ||M|| (||x - x'|| <= 2R), the bilinear
# similarity |f| <= R^2 ||M||; triplet deviations add two pair deviations
FAMILIES = {
    "fro": Family("mahalanobis", "fro", PAIR_LOSS, 8.0, 4.0),
    "l1": Family("mahalanobis", "l1", PAIR_LOSS, 8.0, 4.0),
    "l21": Family("mahalanobis", "l21", PAIR_LOSS, 8.0, 4.0),
    "bilinear": Family("bilinear", "fro", PAIR_LOSS, 2.0, 1.0),
    "kernel-rbf": Family("kernelized", "fro", PAIR_LOSS, 8.0, 4.0),
    "triplet-fro": Family("mahalanobis", "fro", TRIPLET_LOSS, 16.0, 4.0),
    "triplet-l21": Family("mahalanobis", "l21", TRIPLET_LOSS, 16.0, 4.0),
}
