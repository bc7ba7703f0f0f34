"""Domain types, the model-family table, pair/triplet enumeration and the hinge loss.

The learned metric is either a d x d matrix (Mahalanobis distance or bilinear
similarity) or an n x n coefficient matrix over kernel coordinates.  The loss
is the hinge g(t) = max(0, 1 - t) applied to y_ij * (1 - f(M, x_i, x_j)),
which gives Lipschitz constant U = 1 and zero-matrix loss g0 = 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

ATOL = 1e-8

# Rows per block wherever an all-pairs array is evaluated in pieces (cover
# distances, certification losses, k-NN): a block holds BLOCK_ROWS * m values
# for m columns, so memory grows linearly in the sample size, not with its
# square.  Read at call time, so tests can shrink it to force many blocks.
BLOCK_ROWS = 256


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
    """

    kind: str
    M: np.ndarray
    kernel: KernelSpec | None = None
    anchors: "Dataset | None" = None
    regularizer: str = "fro"
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("mahalanobis", "bilinear", "kernelized"):
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if self.kind == "kernelized" and (self.kernel is None or self.anchors is None):
            raise ValueError("kernelized model needs a kernel and anchors")
        self.M = np.asarray(self.M, dtype=float)
        if self.M.ndim != 2 or self.M.shape[0] != self.M.shape[1]:
            raise ValueError("M must be square")
        if self.kind != "bilinear":
            if not np.allclose(self.M, self.M.T, atol=1e-7):
                raise ValueError("M must be symmetric")
            w = np.linalg.eigvalsh((self.M + self.M.T) / 2.0)
            if w.min() < -ATOL:
                raise ValueError(f"M has negative eigenvalue {w.min():.3g}")

    @property
    def d(self) -> int:
        if self.kind == "kernelized":
            return self.anchors.d
        return self.M.shape[0]


# the hinge g(t) = max(0, 1 - t): Lipschitz constant U, and the loss of the
# zero matrix over pairs (g(-1) on every other-label pair) and over
# triplets (1 - 0 + 0 on every admissible triplet)
HINGE_U = 1.0
PAIR_G0 = 2.0
TRIPLET_G0 = 1.0


def hinge(t):
    return np.maximum(0.0, 1.0 - np.asarray(t, dtype=float))


def rbf_fH(gamma: float, sigma: float) -> float:
    """sup of k(a,a) + k(b,b) - 2k(a,b) over ||a - b|| <= gamma for the rbf
    kernel; monotone in the distance, so the sup is at distance gamma."""
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, not {sigma!r}")
    if not 0.0 <= gamma < math.inf:
        raise ValueError(f"gamma must be nonnegative and finite, not {gamma!r}")
    return 2.0 * (1.0 - math.exp(-(gamma**2) / (2.0 * sigma**2)))


@dataclass(frozen=True)
class Family:
    """One model family: the model it fits and its certificate constants,
    a loss-deviation bound times the capacity g0/c.

    epsilon = eps_coef * radius * scale * U g0/c and
    B = g0 + f_coef * radius^2 * g0/c.  Data only: harness.train_family
    picks the solver from these fields.
    """

    kind: str          # MetricModel kind
    reg: str           # regularizer
    triplet: bool      # triplet loss (g0 = TRIPLET_G0) instead of pair loss
    eps_coef: float
    f_coef: float

    @property
    def g0(self) -> float:
        return TRIPLET_G0 if self.triplet else PAIR_G0

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


# squared distances |f| <= 4 R^2 ||M|| (||x - x'|| <= 2R), the bilinear
# similarity |f| <= R^2 ||M||; triplet deviations add two pair deviations
FAMILIES = {
    "fro": Family("mahalanobis", "fro", False, 8.0, 4.0),
    "l1": Family("mahalanobis", "l1", False, 8.0, 4.0),
    "l21": Family("mahalanobis", "l21", False, 8.0, 4.0),
    "bilinear": Family("bilinear", "fro", False, 2.0, 1.0),
    "kernel-rbf": Family("kernelized", "fro", False, 8.0, 4.0),
    "triplet-fro": Family("mahalanobis", "fro", True, 16.0, 4.0),
    "triplet-l21": Family("mahalanobis", "l21", True, 16.0, 4.0),
}


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


def kernel_gram(ks: KernelSpec, X1: np.ndarray, X2: np.ndarray | None = None) -> np.ndarray:
    """Gram matrix k(x1_i, x2_j); X2 defaults to X1."""
    X1 = np.atleast_2d(np.asarray(X1, dtype=float))
    X2 = X1 if X2 is None else np.atleast_2d(np.asarray(X2, dtype=float))
    if ks.kind == "linear":
        return X1 @ X2.T
    eye = np.eye(X1.shape[1])
    sq = sq_dists(X1, eye, X2, quad_rows(X2, eye, X2))
    return np.exp(-np.maximum(sq, 0.0) / (2.0 * ks.sigma**2))


def features(m: MetricModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Feature rows and form matrix (F, Q) of a model, with f(x, x') =
    (phi(x) - phi(x'))^T Q (phi(x) - phi(x')), or phi(x)^T Q phi(x') for a
    bilinear model: the rows of X for mahalanobis and bilinear models and
    their kernel vectors k(anchor_i, x) for kernelized ones, with M."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if m.kind == "kernelized":
        X = kernel_gram(m.kernel, X, m.anchors.X)
    return X, m.M


def metric_eval(m: MetricModel, x1: np.ndarray, x2: np.ndarray) -> float:
    """f(x1, x2) of one pair of points, in the unexpanded form."""
    x1 = np.asarray(x1, dtype=float).ravel()
    x2 = np.asarray(x2, dtype=float).ravel()
    if x1.shape != x2.shape:
        raise ValueError("input vectors have mismatched dimensions")
    if x1.shape[0] != m.d:
        raise ValueError(f"expected dimension {m.d}, got {x1.shape[0]}")
    (f1,), Q = features(m, x1)
    (f2,), _ = features(m, x2)
    if m.kind == "bilinear":
        return float(f1 @ Q @ f2)
    diff = f1 - f2
    return float(diff @ Q @ diff)


def quad_rows(A: np.ndarray, Q: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The row-wise quadratic forms a_i^T Q b_i, through one matrix product
    (a three-operand einsum runs as an unoptimised loop)."""
    return ((A @ Q) * B).sum(axis=1)


def sq_dists(F1: np.ndarray, Q: np.ndarray, F2: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """All-pairs (f1_i - f2_j)^T Q (f1_i - f2_j) for symmetric Q, expanded
    as q1_i + q2_j - 2 f1_i^T Q f2_j; q2 = quad_rows(F2, Q, F2) is passed in
    so a column side used by many row blocks is computed once."""
    return quad_rows(F1, Q, F1)[:, None] + q2[None, :] - 2.0 * (F1 @ Q @ F2.T)


def _metric_columns(m: MetricModel, X2: np.ndarray) -> tuple:
    # the column features and, for squared-distance metrics, their
    # quadratic terms (None for bilinear)
    F2, Q = features(m, X2)
    return F2, None if m.kind == "bilinear" else quad_rows(F2, Q, F2)


def _metric_rows(m: MetricModel, X1: np.ndarray, columns: tuple) -> np.ndarray:
    F1, Q = features(m, X1)
    F2, q2 = columns
    if m.kind == "bilinear":
        return F1 @ Q @ F2.T
    return sq_dists(F1, Q, F2, q2)


def metric_matrix(m: MetricModel, X1: np.ndarray, X2: np.ndarray | None = None) -> np.ndarray:
    """All-pairs metric values f(x1_i, x2_j), vectorized; X2 defaults to X1."""
    return _metric_rows(m, X1, _metric_columns(m, X1 if X2 is None else X2))


def metric_blocks(m: MetricModel, X1: np.ndarray, X2: np.ndarray | None = None):
    """metric_matrix(m, X1, X2) in row blocks: yields (start, f of the rows
    X1[start:start + BLOCK_ROWS] against all of X2).  The column side is
    computed once, so memory is O(BLOCK_ROWS * len(X2))."""
    X1 = np.atleast_2d(np.asarray(X1, dtype=float))
    columns = _metric_columns(m, X1 if X2 is None else X2)
    for start in range(0, len(X1), BLOCK_ROWS):
        yield start, _metric_rows(m, X1[start : start + BLOCK_ROWS], columns)


# ---------------------------------------------------------------------------
# losses


def pair_loss_blocks(m: MetricModel, X: np.ndarray, labels: np.ndarray):
    """Pair losses of the points X against themselves in row blocks: yields
    (start, losses of X[start:start + BLOCK_ROWS] against all of X);
    `labels` holds one label index per point."""
    for start, F in metric_blocks(m, X):
        Y = np.where(labels[start : start + len(F), None] == labels[None, :], 1.0, -1.0)
        yield start, hinge(Y * (1.0 - F))


def empirical_loss(m: MetricModel, ds: Dataset) -> float:
    """Mean pair loss over all n^2 ordered pairs, summed in row blocks."""
    total = sum(float(L.sum()) for _, L in pair_loss_blocks(m, ds.X, ds.label_indices()))
    return total / ds.n**2


def triplet_hinge(F: np.ndarray, row_labels: np.ndarray, labels: np.ndarray) -> tuple:
    """Triplet hinge of a block of anchors (the rows of F, f against all n
    points) over every admissible (i, j, k), without enumerating them.

    `row_labels` and `labels` hold label indices.  For an anchor i, let
    A_k = fl(1 - F_ik) over the other-label k and B_j = F_ij over the
    same-label j (j = i included).  Triplet (i, j, k) is active when
    A_k + B_j rounds above 0, which holds exactly when A_k > -B_j.  One
    stable sort of the row [A, -B] (ties keep A first, so equality counts
    as inactive) gives the integer counts Wp[i, j] = #active k and
    Wn[i, k] = #active j; they equal the enumeration exactly.  Returns
    (total, Wp, Wn, nt): hinge sum sum Wn * (1 - F) + sum Wp * F over the
    block's nt admissible triplets.  Memory is O(len(F) * n).
    """
    Wp = np.zeros(F.shape)
    Wn = np.zeros(F.shape)
    total, nt = 0.0, 0
    for a in np.unique(row_labels):
        rows = np.flatnonzero(row_labels == a)
        same = np.flatnonzero(labels == a)
        other = np.flatnonzero(labels != a)
        if len(other) == 0:
            continue
        A = 1.0 - F[np.ix_(rows, other)]
        B = F[np.ix_(rows, same)]
        order = np.argsort(np.concatenate([A, -B], axis=1), axis=1, kind="stable")
        is_b = order >= len(other)
        # at a sorted A entry, the -F_ij values before it (active j); at a
        # -F_ij value, the A entries after it (active k)
        b_upto = np.cumsum(is_b, axis=1)
        a_upto = np.arange(1, order.shape[1] + 1) - b_upto
        sorted_counts = np.where(is_b, len(other) - a_upto, b_upto)
        counts = np.empty_like(sorted_counts)
        np.put_along_axis(counts, order, sorted_counts, axis=1)
        cn, cp = counts[:, : len(other)], counts[:, len(other) :]
        Wn[np.ix_(rows, other)] = cn
        Wp[np.ix_(rows, same)] = cp
        total += float((cn * A).sum() + (cp * B).sum())
        nt += len(rows) * len(same) * len(other)
    if nt == 0:
        raise ValueError("empty triplet set (fewer than two labels?)")
    return total, Wp, Wn, nt


def empirical_triplet_loss(m: MetricModel, ds: Dataset) -> float:
    """Mean triplet hinge loss over all admissible triplets, in row blocks."""
    labels = ds.label_indices()
    total, nt = 0.0, 0
    for start, F in metric_blocks(m, ds.X):
        block = triplet_hinge(F, labels[start : start + len(F)], labels)
        total, nt = total + block[0], nt + block[3]
    return total / nt
