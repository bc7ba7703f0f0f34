"""Proximal subgradient solver for regularized metric learning.

Minimizes c*||M|| + mean hinge loss over the pair (or triplet) sample,
with M constrained to the PSD cone for distance metrics.  Each iteration
takes a subgradient step on the loss, applies the prox of the chosen norm,
then projects onto the PSD cone.  Each iterate is evaluated once, into
buffers allocated once per solve: the same evaluation gives its loss and
the subgradient of the next step.  For distance metrics the same-label
pairs enter as one linear term <M, S> and only the other-label pairs are
evaluated, in label-sorted row tiles (see _pair_eval).  The best iterate
by objective is kept and the zero matrix is always a fallback, which
guarantees the capacity bound ||M*|| <= g0/c used by the robustness
constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .core import (
    PAIR_G0,
    TRIPLET_G0,
    Dataset,
    KernelSpec,
    MetricModel,
    empirical_loss,
    kernel_gram,
    quad_rows,
    sq_dists,
    triplet_hinge,
)

REGULARIZERS = ("fro", "l1", "l21")

# solve_kernel keeps the Gram eigenvalues above this fraction of the largest;
# the rest, numerically zero for an rbf kernel, are dropped with their
# eigenvectors (the KPCA truncation)
KPCA_RANK_TOL = 1e-10


@dataclass(frozen=True)
class SolverConfig:
    c: float = 1.0
    max_iters: int = 300
    step0: float = 1.0
    tol: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("c must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.step0 <= 0:
            raise ValueError("step0 must be positive")
        if self.tol < 0:
            raise ValueError("tol must be nonnegative")


def reg_norm(M: np.ndarray, reg: str) -> float:
    if reg == "fro":
        return float(np.linalg.norm(M, "fro"))
    if reg == "l1":
        return float(np.abs(M).sum())
    if reg == "l21":
        return float(np.linalg.norm(M, axis=0).sum())
    raise ValueError(f"unknown regularizer {reg!r}")


def objective(m: MetricModel, ds: Dataset, reg: str, c: float) -> float:
    """c*||M||_reg + empirical pair loss.

    For kernelized models the penalized norm is the feature-space Frobenius
    norm ||K^{1/2} A K^{1/2}||_F over the anchor Gram matrix K.
    """
    if m.kind == "kernelized":
        K = kernel_gram(m.kernel, m.anchors.X)
        S = _sym_sqrt(K)
        norm = float(np.linalg.norm(S @ m.A @ S, "fro"))
    else:
        norm = reg_norm(m.M, reg)
    return c * norm + empirical_loss(m, ds)


def psd_project(M: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the PSD cone: symmetrize, clip eigenvalues."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("M must be square")
    S = (M + M.T) / 2.0
    try:
        w, V = np.linalg.eigh(S)
    except np.linalg.LinAlgError as e:
        raise np.linalg.LinAlgError(f"eigendecomposition failed: {e}") from e
    w = np.maximum(w, 0.0)
    out = (V * w) @ V.T
    return (out + out.T) / 2.0


def prox(M: np.ndarray, tau: float, reg: str) -> np.ndarray:
    """Proximal operator of tau*||.||_reg at M."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    M = np.asarray(M, dtype=float)
    if tau == 0.0:
        return M.copy()
    if reg == "fro":
        nrm = np.linalg.norm(M, "fro")
        if nrm <= tau:
            return np.zeros_like(M)
        return M * (1.0 - tau / nrm)
    if reg == "l1":
        return np.sign(M) * np.maximum(np.abs(M) - tau, 0.0)
    if reg == "l21":
        nrm = np.linalg.norm(M, axis=0)
        scale = np.where(nrm > tau, 1.0 - tau / np.maximum(nrm, 1e-300), 0.0)
        return M * scale[None, :]
    raise ValueError(f"unknown regularizer {reg!r}")


def _laplacian_form(X: np.ndarray, W: np.ndarray, L: np.ndarray, XtL: np.ndarray, out: np.ndarray):
    # sum_ij W_ij (x_i - x_j)(x_i - x_j)^T = X^T (diag(r + c) - W - W^T) X,
    # with the n x n middle factor built in the buffer L
    r = W.sum(axis=1)
    c = W.sum(axis=0)
    L.fill(0.0)
    np.fill_diagonal(L, r + c)
    np.subtract(L, W, out=L)
    np.subtract(L, W.T, out=L)
    return np.matmul(np.matmul(X.T, L, out=XtL), X, out=out)


def _bilinear_eval(X: np.ndarray, labels: np.ndarray):
    """eval_fn(M) for the bilinear similarity f = x_i^T M x_j: the mean hinge
    over all n^2 ordered pairs, with Y_ij = +1 (same label) / -1.

    Every n x n intermediate goes into buffers allocated here, once per
    solve.  The returned subgradient is one of those buffers: it is valid
    until the next call.
    """
    n, d = X.shape
    Y = np.where(labels[:, None] == labels[None, :], 1.0, -1.0)
    XM, XtW, grad = np.empty((n, d)), np.empty((d, n)), np.empty((d, d))
    F, T = np.empty((n, n)), np.empty((n, n))
    active = np.empty((n, n), dtype=bool)

    def eval_fn(M):
        np.matmul(np.matmul(X, M, out=XM), X.T, out=F)
        # hinge argument y(1 - f); active pairs sit strictly below the
        # margin, the kink itself contributes the 0-side subgradient
        np.subtract(1.0, F, out=T)
        np.multiply(Y, T, out=T)
        np.less(T, 1.0, out=active)
        np.subtract(1.0, T, out=F)
        loss = float(np.maximum(0.0, F, out=F).mean())
        W = np.multiply(Y, active, out=F)
        np.divide(W, n * n, out=W)
        np.matmul(np.matmul(X.T, W, out=XtW), X, out=grad)
        return loss, grad, np.count_nonzero(active) / (n * n)

    return eval_fn


def _pair_eval(X: np.ndarray, labels: np.ndarray, kind: str):
    """eval_fn(M) -> (loss, subgradient, active fraction) for the mean hinge
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

    Only the other-label pairs are evaluated, each once: the points are
    sorted by label, and core.BLOCK_ROWS rows at a time meet the columns from
    the first point of a later label on, masked to label_j > label_i; each
    such pair stands for its two ordered pairs.  The tile buffers are
    allocated here, once per solve, so the evaluator holds O(BLOCK_ROWS * n)
    memory, not n x n.  The sum of the hinges runs in another order than a
    full n x n evaluation, so it agrees with one to rounding.
    """
    if kind == "bilinear":
        return _bilinear_eval(X, labels)
    n, d = X.shape
    order = np.argsort(labels, kind="stable")
    X, labels = X[order], labels[order]
    starts = np.flatnonzero(np.r_[True, labels[1:] != labels[:-1]])
    counts = np.diff(np.r_[starts, n])
    Xc = X - np.repeat(np.add.reduceat(X, starts) / counts[:, None], counts, axis=0)
    S = 2.0 * Xc.T @ (np.repeat(counts, counts)[:, None] * Xc)
    same_pairs = int((counts * (counts - 1)).sum())
    # each row meets the columns from the first point of a later label on;
    # rows of the last label have none
    later = np.repeat(np.r_[starts[1:], n], counts)
    block = core.BLOCK_ROWS
    tiles = [(s, min(s + block, starts[-1])) for s in range(0, starts[-1], block)]
    size = max([(e - s) * (n - later[s]) for s, e in tiles], default=0)
    H, W, mask = np.empty(size), np.empty(size), np.empty(size, dtype=bool)
    deg = np.empty(n)

    def eval_fn(M):
        XM2 = X @ (2.0 * M)
        q = quad_rows(X, M, X)
        deg.fill(0.0)
        P = np.zeros((d, d))
        hinge, count = 0.0, 0
        for s, e in tiles:
            c0 = later[s]
            Xr, Xcol = X[s:e], X[c0:]
            h = H[: (e - s) * (n - c0)].reshape(e - s, n - c0)
            w = W[: h.size].reshape(h.shape)
            # h = 2 - f, the other-label hinge before clamping at 0
            np.matmul(XM2[s:e], Xcol.T, out=h)
            h -= q[c0:]
            h += 2.0 - q[s:e, None]
            if labels[s] != labels[e - 1]:
                # rows of a later label than row s: zero their pairs with
                # columns of their own label or an earlier one (inactive)
                mk = mask[: h.size].reshape(h.shape)
                np.greater(labels[c0:], labels[s:e, None], out=mk)
                h *= mk
            np.greater(h, 0.0, out=w)
            hinge += float(h.ravel() @ w.ravel())
            r = w.sum(axis=1)
            count += int(r.sum())
            deg[s:e] += r
            deg[c0:] += w.sum(axis=0)
            P += Xr.T @ (w @ Xcol)
        # sum of (x_i - x_j)(x_i - x_j)^T over the active other-label pairs
        L = X.T @ (deg[:, None] * X) - P - P.T
        loss, grad, active = 2.0 * hinge, -2.0 * L, 2 * count
        if M.any():
            loss += float((M * S).sum())
            grad += S
            active += same_pairs
        return loss / (n * n), grad / (n * n), active / (n * n)

    return eval_fn


def _triplet_eval(X: np.ndarray, labels: np.ndarray):
    """eval_fn(M) -> (loss, subgradient, active fraction) for the mean
    triplet hinge over every admissible triplet, from the exact sorted
    active-set counts of core.triplet_hinge; memory is O(n^2)."""
    n, d = X.shape
    XtL, grad, L = np.empty((d, n)), np.empty((d, d)), np.empty((n, n))

    def eval_fn(M):
        F = sq_dists(X, M, X, quad_rows(X, M, X))
        loss, Wp, Wn, nt = triplet_hinge(F, labels)
        active = Wp.sum() / nt
        W = np.subtract(Wp, Wn, out=Wp)
        np.divide(W, nt, out=W)
        _laplacian_form(X, W, L, XtL, grad)
        return loss, grad, float(active)

    return eval_fn


def loss_subgradient(m: MetricModel, ds: Dataset) -> np.ndarray:
    """Subgradient of the mean hinge pair loss with respect to M, from the
    solver's own pair evaluation."""
    if m.kind not in ("mahalanobis", "bilinear"):
        raise ValueError(f"loss_subgradient handles mahalanobis/bilinear, got {m.kind!r}")
    return _pair_eval(ds.X, ds.label_indices(), m.kind)(m.M)[1]


def _iterate(d: int, eval_fn, reg: str, cfg: SolverConfig, psd: bool) -> tuple[np.ndarray, dict]:
    """Shared proximal subgradient loop; starts at M = 0.

    eval_fn(M) returns (loss, subgradient, active fraction) at M, so each
    iterate is evaluated once: its loss scores it and its subgradient takes
    the next step.  info["active_fraction"][t] belongs to the iterate
    scored by info["best_history"][t] (t = 0 is M = 0).
    """
    M = np.zeros((d, d))
    best = np.zeros((d, d))
    loss, grad, active = eval_fn(M)
    best_obj = cfg.c * 0.0 + loss
    history = [best_obj]
    fractions = [active]
    prev_obj = best_obj
    for t in range(1, cfg.max_iters + 1):
        step = cfg.step0 / np.sqrt(t)
        M = M - step * grad
        M = prox(M, step * cfg.c, reg)
        if psd and reg == "l21":
            # prox zeroes whole columns; projecting only the block of the
            # kept ones keeps each zero column and its row exactly zero
            kept = M.any(axis=0)
            block = np.ix_(kept, kept)
            P = np.zeros_like(M)
            P[block] = psd_project(M[block])
            M = P
        elif psd:
            M = psd_project(M)
        if not np.all(np.isfinite(M)):
            raise ArithmeticError(f"non-finite iterate at iteration {t}")
        loss, grad, active = eval_fn(M)
        obj = cfg.c * reg_norm(M, reg) + loss
        if obj < best_obj:
            best_obj = obj
            best = M.copy()
        history.append(best_obj)
        fractions.append(active)
        if cfg.tol > 0 and abs(obj - prev_obj) <= cfg.tol * max(1.0, abs(prev_obj)):
            break
        prev_obj = obj
    info = {
        "objective": best_obj,
        "best_history": history,
        "iterations": len(history) - 1,
        "active_fraction": fractions,
    }
    return best, info


def solve(ds: Dataset, reg: str, cfg: SolverConfig, kind: str = "mahalanobis") -> MetricModel:
    """Minimize the pair objective; returns the best iterate (or M = 0).

    The returned model always satisfies objective <= loss at the zero
    matrix <= g0, hence ||M*||_reg <= g0/c; info["capacity_ratio"] is
    c * ||M*||_reg / g0.
    """
    if reg not in REGULARIZERS:
        raise ValueError(f"unknown regularizer {reg!r}")
    if kind not in ("mahalanobis", "bilinear"):
        raise ValueError(f"solve handles mahalanobis/bilinear, got {kind!r}")
    eval_fn = _pair_eval(ds.X, ds.label_indices(), kind)
    best, info = _iterate(ds.d, eval_fn, reg, cfg, psd=(kind == "mahalanobis"))
    info["capacity_ratio"] = cfg.c * reg_norm(best, reg) / PAIR_G0
    return MetricModel(kind=kind, M=best, regularizer=reg, info=info)


def solve_triplet(ds: Dataset, reg: str, cfg: SolverConfig) -> MetricModel:
    """Triplet variant: mean hinge over the admissible triplets of the
    labels (y_i == y_j != y_k), regs fro/l21; single-label data is
    rejected."""
    if reg not in ("fro", "l21"):
        raise ValueError("triplet solver supports regularizers 'fro' and 'l21'")
    eval_fn = _triplet_eval(ds.X, ds.label_indices())
    best, info = _iterate(ds.d, eval_fn, reg, cfg, psd=True)
    info["capacity_ratio"] = cfg.c * reg_norm(best, reg) / TRIPLET_G0
    return MetricModel(kind="mahalanobis", M=best, regularizer=reg, info=info)


def _sym_sqrt(K: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh((K + K.T) / 2.0)
    return (V * np.sqrt(np.maximum(w, 0.0))) @ V.T


def solve_kernel(ds: Dataset, ks: KernelSpec, cfg: SolverConfig) -> MetricModel:
    """Kernelized solve with feature-space Frobenius regularization.

    Works in the top-r KPCA coordinates Psi = U_r Lambda_r^{1/2} of the Gram
    matrix K = U Lambda U^T, keeping the eigenvalues above
    KPCA_RANK_TOL * lambda_max.  Psi Psi^T reproduces K up to the discarded
    spectrum, so the pair objective reduces to a plain r x r Mahalanobis
    problem on the rows of Psi.  The learned H maps back to the anchor
    parameterization A = B H B^T with B = U_r Lambda_r^{-1/2}, so that
    f = (k_1 - k_2)^T A (k_1 - k_2) and K A K = Psi H Psi^T; the feature
    norm ||K^{1/2} A K^{1/2}||_F equals ||H||_F.  info["rank"] is r.
    """
    K = kernel_gram(ks, ds.X)
    if not np.all(np.isfinite(K)):
        raise ValueError("kernel Gram matrix has non-finite entries")
    w, U = np.linalg.eigh((K + K.T) / 2.0)
    if w.min() < -1e-8 * max(1.0, w.max()):
        raise ValueError(f"Gram matrix not PSD: min eigenvalue {w.min():.3g}")
    keep = w > KPCA_RANK_TOL * w.max()
    w, U = w[keep], U[:, keep]
    Psi = U * np.sqrt(w)
    H, info = _iterate(len(w), _pair_eval(Psi, ds.label_indices(), "mahalanobis"), "fro", cfg, psd=True)
    B = U / np.sqrt(w)
    A = B @ H @ B.T
    A = (A + A.T) / 2.0
    info["rank"] = len(w)
    info["rank_tol"] = KPCA_RANK_TOL
    info["feature_norm"] = reg_norm(H, "fro")
    info["capacity_ratio"] = cfg.c * info["feature_norm"] / PAIR_G0
    return MetricModel(
        kind="kernelized", A=A, kernel=ks, anchors=ds, regularizer="fro", info=info
    )
