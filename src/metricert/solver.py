"""Proximal subgradient solver for regularized metric learning.

Minimizes c*||M|| + mean hinge loss over the pair (or triplet) sample,
with M constrained to the PSD cone for distance metrics.  Each iteration
takes a subgradient step on the loss, applies the prox of the chosen norm,
then projects onto the PSD cone.  Each iterate is evaluated once, into
buffers allocated once per solve: the same evaluation gives its loss and
the subgradient of the next step.  The best iterate by objective is kept and
the zero matrix is always a fallback, which guarantees the capacity bound
||M*|| <= g0/c used by the robustness constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    PAIR_G0,
    TRIPLET_G0,
    Dataset,
    KernelSpec,
    MetricModel,
    empirical_loss,
    kernel_gram,
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


def _sq_dist_into(X: np.ndarray, M: np.ndarray, XM: np.ndarray, F: np.ndarray, G: np.ndarray):
    # F = q_i + q_j - G_ij - G_ji with G = X M X^T and q = diag(G); XM and G
    # are scratch buffers
    np.matmul(np.matmul(X, M, out=XM), X.T, out=G)
    q = G.diagonal().copy()
    np.add(q[:, None], q[None, :], out=F)
    np.subtract(F, G, out=F)
    np.subtract(F, G.T, out=F)


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


def _pair_eval(X: np.ndarray, Y: np.ndarray, kind: str):
    """eval_fn(M) -> (loss, subgradient, active fraction) for the mean hinge
    over all n^2 ordered pairs, with labels Y_ij = +1 (same) / -1.

    Every n x n intermediate goes into buffers allocated here, once per
    solve, so an iteration allocates nothing of size n x n.  The returned
    subgradient is one of those buffers: it is valid until the next call.
    """
    n, d = X.shape
    XM, XtL, grad = np.empty((n, d)), np.empty((d, n)), np.empty((d, d))
    F, T = np.empty((n, n)), np.empty((n, n))
    active = np.empty((n, n), dtype=bool)

    def eval_fn(M):
        if kind == "bilinear":
            np.matmul(np.matmul(X, M, out=XM), X.T, out=F)
        else:
            _sq_dist_into(X, M, XM, F, T)
        # hinge argument y(1 - f); active pairs sit strictly below the
        # margin, the kink itself contributes the 0-side subgradient
        np.subtract(1.0, F, out=T)
        np.multiply(Y, T, out=T)
        np.less(T, 1.0, out=active)
        np.subtract(1.0, T, out=F)
        loss = float(np.maximum(0.0, F, out=F).mean())
        W = np.multiply(Y, active, out=F)
        np.divide(W, n * n, out=W)
        if kind == "bilinear":
            np.matmul(np.matmul(X.T, W, out=XtL), X, out=grad)
        else:
            _laplacian_form(X, W, T, XtL, grad)
        return loss, grad, np.count_nonzero(active) / (n * n)

    return eval_fn


def _triplet_eval(X: np.ndarray, labels: np.ndarray):
    """eval_fn(M) -> (loss, subgradient, active fraction) for the mean
    triplet hinge over every admissible triplet, from the exact sorted
    active-set counts of core.triplet_hinge; memory is O(n^2)."""
    n, d = X.shape
    XM, XtL, grad = np.empty((n, d)), np.empty((d, n)), np.empty((d, d))
    F, G = np.empty((n, n)), np.empty((n, n))

    def eval_fn(M):
        _sq_dist_into(X, M, XM, F, G)
        loss, Wp, Wn, nt = triplet_hinge(F, labels)
        active = Wp.sum() / nt
        W = np.subtract(Wp, Wn, out=Wp)
        np.divide(W, nt, out=W)
        _laplacian_form(X, W, G, XtL, grad)
        return loss, grad, float(active)

    return eval_fn


def _pair_signs(ds: Dataset) -> np.ndarray:
    li = ds.label_indices()
    return np.where(li[:, None] == li[None, :], 1.0, -1.0)


def loss_subgradient(m: MetricModel, ds: Dataset) -> np.ndarray:
    """Subgradient of the mean hinge pair loss with respect to M, from the
    solver's own pair evaluation."""
    if m.kind not in ("mahalanobis", "bilinear"):
        raise ValueError(f"loss_subgradient handles mahalanobis/bilinear, got {m.kind!r}")
    return _pair_eval(ds.X, _pair_signs(ds), m.kind)(m.M)[1]


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
    eval_fn = _pair_eval(ds.X, _pair_signs(ds), kind)
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
    H, info = _iterate(len(w), _pair_eval(Psi, _pair_signs(ds), "mahalanobis"), "fro", cfg, psd=True)
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
