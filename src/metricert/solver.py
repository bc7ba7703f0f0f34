"""Proximal subgradient solver for regularized metric learning.

Minimizes c*||M|| + mean hinge loss over the pair (or triplet) sample,
with M constrained to the PSD cone for distance metrics.  Each iteration
takes a subgradient step on the loss, applies the prox of the chosen norm,
then projects onto the PSD cone.  Each iterate is evaluated once, by
core.pair_eval or core.triplet_eval (the code of the empirical losses):
one evaluation gives its loss and the subgradient of the next step.  The
best iterate by objective is kept and the zero matrix is always a
fallback, which guarantees the capacity bound ||M*|| <= g0/c used by the
robustness constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    PAIR_G0,
    TRIPLET_G0,
    Dataset,
    KernelSpec,
    MetricModel,
    empirical_loss,
    features,
    kernel_gram,
    pair_eval,
    triplet_eval,
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

    def __post_init__(self):
        if not 0.0 < self.c < math.inf:
            raise ValueError(f"c must be positive and finite, not {self.c!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


def reg_norm(M: np.ndarray, reg: str) -> float:
    if reg == "fro":
        return float(np.linalg.norm(M, "fro"))
    if reg == "l1":
        return float(np.abs(M).sum())
    if reg == "l21":
        return float(np.linalg.norm(M, axis=0).sum())
    raise ValueError(f"unknown regularizer {reg!r}")


def model_norm(m: MetricModel) -> float:
    """||M||_reg for the model's regularizer, the norm the capacity bound
    ||M*|| <= g0/c is about.

    For kernelized models it is the feature-space Frobenius norm
    ||K^{1/2} M K^{1/2}||_F over the anchor Gram matrix K, computed as
    sqrt(tr(MKMK)) = sqrt(sum (MK) * (MK)^T) without a square root of K.
    """
    if m.kind == "kernelized":
        MK = m.M @ kernel_gram(m.kernel, m.anchors.X)
        return float(np.sqrt(max((MK * MK.T).sum(), 0.0)))
    return reg_norm(m.M, m.regularizer)


def training_c(m: MetricModel, c: float | None = None) -> float:
    """The c the model was trained at (info["c"]), or the given c.  The
    capacity ||M*|| <= g0/c holds only for that c, so a given c that
    differs from a recorded one is refused."""
    trained = m.info.get("c")
    if c is None:
        if trained is None:
            raise ValueError("the model records no training c; give c")
        return trained
    if trained is not None and c != trained:
        raise ValueError(f"model was trained at c={trained!r}, not c={c!r}")
    return c


def objective(m: MetricModel, ds: Dataset, c: float | None = None) -> float:
    """c*||M||_reg (model_norm) + empirical pair loss, at training_c(m, c)."""
    return training_c(m, c) * model_norm(m) + empirical_loss(m, ds)


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


def loss_subgradient(m: MetricModel, ds: Dataset) -> np.ndarray:
    """Subgradient of the mean pair hinge loss with respect to M, from pair_eval."""
    F, Q = features(m, ds.X)
    return pair_eval(F, ds.label_indices(), m.kind)(Q)[1]


def _iterate(d: int, eval_fn, reg: str, cfg: SolverConfig, psd: bool, g0: float) -> tuple:
    """Shared proximal subgradient loop; starts at M = 0.

    eval_fn(M) returns (loss, subgradient, active fraction) at M, so each
    iterate is evaluated once: its loss scores it and its subgradient takes
    the next step.  info["active_fraction"][t] belongs to the iterate
    scored by info["best_history"][t] (t = 0 is M = 0), and
    info["capacity_ratio"] is c * ||M*||_reg / g0 for the loss g0 of M = 0,
    and info["c"] is c, the model's training weight.
    """
    M = np.zeros((d, d))
    best = np.zeros((d, d))
    loss, grad, active = eval_fn(M)
    best_obj = cfg.c * 0.0 + loss
    history = [best_obj]
    fractions = [active]
    for t in range(1, cfg.max_iters + 1):
        step = 1.0 / np.sqrt(t)
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
    info = {
        "objective": best_obj,
        "best_history": history,
        "iterations": len(history) - 1,
        "active_fraction": fractions,
        "capacity_ratio": cfg.c * reg_norm(best, reg) / g0,
        "c": cfg.c,
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
    eval_fn = pair_eval(ds.X, ds.label_indices(), kind)
    best, info = _iterate(ds.d, eval_fn, reg, cfg, psd=(kind == "mahalanobis"), g0=PAIR_G0)
    return MetricModel(kind=kind, M=best, regularizer=reg, info=info)


def solve_triplet(ds: Dataset, reg: str, cfg: SolverConfig) -> MetricModel:
    """Triplet variant: mean hinge over the admissible triplets of the
    labels (y_i == y_j != y_k), regs fro/l21; single-label data is
    rejected."""
    if reg not in ("fro", "l21"):
        raise ValueError("triplet solver supports regularizers 'fro' and 'l21'")
    eval_fn = triplet_eval(ds.X, ds.label_indices())
    best, info = _iterate(ds.d, eval_fn, reg, cfg, psd=True, g0=TRIPLET_G0)
    return MetricModel(kind="mahalanobis", M=best, regularizer=reg, info=info)


def solve_kernel(ds: Dataset, ks: KernelSpec, cfg: SolverConfig) -> MetricModel:
    """Kernelized solve with feature-space Frobenius regularization.

    Works in the top-r KPCA coordinates Psi = U_r Lambda_r^{1/2} of the Gram
    matrix K = U Lambda U^T, keeping the eigenvalues above
    KPCA_RANK_TOL * lambda_max.  Psi Psi^T reproduces K up to the discarded
    spectrum, so the pair objective reduces to a plain r x r Mahalanobis
    problem on the rows of Psi.  The learned H maps back to the anchor
    parameterization M = B H B^T with B = U_r Lambda_r^{-1/2}, so that
    f = (k_1 - k_2)^T M (k_1 - k_2) and K M K = Psi H Psi^T; the feature
    norm ||K^{1/2} M K^{1/2}||_F equals ||H||_F.  info["rank"] is r.
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
    eval_fn = pair_eval(Psi, ds.label_indices(), "mahalanobis")
    H, info = _iterate(len(w), eval_fn, "fro", cfg, psd=True, g0=PAIR_G0)
    B = U / np.sqrt(w)
    M = B @ H @ B.T
    M = (M + M.T) / 2.0
    info["rank"] = len(w)
    info["rank_tol"] = KPCA_RANK_TOL
    info["feature_norm"] = reg_norm(H, "fro")
    return MetricModel(
        kind="kernelized", M=M, kernel=ks, anchors=ds, regularizer="fro", info=info
    )
