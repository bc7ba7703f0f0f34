"""Proximal subgradient solver for regularized metric learning.

Minimizes c*||M|| + mean hinge loss over the pair (or triplet) sample,
with M constrained to the PSD cone for distance metrics.  Each iteration
takes a subgradient step on the loss, applies the prox of the chosen norm,
then projects onto the PSD cone.  Each iterate is evaluated once, by the
evaluator of the loss's core.Loss record (the code of its empirical loss):
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
    PAIR_LOSS,
    TRIPLET_LOSS,
    Dataset,
    KernelSpec,
    Loss,
    MetricModel,
    empirical_loss,
    features,
    kernel_gram,
    pair_eval,
)

REGULARIZERS = ("fro", "l1", "l21")

# solve_kernel's one tolerance (_landmark_basis): landmarks are added until
# no residual diagonal of the Gram matrix exceeds this fraction of its largest
# diagonal, and the landmark Gram keeps the eigenvalues above this fraction
# of its largest; the rest, numerically zero for an rbf kernel, are dropped
# with their eigenvectors
KPCA_RANK_TOL = 1e-10

# a solve stops once its best objective P is certified within this fraction
# of the optimum: P - D <= GAP_TOL * D for a lower bound D <= P* (_iterate)
GAP_TOL = 1e-2
# every iterate offers the lower bound of its own active set and of the mean
# of the active sets since the last restart, every AVERAGE_EVERY iterations
AVERAGE_EVERY = 20


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
    sqrt(tr(MKMK)) = sqrt(sum (MK) * (MK)^T) without a square root of K,
    on the model's support: M is 0 off it, so only the block of M and the
    Gram matrix of the anchors there enter (MetricModel.kernel_form).
    """
    if m.kind == "kernelized":
        anchors, M = m.kernel_form()
        MK = M @ kernel_gram(m.kernel, anchors)
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
    keep = w > 0.0
    V = V[:, keep]
    out = (V * w[keep]) @ V.T
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
    return pair_eval(F, ds.label_indices(), m.kind)(Q).grad


def _dual_norm(G: np.ndarray, reg: str) -> float:
    """||G||_* in the dual of the regularizer's norm: the Frobenius norm for
    fro, max |G_ij| for l1 and the largest column norm for l21."""
    if reg == "fro":
        return float(np.linalg.norm(G))
    if reg == "l1":
        return float(np.abs(G).max())
    return float(np.linalg.norm(G, axis=0).max())


def _scaled(v: float, norm: float, c: float) -> float:
    """The bound t*v of a minorant with offset v and slope dual norm
    `norm`, t = min(1, c/norm) (_LowerBound)."""
    return v * c / norm if norm > c else v


class _LowerBound:
    """The best lower bound D <= P* of one solve, from the linear minorants
    v + <M', G> of the loss (Evaluation.slope) it is offered.

    A minorant gives D = t*v with t = min(1, c/||G_-||_*): on the PSD cone
    <M', G> >= <M', G_-> >= -||M'|| ||G_-||_* for the negative eigen-part
    G_- of G, and off it (bilinear) G_- is G itself.  Scaling the active
    set by t scales the minorant's other-label part, and the part it keeps
    (S/n^2 of the distance pairs) is PSD, so for every M'
    P(M') >= c||M'|| + t*v - t||M'|| ||G_-||_* >= t*v.  `target` is the
    best such bound of a single minorant offered, the Polyak step's target.

    `value`, the certified D, is at least `target`.  Off the PSD cone with
    the Frobenius norm it also holds the bound of an aggregate (v, G):
    a convex combination of minorants is a minorant, as max(0, f) >= a f
    for every a in [0, 1].  Each offer replaces the aggregate by the point
    of the segment to the offered minorant with the largest bound
    (_mix_in), so the aggregate's bound never falls below the offered
    minorant's, nor below its own before.

    An eigendecomposition costs as much as a PSD projection, so offer()
    first rules out the minorants that cannot raise `target`, which leaves
    it as it would be: t*v <= v, and ||G_-||_F >= |lambda_min(G)| >=
    -u^T G u for the unit eigenvector u of the smallest eigenvalue of the last
    decomposition offered from the same source (an iterate's own minorant
    and the averaged one change little from one iterate to the next).  A
    d x d matrix has ||.||_F <= sqrt(d) times its largest column norm and
    d times its largest |entry|, which turns that into a floor on
    ||G_-||_* for l21 and l1.
    """

    def __init__(self, d: int, c: float, reg: str, psd: bool):
        self.c, self.reg, self.psd = c, reg, psd
        self._fro_ratio = {"fro": 1.0, "l1": d, "l21": math.sqrt(d)}[reg]
        self.value = self.target = 0.0
        self._vectors = {}
        self._aggregate = None

    def offer(self, G: np.ndarray, v: float, source: str) -> None:
        if not self.psd and self.reg == "fro":
            self._mix_in(G, v)
        if v <= self.target:
            return
        if not self.psd:
            self._raise(v, _dual_norm(G, self.reg))
            return
        u = self._vectors.get(source)
        if u is not None:
            floor = -float(u @ (G @ u)) / self._fro_ratio
            if floor > self.c and v * self.c / floor <= self.target:
                return
        # eigh reads one triangle of G, which is symmetric up to rounding
        w, V = np.linalg.eigh(G)
        self._vectors[source] = V[:, 0] if w.size and w[0] < 0.0 else None
        w = np.minimum(w, 0.0)
        self._raise(v, math.sqrt(w @ w) if self.reg == "fro" else _dual_norm((V * w) @ V.T, self.reg))

    def _raise(self, v: float, norm: float) -> None:
        self.target = max(self.target, _scaled(v, norm, self.c))
        self.value = max(self.value, self.target)

    def _mix_in(self, G: np.ndarray, v: float) -> None:
        """Move the aggregate (a, A) to the best point of the segment
        (a + th*b, A + th*B), th in [0, 1], towards the minorant (v, G).

        Its bound is D(th) = v(th) min(1, c/N(th)), N(th)^2 = AA + 2 th AB
        + th^2 BB from three inner products.  D is linear where N <= c and
        c v/N where N > c, whose one stationary point solves a linear
        equation, so its maximum lies at th = 0 or 1, at that point, or at
        a root of N(th) = c.  The chosen point is formed and its bound
        computed from the formed G, so rounding in the search cannot make
        the bound unsound."""
        if self._aggregate is None:
            a, A = v, G
        else:
            a, A = self._aggregate
            b, B = v - a, G - A
            AA, AB, BB = (float(np.vdot(P, Q)) for P, Q in ((A, A), (A, B), (B, B)))
            thetas = [1.0]
            if b * AB != a * BB:
                thetas.append((a * AB - b * AA) / (b * AB - a * BB))
            disc = AB * AB - BB * (AA - self.c * self.c)
            if BB > 0.0 and disc >= 0.0:
                thetas += [(-AB + r) / BB for r in (math.sqrt(disc), -math.sqrt(disc))]

            def bound(th):
                norm = math.sqrt(max(AA + th * (2.0 * AB + th * BB), 0.0))
                return _scaled(a + th * b, norm, self.c)

            th = max((t for t in thetas if 0.0 < t <= 1.0), key=bound, default=0.0)
            if bound(th) <= bound(0.0):
                return
            a, A = a + th * b, A + th * B
        self._aggregate = (a, A)
        self.value = max(self.value, _scaled(a, float(np.linalg.norm(A)), self.c))


def _reg_subgradient(M: np.ndarray, reg: str) -> np.ndarray:
    """A subgradient of ||.||_reg at M, zero on the parts of M that are 0."""
    if reg == "fro":
        nrm = np.linalg.norm(M)
        return M / nrm if nrm > 0.0 else np.zeros_like(M)
    if reg == "l1":
        return np.sign(M)
    nrm = np.linalg.norm(M, axis=0)
    return M / np.where(nrm > 0.0, nrm, 1.0)


def _iterate(d: int, eval_fn, reg: str, cfg: SolverConfig, psd: bool, g0: float) -> tuple:
    """Proximal Polyak iterations from M = 0, stopped at a certified gap.

    eval_fn(M) returns an Evaluation, so each iterate is evaluated once:
    its loss scores it, its subgradient takes the next step and its linear
    minorant gives a lower bound on the optimum P* (_LowerBound).  Every
    iterate offers its own minorant and the average of those since the
    last restart (every AVERAGE_EVERY iterations); D is the certified
    bound so far (_LowerBound.value, which off the PSD cone includes the
    aggregate of the minorants).  The step is Polyak's with the best
    single-minorant bound D1 <= D (_LowerBound.target) as the target:
    s = (P(M) - D1)/||g||^2 with g the loss subgradient plus c times a
    subgradient of the norm, then M <- proj_PSD(prox_{s c}(M - s grad)).
    The iterations stop once the best objective is within GAP_TOL * D of
    D, at a zero g (M is optimal) or after cfg.max_iters steps.

    info["active_fraction"][t] belongs to the iterate scored by
    info["best_history"][t] (t = 0 is M = 0), info["iterations"] is the
    number of steps taken, info["dual_bound"] is D and info["gap"] the
    objective minus D; info["capacity_ratio"] is c * ||M*||_reg / g0 for the
    loss g0 of M = 0, and info["c"] is c, the model's training weight.
    """
    c = cfg.c
    M = np.zeros((d, d))
    best = M
    ev = eval_fn(M)
    obj = best_obj = ev.loss
    history, fractions = [best_obj], [ev.active]
    bound = _LowerBound(d, c, reg, psd)
    slopes, offsets, averaged = np.zeros((d, d)), 0.0, 0
    t = 0
    while True:
        v = g0 * ev.other / ev.terms
        if t % AVERAGE_EVERY == 0:
            slopes[:], offsets, averaged = 0.0, 0.0, 0
        slopes += ev.slope
        offsets += v
        averaged += 1
        bound.offer(ev.slope, v, "iterate")
        if averaged > 1:
            bound.offer(slopes / averaged, offsets / averaged, "average")
        dual = bound.value
        if best_obj - dual <= GAP_TOL * dual or t == cfg.max_iters:
            break
        g = ev.grad + c * _reg_subgradient(M, reg)
        gg = float(np.vdot(g, g))
        if gg == 0.0:
            break
        step = (obj - bound.target) / gg
        M = prox(M - step * ev.grad, step * c, reg)
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
        t += 1
        if not np.all(np.isfinite(M)):
            raise ArithmeticError(f"non-finite iterate at iteration {t}")
        ev = eval_fn(M)
        obj = c * reg_norm(M, reg) + ev.loss
        if obj < best_obj:
            best_obj = obj
            best = M.copy()
        history.append(best_obj)
        fractions.append(ev.active)
    info = {
        "objective": best_obj,
        "best_history": history,
        "iterations": t,
        "active_fraction": fractions,
        "dual_bound": dual,
        "gap": best_obj - dual,
        "capacity_ratio": c * reg_norm(best, reg) / g0,
        "c": c,
    }
    return best, info


def solve(
    ds: Dataset, reg: str, cfg: SolverConfig, kind: str = "mahalanobis", loss: Loss = PAIR_LOSS
) -> MetricModel:
    """Minimize c*||M||_reg + `loss` (pairs by default); returns the best iterate (or M = 0).

    The returned model always satisfies objective <= loss at the zero
    matrix <= g0, hence ||M*||_reg <= g0/c; info["capacity_ratio"] is
    c * ||M*||_reg / g0.
    """
    if reg not in REGULARIZERS:
        raise ValueError(f"unknown regularizer {reg!r}")
    if kind not in ("mahalanobis", "bilinear"):
        raise ValueError(f"solve handles mahalanobis/bilinear, got {kind!r}")
    eval_fn = loss.evaluator(ds.X, ds.label_indices(), kind)
    best, info = _iterate(ds.d, eval_fn, reg, cfg, psd=(kind == "mahalanobis"), g0=loss.g0)
    return MetricModel(kind=kind, M=best, regularizer=reg, info=info)


def solve_triplet(ds: Dataset, reg: str, cfg: SolverConfig) -> MetricModel:
    """solve on the triplet loss, regs fro/l21; single-label data is rejected."""
    if reg not in ("fro", "l21"):
        raise ValueError("triplet solver supports regularizers 'fro' and 'l21'")
    return solve(ds, reg, cfg, loss=TRIPLET_LOSS)


def _landmark_basis(ks: KernelSpec, X: np.ndarray) -> tuple:
    """Nystrom coordinates of X on landmarks picked by pivoted incomplete
    Cholesky: (landmarks, C, B) with the landmark indices (ascending),
    their kernel columns C = k(X, X_L) and B, so that Phi = C B.

    Each pivot is the point of the largest residual diagonal: k(x, x) (1
    for rbf, ||x||^2 for linear) minus what the landmarks so far explain.
    The pivots stop once that is at most KPCA_RANK_TOL times the largest
    k(x, x).  The landmark Gram K_LL = U Lambda U^T keeps its eigenvalues
    above KPCA_RANK_TOL * lambda_max, and B = U_r Lambda_r^{-1/2}, so
    B^T K_LL B = I and Phi Phi^T = C K_LL^+ C^T reproduces K up to the
    residual.  Phi's rows are the orthogonal projections of the kernel
    features onto the landmarks' span, so ||phi_L(x)||^2 <= k(x, x) and
    the projection only shrinks distances.  K is never formed: time
    O(n m^2) and memory O(n m) for m landmarks.  A residual below 0
    beyond rounding means K is not PSD.
    """
    n = len(X)
    diag = np.ones(n) if ks.kind == "rbf" else (X * X).sum(axis=1)
    if not np.all(np.isfinite(diag)):
        raise ValueError("kernel Gram matrix has non-finite entries")
    resid, stop = diag.copy(), KPCA_RANK_TOL * diag.max()
    pivots, C, G = [], np.empty((n, 8)), np.empty((n, 8))
    while len(pivots) < n:
        p = int(resid.argmax())
        if resid[p] <= stop:
            break
        j = len(pivots)
        if j == C.shape[1]:
            C, G = (np.concatenate([A, np.empty_like(A)], axis=1) for A in (C, G))
        C[:, j] = kernel_gram(ks, X, X[p : p + 1])[:, 0]
        if not np.all(np.isfinite(C[:, j])):
            raise ValueError("kernel Gram matrix has non-finite entries")
        G[:, j] = (C[:, j] - G[:, :j] @ G[p, :j]) / math.sqrt(resid[p])
        resid -= G[:, j] ** 2
        pivots.append(p)
    if resid.min() < -1e-8 * max(1.0, diag.max()):
        raise ValueError(f"Gram matrix not PSD: residual diagonal {resid.min():.3g}")
    if not pivots:
        # a zero Gram matrix (a linear kernel on zero points): no landmark,
        # and a 0-dimensional problem whose one model is M = 0
        return np.zeros(0, dtype=int), C[:, :0], np.zeros((0, 0))
    order = np.argsort(pivots)
    landmarks, C = np.array(pivots, dtype=int)[order], C[:, order]
    K = C[landmarks]
    w, U = np.linalg.eigh((K + K.T) / 2.0)
    if w.min() < -1e-8 * max(1.0, w.max()):
        raise ValueError(f"Gram matrix not PSD: min eigenvalue {w.min():.3g}")
    keep = w > KPCA_RANK_TOL * w.max()
    return landmarks, C, U[:, keep] / np.sqrt(w[keep])


def solve_kernel(ds: Dataset, ks: KernelSpec, cfg: SolverConfig) -> MetricModel:
    """Kernelized solve with feature-space Frobenius regularization, on the
    Nystrom coordinates Phi = C B of _landmark_basis.

    The pair objective is a plain r x r Mahalanobis problem on the rows of
    Phi.  The learned H maps back to the block M_LL = B H B^T on the
    landmarks' rows and columns of an otherwise zero n x n M, so
    f = (k_1 - k_2)^T M (k_1 - k_2) is the Mahalanobis f of H on Phi, and
    the feature norm ||K^{1/2} M K^{1/2}||_F = sqrt(tr(M_LL K_LL M_LL K_LL))
    equals ||H||_F, because B^T K_LL B = I.  No n x n array is formed
    before M.  info["rank"] is r, the kept rank of the landmark Gram.
    """
    landmarks, C, B = _landmark_basis(ks, ds.X)
    eval_fn = pair_eval(C @ B, ds.label_indices(), "mahalanobis")
    H, info = _iterate(B.shape[1], eval_fn, "fro", cfg, psd=True, g0=PAIR_LOSS.g0)
    M_LL = B @ H @ B.T
    M = np.zeros((ds.n, ds.n))
    M[np.ix_(landmarks, landmarks)] = (M_LL + M_LL.T) / 2.0
    info["rank"] = B.shape[1]
    info["rank_tol"] = KPCA_RANK_TOL
    info["feature_norm"] = reg_norm(H, "fro")
    return MetricModel(
        kind="kernelized", M=M, kernel=ks, anchors=ds, regularizer="fro", info=info
    )
