import sys
import tracemalloc

import numpy as np
import pytest

from metricert.core import (
    PAIR_G0,
    Dataset,
    KernelSpec,
    MetricModel,
    build_triplets,
    empirical_loss,
    empirical_triplet_loss,
    kernel_gram,
    metric_matrix,
    rbf_fH,
)
from metricert import core, solver
from metricert.core import FAMILIES
from metricert.harness import SyntheticSpec, gen_synthetic, train_family
from metricert.io import load_model, save_model
from metricert.solver import (
    SolverConfig,
    loss_subgradient,
    objective,
    prox,
    psd_project,
    reg_norm,
    solve,
    solve_kernel,
    solve_triplet,
)

from helpers import make_ds

# a 0/0 Polyak step or an overflow fails the test instead of warning
pytestmark = pytest.mark.filterwarnings("error")


def random_ds(rng, n=12, d=2, R=1.0):
    X = rng.uniform(-1, 1, size=(n, d))
    X *= R / max(np.linalg.norm(X, axis=1).max(), 1e-9)
    return Dataset(X, list(rng.choice(["a", "b"], size=n)), R)


class TestObjective:
    def test_zero_matrix_is_pure_loss(self):
        ds = make_ds([[0.0], [1.0]], "ab")
        m = MetricModel("mahalanobis", M=np.zeros((1, 1)))
        assert objective(m, ds, 5.0) == empirical_loss(m, ds)

    def test_identity_fro_norm(self):
        assert reg_norm(np.eye(2), "fro") == pytest.approx(np.sqrt(2.0))

    def test_l21_column_norms(self):
        M = np.array([[3.0, 0.0], [4.0, 0.0]])
        assert reg_norm(M, "l21") == pytest.approx(5.0)

    def test_unknown_reg(self):
        with pytest.raises(ValueError):
            reg_norm(np.eye(2), "nuclear")


class TestPsdProject:
    def test_diagonal_clipping(self):
        out = psd_project(np.diag([1.0, -1.0]))
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_identity_unchanged(self):
        assert np.allclose(psd_project(np.eye(3)), np.eye(3), atol=1e-12)

    def test_offdiagonal_hand_eigenpairs(self):
        out = psd_project(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(out, np.full((2, 2), 0.5), atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            M = rng.standard_normal((4, 4))
            P = psd_project(M)
            assert np.allclose(psd_project(P), P, atol=1e-10)
            assert np.linalg.eigvalsh(P).min() >= -1e-10

    def test_euclidean_projection_property(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            M = rng.standard_normal((3, 3))
            M = (M + M.T) / 2.0
            P = psd_project(M)
            A = rng.standard_normal((3, 3))
            probe = A @ A.T
            assert np.linalg.norm(M - P) <= np.linalg.norm(M - probe) + 1e-9


def brute_force_prox_scalar(x, tau):
    grid = np.linspace(-abs(x) - 1, abs(x) + 1, 200001)
    vals = tau * np.abs(grid) + 0.5 * (grid - x) ** 2
    return grid[vals.argmin()]


def brute_force_prox_column(col, tau):
    # the minimizer is a scaling of col; search the scale factor
    nrm = np.linalg.norm(col)
    scales = np.linspace(0.0, 1.0, 200001)
    vals = tau * scales * nrm + 0.5 * (scales - 1.0) ** 2 * nrm**2
    return col * scales[vals.argmin()]


class TestProx:
    def test_l1_hand_values(self):
        M = np.array([[0.5, 0.1]])
        out = prox(M, 0.2, "l1")
        assert out[0, 0] == pytest.approx(0.3)
        assert out[0, 1] == 0.0

    def test_tau_zero_identity(self):
        rng = np.random.default_rng(6)
        M = rng.standard_normal((3, 3))
        for reg in ("fro", "l1", "l21"):
            assert np.array_equal(prox(M, 0.0, reg), M)

    def test_l21_hand_column(self):
        M = np.array([[3.0], [4.0]])
        out = prox(M, 1.0, "l21")
        assert np.allclose(out.ravel(), [2.4, 3.2])

    def test_l1_matches_grid_minimization(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            x = float(rng.uniform(-2, 2))
            tau = float(rng.uniform(0, 1))
            out = prox(np.array([[x]]), tau, "l1")[0, 0]
            assert out == pytest.approx(brute_force_prox_scalar(x, tau), abs=1e-3)

    def test_l21_matches_scaled_candidates(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            col = rng.uniform(-2, 2, size=3)
            tau = float(rng.uniform(0, 2))
            out = prox(col[:, None], tau, "l21").ravel()
            assert np.allclose(out, brute_force_prox_column(col, tau), atol=1e-3)

    def test_fro_matches_scaled_candidates(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            M = rng.uniform(-1, 1, size=(2, 2))
            tau = float(rng.uniform(0, 2))
            out = prox(M, tau, "fro")
            expected = brute_force_prox_column(M.ravel(), tau).reshape(2, 2)
            assert np.allclose(out, expected, atol=1e-3)


class TestLossSubgradient:
    def test_flat_region_zero(self):
        ds = make_ds([[0.0], [0.1]], "aa")
        m = MetricModel("mahalanobis", M=np.zeros((1, 1)))
        g = loss_subgradient(m, ds)
        assert np.allclose(g, 0.0)

    def test_single_active_pair_direction(self):
        # same-label pair with positive loss contributes +(1/n^2) d d^T per
        # ordered pair, d = (1, 0)
        ds = make_ds([[0.0, 0.0], [1.0, 0.0]], "aa")
        m = MetricModel("mahalanobis", M=np.eye(2) * 2.0)  # f=2 -> loss 2 > 0
        g = loss_subgradient(m, ds)
        expected = 2.0 / 4.0 * np.array([[1.0, 0.0], [0.0, 0.0]])
        assert np.allclose(g, expected)

    @pytest.mark.parametrize("kind", ["mahalanobis", "bilinear", "kernelized"])
    def test_finite_difference_agreement(self, kind):
        rng = np.random.default_rng(14)
        checked = 0
        while checked < 10:
            ds = random_ds(rng, n=8, d=2)
            A = rng.standard_normal((2, 2))
            extra = {}
            if kind == "kernelized":
                # rbf kernel vectors against 4 anchors: M is 4 x 4
                extra = {"kernel": KernelSpec("rbf", 0.7), "anchors": random_ds(rng, n=4, d=2)}
                A = rng.standard_normal((4, 4))
            p, sym = len(A), kind != "bilinear"
            # keep strictly PD so symmetric perturbations stay PSD
            M0 = A @ A.T + 1e-4 * np.eye(p) if sym else (A + A.T) / 2.0
            m0 = MetricModel(kind, M=M0, **extra)
            g = loss_subgradient(m0, ds)
            h = 1e-6
            fd = np.zeros((p, p))
            for a in range(p):
                for b in range(p):
                    E = np.zeros((p, p))
                    E[a, b] = h
                    Ms = (M0 + E + (M0 + E).T) / 2.0 if sym else M0 + E
                    Mm = (M0 - E + (M0 - E).T) / 2.0 if sym else M0 - E
                    lp = empirical_loss(MetricModel(kind, M=Ms, **extra), ds)
                    lm = empirical_loss(MetricModel(kind, M=Mm, **extra), ds)
                    fd[a, b] = (lp - lm) / (2 * h)
            # symmetric parameterization doubles off-diagonal sensitivities
            if sym:
                fd = (fd + fd.T) / 2.0
                gs = (g + g.T) / 2.0
            else:
                gs = g
            # skip instances sitting on a hinge kink
            li = ds.label_indices()
            Y = np.where(li[:, None] == li[None, :], 1.0, -1.0)
            from metricert.core import metric_matrix

            args = Y * (1.0 - metric_matrix(m0, ds.X))
            # self-pairs sit exactly on the kink but are constant in M
            np.fill_diagonal(args, 0.0)
            if np.min(np.abs(args - 1.0)) < 1e-4:
                continue
            checked += 1
            denom = max(np.linalg.norm(fd), 1e-12)
            assert np.linalg.norm(gs - fd) / denom < 1e-4


class TestSolve:
    def test_every_solver_records_its_c(self):
        ds = random_ds(np.random.default_rng(3), n=10, d=2)
        cfg = SolverConfig(c=0.37, max_iters=5)
        for m in (solve(ds, "fro", cfg), solve(ds, "fro", cfg, kind="bilinear"),
                  solve_triplet(ds, "l21", cfg), solve_kernel(ds, KernelSpec("rbf"), cfg)):
            assert m.info["c"] == 0.37
            assert objective(m, ds) == objective(m, ds, 0.37)
            with pytest.raises(ValueError, match=r"trained at c=0\.37, not c=0\.4"):
                objective(m, ds, 0.4)

    def test_all_labels_equal_returns_zero_objective(self):
        ds = make_ds([[0.0, 0.1], [0.2, 0.0], [0.1, 0.1]], "aaa")
        m = solve(ds, "fro", SolverConfig(c=1.0, max_iters=50))
        assert m.info["objective"] <= 1e-6

    @pytest.mark.parametrize("reg", ["fro", "l1", "l21"])
    def test_objective_never_exceeds_g0(self, reg):
        rng = np.random.default_rng(16)
        for _ in range(5):
            ds = random_ds(rng, n=10, d=3)
            m = solve(ds, reg, SolverConfig(c=0.3, max_iters=60))
            obj = objective(m, ds)
            assert obj <= PAIR_G0 + 1e-9
            assert reg_norm(m.M, reg) <= PAIR_G0 / 0.3 + 1e-9

    def test_1d_separation_vs_grid_search(self):
        ds = make_ds([[0.0], [1.0]], "ab", R=1.0)
        cfg = SolverConfig(c=0.01, max_iters=400)
        m = solve(ds, "fro", cfg)
        grid = np.linspace(0.0, 50.0, 5001)
        objs = [
            objective(MetricModel("mahalanobis", M=np.array([[v]])), ds, 0.01)
            for v in grid
        ]
        best_grid = min(objs)
        assert m.info["objective"] <= best_grid + 0.05
        zero = MetricModel("mahalanobis", M=np.zeros((1, 1)))
        assert empirical_loss(m, ds) < empirical_loss(zero, ds)

    def test_best_objective_monotone(self):
        rng = np.random.default_rng(18)
        ds = random_ds(rng, n=10)
        m = solve(ds, "fro", SolverConfig(c=0.1, max_iters=80))
        hist = m.info["best_history"]
        assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))

    def test_deterministic(self):
        rng = np.random.default_rng(20)
        ds = random_ds(rng, n=10)
        cfg = SolverConfig(c=0.1, max_iters=50)
        m1 = solve(ds, "fro", cfg)
        m2 = solve(ds, "fro", cfg)
        assert np.array_equal(m1.M, m2.M)

    def test_psd_output(self):
        rng = np.random.default_rng(22)
        ds = random_ds(rng, n=10)
        m = solve(ds, "fro", SolverConfig(c=0.05, max_iters=60))
        assert np.linalg.eigvalsh(m.M).min() >= -1e-8


class TestObjectiveOfTrainedModels:
    """A trained model's objective, recomputed from the model and its data,
    is the one the solver reported, bit for bit: the empirical losses and
    the solvers run the same evaluators."""

    @pytest.mark.parametrize("classes", [2, 3])
    @pytest.mark.parametrize("seed", range(5))
    def test_equals_the_solver_objective(self, seed, classes):
        ds = gen_synthetic(SyntheticSpec(n=120, d=3, classes=classes, seed=seed))
        cfg = SolverConfig(c=0.01, max_iters=60)
        for kind, reg in (("mahalanobis", "fro"), ("mahalanobis", "l1"),
                          ("mahalanobis", "l21"), ("bilinear", "fro")):
            m = solve(ds, reg, cfg, kind=kind)
            assert objective(m, ds) == m.info["objective"], (kind, reg)
        for reg in ("fro", "l21"):
            m = solve_triplet(ds, reg, cfg)
            recomputed = cfg.c * reg_norm(m.M, reg) + empirical_triplet_loss(m, ds)
            assert recomputed == m.info["objective"], ("triplet", reg)


class TestSolveTriplet:
    def test_single_label_degenerate(self):
        ds = make_ds([[0.0], [1.0]], "aa")
        with pytest.raises(ValueError):
            solve_triplet(ds, "fro", SolverConfig(c=1.0))

    def test_zero_matrix_objective_is_one(self):
        ds = make_ds([[0.0], [1.0]], "ab")
        zero = MetricModel("mahalanobis", M=np.zeros((1, 1)))
        assert empirical_triplet_loss(zero, ds) == 1.0

    def test_improves_on_zero(self):
        ds = make_ds([[0.0], [0.1], [1.0]], "aab", R=1.0)
        cfg = SolverConfig(c=0.05, max_iters=200)
        m = solve_triplet(ds, "fro", cfg)
        assert m.info["objective"] <= 1.0 + 1e-12
        # scalar grid-search oracle
        grid = np.linspace(0.0, 20.0, 2001)
        objs = [
            0.05 * v
            + empirical_triplet_loss(MetricModel("mahalanobis", M=np.array([[v]])), ds)
            for v in grid
        ]
        assert m.info["objective"] <= min(objs) + 0.05

    def test_capacity(self):
        rng = np.random.default_rng(24)
        ds = random_ds(rng, n=8)
        m = solve_triplet(ds, "l21", SolverConfig(c=0.2, max_iters=60))
        assert reg_norm(m.M, "l21") <= 1.0 / 0.2 + 1e-9  # triplet g0 = 1


class TestSolveKernel:
    def test_linear_kernel_matches_plain_solve(self):
        rng = np.random.default_rng(26)
        for _ in range(3):
            ds = random_ds(rng, n=10, d=2)
            cfg = SolverConfig(c=0.1, max_iters=80)
            m_plain = solve(ds, "fro", cfg)
            m_kern = solve_kernel(ds, KernelSpec("linear"), cfg)
            assert empirical_loss(m_kern, ds) == pytest.approx(
                empirical_loss(m_plain, ds), abs=1e-4
            )

    def test_zero_coefficients_objective(self):
        ds = make_ds([[0.0, 0.0], [1.0, 0.0]], "ab")
        zero = MetricModel(
            "kernelized", M=np.zeros((2, 2)), kernel=KernelSpec("rbf", 1.0), anchors=ds
        )
        assert objective(zero, ds, 1.0) == empirical_loss(zero, ds)

    def test_rbf_single_label_optimal_zero(self):
        ds = make_ds([[0.0, 0.1], [0.1, 0.0], [0.2, 0.1]], "aaa")
        m = solve_kernel(ds, KernelSpec("rbf", 1.0), SolverConfig(c=1.0, max_iters=40))
        assert m.info["objective"] <= 1e-6

    def test_non_psd_gram_rejected(self):
        # corrupting the points cannot break PSD-ness of a true Gram matrix,
        # so exercise the check through the internal entry point
        from metricert import core, solver

        ds = make_ds([[0.0], [1.0]], "ab")
        orig = solver.kernel_gram
        solver.kernel_gram = lambda ks, X, X2=None: np.array([[1.0, 2.0], [2.0, 1.0]])
        try:
            with pytest.raises(ValueError):
                solve_kernel(ds, KernelSpec("rbf", 1.0), SolverConfig())
        finally:
            solver.kernel_gram = orig

    def test_capacity_in_feature_norm(self):
        rng = np.random.default_rng(28)
        ds = random_ds(rng, n=8)
        m = solve_kernel(ds, KernelSpec("rbf", 0.7), SolverConfig(c=0.5, max_iters=50))
        assert m.info["feature_norm"] <= PAIR_G0 / 0.5 + 1e-6


# ---------------------------------------------------------------------------
# callback reference: each iterate's loss, the next step's subgradient and
# the loss's linear minorant come from separate evaluations of F(M), with
# fresh arrays throughout


def ref_pair_F(X, M, kind):
    G = X @ M @ X.T
    if kind == "bilinear":
        return G
    q = np.diag(G)
    return q[:, None] + q[None, :] - G - G.T


def ref_laplacian(X, W):
    r = W.sum(axis=1)
    c = W.sum(axis=0)
    return X.T @ (np.diag(r + c) - W - W.T) @ X


def ref_pair_callbacks(X, Y, kind):
    def loss_fn(M):
        return float(np.maximum(0.0, 1.0 - Y * (1.0 - ref_pair_F(X, M, kind))).mean())

    def grad_fn(M):
        F = ref_pair_F(X, M, kind)
        W = Y * (Y * (1.0 - F) < 1.0) / F.shape[0] ** 2
        return X.T @ W @ X if kind == "bilinear" else ref_laplacian(X, W)

    def active_fn(M):
        return float((Y * (1.0 - ref_pair_F(X, M, kind)) < 1.0).mean())

    def minorant_fn(M):
        # (G, v) with loss >= v + <M', G>: alpha = the active other-label
        # pairs; a distance minorant keeps every same-label pair, as f >= 0
        F = ref_pair_F(X, M, kind)
        alpha = (Y < 0) & (F < 2.0)
        v = 2.0 * alpha.sum() / F.shape[0] ** 2
        if kind == "bilinear":
            return grad_fn(M), v
        return ref_laplacian(X, (Y > 0) - alpha * 1.0) / F.shape[0] ** 2, v

    return loss_fn, grad_fn, active_fn, minorant_fn


def ref_triplet_callbacks(X, triplets):
    i, j, k = np.asarray(triplets).T
    nt = len(i)

    def args(M):
        F = ref_pair_F(X, M, "mahalanobis")
        return 1.0 - F[i, k] + F[i, j]

    def loss_fn(M):
        return float(np.maximum(0.0, args(M)).mean())

    def grad_fn(M):
        active = args(M) > 0.0
        n = X.shape[0]
        Wp = np.zeros((n, n))
        Wn = np.zeros((n, n))
        np.add.at(Wp, (i[active], j[active]), 1.0 / nt)
        np.add.at(Wn, (i[active], k[active]), 1.0 / nt)
        return ref_laplacian(X, Wp) - ref_laplacian(X, Wn)

    def active_fn(M):
        return float((args(M) > 0.0).mean())

    def minorant_fn(M):
        return grad_fn(M), active_fn(M)

    return loss_fn, grad_fn, active_fn, minorant_fn


def ref_dual_norm(G, reg):
    if reg == "fro":
        return np.linalg.norm(G)
    if reg == "l1":
        return np.abs(G).max()
    return np.linalg.norm(G, axis=0).max()


def ref_lower_bound(G, v, c, reg, psd):
    # t * v, t = min(1, c / ||G_-||_*), G_- the negative eigen-part of G
    # (G itself off the PSD cone)
    if psd:
        w, V = np.linalg.eigh((G + G.T) / 2.0)
        G = V @ np.diag(np.minimum(w, 0.0)) @ V.T
    return v * min(1.0, c / max(ref_dual_norm(G, reg), 1e-300))


def ref_norm_subgradient(M, reg):
    if reg == "fro":
        return M / np.linalg.norm(M) if M.any() else M
    if reg == "l1":
        return np.sign(M)
    norms = np.linalg.norm(M, axis=0)
    return np.where(norms > 0.0, M / np.where(norms > 0.0, norms, 1.0), 0.0)


def reference_iterate(d, callbacks, reg, cfg, psd):
    """The proximal Polyak rule: D is the best t * v over every iterate's
    minorant and the mean of those since the last restart (every
    solver.AVERAGE_EVERY iterations); the step is (P(M) - D)/||g||^2; the
    iterations stop at a gap within solver.GAP_TOL * D, a zero g or
    cfg.max_iters.  Returns the best M, the best history, the active
    fractions, D and the number of steps."""
    loss_fn, grad_fn, active_fn, minorant_fn = callbacks
    M = np.zeros((d, d))
    best = np.zeros((d, d))
    obj = best_obj = loss_fn(M)
    history, fractions = [best_obj], [active_fn(M)]
    dual, window, t = 0.0, [], 0
    while True:
        if t % solver.AVERAGE_EVERY == 0:
            window = []
        window.append(minorant_fn(M))
        G, v = window[-1]
        dual = max(dual, ref_lower_bound(G, v, cfg.c, reg, psd))
        G_avg = sum(G for G, _ in window) / len(window)
        v_avg = sum(v for _, v in window) / len(window)
        dual = max(dual, ref_lower_bound(G_avg, v_avg, cfg.c, reg, psd))
        if best_obj - dual <= solver.GAP_TOL * dual or t == cfg.max_iters:
            break
        grad = grad_fn(M)
        g = grad + cfg.c * ref_norm_subgradient(M, reg)
        if not g.any():
            break
        step = (obj - dual) / (g * g).sum()
        M = prox(M - step * grad, step * cfg.c, reg)
        if psd and reg == "l21":
            # project the block of the columns prox kept; the rest stays 0
            kept = np.linalg.norm(M, axis=0) != 0.0
            P = np.zeros_like(M)
            P[np.ix_(kept, kept)] = psd_project(M[np.ix_(kept, kept)])
            M = P
        elif psd:
            M = psd_project(M)
        t += 1
        obj = cfg.c * reg_norm(M, reg) + loss_fn(M)
        if obj < best_obj:
            best_obj = obj
            best = M.copy()
        history.append(best_obj)
        fractions.append(active_fn(M))
    return best, history, fractions, dual, t


def pair_signs(ds):
    li = ds.label_indices()
    return np.where(li[:, None] == li[None, :], 1.0, -1.0)


class TestSingleEvaluationMatchesReference:
    """The solver against reference_iterate, on two-class mixtures where
    every solve leaves M = 0.  "gap" runs at solver.GAP_TOL, so the two stop
    at the same certified iterate; "cap" turns the gap stop off, so both run
    all max_iters steps of the prox, PSD and l21 block path."""

    @staticmethod
    def stop_rule(monkeypatch, stop, cfg):
        # the least number of steps each solve must take under the rule
        if stop == "cap":
            monkeypatch.setattr(solver, "GAP_TOL", -1.0)
            return cfg.max_iters
        return 1

    @pytest.mark.parametrize("stop", ["gap", "cap"])
    @pytest.mark.parametrize(
        "kind,reg",
        [
            ("mahalanobis", "fro"),
            ("mahalanobis", "l1"),
            ("mahalanobis", "l21"),
            ("bilinear", "fro"),
        ],
    )
    def test_pair_solve_bitwise(self, monkeypatch, kind, reg, stop):
        # the distance solve sums the same-label pairs as <M, S> and the
        # other-label pairs in another order, and the bilinear solve sums
        # its label-run tiles in another order, so both agree to rounding.
        # The bilinear solve leaves M = 0 only at a smaller c
        c = 0.01 if kind == "bilinear" else 0.1
        cfg = SolverConfig(c=c, max_iters=60)
        floor = self.stop_rule(monkeypatch, stop, cfg)
        for n, d in ((30, 3), (9, 2)):
            ds = gen_synthetic(SyntheticSpec(n=n, d=d, seed=0))
            m = solve(ds, reg, cfg, kind=kind)
            M, history, fractions, dual, iterations = reference_iterate(
                d, ref_pair_callbacks(ds.X, pair_signs(ds), kind), reg, cfg,
                psd=(kind == "mahalanobis"),
            )
            assert m.info["iterations"] == iterations >= floor
            assert m.info["dual_bound"] == pytest.approx(dual, rel=1e-12)
            assert np.abs(M).max() > 0.0 and np.abs(m.M).max() > 0.0
            assert np.abs(m.M - M).max() <= 1e-12 * np.abs(M).max()
            assert m.info["best_history"] == pytest.approx(history, rel=1e-12, abs=1e-15)
            assert m.info["active_fraction"] == fractions

    @pytest.mark.parametrize("stop", ["gap", "cap"])
    @pytest.mark.parametrize("reg", ["fro", "l21"])
    def test_triplet_solve_within_rounding(self, monkeypatch, reg, stop):
        # the sorted counts sum the loss in another order, so the iterates
        # agree to rounding, not bit for bit
        cfg = SolverConfig(c=0.1, max_iters=60)
        floor = self.stop_rule(monkeypatch, stop, cfg)
        for classes in (2, 3):
            ds = gen_synthetic(SyntheticSpec(n=18, classes=classes, seed=0))
            m = solve_triplet(ds, reg, cfg)
            M, history, fractions, dual, iterations = reference_iterate(
                2, ref_triplet_callbacks(ds.X, build_triplets(ds)), reg, cfg, psd=True
            )
            assert m.info["iterations"] == iterations >= floor
            assert m.info["dual_bound"] == pytest.approx(dual, rel=1e-12)
            assert np.abs(M).max() > 0.0 and np.abs(m.M).max() > 0.0
            assert np.abs(m.M - M).max() <= 1e-12 * np.abs(M).max()
            assert m.info["best_history"] == pytest.approx(history, rel=1e-12, abs=1e-15)
            assert m.info["active_fraction"] == fractions


def psd_matrices(rng, d):
    # M = 0, a generic PSD M, a larger one (some other-label pairs beyond the
    # margin) and one with a zero column and row
    A = rng.standard_normal((d, d))
    P = A @ A.T
    Z = P.copy()
    Z[:, 1] = Z[1, :] = 0.0
    return np.zeros((d, d)), P, 4.0 * P, Z


class TestDistanceEvalMatchesReference:
    """The distance evaluator sums the same-label pairs as <M, S> and visits
    each other-label pair once, in label-sorted row tiles.  When M != 0 it
    counts every same-label pair of two different indices as active, also a
    pair whose difference lies in null(M): the reference counts such a pair
    by the sign of its rounded f, so its count depended on rounding."""

    @pytest.mark.parametrize("n_labels", [1, 2, 3, 10, 40])
    def test_loss_subgradient_and_active_fraction(self, monkeypatch, n_labels):
        # 40 points in tiles of 8 rows, the labels interleaved in input order;
        # from 3 labels on, some tile holds rows of two labels
        monkeypatch.setattr(core, "BLOCK_ROWS", 8)
        rng = np.random.default_rng(48 + n_labels)
        n, d = 40, 3
        X = rng.uniform(-1, 1, size=(n, d)) / np.sqrt(d)
        ds = Dataset(X, [f"c{i % n_labels}" for i in range(n)], 1.0)
        eval_fn = core.pair_eval(ds.X, ds.label_indices(), "mahalanobis")
        loss_fn, grad_fn, active_fn, _ = ref_pair_callbacks(ds.X, pair_signs(ds), "mahalanobis")
        for M in psd_matrices(rng, d):
            ev = eval_fn(M)
            loss, grad, active = ev.loss, ev.grad, ev.active
            ref_grad = grad_fn(M)
            assert loss == pytest.approx(loss_fn(M), rel=1e-12, abs=1e-15)
            assert np.abs(grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()
            assert active == active_fn(M)

    def test_duplicate_points_count_as_active(self):
        # ten distinct points, each three times; the copies share a label
        rng = np.random.default_rng(49)
        base = rng.uniform(-0.5, 0.5, size=(10, 2))
        idx = np.arange(30) % 10
        ds = Dataset(base[idx], ["a" if i < 5 else "b" for i in idx], 1.0)
        n = ds.n
        eval_fn = core.pair_eval(ds.X, ds.label_indices(), "mahalanobis")
        Y = pair_signs(ds)
        loss_fn, grad_fn, active_fn, _ = ref_pair_callbacks(ds.X, Y, "mahalanobis")
        for M in psd_matrices(rng, 2):
            ev = eval_fn(M)
            loss, grad, active = ev.loss, ev.grad, ev.active
            ref_grad = grad_fn(M)
            assert loss == pytest.approx(loss_fn(M), rel=1e-12, abs=1e-15)
            assert np.abs(grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()
            F = ref_pair_F(ds.X, M, "mahalanobis")
            other = np.count_nonzero((Y < 0) & (F < 2.0))
            same = np.count_nonzero(Y > 0) - n if M.any() else 0
            assert active == (same + other) / n**2
            # the reference's f of two copies is exactly 0: it leaves them out
            assert (active > active_fn(M)) == bool(M.any())


class TestBilinearEvalInTiles:
    """The bilinear evaluator visits every ordered pair once, in tiles of
    one label run against all columns, so it agrees with the n x n
    reference to rounding and holds no n x n array."""

    @pytest.mark.parametrize("rows", [1, 7, 256])
    def test_matches_full_reference(self, monkeypatch, rows):
        # 30 points with three interleaved labels: tiles of 7 rows leave a
        # short last tile in every run
        monkeypatch.setattr(core, "BLOCK_ROWS", rows)
        rng = np.random.default_rng(62)
        n, d = 30, 3
        X = rng.uniform(-1, 1, size=(n, d)) / np.sqrt(d)
        ds = Dataset(X, [("a", "b", "c")[i % 3] for i in range(n)], 1.0)
        eval_fn = core.pair_eval(ds.X, ds.label_indices(), "bilinear")
        loss_fn, grad_fn, active_fn, _ = ref_pair_callbacks(ds.X, pair_signs(ds), "bilinear")
        # M = 0, a symmetric M and a non-symmetric one (a bilinear l21
        # iterate is not symmetric), each small and large enough to put
        # pairs on both sides of the margin
        A = rng.standard_normal((d, d))
        for M in (np.zeros((d, d)), A + A.T, 3.0 * (A + A.T), A, 3.0 * A):
            ev = eval_fn(M)
            loss, grad, active = ev.loss, ev.grad, ev.active
            ref_grad = grad_fn(M)
            assert loss == pytest.approx(loss_fn(M), rel=1e-12, abs=1e-15)
            assert np.abs(grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()
            assert active == active_fn(M)

    def test_memory_below_one_n_by_n_array(self, monkeypatch):
        # one n x n float64 array is 11.5 MB at n = 1200; the n x n path
        # held three of them
        monkeypatch.setattr(core, "BLOCK_ROWS", 64)
        n = 1200
        ds = random_ds(np.random.default_rng(63), n=n)
        tracemalloc.start()
        try:
            solve(ds, "fro", SolverConfig(c=0.1, max_iters=1), kind="bilinear")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8


class TestPairTiles:
    """core.run_tiles holds rows of one label run, so the tiles pair_eval
    keeps (the runs but the last, against the later labels' columns) cover
    each pair with label_i < label_j once and no other pair: none needs a
    mask.  The bilinear evaluator takes the same tiles against all columns,
    and the triplet evaluator reads the anchors' run from them."""

    @staticmethod
    def tiles(monkeypatch, rows, n_labels):
        monkeypatch.setattr(core, "BLOCK_ROWS", rows)
        labels = np.arange(40) % n_labels
        order, _, starts, _ = core.sorted_runs(labels)
        tiles = core.run_tiles(starts, 40)
        for s, e, a0, a1 in tiles:
            assert a0 <= s < e <= a1 and e - s <= rows
        return labels[order], tiles

    @pytest.mark.parametrize("rows", [1, 8, 256])
    @pytest.mark.parametrize("n_labels", [1, 2, 3, 10, 40])
    def test_cover_each_other_label_pair_once(self, monkeypatch, rows, n_labels):
        sorted_labels, tiles = self.tiles(monkeypatch, rows, n_labels)
        covered = np.zeros((40, 40), dtype=int)
        for s, e, _, c0 in tiles:
            if c0 < 40:
                covered[s:e, c0:] += 1
        expected = sorted_labels[:, None] < sorted_labels[None, :]
        assert np.array_equal(covered, expected.astype(int))

    @pytest.mark.parametrize("rows", [1, 8, 256])
    @pytest.mark.parametrize("n_labels", [1, 2, 3, 10, 40])
    def test_bilinear_tiles_cover_every_ordered_pair_once(self, monkeypatch, rows, n_labels):
        _, tiles = self.tiles(monkeypatch, rows, n_labels)
        covered = np.zeros((40, 40), dtype=int)
        for s, e, _, _ in tiles:
            covered[s:e, :] += 1
        assert np.array_equal(covered, np.ones((40, 40), dtype=int))

    @pytest.mark.parametrize("rows", [1, 8, 256])
    @pytest.mark.parametrize("n_labels", [1, 2, 3, 10, 40])
    def test_each_anchor_in_one_tile_of_its_own_run(self, monkeypatch, rows, n_labels):
        sorted_labels, tiles = self.tiles(monkeypatch, rows, n_labels)
        covered = np.zeros(40, dtype=int)
        for s, e, a0, a1 in tiles:
            covered[s:e] += 1
            # [a0, a1) is the whole run of the anchors' label
            run = np.flatnonzero(sorted_labels == sorted_labels[s])
            assert (a0, a1) == (run[0], run[-1] + 1)
        assert np.array_equal(covered, np.ones(40, dtype=int))


class TestTripletEvalInBlocks:
    """The triplet evaluator visits the anchors core.BLOCK_ROWS rows at a
    time, so it agrees with the n x n reference to rounding and holds no
    n x n array."""

    @pytest.mark.parametrize("rows", [1, 7, 256])
    def test_matches_full_reference(self, monkeypatch, rows):
        # 30 points with three interleaved labels: blocks of 7 leave a short
        # last block and put every label in every block
        monkeypatch.setattr(core, "BLOCK_ROWS", rows)
        rng = np.random.default_rng(60)
        n, d = 30, 3
        X = rng.uniform(-1, 1, size=(n, d)) / np.sqrt(d)
        ds = Dataset(X, [("a", "b", "c")[i % 3] for i in range(n)], 1.0)
        eval_fn = core.triplet_eval(ds.X, ds.label_indices())
        loss_fn, grad_fn, active_fn, _ = ref_triplet_callbacks(ds.X, build_triplets(ds))
        for M in psd_matrices(rng, d):
            ev = eval_fn(M)
            loss, grad, active = ev.loss, ev.grad, ev.active
            ref_grad = grad_fn(M)
            assert loss == pytest.approx(loss_fn(M), rel=1e-12, abs=1e-15)
            assert np.abs(grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()
            assert active == active_fn(M)

    def test_memory_below_one_n_by_n_array(self, monkeypatch):
        # one n x n float64 array is 11.5 MB at n = 1200; the n x n path
        # peaked at several of them
        monkeypatch.setattr(core, "BLOCK_ROWS", 64)
        n = 1200
        ds = random_ds(np.random.default_rng(61), n=n)
        model = MetricModel("mahalanobis", M=np.array([[2.0, 0.5], [0.5, 1.0]]))
        runs = (
            lambda: solve_triplet(ds, "fro", SolverConfig(c=0.1, max_iters=1)),
            lambda: empirical_triplet_loss(model, ds),
        )
        for run in runs:
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < n * n * 8


def mixture_ds(rng, n, d=2):
    # two balanced classes at +/-0.5 e_1, scale 0.3, pulled into the unit ball
    y = np.arange(n) % 2
    X = np.where(y[:, None] == 0, 0.5, -0.5) * np.eye(d)[0] + 0.3 * rng.standard_normal((n, d))
    X /= np.maximum(1.0, np.linalg.norm(X, axis=1))[:, None]
    return Dataset(X, [f"c{v}" for v in y], 1.0)


class TestL21KeepsZeroColumns:
    # one informative axis out of five: the l21 prox zeroes the other
    # columns, and the PSD projection must not refill them from the rows,
    # not even with rounding residue
    @pytest.mark.parametrize("family", ["pair", "triplet"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_nonzero_model_with_zero_columns(self, family, seed):
        ds = mixture_ds(np.random.default_rng(seed), 60, d=5)
        cfg = SolverConfig(c=0.1, max_iters=200)
        if family == "pair":
            m = solve(ds, "l21", cfg)
        else:
            m = solve_triplet(ds, "l21", cfg)
        assert np.any(m.M != 0.0)
        zero = np.linalg.norm(m.M, axis=0) < 1e-12
        assert zero.any()
        assert np.all(np.linalg.norm(m.M[zero], axis=1) < 1e-12)
        assert np.all(m.M[:, zero] == 0.0) and np.all(m.M[zero] == 0.0)


def reference_solve_kernel(ds, ks, cfg):
    """The full-coordinate kernel solve: the n x n problem on S = K^{1/2}.
    Returns the learned feature-space Gram matrix S H S (the metric on the
    training points is its squared-distance form), the best history, the
    active fractions and the number of steps."""
    K = kernel_gram(ks, ds.X)
    w, V = np.linalg.eigh((K + K.T) / 2.0)
    S = (V * np.sqrt(np.maximum(w, 0.0))) @ V.T
    H, history, fractions, _, iterations = reference_iterate(
        ds.n, ref_pair_callbacks(S, pair_signs(ds), "mahalanobis"), "fro", cfg, psd=True
    )
    return S @ H @ S, history, fractions, iterations


def bench_feature_norm(ds, sigma, M):
    # ||K^1/2 M K^1/2||_F with K and its square root built independently of
    # the package, by broadcasting and one eigh
    sq = ((ds.X[:, None, :] - ds.X[None, :, :]) ** 2).sum(axis=2)
    w, V = np.linalg.eigh(np.exp(-sq / (2.0 * sigma**2)))
    S = (V * np.sqrt(np.maximum(w, 0.0))) @ V.T
    return float(np.linalg.norm(S @ M @ S))


class TestLowRankKernelSolve:
    CFG = SolverConfig(c=0.1, max_iters=100)

    def problems(self):
        rng = np.random.default_rng(47)
        yield mixture_ds(rng, 200), KernelSpec("rbf", 1.0)
        # 12 distinct points, each repeated: the Gram matrix has rank <= 12
        base = mixture_ds(rng, 12)
        idx = np.arange(30) % 12
        yield Dataset(base.X[idx], [base.y[i] for i in idx], 1.0), KernelSpec("rbf", 0.8)

    def test_matches_full_reference(self):
        for ds, ks in self.problems():
            m = solve_kernel(ds, ks, self.CFG)
            SHS, history, fractions, iterations = reference_solve_kernel(ds, ks, self.CFG)
            assert m.info["iterations"] == iterations
            assert m.info["best_history"] == pytest.approx(history, rel=1e-8)
            # a pair of duplicated points sits exactly on the hinge kink in
            # one coordinate system and a rounding error off it in the other
            if len(np.unique(ds.X, axis=0)) == ds.n:
                assert m.info["active_fraction"] == fractions
            K = kernel_gram(ks, ds.X)
            assert np.abs(K @ m.M @ K - SHS).max() <= 1e-8 * np.abs(SHS).max()

    def test_rank_counts_kept_eigenvalues(self):
        # the rank is counted on the Gram matrix of the landmarks, which are
        # the model's support; duplicated points are never two landmarks
        ranks = []
        for ds, ks in self.problems():
            m = solve_kernel(ds, ks, self.CFG)
            w = np.linalg.eigvalsh(kernel_gram(ks, ds.X[m.support]))
            assert m.info["rank"] == np.count_nonzero(w > solver.KPCA_RANK_TOL * w.max())
            assert m.info["rank_tol"] == solver.KPCA_RANK_TOL
            ranks.append(m.info["rank"])
        assert ranks[0] < 200 and ranks[1] <= 12

    def test_landmark_features_reproduce_the_gram(self):
        # the pivots stop once no residual diagonal k(x, x) - ||phi_L(x)||^2
        # exceeds KPCA_RANK_TOL (the largest diagonal is 1 for rbf), and the
        # residual is PSD, so no entry of the Gram matrix is off by more;
        # dropping the landmark Gram's smallest eigenvalues adds rounding
        for ds, ks in self.problems():
            landmarks, C, B = solver._landmark_basis(ks, ds.X)
            assert len(np.unique(ds.X[landmarks], axis=0)) == len(landmarks)
            Phi = C @ B
            assert np.abs(Phi @ Phi.T - kernel_gram(ks, ds.X)).max() <= 100 * solver.KPCA_RANK_TOL
            # B whitens the landmark Gram: the feature norm ||H||_F
            assert np.allclose(B.T @ C[landmarks] @ B, np.eye(B.shape[1]), rtol=0.0, atol=1e-6)

    def test_landmark_projection_keeps_the_feature_constants(self):
        # phi_L(x) = B^T k(X_L, x) is the projection of the rbf feature onto
        # the landmarks' span: ||phi_L(x)|| <= 1 = sqrt(k(x, x)), and it only
        # shrinks distances, ||phi_L(x) - phi_L(x')||^2 <= f_H(||x - x'||),
        # so the certificate's feature radius and epsilon hold for the model
        rng = np.random.default_rng(48)
        for ds, ks in self.problems():
            landmarks, _, B = solver._landmark_basis(ks, ds.X)
            P, Q = rng.uniform(-1, 1, size=(2, 400, 2))
            fp, fq = (kernel_gram(ks, Z, ds.X[landmarks]) @ B for Z in (P, Q))
            assert np.sqrt((fp * fp).sum(axis=1)).max() <= 1.0 + 1e-12
            dist = np.linalg.norm(P - Q, axis=1)
            f_H = np.array([rbf_fH(float(v), ks.sigma) for v in dist])
            assert (((fp - fq) ** 2).sum(axis=1) <= f_H + 1e-12).all()

    def test_model_is_zero_off_the_landmarks(self, tmp_path):
        for ds, ks in self.problems():
            m = solve_kernel(ds, ks, self.CFG)
            landmarks = solver._landmark_basis(ks, ds.X)[0]
            assert np.array_equal(m.support, landmarks)
            off = np.setdiff1d(np.arange(ds.n), landmarks)
            assert not m.M[off].any() and not m.M[:, off].any()
            save_model(m, tmp_path / "m.json")
            saved = load_model(tmp_path / "m.json", anchors=ds)
            assert np.array_equal(saved.support, m.support)
            assert np.array_equal(metric_matrix(saved, ds.X), metric_matrix(m, ds.X))

    def test_memory_stays_below_two_square_arrays(self):
        # the one n x n array is the returned M: no Gram matrix, no n x n
        # eigendecomposition or product, and the model's checks run on the
        # landmark block
        ds = gen_synthetic(SyntheticSpec(n=1200, seed=3))
        tracemalloc.start()
        try:
            m = solve_kernel(ds, KernelSpec("rbf", 1.0), SolverConfig(c=0.1, max_iters=5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(m.support) < 100
        assert peak < 2 * 8 * ds.n * ds.n

    def test_saved_model_objective_equals_printed(self, tmp_path):
        for ds, ks in self.problems():
            m = solve_kernel(ds, ks, self.CFG)
            save_model(m, tmp_path / "m.json")
            saved = load_model(tmp_path / "m.json", anchors=ds)
            recomputed = objective(saved, ds)
            assert recomputed == pytest.approx(m.info["objective"], rel=1e-9)

    def test_capacity_recomputed_independently(self):
        for ds, ks in self.problems():
            m = solve_kernel(ds, ks, self.CFG)
            norm = bench_feature_norm(ds, ks.sigma, m.M)
            assert self.CFG.c * norm <= PAIR_G0 * (1.0 + 1e-6)
            assert norm == pytest.approx(m.info["feature_norm"], rel=1e-9)


class TestSolverInfo:
    # two-class mixtures, on which each solve moves off M = 0
    def test_pair_fields(self):
        ds = gen_synthetic(SyntheticSpec(n=12, seed=43))
        c = 0.2
        m = solve(ds, "l21", SolverConfig(c=c, max_iters=40))
        assert m.info["iterations"] > 0
        fractions = m.info["active_fraction"]
        assert len(fractions) == len(m.info["best_history"]) == m.info["iterations"] + 1
        # at M = 0 exactly the different-label pairs are active
        assert fractions[0] == (pair_signs(ds) < 0).mean()
        assert all(0.0 <= f <= 1.0 for f in fractions)
        assert m.info["capacity_ratio"] == c * reg_norm(m.M, "l21") / PAIR_G0
        assert m.info["capacity_ratio"] <= 1.0

    def test_triplet_fields(self):
        ds = gen_synthetic(SyntheticSpec(n=10, seed=44))
        c = 0.2
        m = solve_triplet(ds, "fro", SolverConfig(c=c, max_iters=40))
        assert m.info["iterations"] > 0
        assert m.info["active_fraction"][0] == 1.0  # every hinge is 1 at M = 0
        assert len(m.info["active_fraction"]) == m.info["iterations"] + 1
        assert m.info["capacity_ratio"] == c * reg_norm(m.M, "fro") / 1.0
        assert m.info["capacity_ratio"] <= 1.0

    def test_kernel_capacity_in_feature_norm(self):
        ds = gen_synthetic(SyntheticSpec(n=20, seed=45))
        cfg = SolverConfig(c=0.05, max_iters=30)
        m = solve_kernel(ds, KernelSpec("rbf", 1.0), cfg)
        assert m.info["feature_norm"] > 0.0
        assert m.info["capacity_ratio"] == 0.05 * m.info["feature_norm"] / PAIR_G0


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads Linux minor-fault counts")
def test_pair_solve_reuses_its_buffers(monkeypatch):
    # a solve that allocated fresh n x n temporaries every iteration would
    # fault in every page of each one again, about 400 000 faults here; the
    # gap stop is off, so all 300 iterations run
    import resource

    monkeypatch.setattr(solver, "GAP_TOL", -1.0)
    ds = gen_synthetic(SyntheticSpec(n=300, seed=46))
    cfg = SolverConfig(c=0.1, max_iters=300)
    solve(ds, "fro", cfg)  # the first solve may grow the heap
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    m = solve(ds, "fro", cfg)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 40_000
    assert m.info["iterations"] == cfg.max_iters


class TestDualBound:
    """The solver's lower bound D <= P* (info["dual_bound"]), its gap stop
    and the proximal Polyak step that aims at D."""

    @staticmethod
    def problems():
        # random labels, where M = 0 is often certified optimal, and two
        # mixtures, on which every family moves off M = 0 at c = 0.02
        yield random_ds(np.random.default_rng(70), n=16, d=3)
        yield gen_synthetic(SyntheticSpec(n=16, d=3, seed=70))
        yield gen_synthetic(SyntheticSpec(n=24, d=3, classes=3, seed=71))

    @staticmethod
    def random_models(rng, family, p):
        # M = 0, random PSD matrices (any matrix for bilinear) on a range
        # of scales, for the family's model kind
        yield np.zeros((p, p))
        for scale in (0.1, 1.0, 10.0):
            A = scale * rng.standard_normal((p, p))
            yield A if FAMILIES[family].kind == "bilinear" else A @ A.T

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_bound_below_every_iterate_and_random_models(self, family, monkeypatch):
        # every value D takes during a solve is at most the objective of
        # every iterate (best_history holds their running minimum) and of
        # random models of the family
        values = []
        raise_ = solver._LowerBound._raise

        def spy(self, v, norm):
            raise_(self, v, norm)
            values.append(self.value)

        monkeypatch.setattr(solver._LowerBound, "_raise", spy)
        rng = np.random.default_rng(72)
        fam = FAMILIES[family]
        c = 0.02
        iterations = []
        for ds in self.problems():
            values.clear()
            m = train_family(ds, family, SolverConfig(c=c, max_iters=40), sigma=0.7)
            iterations.append(m.info["iterations"])
            assert values and max(values) == m.info["dual_bound"]
            assert m.info["gap"] == m.info["objective"] - m.info["dual_bound"]
            assert m.info["dual_bound"] <= min(m.info["best_history"]) + 1e-12
            p = m.M.shape[0]
            for M in self.random_models(rng, family, p):
                probe = MetricModel(m.kind, M=M, kernel=m.kernel, anchors=m.anchors,
                                    regularizer=m.regularizer, info={"c": c})
                if family.startswith("triplet-"):
                    obj = c * reg_norm(M, fam.reg) + empirical_triplet_loss(probe, ds)
                else:
                    obj = objective(probe, ds)
                assert m.info["dual_bound"] <= obj + 1e-12
        assert min(iterations[1:]) > 0

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_bound_below_a_long_reference_run(self, family, monkeypatch):
        ds = gen_synthetic(SyntheticSpec(n=20, d=2, seed=73))
        cfg = SolverConfig(c=0.05, max_iters=300)
        m = train_family(ds, family, cfg, sigma=0.7)
        tol = solver.GAP_TOL
        # no gap stop: the reference runs all 3000 iterations unless g = 0
        monkeypatch.setattr(solver, "GAP_TOL", -1.0)
        ref = train_family(ds, family, SolverConfig(c=0.05, max_iters=3000), sigma=0.7)
        assert m.info["dual_bound"] <= ref.info["objective"] + 1e-12
        assert ref.info["dual_bound"] <= ref.info["objective"] + 1e-12
        if m.info["iterations"] < cfg.max_iters:
            # an early stop is certified within GAP_TOL
            assert m.info["gap"] <= tol * m.info["dual_bound"]
            assert m.info["objective"] <= (1.0 + tol) * ref.info["objective"] + 1e-12

    def test_fro_gap_goes_to_zero(self, monkeypatch):
        # a problem whose optimum the active-set minorants certify exactly:
        # the gap shrinks towards 0 as the iterations grow
        monkeypatch.setattr(solver, "GAP_TOL", 0.0)
        ds = make_ds([[0.0, 0.0], [1.0, 0.0], [0.0, 0.5], [1.0, 0.5]], "abab", R=2.0)
        gaps = []
        for iters in (5, 20, 100, 1000):
            m = solve(ds, "fro", SolverConfig(c=0.01, max_iters=iters))
            assert m.info["iterations"] == iters
            gaps.append(m.info["gap"])
        assert all(b <= a for a, b in zip(gaps, gaps[1:]))
        assert 0.0 <= gaps[-1] <= 1e-12 * m.info["dual_bound"] and gaps[0] > 1e-6

    def test_zero_subgradient_stops_without_nan(self, monkeypatch):
        # the two labels share one point: the loss subgradient at M = 0 is 0,
        # so g = 0 and M = 0 is optimal; the Polyak step would be 0/0
        monkeypatch.setattr(solver, "GAP_TOL", -1.0)
        ds = make_ds([[0.5, 0.0], [0.5, 0.0]], "ab")
        for m in (solve(ds, "fro", SolverConfig(c=0.1)),
                  solve(ds, "l1", SolverConfig(c=0.1)),
                  solve_kernel(ds, KernelSpec("rbf"), SolverConfig(c=0.1))):
            assert m.info["iterations"] == 0
            assert not m.M.any()
            assert m.info["objective"] == m.info["dual_bound"] == 1.0
            assert m.info["gap"] == 0.0

    def test_linear_kernel_stops_at_the_plain_iterate(self):
        # the step, the bound and the stop test are invariant under the
        # KPCA coordinates Psi = XQ of a linear kernel
        rng = np.random.default_rng(74)
        moved = 0
        for _ in range(5):
            ds = random_ds(rng, n=30, d=2)
            cfg = SolverConfig(c=0.02, max_iters=200)
            plain = solve(ds, "fro", cfg)
            kern = solve_kernel(ds, KernelSpec("linear"), cfg)
            assert kern.info["iterations"] == plain.info["iterations"]
            assert kern.info["objective"] == pytest.approx(plain.info["objective"], rel=1e-9)
            moved += plain.info["iterations"] > 0
        assert moved
