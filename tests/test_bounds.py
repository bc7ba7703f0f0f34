import math

import numpy as np
import pytest
from scipy.stats import binom

from metricert import bounds, core
from metricert.bounds import (
    BoundQuery,
    RobustnessQuery,
    bhc_simulate,
    bound_value,
    cell_stats,
    empirical_epsilon,
    epsilon_theoretical,
    pseudo_robust_count,
    rbf_fH,
)
from metricert.core import (
    Dataset,
    LossSpec,
    MetricModel,
    build_pairs,
    pair_loss,
)
from metricert.cover import CoverConfig, assign_cells, build_partition
from metricert.harness import SyntheticSpec, gen_synthetic
from metricert.solver import SolverConfig, solve

LS = LossSpec()


def make_ds(points, labels, R=None):
    X = np.atleast_2d(np.asarray(points, dtype=float))
    if R is None:
        R = float(np.linalg.norm(X, axis=1).max()) + 1e-12
    return Dataset(X, list(labels), R)


class TestEpsilonTheoretical:
    def test_fro_hand_value(self):
        q = RobustnessQuery("fro", U=1, R=1, gamma=0.1, g0=2, c=1)
        assert epsilon_theoretical(q) == pytest.approx(1.6)

    def test_gamma_zero(self):
        for fam in ("fro", "l1", "l21", "bilinear", "triplet-fro"):
            q = RobustnessQuery(fam, U=1, R=1, gamma=0.0, g0=2, c=1)
            assert epsilon_theoretical(q) == 0.0
        qk = RobustnessQuery("kernel-rbf", U=1, R=1, gamma=0.0, g0=2, c=1, sigma=1.0)
        assert epsilon_theoretical(qk) == 0.0

    def test_triplet_is_twice_pair(self):
        qp = RobustnessQuery("fro", U=1, R=1, gamma=0.1, g0=2, c=1)
        qt = RobustnessQuery("triplet-fro", U=1, R=1, gamma=0.1, g0=2, c=1)
        assert epsilon_theoretical(qt) == pytest.approx(2 * epsilon_theoretical(qp))
        assert epsilon_theoretical(qt) == pytest.approx(3.2)

    def test_bilinear_quarter_of_fro(self):
        qb = RobustnessQuery("bilinear", U=1, R=1, gamma=0.1, g0=2, c=1)
        assert epsilon_theoretical(qb) == pytest.approx(0.4)


class TestRbfFH:
    def test_gamma_zero(self):
        assert rbf_fH(0.0, 1.0) == 0.0

    def test_hand_value(self):
        assert rbf_fH(1.0, 1.0) == pytest.approx(2 * (1 - math.exp(-0.5)))
        assert rbf_fH(1.0, 1.0) == pytest.approx(0.786939, abs=1e-6)

    def test_large_gamma_limit(self):
        assert rbf_fH(1e6, 1.0) == pytest.approx(2.0)

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_matches_brute_force(self, sigma, gamma):
        rng = np.random.default_rng(0)
        best = 0.0
        for _ in range(10000):
            a = rng.uniform(-2, 2, size=2)
            u = rng.standard_normal(2)
            u /= np.linalg.norm(u)
            b = a + u * rng.uniform(0, gamma)
            k_ab = math.exp(-np.sum((a - b) ** 2) / (2 * sigma**2))
            best = max(best, 2.0 - 2.0 * k_ab)
        assert best <= rbf_fH(gamma, sigma) + 1e-12
        assert rbf_fH(gamma, sigma) - best <= 1e-3


def brute_force_epsilon(model, part, ds, probe):
    """Independent double-loop oracle for the pair deviation maximum."""
    ids_tr = assign_cells(part, ds.X, ds.y)
    ids_pr = assign_cells(part, probe.X, probe.y)
    best = 0.0
    for i in range(ds.n):
        for j in range(ds.n):
            for a in range(probe.n):
                for b in range(probe.n):
                    if ids_pr[a] < 0 or ids_pr[b] < 0:
                        continue
                    if ids_tr[i] == ids_pr[a] and ids_tr[j] == ids_pr[b]:
                        lt = pair_loss(model, LS, ds[i], ds[j])
                        lp = pair_loss(model, LS, probe[a], probe[b])
                        best = max(best, abs(lt - lp))
    return best


class TestEmpiricalEpsilon:
    def test_zero_matrix_gives_zero(self):
        ds = make_ds([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5]], "aab")
        part = build_partition(ds, CoverConfig(gamma=0.4), probe=ds)
        zero = MetricModel("mahalanobis", M=np.zeros((2, 2)))
        assert empirical_epsilon(zero, LS, part, ds, ds).value == 0.0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(4, 10))
            m = int(rng.integers(3, 8))
            Xtr = rng.uniform(-1, 1, size=(n, 2))
            Xpr = rng.uniform(-1, 1, size=(m, 2))
            R = float(max(np.linalg.norm(Xtr, axis=1).max(), np.linalg.norm(Xpr, axis=1).max()))
            ds = make_ds(Xtr, rng.choice(["a", "b"], size=n), R=R)
            probe = make_ds(Xpr, rng.choice(["a", "b"], size=m), R=R)
            part = build_partition(ds, CoverConfig(gamma=0.8), probe=probe)
            A = rng.standard_normal((2, 2))
            model = MetricModel("mahalanobis", M=A @ A.T)
            got = empirical_epsilon(model, LS, part, ds, probe)
            assert got.value == pytest.approx(
                brute_force_epsilon(model, part, ds, probe), abs=1e-12
            )

    def test_excluded_probe_count(self):
        ds = make_ds([[0.0, 0.0]], "a", R=5.0)
        probe = make_ds([[0.01, 0.0], [3.0, 0.0]], "aa", R=5.0)
        part = build_partition(ds, CoverConfig(gamma=0.5))  # probe NOT covered
        zero = MetricModel("mahalanobis", M=np.zeros((2, 2)))
        est = empirical_epsilon(zero, LS, part, ds, probe)
        assert est.excluded_probes == 1

    def test_bounded_by_theoretical(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            spec = SyntheticSpec(n=20, d=2, seed=int(rng.integers(10**6)))
            ds = gen_synthetic(spec)
            c = 0.5
            model = solve(ds, build_pairs(ds), LS, "fro", SolverConfig(c=c, max_iters=40))
            probe = gen_synthetic(SyntheticSpec(n=20, d=2, seed=int(rng.integers(10**6))))
            gamma = 0.5
            part = build_partition(ds, CoverConfig(gamma=gamma), probe=probe)
            got = empirical_epsilon(model, LS, part, ds, probe)
            q = RobustnessQuery("fro", U=1, R=ds.R, gamma=gamma, g0=2, c=c)
            assert got.value <= epsilon_theoretical(q) + 1e-9


class TestPseudoRobustCount:
    def _setup(self, seed=15):
        rng = np.random.default_rng(seed)
        ds = make_ds(rng.uniform(-1, 1, size=(8, 2)), rng.choice(["a", "b"], size=8))
        probe = make_ds(rng.uniform(-1, 1, size=(6, 2)), rng.choice(["a", "b"], size=6), R=ds.R)
        part = build_partition(ds, CoverConfig(gamma=0.8), probe=probe)
        A = rng.standard_normal((2, 2))
        model = MetricModel("mahalanobis", M=A @ A.T)
        return model, part, ds, probe

    def test_at_empirical_epsilon_all_pairs(self):
        model, part, ds, probe = self._setup()
        eps = empirical_epsilon(model, LS, part, ds, probe).value
        assert pseudo_robust_count(model, LS, part, ds, probe, eps) == ds.n**2

    def test_zero_matrix_epsilon_zero(self):
        _, part, ds, probe = self._setup()
        zero = MetricModel("mahalanobis", M=np.zeros((2, 2)))
        assert pseudo_robust_count(zero, LS, part, ds, probe, 0.0) == ds.n**2

    def test_midrange_matches_oracle(self):
        model, part, ds, probe = self._setup(seed=17)
        eps = 0.5 * empirical_epsilon(model, LS, part, ds, probe).value
        count = brute_force_count(model, part, ds, probe, eps)
        assert pseudo_robust_count(model, LS, part, ds, probe, eps) == count


def brute_force_count(model, part, ds, probe, eps):
    """Independent double-loop oracle for the pseudo-robust count."""
    ids_tr = assign_cells(part, ds.X, ds.y)
    ids_pr = assign_cells(part, probe.X, probe.y)
    count = 0
    for i in range(ds.n):
        for j in range(ds.n):
            ok = True
            lt = pair_loss(model, LS, ds[i], ds[j])
            for a in range(probe.n):
                for b in range(probe.n):
                    if ids_pr[a] < 0 or ids_pr[b] < 0:
                        continue
                    if ids_tr[i] == ids_pr[a] and ids_tr[j] == ids_pr[b]:
                        lp = pair_loss(model, LS, probe[a], probe[b])
                        if abs(lt - lp) > eps + 1e-12:
                            ok = False
            count += ok
    return count


class TestCellStats:
    def test_blocks_split_cells_match_oracles(self, monkeypatch):
        # blocks of 2 rows against runs of several points per cell: runs
        # straddle block boundaries in both the probe and the training pass
        monkeypatch.setattr(core, "BLOCK_ROWS", 2)
        rng = np.random.default_rng(19)
        for trial in range(4):
            n, m = 14, 11
            Xtr = rng.uniform(-1, 1, size=(n, 2))
            Xpr = np.vstack([rng.uniform(-1, 1, size=(m - 1, 2)), [[2.5, 0.0]]])
            R = float(max(np.linalg.norm(Xtr, axis=1).max(), np.linalg.norm(Xpr, axis=1).max()))
            ds = make_ds(Xtr, rng.choice(["a", "b"], size=n), R=R)
            probe = make_ds(Xpr, rng.choice(["a", "b"], size=m), R=R)
            part = build_partition(ds, CoverConfig(gamma=1.6))  # the last probe is uncovered
            ids = np.sort(assign_cells(part, probe.X, probe.y))
            ids = ids[ids >= 0]
            assert any(ids[i - 1] == ids[i] for i in range(2, len(ids), 2))
            A = rng.standard_normal((2, 2))
            model = (
                MetricModel("bilinear", M=A)
                if trial % 2
                else MetricModel("mahalanobis", M=A @ A.T)
            )
            eps_oracle = brute_force_epsilon(model, part, ds, probe)
            for scale in (0.0, 0.4, 1.0):
                est, p_hat = cell_stats(model, LS, part, ds, probe, scale * eps_oracle)
                assert est.value == pytest.approx(eps_oracle, abs=1e-12)
                assert est.excluded_probes == int((assign_cells(part, probe.X, probe.y) < 0).sum())
                assert p_hat == brute_force_count(model, part, ds, probe, scale * eps_oracle)

    def test_no_covered_probe(self):
        ds = make_ds([[0.0, 0.0], [0.1, 0.0]], "ab", R=5.0)
        probe = make_ds([[3.0, 0.0]], "a", R=5.0)
        part = build_partition(ds, CoverConfig(gamma=0.5))
        model = MetricModel("mahalanobis", M=np.eye(2))
        est, p_hat = cell_stats(model, LS, part, ds, probe, 0.0)
        assert (est.value, est.excluded_probes, p_hat) == (0.0, 1, ds.n**2)


class TestBoundValue:
    def test_zero_everything(self):
        for mode in ("pair", "triplet"):
            q = BoundQuery(epsilon=0.0, B=0.0, K=1, n=10, delta=0.5, mode=mode)
            assert bound_value(q) == 0.0

    def test_pair_hand_value(self):
        q = BoundQuery(epsilon=0.0, B=1.0, K=2, n=1000, delta=0.05)
        expected = 2 * math.sqrt((4 * math.log(2) + 2 * math.log(20)) / 1000)
        assert bound_value(q) == pytest.approx(expected)
        assert bound_value(q) == pytest.approx(0.18723, abs=1e-5)

    def test_pseudo_collapse(self):
        q_pair = BoundQuery(epsilon=0.3, B=2.0, K=5, n=40, delta=0.1)
        q_pse = BoundQuery(
            epsilon=0.3, B=2.0, K=5, n=40, delta=0.1, mode="pseudo", p_hat=1600
        )
        assert abs(bound_value(q_pair) - bound_value(q_pse)) <= 1e-12

    def test_triplet_coefficient_ratio(self):
        q_pair = BoundQuery(epsilon=0.0, B=1.7, K=3, n=50, delta=0.05)
        q_trip = BoundQuery(epsilon=0.0, B=1.7, K=3, n=50, delta=0.05, mode="triplet")
        assert bound_value(q_trip) == pytest.approx(1.5 * bound_value(q_pair))

    def test_monotonicity_probes(self):
        base = dict(epsilon=0.1, B=1.0, K=4, n=100, delta=0.05)
        b0 = bound_value(BoundQuery(**base))
        assert bound_value(BoundQuery(**{**base, "epsilon": 0.2})) >= b0
        assert bound_value(BoundQuery(**{**base, "B": 2.0})) >= b0
        assert bound_value(BoundQuery(**{**base, "K": 8})) >= b0
        assert bound_value(BoundQuery(**{**base, "n": 400})) <= b0
        assert bound_value(BoundQuery(**{**base, "delta": 0.2})) <= b0


class TestBhc:
    def test_lambda_above_two_gives_zero_tail(self):
        res = bhc_simulate(3, [0.3, 0.3, 0.4], 50, 2.1, trials=2000, seed=0)
        assert res.empirical_tail == 0.0
        assert not res.violated

    def test_binomial_oracle_case(self):
        res = bhc_simulate(2, [0.5, 0.5], 100, 0.3, trials=100_000, seed=1)
        # statistic = 2|N1/100 - 0.5| >= 0.3 iff N1 <= 35 or N1 >= 65
        exact = 2 * binom.cdf(35, 100, 0.5)
        assert res.cap == pytest.approx(4 * math.exp(-4.5))
        assert abs(res.empirical_tail - exact) <= 3 * res.std_error + 1e-4
        assert res.empirical_tail <= res.cap + 3 * res.std_error

    def test_tail_shrinks_with_n(self):
        tails = [
            bhc_simulate(2, [0.5, 0.5], n, 0.25, trials=40_000, seed=2).empirical_tail
            for n in (50, 100, 200, 400)
        ]
        assert all(b <= a + 0.01 for a, b in zip(tails, tails[1:]))

    def test_chunks_match_one_draw(self, monkeypatch):
        # 2500 trials in chunks of 1000: the last chunk is partial
        monkeypatch.setattr(bounds, "_BHC_CHUNK", 1000)
        mu = np.full(5, 0.2)
        res = bhc_simulate(5, mu, 40, 0.35, trials=2500, seed=4)
        counts = np.random.default_rng(4).multinomial(40, mu, size=2500)
        tail = float((np.abs(counts / 40 - mu[None, :]).sum(axis=1) >= 0.35).mean())
        assert 0.0 < tail < 1.0
        assert res.empirical_tail == tail
        assert res.std_error == math.sqrt(tail * (1.0 - tail) / 2500)

    def test_invalid_mu(self):
        with pytest.raises(ValueError):
            bhc_simulate(2, [0.5, 0.6], 10, 0.1)
