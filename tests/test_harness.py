import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import ks_2samp

from metricert import core, harness
from metricert.bounds import concentration_root
from metricert.core import FAMILIES, Dataset, KernelSpec, MetricModel, metric_matrix
from metricert.cover import CoverConfig
from metricert.harness import (
    ExperimentConfig,
    SyntheticSpec,
    certify,
    gap_curve,
    gen_synthetic,
    knn_eval,
    run_experiment,
    true_loss_estimate,
)
from metricert.solver import SolverConfig, model_norm, solve, solve_kernel

from helpers import TILE_BUDGETS


class TestGenSynthetic:
    def test_zero_scale_points_equal_means(self):
        spec = SyntheticSpec(d=2, n=20, classes=2, cov_scale=0.0, R=1.0, seed=3)
        ds = gen_synthetic(spec)
        means = {spec.label_names[k]: np.asarray(spec.means[k]) for k in range(2)}
        for i in range(ds.n):
            assert np.allclose(ds.X[i], means[ds.y[i]])

    def test_seed_determinism(self):
        spec = SyntheticSpec(n=50, seed=9)
        d1, d2 = gen_synthetic(spec), gen_synthetic(spec)
        assert np.array_equal(d1.X, d2.X)
        assert d1.y == d2.y

    def test_points_inside_ball(self):
        spec = SyntheticSpec(n=200, cov_scale=0.8, R=1.0, seed=5)
        ds = gen_synthetic(spec)
        assert np.linalg.norm(ds.X, axis=1).max() <= 1.0 + 1e-12

    def test_class_proportions_near_uniform(self):
        spec = SyntheticSpec(n=1000, classes=2, cov_scale=0.1, seed=7)
        ds = gen_synthetic(spec)
        frac = sum(lab == "c0" for lab in ds.y) / ds.n
        se = 0.5 / np.sqrt(ds.n)
        assert abs(frac - 0.5) <= 3 * se

    def test_radius_whose_square_overflows_refused_by_name(self):
        # the norms of the mean check and the acceptance test overflow from
        # R = 1.35e154 on; below that, sampling stays free of warnings
        for R in (1.35e154, 1e300):
            with pytest.raises(ValueError, match=r"R=.* is too large"):
                SyntheticSpec(R=R)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = gen_synthetic(SyntheticSpec(n=50, cov_scale=1e154, R=1.3e154, seed=2))
        assert np.linalg.norm(ds.X, axis=1).max() <= 1.3e154

    def test_hopeless_rejection_errors(self):
        spec = SyntheticSpec(n=5, cov_scale=50.0, R=0.01, means=((0.0, 0.0),), classes=1, seed=1)
        with pytest.raises(ValueError):
            gen_synthetic(spec)


def reference_gen_synthetic(spec, seed):
    """The one-point-at-a-time sampler: a class, then normals until the
    point lands in the R-ball."""
    rng = np.random.default_rng(seed)
    means = np.asarray(spec.means)
    X = np.empty((spec.n, spec.d))
    y = []
    for i in range(spec.n):
        k = int(rng.integers(spec.classes))
        while True:
            x = means[k] + spec.cov_scale * rng.standard_normal(spec.d)
            if np.linalg.norm(x) <= spec.R:
                break
        X[i] = x
        y.append(spec.label_names[k])
    return X, np.asarray(y)


class CountingRng:
    """A default_rng stand-in that records the rows of each normal draw."""

    def __init__(self, rng):
        self.rng = rng
        self.rounds = []

    def integers(self, *args, **kwargs):
        return self.rng.integers(*args, **kwargs)

    def standard_normal(self, size):
        self.rounds.append(size[0])
        return self.rng.standard_normal(size)


def count_rounds(monkeypatch, spec):
    made = []
    default_rng = np.random.default_rng

    def factory(seed):
        made.append(CountingRng(default_rng(seed)))
        return made[-1]

    monkeypatch.setattr(harness.np.random, "default_rng", factory)
    ds = gen_synthetic(spec)
    monkeypatch.undo()
    return ds, made[0].rounds


class TestBatchedSampler:
    @pytest.mark.parametrize("cov_scale", [0.3, 0.8])
    def test_matches_reference_distribution(self, cov_scale):
        spec = SyntheticSpec(d=2, n=5000, classes=2, cov_scale=cov_scale, seed=11)
        ds = gen_synthetic(spec)
        X_ref, y_ref = reference_gen_synthetic(spec, seed=12)
        y = np.asarray(ds.y)
        radii = ks_2samp(np.linalg.norm(ds.X, axis=1), np.linalg.norm(X_ref, axis=1))
        assert radii.pvalue > 1e-3
        for lab in spec.label_names:
            for j in range(spec.d):
                ks = ks_2samp(ds.X[y == lab, j], X_ref[y_ref == lab, j])
                assert ks.pvalue > 1e-3, (lab, j)

    def test_class_proportions_within_3_se(self):
        spec = SyntheticSpec(d=3, n=5000, classes=3, cov_scale=0.3, seed=13)
        y = np.asarray(gen_synthetic(spec).y)
        se = np.sqrt((1 / 3) * (2 / 3) / spec.n)
        for lab in spec.label_names:
            assert abs(np.mean(y == lab) - 1 / 3) <= 3 * se

    def test_half_rejection_takes_several_rounds(self, monkeypatch):
        # cov_scale 0.8 around +/-0.5 e_1 keeps about half the draws
        spec = SyntheticSpec(d=2, n=2000, cov_scale=0.8, seed=14)
        ds, rounds = count_rounds(monkeypatch, spec)
        assert ds.n == spec.n
        assert np.linalg.norm(ds.X, axis=1).max() <= spec.R
        assert rounds[0] == spec.n and len(rounds) > 3
        assert all(b <= a for a, b in zip(rounds, rounds[1:]))
        assert 0.3 < spec.n / sum(rounds) < 0.7

    def test_zero_scale_fills_every_row_in_one_round(self, monkeypatch):
        spec = SyntheticSpec(d=2, n=300, classes=3, cov_scale=0.0, seed=15)
        ds, rounds = count_rounds(monkeypatch, spec)
        assert rounds == [spec.n]
        means = np.asarray(spec.means)
        k = [spec.label_names.index(lab) for lab in ds.y]
        assert np.array_equal(ds.X, means[k])

    def test_hopeless_rejection_errors_after_one_large_round(self):
        # the first round alone makes 2000 attempts with almost none accepted
        spec = SyntheticSpec(n=2000, cov_scale=50.0, R=0.01, means=((0.0, 0.0),), classes=1, seed=1)
        with pytest.raises(ValueError, match="rejection rate above 99%"):
            gen_synthetic(spec)


class TestTrueLossEstimate:
    def test_zero_model_single_class(self):
        spec = SyntheticSpec(n=10, classes=1, cov_scale=0.1, seed=2)
        zero = MetricModel("mahalanobis", M=np.zeros((2, 2)))
        est, se = true_loss_estimate(zero, spec, 500, seed=0)
        assert est == 0.0 and se == 0.0

    def test_zero_model_two_classes_half_g0(self):
        # labels collide with probability 1/2, so the mean loss is g0/2
        spec = SyntheticSpec(n=10, classes=2, cov_scale=0.1, seed=2)
        zero = MetricModel("mahalanobis", M=np.zeros((2, 2)))
        est, se = true_loss_estimate(zero, spec, 4000, seed=0)
        assert abs(est - 1.0) <= 3 * se

    def test_stabilizes_with_more_samples(self):
        spec = SyntheticSpec(n=10, classes=2, cov_scale=0.3, seed=4)
        m = MetricModel("mahalanobis", M=0.5 * np.eye(2))
        e1, s1 = true_loss_estimate(m, spec, 2000, seed=1)
        e2, s2 = true_loss_estimate(m, spec, 8000, seed=2)
        assert abs(e1 - e2) <= 3 * np.hypot(s1, s2)


class TestTrueTripletLossEstimate:
    def test_estimates_the_admissible_mean(self):
        # empirical_triplet_loss averages over admissible triplets only, so
        # on a fresh sample it is what the Monte-Carlo estimate must match
        spec = SyntheticSpec(n=40, seed=0)
        m = harness.train_family(gen_synthetic(spec), "triplet-fro", SolverConfig(c=0.1))
        fresh = core.empirical_triplet_loss(m, gen_synthetic(SyntheticSpec(n=600, seed=1)))
        est, se = core.TRIPLET_LOSS.truth(m, harness._sampler(spec, gen_synthetic), 20_000, 7)
        assert 0.0 < se < 0.02
        assert est == pytest.approx(fresh, abs=4 * se + 0.02)

    def test_needs_two_admissible_triples(self):
        spec = SyntheticSpec(n=10, classes=1, seed=2)
        zero = MetricModel("mahalanobis", M=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="admissible"):
            core.TRIPLET_LOSS.truth(zero, harness._sampler(spec, gen_synthetic), 100, 0)


class TestRunExperiment:
    def test_single_class_degenerate_holds(self):
        cfg = ExperimentConfig(
            synthetic=SyntheticSpec(n=30, classes=1, cov_scale=0.1, seed=1),
            solver=SolverConfig(c=0.5, max_iters=30),
            cover=CoverConfig(gamma=0.5),
            repetitions=1,
            mc_size=500,
            probe_size=20,
        )
        reports, summary = run_experiment(cfg)
        r = reports[0]
        assert r.empirical_gap <= r.bound_pair
        assert r.holds
        assert summary["holds_fraction"] == 1.0

    def test_report_fields_finite(self):
        cfg = ExperimentConfig(
            synthetic=SyntheticSpec(n=40, seed=2),
            solver=SolverConfig(c=0.3, max_iters=40),
            cover=CoverConfig(gamma=0.5),
            repetitions=2,
            mc_size=500,
            probe_size=30,
        )
        reports, _ = run_experiment(cfg)
        for r in reports:
            for key, val in r.to_json_dict().items():
                if isinstance(val, float):
                    assert np.isfinite(val), key
            assert r.holds == (r.empirical_gap <= r.bound_pair)

    def test_triplet_family_report(self):
        cfg = ExperimentConfig(
            synthetic=SyntheticSpec(n=15, seed=3),
            solver=SolverConfig(c=0.5, max_iters=30),
            cover=CoverConfig(gamma=0.5),
            family="triplet-fro",
            repetitions=1,
            mc_size=500,
            probe_size=10,
        )
        reports, _ = run_experiment(cfg)
        r = reports[0]
        assert r.bound_triplet is not None
        assert r.g0 == 1.0
        assert r.holds == (r.empirical_gap <= r.bound_triplet)


class TestCertify:
    def _data(self):
        ds = gen_synthetic(SyntheticSpec(n=30, seed=5))
        probe = gen_synthetic(SyntheticSpec(n=20, seed=6))
        return ds, probe

    def test_kernel_zero_fallback_certifies_and_runs_knn(self):
        # at a large c the solve keeps its fallback M = 0, whose support is
        # empty, so every f is 0 and every loss depends on the labels alone
        ds, probe = self._data()
        model = solve_kernel(ds, KernelSpec("rbf", 1.0), SolverConfig(c=1e3))
        assert not model.M.any() and len(model.support) == 0
        assert model_norm(model) == 0.0
        rep = certify(model, ds, probe, "kernel-rbf", CoverConfig(gamma=0.5), delta=0.05)
        assert rep.epsilon_empirical == 0.0 and rep.sound
        # all neighbours tie at f = 0: every test point takes the vote of
        # the first three training points
        winner = max(sorted(set(ds.y[:3])), key=ds.y[:3].count)
        assert knn_eval(model, ds, probe, 3) == probe.y.count(winner) / probe.n

    def test_kernel_rbf_reads_sigma_from_the_model(self):
        ds, probe = self._data()
        model = solve_kernel(ds, KernelSpec("rbf", 0.5), SolverConfig(c=0.5, max_iters=20))
        rep = certify(model, ds, probe, "kernel-rbf", CoverConfig(gamma=0.5), c=0.5, delta=0.05)
        assert rep.epsilon_theoretical == FAMILIES["kernel-rbf"].epsilon(ds.R, 0.5, 0.5, sigma=0.5)
        assert rep.sound

    @pytest.mark.parametrize(
        "model,family",
        [
            (MetricModel("mahalanobis", M=np.eye(2)), "kernel-rbf"),
            (MetricModel("bilinear", M=np.eye(2)), "fro"),
            (MetricModel("mahalanobis", M=np.eye(2), regularizer="l1"), "fro"),
        ],
    )
    def test_refuses_a_model_of_another_family(self, model, family):
        ds, probe = self._data()
        with pytest.raises(ValueError, match=f"not a {family} model"):
            certify(model, ds, probe, family, CoverConfig(gamma=0.5), c=0.5, delta=0.05)

    def test_refuses_a_linear_kernel_as_kernel_rbf(self):
        ds, probe = self._data()
        model = MetricModel("kernelized", M=np.eye(ds.n), kernel=KernelSpec("linear"), anchors=ds)
        with pytest.raises(ValueError, match="not a kernel-rbf model"):
            certify(model, ds, probe, "kernel-rbf", CoverConfig(gamma=0.5), c=0.5, delta=0.05)

    @pytest.mark.parametrize(
        "M,family",
        [
            # c*||M||_F = 30 against g0 = 2: the empirical epsilon exceeds
            # the certified one by a factor of three
            (np.diag([300.0, 0.0]), "fro"),
            (np.diag([300.0, 0.0]), "l21"),
            # 1.5: within the pair capacity 2, beyond the triplet capacity 1
            (np.diag([15.0, 0.0]), "triplet-fro"),
        ],
    )
    def test_refuses_a_model_over_capacity(self, M, family):
        ds, probe = self._data()
        model = MetricModel("mahalanobis", M=M, regularizer=FAMILIES[family].reg)
        with pytest.raises(ValueError, match="over capacity"):
            certify(model, ds, probe, family, CoverConfig(gamma=0.5), c=0.1, delta=0.05)

    def test_capacity_is_the_family_g0(self):
        ds, probe = self._data()
        model = MetricModel("mahalanobis", M=np.diag([15.0, 0.0]))
        assert certify(model, ds, probe, "fro", CoverConfig(gamma=0.5), c=0.1, delta=0.05).sound

    def test_refuses_a_kernel_model_over_capacity_in_feature_norm(self):
        ds, probe = self._data()
        kernel = KernelSpec("rbf", 0.5)

        def model(scale):
            return MetricModel("kernelized", M=scale * np.eye(ds.n), kernel=kernel, anchors=ds)

        # the feature norm is linear in A: c*||.|| is g0 at scale `limit`
        limit = FAMILIES["kernel-rbf"].g0 / (0.5 * model_norm(model(1.0)))
        args = (ds, probe, "kernel-rbf", CoverConfig(gamma=0.5))
        assert certify(model(0.5 * limit), *args, c=0.5, delta=0.05).sound
        with pytest.raises(ValueError, match="over capacity"):
            certify(model(2.0 * limit), *args, c=0.5, delta=0.05)

    def test_refuses_a_c_other_than_the_trained_one(self):
        ds, probe = self._data()
        model = solve(ds, "fro", SolverConfig(c=0.5, max_iters=20))
        args = (model, ds, probe, "fro", CoverConfig(gamma=0.5))
        # 0.4 * ||M|| <= 0.5 * ||M|| <= g0, so the capacity check alone passes
        with pytest.raises(ValueError, match=r"trained at c=0\.5, not c=0\.4"):
            certify(*args, c=0.4, delta=0.05)
        assert certify(*args, delta=0.05).c == 0.5
        assert certify(*args, delta=0.05) == certify(*args, c=0.5, delta=0.05)

    def test_a_model_without_c_needs_one(self):
        ds, probe = self._data()
        args = (MetricModel("mahalanobis", M=np.eye(2)), ds, probe, "fro", CoverConfig(gamma=0.5))
        with pytest.raises(ValueError, match="records no training c"):
            certify(*args, delta=0.05)
        assert certify(*args, c=0.5, delta=0.05).c == 0.5

    def test_holds_only_with_a_measured_gap(self):
        ds, probe = self._data()
        model = MetricModel("mahalanobis", M=np.eye(2))
        args = (model, ds, probe, "fro", CoverConfig(gamma=0.5))
        rep = certify(*args, c=0.5, delta=0.05)
        assert rep.holds is None and rep.to_json_dict()["holds"] is None
        assert rep.sound is True and rep.to_json_dict()["sound"] is True
        assert certify(*args, c=0.5, delta=0.05, gap=0.0).holds is True
        assert certify(*args, c=0.5, delta=0.05, gap=1e9).holds is False


class TestGapCurve:
    def test_sqrt_term_slope_exactly_half(self):
        cfg = ExperimentConfig(
            synthetic=SyntheticSpec(n=20, seed=4),
            solver=SolverConfig(c=0.5, max_iters=20),
            cover=CoverConfig(gamma=0.5),
            repetitions=1,
            mc_size=200,
            probe_size=10,
        )
        rows = gap_curve(cfg, [20, 40, 80])
        logs = np.log([r["sqrt_term"] for r in rows])
        ns = np.log([r["n"] for r in rows])
        slope = np.polyfit(ns, logs, 1)[0]
        assert slope == pytest.approx(-0.5, abs=1e-12)

    def test_gap_nonnegative(self):
        cfg = ExperimentConfig(
            synthetic=SyntheticSpec(n=20, seed=5),
            solver=SolverConfig(c=0.5, max_iters=20),
            cover=CoverConfig(gamma=0.5),
            repetitions=1,
            mc_size=200,
            probe_size=10,
        )
        rows = gap_curve(cfg, [20, 40])
        assert all(r["gap"] >= 0 for r in rows)

    @pytest.mark.parametrize("family", ["fro", "triplet-fro"])
    def test_fixed_samples_drawn_once_per_call(self, monkeypatch, family):
        # every repetition's probe and Monte-Carlo samples are the same at
        # each ladder step: the curve draws them once, with the same rows
        cfg = ExperimentConfig(
            synthetic=SyntheticSpec(n=20, seed=7),
            solver=SolverConfig(c=0.3, max_iters=30),
            cover=CoverConfig(gamma=0.5),
            family=family,
            repetitions=2,
            mc_size=300,
            probe_size=10,
        )
        drawn = []
        draw = harness.gen_synthetic

        def counting(spec, seed=None):
            drawn.append(spec.n)
            return draw(spec, seed)

        monkeypatch.setattr(harness, "gen_synthetic", counting)
        ladder = [20, 40, 80]
        rows = gap_curve(cfg, ladder)
        cached = sum(drawn)
        # run_experiment draws every sample afresh; its summaries are the rows'
        drawn.clear()
        for n, row in zip(ladder, rows):
            _, summary = run_experiment(replace(cfg, synthetic=replace(cfg.synthetic, n=n)))
            assert (row["gap"], row["bound"]) == (summary["mean_gap"], summary["mean_bound"])
        mc = 3 * cfg.mc_size if family == "triplet-fro" else 2 * cfg.mc_size
        fixed = cfg.repetitions * (cfg.probe_size + mc)
        assert sum(drawn) - cached == (len(ladder) - 1) * fixed
        # and nothing is kept from one call to the next
        drawn.clear()
        assert gap_curve(cfg, ladder) == rows
        assert sum(drawn) == cached

    def test_ladder_must_increase(self):
        cfg = ExperimentConfig()
        with pytest.raises(ValueError):
            gap_curve(cfg, [100, 50])

    # the concentration coefficient of each family's certified bound, the
    # tuple order of its loss: 3 for triplets, 2 for pairs
    COEF = {"fro": 2.0, "l1": 2.0, "l21": 2.0, "bilinear": 2.0, "kernel-rbf": 2.0,
            "triplet-fro": 3.0, "triplet-l21": 3.0}

    def test_every_family_has_a_coefficient(self):
        assert set(self.COEF) == set(FAMILIES)

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_reports_the_certified_bound_of_the_family(self, family):
        # a triplet family is certified by bound_triplet = eps + 3 B root;
        # the curve printed bound_pair and 2 B root for every family
        coef = self.COEF[family]
        triplet = coef == 3.0
        cfg = ExperimentConfig(
            synthetic=SyntheticSpec(n=20, seed=6),
            solver=SolverConfig(c=0.5, max_iters=20),
            cover=CoverConfig(gamma=0.5),
            family=family,
            repetitions=2,
            mc_size=200,
            probe_size=10,
        )
        (row,) = gap_curve(cfg, [20])
        reports, _ = run_experiment(cfg)
        for r in reports:
            # bound_pseudo belongs to pairs, bound_triplet to triplets
            keys = r.to_json_dict()
            assert ("bound_pseudo" in keys) == (r.bound_pseudo is not None) == (not triplet)
            assert ("bound_triplet" in keys) == (r.bound_triplet is not None) == triplet
        certified = [r.bound_triplet if triplet else r.bound_pair for r in reports]
        assert [r.holds for r in reports] == [
            r.empirical_gap <= b for r, b in zip(reports, certified)
        ]
        assert row["bound"] == float(np.mean(certified))
        r0 = reports[0]
        root = concentration_root(r0.K_theoretical, 20, cfg.delta)
        assert row["sqrt_term"] == coef * r0.B * root
        assert r0.epsilon_theoretical + row["sqrt_term"] == certified[0]


class TestKnnEval:
    def test_train_equals_test_k1(self):
        ds = gen_synthetic(SyntheticSpec(n=20, cov_scale=0.2, seed=6))
        m = MetricModel("mahalanobis", M=np.eye(2))
        assert knn_eval(m, ds, ds, k=1) == 1.0

    def test_k_equals_n_tie_rule(self):
        # balanced 4-point set: with k=n every vote ties and the smallest
        # label wins, so accuracy is that label's test frequency
        X = np.array([[0.0, 0.0], [0.1, 0.0], [1.0, 0.0], [1.1, 0.0]])
        train = Dataset(X, ["a", "a", "b", "b"], R=2.0)
        test = Dataset(X, ["a", "b", "b", "b"], R=2.0)
        m = MetricModel("mahalanobis", M=np.eye(2))
        expected = sum(lab == "a" for lab in test.y) / test.n
        assert knn_eval(m, train, test, k=4) == expected

    def test_learned_beats_euclidean_on_anisotropic_task(self):
        # informative first coordinate, pure-noise second coordinate
        from metricert.solver import solve

        wins = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n = 60
            y = rng.choice(["a", "b"], size=n)
            X = np.column_stack(
                [
                    np.where(y == "a", -0.3, 0.3) + 0.05 * rng.standard_normal(n),
                    0.7 * rng.standard_normal(n),
                ]
            )
            X = np.clip(X, -0.8, 0.8)
            R = float(np.linalg.norm(X, axis=1).max())
            train = Dataset(X[: n // 2], list(y[: n // 2]), R=R + 1)
            test = Dataset(X[n // 2 :], list(y[n // 2 :]), R=R + 1)
            learned = solve(train, "fro", SolverConfig(c=0.02, max_iters=200))
            euclid = MetricModel("mahalanobis", M=np.eye(2))
            wins.append(
                knn_eval(learned, train, test, 3) - knn_eval(euclid, train, test, 3)
            )
        assert min(wins) >= 0.0
        assert np.mean(wins) > 0.0

    @pytest.mark.parametrize("block_rows", [1, 4, 7, 256])
    def test_blocks_match_stable_argsort_oracle(self, monkeypatch, block_rows):
        # integer grid under the identity metric: squared distances are
        # exact integers, so many training points tie at the k-th distance,
        # inside and across knn_eval's column groups
        monkeypatch.setattr(core, "BLOCK_ROWS", block_rows)
        rng = np.random.default_rng(12)
        labels = ["a", "b", "c"]
        train = Dataset(
            rng.integers(-2, 3, size=(40, 2)).astype(float),
            list(rng.choice(labels, size=40)), R=3.0,
        )
        test = Dataset(
            rng.integers(-2, 3, size=(23, 2)).astype(float),
            list(rng.choice(labels, size=23)), R=3.0,
        )
        m = MetricModel("mahalanobis", M=np.eye(2))
        F = metric_matrix(m, test.X, train.X)
        for k in (1, 2, 3, 5, 8, 40):
            order = np.argsort(F, axis=1, kind="stable")[:, :k]
            if k < train.n:  # ties straddle the k-th neighbour somewhere
                srt = np.sort(F, axis=1)
                assert (srt[:, k - 1] == srt[:, k]).any()
            correct = 0
            for i in range(test.n):
                votes = {}
                for j in order[i]:
                    votes[train.y[j]] = votes.get(train.y[j], 0) + 1
                top = max(votes.values())
                winner = next(lab for lab in sorted(votes) if votes[lab] == top)
                correct += winner == test.y[i]
            assert knn_eval(m, train, test, k) == correct / test.n

    @pytest.mark.parametrize("block_rows", [2, 7, 256])
    def test_matches_full_row_tie_rule(self, monkeypatch, block_rows):
        # the cumsum over every whole row that knn_eval used to take, on an
        # integer grid where most rows tie at the k-th distance
        def full_row_accuracy(F, train_lab, test_lab, k, n_labels):
            kth = np.partition(F, k - 1, axis=1)[:, k - 1 : k]
            below, ties = F < kth, F == kth
            need = k - below.sum(axis=1, keepdims=True)
            chosen = below | (ties & (np.cumsum(ties, axis=1) <= need))
            r, j = np.nonzero(chosen)
            votes = np.bincount(r * n_labels + train_lab[j], minlength=len(F) * n_labels)
            return float((votes.reshape(len(F), n_labels).argmax(axis=1) == test_lab).mean())

        monkeypatch.setattr(core, "BLOCK_ROWS", block_rows)
        rng = np.random.default_rng(block_rows)
        labels = ["a", "b", "c"]
        m = MetricModel("mahalanobis", M=np.eye(2))
        for _ in range(4):
            train_X = rng.integers(-3, 4, size=(60, 2)).astype(float)
            test_X = rng.integers(-3, 4, size=(31, 2)).astype(float)
            train_lab, test_lab = rng.integers(3, size=60), rng.integers(3, size=31)
            train = Dataset(train_X, [labels[v] for v in train_lab], R=5.0)
            test = Dataset(test_X, [labels[v] for v in test_lab], R=5.0)
            F = metric_matrix(m, test.X, train.X)
            for k in (1, 2, 3, 6, 60):
                kth = np.sort(F, axis=1)[:, k - 1 : k]
                if k < train.n:  # some rows leave ties out, some do not
                    assert 0 < ((F <= kth).sum(axis=1) > k).sum() < test.n
                expected = full_row_accuracy(F, train_lab, test_lab, k, 3)
                assert knn_eval(m, train, test, k) == expected

    @pytest.mark.parametrize("block_rows", [1, 3, 256])
    def test_flat_indices_match_2d_nonzero(self, monkeypatch, block_rows):
        # {-1, 0, 1}^3 under the identity metric: 27 sites for 80 training
        # points, so nearly every row ties at its k-th distance
        def nonzero_2d_correct(F, train_lab, test_lab, k, n_labels):
            # knn_eval's step for one block as it was: np.partition and the
            # 2-D np.nonzero of the chosen mask
            kth = np.partition(F, k - 1, axis=1)[:, k - 1 : k]
            chosen = F <= kth
            over = np.flatnonzero(chosen.sum(axis=1) > k)
            if len(over):
                Fo, ko = F[over], kth[over]
                below, ties = Fo < ko, Fo == ko
                need = k - below.sum(axis=1, keepdims=True)
                chosen[over] = below | (ties & (np.cumsum(ties, axis=1) <= need))
            r, j = np.nonzero(chosen)
            votes = np.bincount(r * n_labels + train_lab[j], minlength=len(F) * n_labels)
            return int((votes.reshape(len(F), n_labels).argmax(axis=1) == test_lab).sum())

        monkeypatch.setattr(core, "BLOCK_ROWS", block_rows)
        rng = np.random.default_rng(40 + block_rows)
        labels = ["a", "b", "c", "d"]
        m = MetricModel("mahalanobis", M=np.eye(3))
        train_lab, test_lab = rng.integers(4, size=80), rng.integers(4, size=50)
        assert set(train_lab) == {0, 1, 2, 3}
        train = Dataset(rng.integers(-1, 2, size=(80, 3)).astype(float),
                        [labels[v] for v in train_lab], R=2.0)
        test = Dataset(rng.integers(-1, 2, size=(50, 3)).astype(float),
                       [labels[v] for v in test_lab], R=2.0)
        for k in (1, 2, 4, 7, 80):
            correct = sum(
                nonzero_2d_correct(F, train_lab, test_lab[start : start + len(F)], k, 4)
                for start, F in core.metric_blocks(m, test.X, train.X)
            )
            assert knn_eval(m, train, test, k) == correct / test.n

    def test_non_finite_rows_keep_the_full_row_answer(self):
        # the neighbours of the full-row partition that knn_eval replaced:
        # NaN is never one, a row with fewer than k other values has none,
        # and +-inf rank like any value
        def full_row_neighbours(F, k):
            P = np.partition(F, k - 1, axis=1)
            kth = P[:, k - 1 : k]
            chosen = F <= kth
            below, ties = F < kth, F == kth
            need = k - below.sum(axis=1, keepdims=True)
            over = chosen.sum(axis=1) > k
            chosen[over] = (below | (ties & (np.cumsum(ties, axis=1) <= need)))[over]
            return np.nonzero(chosen)

        rng = np.random.default_rng(61)
        for _ in range(200):
            rows, n = int(rng.integers(1, 6)), int(rng.integers(1, 40))
            F = rng.integers(0, 4, size=(rows, n)).astype(float)
            for value in (np.nan, np.inf, -np.inf):
                F[rng.random((rows, n)) < rng.uniform(0.0, 0.6)] = value
            k = int(rng.integers(1, n + 1))
            groups = min(n, max(k, math.isqrt(n)))
            starts = np.arange(groups) * n // groups
            mins, mask = np.empty((rows, groups)), np.empty((rows, n), dtype=bool)
            r, j = harness._nearest(F, k, starts, mins, mask)
            assert np.all(np.diff(r) >= 0)
            assert sorted(zip(r.tolist(), j.tolist())) == list(
                zip(*(v.tolist() for v in full_row_neighbours(F, k))))

    @pytest.mark.parametrize("budget", [None, 1 << 16])
    def test_memory(self, monkeypatch, budget):
        # knn_eval peaked at 4.76 tiles when it partitioned a fresh copy of
        # each tile and took a fresh mask, and at 2.45 tiles with a reused
        # partition copy; the sweep's buffers, the group minima and the mask
        # are now allocated once.  At n = 4000 a tile is 65 rows at the
        # default 2 MiB budget (peak 1.47 tiles) and the 16-row floor, 8
        # budgets, at a 64 KiB budget (peak 2.46 tiles: the sweep's 512 KB
        # chunk of sums is one more tile there)
        if budget is not None:
            monkeypatch.setattr(core, "TILE_BYTES", budget)
        rng = np.random.default_rng(42)
        X, Xt = rng.uniform(-0.5, 0.5, size=(2, 4000, 3))
        train = Dataset(X, list(rng.choice(["a", "b"], size=4000)), R=1.0)
        test = Dataset(Xt, list(rng.choice(["a", "b"], size=4000)), R=1.0)
        m = MetricModel("mahalanobis", M=np.eye(3))
        tracemalloc.start()
        try:
            knn_eval(m, train, test, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.0 * core.tile_rows(4000) * 4000 * 8

    def test_agrees_across_budgets(self, monkeypatch):
        # 300 test points against 1500 training points: tiles of 16, 174
        # and 256 rows.  f may move in its last bits with the row count, and
        # the accuracy, a count, stays the same on this generic data
        rng = np.random.default_rng(43)
        train = Dataset(rng.uniform(-0.7, 0.7, size=(1500, 2)),
                        list(rng.choice(["a", "b", "c"], size=1500)), R=1.0)
        test = Dataset(rng.uniform(-0.7, 0.7, size=(300, 2)),
                       list(rng.choice(["a", "b", "c"], size=300)), R=1.0)
        G = rng.standard_normal((2, 2))
        m = MetricModel("mahalanobis", M=G @ G.T)
        got = []
        for budget in TILE_BUDGETS:
            monkeypatch.setattr(core, "TILE_BYTES", budget)
            got.append([knn_eval(m, train, test, k) for k in (1, 4, 15)])
        assert got[0] == got[1] == got[2]

    def test_bilinear_ranks_by_smallest_similarity(self):
        # the two-class mixture of the benchmark: balanced classes at
        # +/- 0.5 e_1 with scale 0.3, resampled into the unit ball
        from metricert.solver import solve

        def mixture(rng, n):
            lab = rng.permutation(n) % 2
            means = np.array([[0.5, 0.0], [-0.5, 0.0]])
            X = means[lab] + 0.3 * rng.standard_normal((n, 2))
            out = np.linalg.norm(X, axis=1) > 1.0
            while out.any():
                X[out] = means[lab[out]] + 0.3 * rng.standard_normal((int(out.sum()), 2))
                out = np.linalg.norm(X, axis=1) > 1.0
            return Dataset(X, [f"c{v}" for v in lab], R=1.0)

        rng = np.random.default_rng(1)
        train, test = mixture(rng, 300), mixture(rng, 300)
        m = solve(train, "fro", SolverConfig(c=0.1, max_iters=300), kind="bilinear")
        assert knn_eval(m, train, test, 3) >= 0.8

    def test_bad_k(self):
        ds = gen_synthetic(SyntheticSpec(n=5, seed=1))
        m = MetricModel("mahalanobis", M=np.eye(2))
        with pytest.raises(ValueError):
            knn_eval(m, ds, ds, k=0)
        with pytest.raises(ValueError):
            knn_eval(m, ds, ds, k=6)
