import numpy as np
import pytest

from metricert import core
from metricert.core import Dataset, LossSpec, MetricModel, build_pairs, metric_matrix
from metricert.cover import CoverConfig
from metricert.harness import (
    ExperimentConfig,
    SyntheticSpec,
    gap_curve,
    gen_synthetic,
    knn_eval,
    run_experiment,
    true_loss_estimate,
)
from metricert.solver import SolverConfig

LS = LossSpec()


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

    def test_hopeless_rejection_errors(self):
        spec = SyntheticSpec(n=5, cov_scale=50.0, R=0.01, means=((0.0, 0.0),), classes=1, seed=1)
        with pytest.raises(ValueError):
            gen_synthetic(spec)


class TestTrueLossEstimate:
    def test_zero_model_single_class(self):
        spec = SyntheticSpec(n=10, classes=1, cov_scale=0.1, seed=2)
        zero = MetricModel("mahalanobis", M=np.zeros((2, 2)))
        est, se = true_loss_estimate(zero, LS, spec, 500, seed=0)
        assert est == 0.0 and se == 0.0

    def test_zero_model_two_classes_half_g0(self):
        # labels collide with probability 1/2, so the mean loss is g0/2
        spec = SyntheticSpec(n=10, classes=2, cov_scale=0.1, seed=2)
        zero = MetricModel("mahalanobis", M=np.zeros((2, 2)))
        est, se = true_loss_estimate(zero, LS, spec, 4000, seed=0)
        assert abs(est - 1.0) <= 3 * se

    def test_stabilizes_with_more_samples(self):
        spec = SyntheticSpec(n=10, classes=2, cov_scale=0.3, seed=4)
        m = MetricModel("mahalanobis", M=0.5 * np.eye(2))
        e1, s1 = true_loss_estimate(m, LS, spec, 2000, seed=1)
        e2, s2 = true_loss_estimate(m, LS, spec, 8000, seed=2)
        assert abs(e1 - e2) <= 3 * np.hypot(s1, s2)


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

    def test_ladder_must_increase(self):
        cfg = ExperimentConfig()
        with pytest.raises(ValueError):
            gap_curve(cfg, [100, 50])


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
            learned = solve(
                train, build_pairs(train), LS, "fro", SolverConfig(c=0.02, max_iters=200)
            )
            euclid = MetricModel("mahalanobis", M=np.eye(2))
            wins.append(
                knn_eval(learned, train, test, 3) - knn_eval(euclid, train, test, 3)
            )
        assert min(wins) >= 0.0
        assert np.mean(wins) > 0.0

    def test_blocks_match_stable_argsort_oracle(self, monkeypatch):
        # integer grid under the identity metric: squared distances are
        # exact integers, so many training points tie at the k-th distance
        monkeypatch.setattr(core, "BLOCK_ROWS", 4)
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
        m = solve(
            train, build_pairs(train), LS, "fro", SolverConfig(c=0.1, max_iters=300),
            kind="bilinear",
        )
        assert knn_eval(m, train, test, 3) >= 0.8

    def test_bad_k(self):
        ds = gen_synthetic(SyntheticSpec(n=5, seed=1))
        m = MetricModel("mahalanobis", M=np.eye(2))
        with pytest.raises(ValueError):
            knn_eval(m, ds, ds, k=0)
        with pytest.raises(ValueError):
            knn_eval(m, ds, ds, k=6)
