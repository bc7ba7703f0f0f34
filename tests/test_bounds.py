import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import binom, multinomial

from metricert import bounds, core
from metricert.bounds import (
    BoundQuery,
    bhc_simulate,
    bound_value,
    cell_stats,
    empirical_epsilon,
    empirical_epsilon_triplet,
    pseudo_robust_count,
)
from metricert.core import (
    FAMILIES,
    HINGE_U,
    Dataset,
    KernelSpec,
    MetricModel,
    build_triplets,
    metric_matrix,
    rbf_fH,
)
from metricert.cover import CoverConfig, assign_cells, build_partition
from metricert.harness import SyntheticSpec, gen_synthetic
from metricert.solver import SolverConfig, solve

from helpers import TILE_BUDGETS, make_ds, oracle_pair_loss


class TestEpsilonTheoretical:
    def test_fro_hand_value(self):
        assert FAMILIES["fro"].epsilon(R=1, gamma=0.1, c=1) == pytest.approx(1.6)

    def test_gamma_zero(self):
        for fam in ("fro", "l1", "l21", "bilinear", "triplet-fro"):
            assert FAMILIES[fam].epsilon(R=1, gamma=0.0, c=1) == 0.0
        assert FAMILIES["kernel-rbf"].epsilon(R=1, gamma=0.0, c=1, sigma=1.0) == 0.0

    def test_triplet_is_twice_pair(self):
        # twice the pair coefficient at half the zero-matrix loss g0
        fro, trip = FAMILIES["fro"], FAMILIES["triplet-fro"]
        assert trip.eps_coef == 2 * fro.eps_coef and 2 * trip.g0 == fro.g0
        assert trip.epsilon(R=1, gamma=0.1, c=1) == pytest.approx(fro.epsilon(R=1, gamma=0.1, c=1))
        assert trip.epsilon(R=1, gamma=0.1, c=1) == pytest.approx(1.6)

    def test_bilinear_quarter_of_fro(self):
        assert FAMILIES["bilinear"].epsilon(R=1, gamma=0.1, c=1) == pytest.approx(0.4)

    def test_table_keeps_each_closed_form_bit_for_bit(self):
        # the per-family formulas, written out in their operation order
        R, gamma, c, sigma = 0.7, 0.3, 0.13, 0.9
        pair, triplet = 1.0 * 2.0 / c, 1.0 * 1.0 / c
        expected = {
            "fro": 8.0 * R * gamma * pair,
            "l1": 8.0 * R * gamma * pair,
            "l21": 8.0 * R * gamma * pair,
            "bilinear": 2.0 * R * gamma * pair,
            "kernel-rbf": 8.0 * 1.0 * math.sqrt(rbf_fH(gamma, sigma)) * pair,
            "triplet-fro": 16.0 * R * gamma * triplet,
            "triplet-l21": 16.0 * R * gamma * triplet,
        }
        assert list(expected) == list(FAMILIES)
        for fam, eps in expected.items():
            assert FAMILIES[fam].epsilon(R, gamma, c, sigma) == eps

    def test_grid_matches_the_query_formula_bit_for_bit(self):
        # the formula of the former RobustnessQuery path, inline: eps_coef *
        # radius * scale * (U * g0 / c), with U = HINGE_U and the family's g0
        for name, fam in FAMILIES.items():
            for R, gamma, c, sigma in itertools.product(
                (0.3, 1.0, 2.7), (0.0, 0.05, 0.5, 1.3), (0.01, 0.1, 0.37, 5.0), (0.2, 1.0, 3.1)
            ):
                if fam.kind == "kernelized":
                    radius = 1.0
                    scale = math.sqrt(2.0 * (1.0 - math.exp(-(gamma**2) / (2.0 * sigma**2))))
                else:
                    radius, scale = R, gamma
                g0 = 1.0 if name.startswith("triplet-") else 2.0
                want = fam.eps_coef * radius * scale * (HINGE_U * g0 / c)
                assert fam.epsilon(R, gamma, c, sigma) == want, (name, R, gamma, c, sigma)

    @pytest.mark.parametrize(
        "family, R, gamma, c, sigma",
        [("fro", 0.0, 0.1, 1.0, 0.0), ("fro", 1.0, 0.1, 0.0, 0.0), ("fro", 1.0, -0.1, 1.0, 0.0),
         ("kernel-rbf", 1.0, 0.1, 1.0, 0.0), ("triplet-fro", -1.0, 0.1, 1.0, 0.0)],
    )
    def test_invalid_inputs_refused(self, family, R, gamma, c, sigma):
        with pytest.raises(ValueError):
            FAMILIES[family].epsilon(R, gamma, c, sigma)


class TestRbfFH:
    def test_gamma_zero(self):
        assert rbf_fH(0.0, 1.0) == 0.0

    def test_hand_value(self):
        assert rbf_fH(1.0, 1.0) == pytest.approx(2 * (1 - math.exp(-0.5)))
        assert rbf_fH(1.0, 1.0) == pytest.approx(0.786939, abs=1e-6)

    def test_large_gamma_limit(self):
        assert rbf_fH(1e6, 1.0) == pytest.approx(2.0)

    def test_squares_beyond_float_range(self):
        # gamma^2 or sigma^2 beyond the float range raised OverflowError, and
        # a sigma^2 that underflows to 0 ZeroDivisionError; the ratio
        # gamma/sigma decides there, and f_H saturates at 2
        assert rbf_fH(1e300, 1.0) == 2.0
        assert rbf_fH(1e200, 1e-200) == 2.0
        assert rbf_fH(0.5, 1e-200) == 2.0
        assert rbf_fH(1e300, 1e300) == 2.0 * (1.0 - math.exp(-0.5))
        assert rbf_fH(0.5, 1e300) == 0.0
        # where the squares are finite the value keeps its bits
        for gamma, sigma in ((0.3, 0.7), (1e150, 1e150), (2.0, 1e154), (1e-150, 1e-150)):
            t = gamma**2 / (2.0 * sigma**2)
            assert rbf_fH(gamma, sigma) == 2.0 * (1.0 - math.exp(-t))

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
                        lt = oracle_pair_loss(model, ds, i, ds, j)
                        lp = oracle_pair_loss(model, probe, a, probe, b)
                        best = max(best, abs(lt - lp))
    return best


class TestEmpiricalEpsilon:
    def test_zero_matrix_gives_zero(self):
        ds = make_ds([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5]], "aab")
        part = build_partition(ds, CoverConfig(gamma=0.4), probe=ds)
        zero = MetricModel("mahalanobis", M=np.zeros((2, 2)))
        assert empirical_epsilon(zero, part, ds, ds).value == 0.0

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
            got = empirical_epsilon(model, part, ds, probe)
            assert got.value == pytest.approx(
                brute_force_epsilon(model, part, ds, probe), abs=1e-12
            )

    def test_excluded_probe_count(self):
        ds = make_ds([[0.0, 0.0]], "a", R=5.0)
        probe = make_ds([[0.01, 0.0], [3.0, 0.0]], "aa", R=5.0)
        part = build_partition(ds, CoverConfig(gamma=0.5))  # probe NOT covered
        zero = MetricModel("mahalanobis", M=np.zeros((2, 2)))
        est = empirical_epsilon(zero, part, ds, probe)
        assert est.excluded_probes == 1

    def test_bounded_by_theoretical(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            spec = SyntheticSpec(n=20, d=2, seed=int(rng.integers(10**6)))
            ds = gen_synthetic(spec)
            c = 0.5
            model = solve(ds, "fro", SolverConfig(c=c, max_iters=40))
            probe = gen_synthetic(SyntheticSpec(n=20, d=2, seed=int(rng.integers(10**6))))
            gamma = 0.5
            part = build_partition(ds, CoverConfig(gamma=gamma), probe=probe)
            got = empirical_epsilon(model, part, ds, probe)
            assert got.value <= FAMILIES["fro"].epsilon(ds.R, gamma, c) + 1e-9


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
        eps = empirical_epsilon(model, part, ds, probe).value
        assert pseudo_robust_count(model, part, ds, probe, eps) == ds.n**2

    def test_zero_matrix_epsilon_zero(self):
        _, part, ds, probe = self._setup()
        zero = MetricModel("mahalanobis", M=np.zeros((2, 2)))
        assert pseudo_robust_count(zero, part, ds, probe, 0.0) == ds.n**2

    def test_midrange_matches_oracle(self):
        model, part, ds, probe = self._setup(seed=17)
        eps = 0.5 * empirical_epsilon(model, part, ds, probe).value
        count = brute_force_count(model, part, ds, probe, eps)
        assert pseudo_robust_count(model, part, ds, probe, eps) == count


def brute_force_count(model, part, ds, probe, eps):
    """Independent double-loop oracle for the pseudo-robust count."""
    ids_tr = assign_cells(part, ds.X, ds.y)
    ids_pr = assign_cells(part, probe.X, probe.y)
    count = 0
    for i in range(ds.n):
        for j in range(ds.n):
            ok = True
            lt = oracle_pair_loss(model, ds, i, ds, j)
            for a in range(probe.n):
                for b in range(probe.n):
                    if ids_pr[a] < 0 or ids_pr[b] < 0:
                        continue
                    if ids_tr[i] == ids_pr[a] and ids_tr[j] == ids_pr[b]:
                        lp = oracle_pair_loss(model, probe, a, probe, b)
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
                est, p_hat = cell_stats(model, part, ds, probe, scale * eps_oracle)
                assert est.value == pytest.approx(eps_oracle, abs=1e-12)
                assert est.excluded_probes == int((assign_cells(part, probe.X, probe.y) < 0).sum())
                assert p_hat == brute_force_count(model, part, ds, probe, scale * eps_oracle)

    def test_no_covered_probe(self):
        ds = make_ds([[0.0, 0.0], [0.1, 0.0]], "ab", R=5.0)
        probe = make_ds([[3.0, 0.0]], "a", R=5.0)
        part = build_partition(ds, CoverConfig(gamma=0.5))
        model = MetricModel("mahalanobis", M=np.eye(2))
        est, p_hat = cell_stats(model, part, ds, probe, 0.0)
        assert (est.value, est.excluded_probes, p_hat) == (0.0, 1, ds.n**2)


def pair_loss_blocks(m, X, labels):
    """(start, pair losses of a row block of X against all of X), in the
    row blocks of core.metric_blocks; `labels` holds label indices."""
    for start, F in core.metric_blocks(m, X):
        yield start, core.pair_hinge(F, labels[start : start + len(F)], labels)


def reference_deviations(m, part, ds, probe):
    """The per-pair sweep cell_stats used before it read per-cell extrema,
    kept as the reference: yields (start, deviation rows) of the training
    pairs in ds order against the gathered per-pair probe extrema, -inf for
    unmatched pairs.  Needs some covered probe point."""
    ids_tr = assign_cells(part, ds.X, ds.y)
    ids_pr = assign_cells(part, probe.X, probe.y)
    keep = ids_pr >= 0
    order = np.argsort(ids_pr[keep], kind="stable")
    X, ids = probe.X[keep][order], ids_pr[keep][order]
    cells, starts = np.unique(ids, return_index=True)
    lo = np.full((len(cells), len(cells)), np.inf)
    hi = np.full((len(cells), len(cells)), -np.inf)
    for start, L in pair_loss_blocks(m, X, ids // part.centers.shape[0]):
        first = np.searchsorted(starts, start, side="right") - 1
        last = np.searchsorted(starts, start + len(L), side="left")
        local = np.maximum(starts[first:last] - start, 0)
        at = slice(first, last)
        lo[at] = np.minimum(lo[at], np.minimum.reduceat(
            np.minimum.reduceat(L, starts, axis=1), local, axis=0))
        hi[at] = np.maximum(hi[at], np.maximum.reduceat(
            np.maximum.reduceat(L, starts, axis=1), local, axis=0))
    pos = np.searchsorted(cells, ids_tr)
    pos[cells[np.minimum(pos, len(cells) - 1)] != ids_tr] = len(cells)
    lo = np.pad(lo, (0, 1), constant_values=np.inf)
    hi = np.pad(hi, (0, 1), constant_values=-np.inf)
    for start, L in pair_loss_blocks(m, ds.X, ids_tr // part.centers.shape[0]):
        row_pos = pos[start : start + len(L)]
        yield start, np.maximum(L - lo[row_pos][:, pos], hi[row_pos][:, pos] - L)


def reference_cell_stats(m, part, ds, probe, epsilon):
    """(estimate, excluded probes, count) of the reference per-pair sweep."""
    excluded = int((assign_cells(part, probe.X, probe.y) < 0).sum())
    if excluded == probe.n:
        return 0.0, excluded, ds.n**2
    worst, count = 0.0, 0
    for _, dev in reference_deviations(m, part, ds, probe):
        worst = max(worst, float(dev.max()))
        count += int((dev <= epsilon + 1e-12).sum())
    return worst, excluded, count


def sweep_cases(rng, n=40, m=25):
    """Mahalanobis, bilinear and kernelized models on a cover where some
    training cells hold no probe point and one probe point is uncovered."""
    Xtr = rng.uniform(-1, 1, size=(n, 2))
    Xpr = np.vstack([rng.uniform(-0.5, 0.5, size=(m - 1, 2)), [[2.5, 0.0]]])
    R = float(max(np.linalg.norm(Xtr, axis=1).max(), np.linalg.norm(Xpr, axis=1).max()))
    ds = make_ds(Xtr, rng.choice(["a", "b"], size=n), R=R)
    probe = make_ds(Xpr, rng.choice(["a", "b"], size=m), R=R)
    covered = make_ds(Xpr[:-1], probe.y[:-1], R=R)
    part = build_partition(ds, CoverConfig(gamma=0.7), probe=covered)
    assert set(assign_cells(part, ds.X, ds.y)) - set(assign_cells(part, probe.X, probe.y))
    A = rng.standard_normal((2, 2))
    H = rng.standard_normal((6, 6))
    anchors = make_ds(rng.uniform(-1, 1, size=(6, 2)), "abab" + "ab", R=2.0)
    models = [
        MetricModel("mahalanobis", M=A @ A.T),
        MetricModel("bilinear", M=A),
        MetricModel("kernelized", M=H @ H.T, kernel=KernelSpec("rbf", 0.7), anchors=anchors),
    ]
    return models, part, ds, probe


class TestCellSweep:
    @pytest.mark.parametrize("rows", [2, 7, 256])
    def test_matches_per_pair_reference(self, monkeypatch, rows):
        monkeypatch.setattr(core, "BLOCK_ROWS", rows)
        rng = np.random.default_rng(23)
        # more training than probe points, then more probe points
        for n, m in ((40, 25), (20, 60)):
            models, part, ds, probe = sweep_cases(rng, n, m)
            for model in models:
                eps = reference_cell_stats(model, part, ds, probe, 0.0)[0]
                assert eps > 0.0
                for epsilon in (0.0, 0.4 * eps, eps, math.inf):
                    est, p_hat = cell_stats(model, part, ds, probe, epsilon)
                    got = (est.value, est.excluded_probes, p_hat)
                    assert got == reference_cell_stats(model, part, ds, probe, epsilon)
                    assert est.excluded_probes == 1
                assert empirical_epsilon(model, part, ds, probe).value == eps

    def test_a_block_holds_decided_and_undecided_sub_blocks(self, monkeypatch):
        # cell_stats sweeps the training points in stable cell order; a
        # sub-block (run of block rows x column cell) whose pairs are partly
        # within epsilon and partly not is left open by the extrema, one
        # whose pairs are all within it is decided
        monkeypatch.setattr(core, "BLOCK_ROWS", 7)
        models, part, ds, probe = sweep_cases(np.random.default_rng(23))
        order = np.argsort(assign_cells(part, ds.X, ds.y), kind="stable")
        ds = Dataset(ds.X[order], [ds.y[i] for i in order], ds.R, ds.labels)
        ids = assign_cells(part, ds.X, ds.y)
        cuts = np.flatnonzero(np.diff(ids)) + 1
        tol = 0.4 * reference_cell_stats(models[0], part, ds, probe, 0.0)[0] + 1e-12
        found = False
        for start, dev in reference_deviations(models[0], part, ds, probe):
            kinds = set()
            for run in np.split(dev, cuts[(cuts > start) & (cuts < start + len(dev))] - start):
                for sub in np.split(run, cuts, axis=1):
                    within = sub <= tol
                    kinds.add("decided" if within.all() else "open" if within.any() else "out")
            found |= {"decided", "open"} <= kinds
        assert found


class TestLossFromFExtrema:
    """cell_stats reduces f, not the loss, and maps the cell tables through
    the hinge; only a block with an undecided sub-block builds its losses."""

    def test_loss_tables_are_pair_hinge_bitwise(self):
        # the in-place tables against pair_hinge of the selected extrema, on
        # values at and around the kinks f = 1 (y = +1) and f = 2 (y = -1)
        rng = np.random.default_rng(32)
        values = np.array([-0.5, 0.0, 1.0 - 2**-52, 1.0, 1.0 + 2**-52, 2.0, 2.0 + 2**-51, 3.0])
        lo = rng.choice(values, size=(6, 9)) + rng.choice([0.0, 1e-3], size=(6, 9))
        hi = lo + rng.choice([0.0, 2**-52, 0.5], size=(6, 9))
        row_labels, labels = rng.integers(0, 3, size=6), rng.integers(0, 3, size=9)
        same = row_labels[:, None] == labels[None, :]
        got = bounds._loss_extrema(lo, hi, row_labels, labels)
        expected = (
            core.pair_hinge(np.where(same, lo, hi), row_labels, labels),
            core.pair_hinge(np.where(same, hi, lo), row_labels, labels),
        )
        for g, e in zip(got, expected):
            assert np.array_equal(g.view(np.int64), e.view(np.int64))

    @pytest.mark.parametrize("kind", ["bilinear", "kernelized"])
    def test_equals_per_pair_reference(self, monkeypatch, kind):
        monkeypatch.setattr(core, "BLOCK_ROWS", 5)
        models, part, ds, probe = sweep_cases(np.random.default_rng(31))
        model = next(m for m in models if m.kind == kind)
        # the bilinear f takes both signs; the kernel model is scaled so
        # that its other-label losses max(0, 2 - f) are not all 0
        model.M = model.M * (0.1 if kind == "kernelized" else 1.0)
        F = metric_matrix(model, ds.X)
        labels = ds.label_indices()
        other = labels[:, None] != labels[None, :]
        assert len(np.unique(core.pair_hinge(F, labels, labels)[other])) > 1
        assert kind != "bilinear" or (F < -0.1).any()
        # cell runs straddle blocks of 5 on both sides
        for X, y in ((ds.X, ds.y), (probe.X, probe.y)):
            _, counts = np.unique(assign_cells(part, X, y), return_counts=True)
            starts = np.cumsum(counts) - counts
            assert (starts // 5 != (starts + counts - 1) // 5).any()
        loss_blocks = []

        def spy(F, row_labels, labels):
            if F.shape[1] == ds.n:
                loss_blocks.append(len(F))
            return core.pair_hinge(F, row_labels, labels)

        monkeypatch.setattr(bounds, "pair_hinge", spy)
        worst = reference_cell_stats(model, part, ds, probe, 0.0)[0]
        for epsilon, undecided in ((0.3 * worst, True), (math.inf, False)):
            loss_blocks.clear()
            est, p_hat = cell_stats(model, part, ds, probe, epsilon)
            got = (est.value, est.excluded_probes, p_hat)
            assert got == reference_cell_stats(model, part, ds, probe, epsilon)
            assert bool(loss_blocks) == undecided


def padded_probe_tables(m, part, X, ids):
    """_probe_extrema as it was, kept as the oracle of its in-place tables:
    C x C tables of f extrema, mapped to losses by _loss_extrema on the
    whole tables, then padded with the row and column of empty extrema
    that cell_stats appended."""
    order, cells, starts, sizes = core.sorted_runs(ids)
    lo = np.full((len(cells), len(cells)), np.inf)
    hi = np.full((len(cells), len(cells)), -np.inf)
    for start, F in core.metric_blocks(m, X[order]):
        at, _, lo_run, hi_run = bounds._run_extrema(F, start, starts, sizes)
        np.minimum(lo[at], lo_run, out=lo[at])
        np.maximum(hi[at], hi_run, out=hi[at])
    labels = part.cell_labels(cells)
    lo, hi = bounds._loss_extrema(lo, hi, labels, labels)
    return (
        cells,
        np.pad(lo, (0, 1), constant_values=np.inf),
        np.pad(hi, (0, 1), constant_values=-np.inf),
    )


class TestProbeTables:
    @pytest.mark.parametrize("rows", [2, 5, 256])
    def test_in_place_tables_equal_the_padded_path_bitwise(self, monkeypatch, rows):
        # blocks and loss chunks of 2 and 5 rows leave a short last chunk
        # of the probe cells; 256 rows map every table in one chunk
        monkeypatch.setattr(core, "BLOCK_ROWS", rows)
        models, part, ds, probe = sweep_cases(np.random.default_rng(33), 40, 60)
        ids = assign_cells(part, probe.X, probe.y)
        X, ids = probe.X[ids >= 0], ids[ids >= 0]
        C = len(np.unique(ids))
        assert C > 5 and C % 5
        for model in models:
            got = bounds._probe_extrema(model, part, X, ids)
            expected = padded_probe_tables(model, part, X, ids)
            assert np.array_equal(got[0], expected[0])
            for g, e in zip(got[1:], expected[1:]):
                assert g.shape == (C + 1, C + 1)
                assert np.array_equal(g.view(np.int64), e.view(np.int64))


def budget_cases(rng):
    """A Mahalanobis model on a sample and a probe of 1500 points each, two
    labels, d = 2: tiles of 16, 174 and 256 rows under TILE_BUDGETS."""
    n = 1500
    X, Xp = rng.uniform(-0.7, 0.7, size=(2, n, 2))
    ds = make_ds(X, rng.choice(["a", "b"], size=n), R=1.0)
    probe = make_ds(Xp, rng.choice(["a", "b"], size=n), R=1.0)
    part = build_partition(ds, CoverConfig(gamma=0.3), probe=probe)
    A = rng.standard_normal((2, 2))
    return MetricModel("mahalanobis", M=A @ A.T), part, ds, probe


class TestTileBudgets:
    """The audit at a tiny, the default and a huge tile budget.  A BLAS
    product's last bits can depend on its row count, so f, and with it the
    estimates, agree within rel 1e-12; the pseudo-robust counts, which
    compare deviations with a tolerance, agree exactly on this generic
    data."""

    def test_cell_stats(self, monkeypatch):
        model, part, ds, probe = budget_cases(np.random.default_rng(34))
        got = []
        for budget in TILE_BUDGETS:
            monkeypatch.setattr(core, "TILE_BYTES", budget)
            eps = cell_stats(model, part, ds, probe, math.inf)[0]
            est, count = cell_stats(model, part, ds, probe, 0.5 * eps.value)
            assert est == eps
            got.append((est.value, count))
        assert 0 < got[0][1] < ds.n**2
        for value, count in got[1:]:
            assert value == pytest.approx(got[0][0], rel=1e-12, abs=0.0)
            assert count == got[0][1]

    def test_empirical_epsilon_triplet(self, monkeypatch):
        model, part, ds, probe = budget_cases(np.random.default_rng(35))
        got = []
        for budget in TILE_BUDGETS:
            monkeypatch.setattr(core, "TILE_BYTES", budget)
            got.append(empirical_epsilon_triplet(model, part, ds, probe).value)
        assert got[0] > 0.0
        assert got[1:] == pytest.approx([got[0]] * 2, rel=1e-12, abs=0.0)


def dict_loop_epsilon_triplet(m, part, ds, probe):
    """Oracle: per-cell-triple extrema of every enumerated admissible
    triplet, kept in a dict, then the largest deviation over shared keys."""
    ids_tr = assign_cells(part, ds.X, ds.y)
    ids_pr = assign_cells(part, probe.X, probe.y)
    keep = np.flatnonzero(ids_pr >= 0)

    def grouped(sub, ids):
        F = metric_matrix(m, sub.X)
        out = {}
        for i, j, k in build_triplets(sub):
            loss = max(0.0, 1.0 - F[i, k] + F[i, j])
            key = (ids[i], ids[j], ids[k])
            lo, hi = out.get(key, (np.inf, -np.inf))
            out[key] = (min(lo, loss), max(hi, loss))
        return out

    tr = grouped(ds, ids_tr)
    if len(keep) == 0:
        return 0.0, len(ids_pr)
    sub = Dataset(probe.X[keep], [probe.y[i] for i in keep], probe.R, probe.labels)
    pr = grouped(sub, ids_pr[keep])
    dev = 0.0
    for key, (lo_t, hi_t) in tr.items():
        if key in pr:
            lo_p, hi_p = pr[key]
            dev = max(dev, hi_t - lo_p, hi_p - lo_t)
    return float(max(dev, 0.0)), len(ids_pr) - len(keep)


class TestEmpiricalEpsilonTriplet:
    def test_matches_dict_loop_oracle_exactly(self):
        rng = np.random.default_rng(21)
        for trial in range(8):
            labels = ["a", "b", "c"][: 2 + trial % 2]
            n, m = int(rng.integers(6, 16)), int(rng.integers(12, 20))
            Xtr = rng.uniform(-1, 1, size=(n, 2))
            # the last probe point lies outside the cover and is excluded
            Xpr = np.vstack([rng.uniform(-0.6, 0.6, size=(m - 1, 2)), [[2.5, 0.0]]])
            R = float(max(np.linalg.norm(Xtr, axis=1).max(), np.linalg.norm(Xpr, axis=1).max()))
            ds = make_ds(Xtr, labels + list(rng.choice(labels, size=n - len(labels))), R=R)
            probe = make_ds(Xpr, list(rng.choice(labels, size=m)), R=R)
            covered = make_ds(Xpr[:-1], probe.y[:-1], R=R)
            part = build_partition(ds, CoverConfig(gamma=1.0), probe=covered)
            ids_tr = set(assign_cells(part, ds.X, ds.y))
            ids_pr = set(assign_cells(part, probe.X, probe.y)) - {-1}
            assert ids_tr - ids_pr  # some training cells have no probe point
            A = rng.standard_normal((2, 2))
            model = MetricModel("mahalanobis", M=A @ A.T)
            est = empirical_epsilon_triplet(model, part, ds, probe)
            value, excluded = dict_loop_epsilon_triplet(model, part, ds, probe)
            assert est.value == value
            assert est.excluded_probes == excluded == 1

    @pytest.mark.parametrize("rows", [2, 7])
    def test_row_blocks_match_dict_loop_oracle(self, monkeypatch, rows):
        # the per-cell tables are reduced a row block at a time; cells whose
        # runs straddle block boundaries must give the same bits
        monkeypatch.setattr(core, "BLOCK_ROWS", rows)
        rng = np.random.default_rng(24)
        for labels in (["a", "b"], ["a", "b", "c"]):
            n, m = 26, 18
            Xtr = rng.uniform(-1, 1, size=(n, 2))
            Xpr = np.vstack([rng.uniform(-0.6, 0.6, size=(m - 1, 2)), [[2.5, 0.0]]])
            R = float(max(np.linalg.norm(Xtr, axis=1).max(), np.linalg.norm(Xpr, axis=1).max()))
            ds = make_ds(Xtr, labels + list(rng.choice(labels, size=n - len(labels))), R=R)
            probe = make_ds(Xpr, list(rng.choice(labels, size=m)), R=R)
            covered = make_ds(Xpr[:-1], probe.y[:-1], R=R)
            part = build_partition(ds, CoverConfig(gamma=1.6), probe=covered)
            sizes = np.unique(assign_cells(part, ds.X, ds.y), return_counts=True)[1]
            starts = np.cumsum(sizes) - sizes  # positions in the cell-sorted order
            assert (starts // rows != (starts + sizes - 1) // rows).any()
            A = rng.standard_normal((2, 2))
            model = MetricModel("mahalanobis", M=A @ A.T)
            est = empirical_epsilon_triplet(model, part, ds, probe)
            assert (est.value, est.excluded_probes) == dict_loop_epsilon_triplet(model, part, ds, probe)

    def test_integer_grid_ties(self):
        # integer points with M = I: equal losses inside cells and hinges at 0
        rng = np.random.default_rng(22)
        for _ in range(3):
            X = rng.integers(-2, 3, size=(14, 2)) / 4.0
            ds = make_ds(X, ["a", "b"] + list(rng.choice(["a", "b"], size=12)))
            Xpr = rng.integers(-2, 3, size=(10, 2)) / 4.0
            probe = make_ds(Xpr, list(rng.choice(["a", "b"], size=10)), R=ds.R)
            part = build_partition(ds, CoverConfig(gamma=0.5), probe=probe)
            model = MetricModel("mahalanobis", M=np.eye(2) * 16.0)
            est = empirical_epsilon_triplet(model, part, ds, probe)
            oracle = dict_loop_epsilon_triplet(model, part, ds, probe)
            assert (est.value, est.excluded_probes) == oracle

    def test_no_covered_probe_and_single_label_probe(self):
        ds = make_ds([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]], "aab", R=5.0)
        model = MetricModel("mahalanobis", M=np.eye(2))
        part = build_partition(ds, CoverConfig(gamma=0.5))
        uncovered = make_ds([[3.0, 0.0]], "a", R=5.0)
        est = empirical_epsilon_triplet(model, part, ds, uncovered)
        assert (est.value, est.excluded_probes) == (0.0, 1)
        one_label = make_ds([[0.0, 0.0], [0.1, 0.0]], "aa", R=5.0)  # no probe triplets
        est = empirical_epsilon_triplet(model, part, ds, one_label)
        assert (est.value, est.excluded_probes) == (0.0, 0)

    def test_each_side_has_anchor_cells_the_other_lacks(self):
        # three labels; the training points fill the left of the disc and the
        # probe points the right, so each sample occupies cells, anchor
        # cells among them, where the other has no point
        rng = np.random.default_rng(25)
        labels = ["a", "b", "c"]
        for _ in range(3):
            Xtr = rng.uniform(-1.0, 0.5, size=(24, 2))
            Xpr = rng.uniform(-0.5, 1.0, size=(20, 2))
            R = float(max(np.linalg.norm(Xtr, axis=1).max(), np.linalg.norm(Xpr, axis=1).max()))
            ds = make_ds(Xtr, labels * 8, R=R)
            probe = make_ds(Xpr, labels + list(rng.choice(labels, size=17)), R=R)
            part = build_partition(ds, CoverConfig(gamma=0.8), probe=probe)
            ids_tr = set(assign_cells(part, ds.X, ds.y))
            ids_pr = set(assign_cells(part, probe.X, probe.y))
            assert ids_tr - ids_pr and ids_pr - ids_tr
            assert len({c // part.centers.shape[0] for c in ids_tr & ids_pr}) == 3
            A = rng.standard_normal((2, 2))
            model = MetricModel("mahalanobis", M=A @ A.T)
            est = empirical_epsilon_triplet(model, part, ds, probe)
            oracle = dict_loop_epsilon_triplet(model, part, ds, probe)
            assert oracle[0] > 0.0
            assert (est.value, est.excluded_probes) == oracle

    def test_memory_is_per_point_tables(self):
        # per-anchor-cell dictionaries of cell-triple tables, O(C^3), peaked
        # at 171 MB here; the n x C tables of f extrema take a few MB
        ds = gen_synthetic(SyntheticSpec(d=3, n=600, seed=0))
        probe = gen_synthetic(SyntheticSpec(d=3, n=600, seed=100))
        part = build_partition(ds, CoverConfig(gamma=0.3), probe=probe)
        A = np.random.default_rng(0).standard_normal((3, 3))
        model = MetricModel("mahalanobis", M=A @ A.T / 3)
        tracemalloc.start()
        try:
            est = empirical_epsilon_triplet(model, part, ds, probe)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.value > 0.0
        assert peak < 32e6


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

    # (K, n) on the alias path, then on the conditional-binomial path
    @pytest.mark.parametrize("K, n", [(8, 20), (3, 40)])
    def test_result_does_not_depend_on_draw_budget(self, monkeypatch, K, n):
        # budgets below n, around n, and with a partial last chunk (1003
        # trials in chunks of 2 or 7)
        mu = np.array([0.4, 0.25, 0.15, 0.1, 0.05, 0.05, 0.0, 0.0])[:K]
        mu = mu / mu.sum()
        results = set()
        for budget in (n - 3, n, n + 1, 2 * n, 7 * n + 3, 3 * K, 1 << 16):
            monkeypatch.setattr(bounds, "_BHC_DRAWS", budget)
            res = bhc_simulate(K, mu, n, 0.3, trials=1003, seed=4)
            results.add((res.empirical_tail, res.std_error))
        assert len(results) == 1
        tail = results.pop()[0]
        assert 0.0 < tail < 1.0

    @pytest.mark.parametrize(
        "mu",
        [
            np.full(64, 1 / 64),
            np.full(7, 1 / 7),
            [0.7, 0.2, 0.1],
            [0.0, 0.5, 0.0, 0.25, 0.25, 0.0],
            [1.0],
            [0.0, 0.0, 1.0],
            np.random.default_rng(0).dirichlet(np.full(64, 0.2)),
            np.random.default_rng(1).dirichlet(np.ones(1000)),
        ],
    )
    def test_alias_table_gives_back_mu(self, mu):
        mu = np.asarray(mu, dtype=float)
        K = len(mu)
        prob, alias = bounds._alias_table(mu)
        assert ((0.0 <= prob) & (prob <= 1.0)).all()
        back = (prob + np.bincount(alias, weights=1.0 - prob, minlength=K)) / K
        assert np.abs(back - mu).max() <= 1e-15
        # a column of a zero-mass cell always moves, and never to such a cell
        zero = mu == 0.0
        assert (prob[zero] == 0.0).all()
        assert not zero[alias[prob < 1.0]].any()

    def test_zero_mass_cells_are_never_counted(self):
        mu = np.array([0.0, 0.5, 0.0, 0.25, 0.25, 0.0])
        n = 20
        assert n <= bounds._BINOMIAL_COST * (len(mu) - 1)  # the alias path
        counts = np.vstack(
            list(bounds._multinomial_chunks(np.random.default_rng(0), n, mu, 5000))
        )
        assert counts.shape == (5000, 6)
        assert (counts.sum(axis=1) == n).all()
        assert (counts[:, mu == 0.0] == 0).all()

    def test_largest_uniform_stays_in_the_last_column(self):
        # rng.random() is at most nextafter(1, 0), so floor(u K) < K needs no clamp
        K = np.arange(1, 10_001)
        assert (np.floor(np.nextafter(1.0, 0.0) * K) < K).all()

    @pytest.mark.parametrize(
        "mu, n, lam", [([0.6, 0.3, 0.1], 8, 0.45), ([0.55, 0.0, 0.3, 0.15], 12, 0.3)]
    )
    def test_alias_tail_matches_enumeration(self, mu, n, lam):
        mu = np.asarray(mu)
        K = len(mu)
        assert n <= bounds._BINOMIAL_COST * (K - 1)  # the alias path
        exact = 0.0
        for head in itertools.product(range(n + 1), repeat=K - 1):
            if sum(head) <= n:
                N = np.array([*head, n - sum(head)])
                if np.abs(N / n - mu).sum() >= lam:
                    exact += multinomial.pmf(N, n, mu)
        assert 0.05 < exact < 0.95
        res = bhc_simulate(K, mu, n, lam, trials=100_000, seed=11)
        assert abs(res.empirical_tail - exact) <= 3 * res.std_error

    def test_invalid_mu(self):
        with pytest.raises(ValueError):
            bhc_simulate(2, [0.5, 0.6], 10, 0.1)
