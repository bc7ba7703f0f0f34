import tracemalloc
import warnings

import numpy as np
import pytest

from metricert import core
from metricert.core import (
    FAMILIES,
    HINGE_U,
    PAIR_G0,
    Dataset,
    KernelSpec,
    MetricModel,
    build_pairs,
    build_triplets,
    empirical_loss,
    empirical_triplet_loss,
    features,
    hinge,
    kernel_gram,
    metric_eval,
    metric_matrix,
    metric_rowwise,
    pair_hinge,
    quad_rows,
    triplet_hinge,
)
from metricert.harness import SyntheticSpec, gen_synthetic
from metricert.solver import SolverConfig, solve_kernel

from helpers import TILE_BUDGETS, make_ds, oracle_pair_loss, sign_hinge


def pair_losses(m, ds):
    """The n x n pair losses of ds, from the full metric matrix."""
    li = ds.label_indices()
    return pair_hinge(metric_matrix(m, ds.X), li[:, None] == li[None, :])


class TestPairHinge:
    def test_mask_form_equals_the_sign_product_bitwise(self):
        # f at and around the kinks f = 1 (y = +1) and f = 2 (y = -1), and
        # signed zeros; in a new array, in place, and on 1-D draws
        rng = np.random.default_rng(36)
        values = [-0.5, -0.0, 0.0, 1.0 - 2**-52, 1.0, 1.0 + 2**-52, 2.0 - 2**-51, 2.0, 3.0]
        F = rng.choice(values, size=(7, 9)) + rng.choice([0.0, 1e-3], size=(7, 9))
        same = rng.random((7, 9)) < 0.5
        expected = sign_hinge(F, same).view(np.int64)
        assert np.array_equal(pair_hinge(F, same).view(np.int64), expected)
        G = F.copy()
        assert pair_hinge(G, same, out=G) is G
        assert np.array_equal(G.view(np.int64), expected)
        assert np.array_equal(pair_hinge(F[0], same[0]).view(np.int64), expected[0])


def enumerate_pairs(n):
    return [(i, j) for i in range(n) for j in range(n)]


def enumerate_triplets(labels):
    n = len(labels)
    return [
        (i, j, k)
        for i in range(n)
        for j in range(n)
        for k in range(n)
        if labels[i] == labels[j] and labels[i] != labels[k]
    ]


class TestPairs:
    def test_single_element(self):
        ds = make_ds([[0.0]], ["a"])
        assert build_pairs(ds) == [(0, 0)]

    def test_n2_row_major(self):
        ds = make_ds([[0.0], [1.0]], ["a", "b"])
        assert build_pairs(ds) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_n3_matches_enumeration(self):
        ds = make_ds([[0.0], [1.0], [2.0]], "aab")
        pairs = build_pairs(ds)
        assert len(pairs) == 9
        assert pairs == enumerate_pairs(3)


class TestTriplets:
    def test_aab_labels(self):
        ds = make_ds([[0.0], [0.5], [1.0]], "aab")
        trips = build_triplets(ds)
        assert trips == enumerate_triplets("aab")
        # (i,j) in {(0,0),(0,1),(1,0),(1,1)} with k=2, plus (2,2,0),(2,2,1)
        assert len(trips) == 6

    def test_single_label_empty(self):
        ds = make_ds([[0.0], [1.0]], "aa")
        assert build_triplets(ds) == []

    def test_two_labels(self):
        ds = make_ds([[0.0], [1.0]], "ab")
        assert build_triplets(ds) == [(0, 0, 1), (1, 1, 0)]

    def test_admissibility(self):
        ds = make_ds([[0.0], [0.1], [1.0], [1.1]], "abab")
        for i, j, k in build_triplets(ds):
            assert ds.y[i] == ds.y[j] and ds.y[i] != ds.y[k]


def enumerated_triplet_hinge(F, labels):
    """np.add.at oracle over the explicit list of admissible triplets."""
    i, j, k = np.asarray(enumerate_triplets(list(labels))).T
    args = 1.0 - F[i, k] + F[i, j]
    active = args > 0.0
    Wp = np.zeros(F.shape)
    Wn = np.zeros(F.shape)
    np.add.at(Wp, (i[active], j[active]), 1.0)
    np.add.at(Wn, (i[active], k[active]), 1.0)
    return float(np.maximum(0.0, args).mean()), Wp, Wn, len(i), int((args == 0.0).sum())


def blocked_triplet_hinge(F, labels, rows):
    """triplet_hinge on F with rows and columns sorted by label, over the
    anchors of each label run in blocks of `rows`; its W = Wp - Wn rows are
    split back into n x n Wp and Wn in input order, and its loss is the
    mean over all blocks."""
    n = len(F)
    order, _, starts, _ = core.sorted_runs(labels)
    Fs = F[np.ix_(order, order)]
    W, same = np.zeros((n, n)), np.zeros((n, n), dtype=bool)
    total, nt = 0.0, 0
    for a0, a1 in zip(starts, list(starts[1:]) + [n]):
        for s in range(a0, a1, rows):
            e = min(s + rows, a1)
            block_total, W[s:e], block_nt = triplet_hinge(Fs[s:e], a0, a1)
            same[s:e, a0:a1] = True
            total, nt = total + block_total, nt + block_nt
    back = np.ix_(np.argsort(order), np.argsort(order))
    W, same = W[back], same[back]
    return total / nt, np.where(same, W, 0.0), np.where(same, 0.0, -W), nt


class TestTripletHinge:
    def _check(self, m, ds):
        F = metric_matrix(m, ds.X)
        ref_loss, ref_p, ref_n, ref_nt, kinks = enumerated_triplet_hinge(F, ds.y)
        for rows in (1, 7, ds.n):
            loss, Wp, Wn, nt = blocked_triplet_hinge(F, ds.label_indices(), rows)
            assert nt == ref_nt
            assert np.array_equal(Wp, ref_p)
            assert np.array_equal(Wn, ref_n)
            assert loss == pytest.approx(ref_loss, rel=1e-12, abs=1e-12)
        # empirical_triplet_loss computes f tile by tile, and a matrix
        # product of fewer rows may round differently
        assert empirical_triplet_loss(m, ds) == pytest.approx(ref_loss, rel=1e-12, abs=1e-12)
        return kinks

    def test_integer_grid_identity_on_the_kink(self):
        # integer points and M = I give integer distances, so many triplets
        # sit exactly on the kink 1 - F_ik + F_ij = 0 and must count as inactive
        rng = np.random.default_rng(30)
        for _ in range(5):
            X = rng.integers(-3, 4, size=(24, 2)).astype(float)
            ds = make_ds(X, rng.choice(["a", "b"], size=24))
            assert self._check(MetricModel("mahalanobis", M=np.eye(2)), ds) > 0

    def test_random_metrics(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(3, 30))
            A = rng.standard_normal((3, 3))
            labels = ["a", "b"] + list(rng.choice(["a", "b"], size=n - 2))
            ds = make_ds(rng.uniform(-1, 1, size=(n, 3)), labels)
            self._check(MetricModel("mahalanobis", M=A @ A.T), ds)

    def test_three_labels(self):
        rng = np.random.default_rng(32)
        for M in (np.eye(2), np.diag([3.0, 0.5])):
            X = rng.integers(-2, 3, size=(20, 2)).astype(float)
            ds = make_ds(X, ["a", "b", "c"] + list(rng.choice(["a", "b", "c"], size=17)))
            self._check(MetricModel("mahalanobis", M=M), ds)

    def test_single_label_rejected(self):
        with pytest.raises(ValueError, match="empty triplet set"):
            triplet_hinge(np.zeros((2, 2)), 0, 2)
        ds = make_ds([[0.0], [1.0]], "aa")
        with pytest.raises(ValueError, match="empty triplet set"):
            empirical_triplet_loss(MetricModel("mahalanobis", M=np.eye(1)), ds)


class TestMetricEval:
    def test_identity_squared_euclidean(self):
        m = MetricModel("mahalanobis", M=np.eye(2))
        assert metric_eval(m, [0.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0)

    def test_zero_matrix(self):
        m = MetricModel("mahalanobis", M=np.zeros((2, 2)))
        assert metric_eval(m, [0.3, -0.2], [1.0, 5.0]) == 0.0

    def test_bilinear_hand_product(self):
        m = MetricModel("bilinear", M=np.array([[2.0, 0.0], [0.0, 1.0]]))
        assert metric_eval(m, [1.0, 1.0], [1.0, 2.0]) == pytest.approx(4.0)

    def test_dimension_mismatch(self):
        m = MetricModel("mahalanobis", M=np.eye(2))
        with pytest.raises(ValueError):
            metric_eval(m, [1.0, 2.0, 3.0], [0.0, 0.0, 0.0])

    def test_psd_nonnegative_random(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((3, 3))
        m = MetricModel("mahalanobis", M=A @ A.T)
        for _ in range(1000):
            x1, x2 = rng.standard_normal(3), rng.standard_normal(3)
            assert metric_eval(m, x1, x2) >= -1e-8

    def test_linear_kernel_matches_induced_mahalanobis(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            Xa = rng.standard_normal((4, 2))
            anchors = Dataset(Xa, ["a", "a", "b", "b"], R=10.0)
            G = rng.standard_normal((4, 4))
            A = G @ G.T
            km = MetricModel(
                "kernelized", M=A, kernel=KernelSpec("linear"), anchors=anchors
            )
            induced = MetricModel("mahalanobis", M=Xa.T @ A @ Xa)
            x1, x2 = rng.standard_normal(2), rng.standard_normal(2)
            assert metric_eval(km, x1, x2) == pytest.approx(
                metric_eval(induced, x1, x2), abs=1e-8
            )


class TestPairLoss:
    def test_zero_matrix_equal_labels(self):
        m = MetricModel("mahalanobis", M=np.zeros((2, 2)))
        ds = make_ds([[0.0, 0.0], [1.0, 0.0]], "aa")
        assert pair_losses(m, ds)[0, 1] == 0.0

    def test_zero_matrix_different_labels_is_g0(self):
        m = MetricModel("mahalanobis", M=np.zeros((2, 2)))
        ds = make_ds([[0.0, 0.0], [1.0, 0.0]], "ab")
        assert pair_losses(m, ds)[0, 1] == PAIR_G0 == 2.0

    def test_identity_hand_value(self):
        m = MetricModel("mahalanobis", M=np.eye(2))
        ds = make_ds([[0.0, 0.0], [1.0, 0.0]], "aa")
        assert pair_losses(m, ds)[0, 1] == pytest.approx(1.0)

    def test_symmetric_in_arguments(self):
        # f itself is symmetric bit for bit; the blocked losses expand f as
        # q_i + q_j - 2 x_i^T M x_j, whose cross term rounds differently in
        # its two orders, so they agree to rounding
        rng = np.random.default_rng(3)
        A = rng.standard_normal((2, 2))
        m = MetricModel("mahalanobis", M=A @ A.T)
        for _ in range(50):
            ds = make_ds(rng.standard_normal((2, 2)), ["a", rng.choice(["a", "b"])])
            assert metric_eval(m, ds.X[0], ds.X[1]) == metric_eval(m, ds.X[1], ds.X[0])
            L = pair_losses(m, ds)
            assert L[0, 1] == pytest.approx(L[1, 0], rel=1e-12, abs=1e-12)

    def test_lipschitz_on_grid(self):
        rng = np.random.default_rng(5)
        t = rng.uniform(-10, 10, size=(1000, 2))
        g = hinge
        assert np.all(np.abs(g(t[:, 0]) - g(t[:, 1])) <= HINGE_U * np.abs(t[:, 0] - t[:, 1]) + 1e-12)


class TestTripletLoss:
    def test_zero_matrix(self):
        m = MetricModel("mahalanobis", M=np.zeros((2, 2)))
        ds = make_ds(np.zeros((3, 2)), "aab", R=1.0)
        assert empirical_triplet_loss(m, ds) == 1.0

    def test_clamped_at_zero(self):
        # anchor x1 = 0: f(x1,x3)=3, f(x1,x2)=1 -> [1-3+1]_+ = 0, and its
        # other admissible triplet (x1, x1, x3) gives [1-3+0]_+ = 0
        m = MetricModel("mahalanobis", M=np.eye(1))
        ds = make_ds([[0.0], [1.0], [np.sqrt(3.0)]], "aab")
        F = metric_matrix(m, ds.X[:1], ds.X)
        assert triplet_hinge(F, 0, 2)[0] == 0.0

    def test_bilinear_refused(self):
        # the triplet loss compares squared distances, which a bilinear
        # similarity is not
        ds = make_ds([[0.0], [1.0]], "ab")
        with pytest.raises(ValueError, match="distance metric"):
            empirical_triplet_loss(MetricModel("bilinear", M=np.eye(1)), ds)

    def test_non_admissible_is_zero(self):
        # at M = 0 every admissible triplet has hinge 1, so a hinge sum equal
        # to the admissible count leaves nothing to the others, such as (0, 1, 2)
        m = MetricModel("mahalanobis", M=np.zeros((2, 2)))
        ds = make_ds(np.zeros((3, 2)), "abb", R=1.0)
        loss, Wp, Wn, nt = blocked_triplet_hinge(metric_matrix(m, ds.X), ds.label_indices(), 3)
        assert loss == 1.0 and nt == len(enumerate_triplets("abb"))
        # every admissible triplet is active, and no other one counts
        assert np.array_equal(Wp, [[2, 0, 0], [0, 1, 1], [0, 1, 1]])
        assert np.array_equal(Wn, [[0, 1, 1], [2, 0, 0], [2, 0, 0]])


class TestMetricModelPsdMargin:
    def test_negative_loss_model_refused(self):
        # accepted under the absolute floor -1e-8: empirical_loss was -2.5e-9
        # on the same-label points (0, +-0.5)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            MetricModel("mahalanobis", M=np.diag([1.0, -5e-9]))

    @pytest.mark.parametrize("kind", ["mahalanobis", "kernelized"])
    def test_margin_is_relative_to_the_largest_eigenvalue(self, kind):
        ds = make_ds([[0.0, 0.0], [0.5, 0.0]], "ab")
        extra = {"kernel": KernelSpec("rbf", 1.0), "anchors": ds} if kind == "kernelized" else {}
        for scale in (1e-6, 1.0, 1e6):
            MetricModel(kind, M=scale * np.diag([1.0, -1e-15]), **extra)
            with pytest.raises(ValueError, match="negative eigenvalue"):
                MetricModel(kind, M=scale * np.diag([1.0, -1e-10]), **extra)

    def test_zero_matrix_accepted(self):
        MetricModel("mahalanobis", M=np.zeros((2, 2)))


class TestEmpiricalLoss:
    def test_zero_matrix_single_label(self):
        ds = make_ds([[0.0], [1.0], [2.0]], "aaa")
        m = MetricModel("mahalanobis", M=np.zeros((1, 1)))
        assert empirical_loss(m, ds) == 0.0

    def test_zero_matrix_two_labels(self):
        ds = make_ds([[0.0], [1.0]], "ab")
        m = MetricModel("mahalanobis", M=np.zeros((1, 1)))
        # (0,0),(1,1) give 0; (0,1),(1,0) give 2 -> mean 1
        assert empirical_loss(m, ds) == pytest.approx(1.0)

    def test_n1_single_self_pair(self):
        ds = make_ds([[0.5, 0.5]], ["a"])
        m = MetricModel("mahalanobis", M=np.eye(2))
        assert empirical_loss(m, ds) == oracle_pair_loss(m, ds, 0, ds, 0)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(-1, 1, size=(8, 2))
        ds = make_ds(X, rng.choice(["a", "b"], size=8))
        A = rng.standard_normal((2, 2))
        m = MetricModel("mahalanobis", M=A @ A.T)
        expected = np.mean(
            [oracle_pair_loss(m, ds, i, ds, j) for i in range(8) for j in range(8)]
        )
        assert empirical_loss(m, ds) == pytest.approx(expected)


def models_of_every_kind(rng, d):
    """One model of each kind: mahalanobis, bilinear, and kernelized with
    an rbf and with a linear kernel."""
    G = rng.standard_normal((d, d))
    anchors = Dataset(rng.uniform(-0.5, 0.5, size=(6, d)), list("aabbcc"), R=2.0)
    H = rng.standard_normal((6, 6))
    return {
        "mahalanobis": MetricModel("mahalanobis", M=G @ G.T),
        "bilinear": MetricModel("bilinear", M=G),
        "kernel-rbf": MetricModel(
            "kernelized", M=H @ H.T, kernel=KernelSpec("rbf", 0.7), anchors=anchors
        ),
        "kernel-linear": MetricModel(
            "kernelized", M=H @ H.T, kernel=KernelSpec("linear"), anchors=anchors
        ),
    }


class TestMetricRowwise:
    def test_is_the_diagonal_of_metric_matrix(self):
        rng = np.random.default_rng(8)
        X1, X2 = rng.uniform(-0.5, 0.5, size=(2, 25, 3))
        for kind, m in models_of_every_kind(rng, 3).items():
            expected = np.diag(metric_matrix(m, X1, X2))
            got = metric_rowwise(m, X1, X2)
            assert np.allclose(got, expected, rtol=1e-12, atol=1e-12), kind


def expanded_rows(m, X1, X2):
    """f of the rows X1 against X2 by the unbuffered expansion that
    metric_blocks evaluated for each block before it reused its buffers:
    the reference its blocks must equal bit for bit."""
    (F1, Q), (F2, _) = features(m, X1), features(m, X2)
    if m.kind == "bilinear":
        return F1 @ Q @ F2.T
    return quad_rows(F1, Q, F1)[:, None] + quad_rows(F2, Q, F2)[None, :] - 2.0 * (F1 @ Q @ F2.T)


class TestMetricBlocks:
    @pytest.mark.parametrize("sum_chunk", [None, 900])
    @pytest.mark.parametrize("columns", ["given", "omitted"])
    @pytest.mark.parametrize("kind", ["mahalanobis", "bilinear", "kernel-rbf", "kernel-linear"])
    @pytest.mark.parametrize("rows", [1, 7, 256])
    def test_bit_identical_to_the_unbuffered_expansion(
        self, monkeypatch, rows, kind, columns, sum_chunk
    ):
        # 300 rows leave a short last block at every block size; a chunk of
        # 900 values is 3 rows of 270 or 300 columns, so the sums of a block
        # also go in chunks with a short last one
        monkeypatch.setattr(core, "BLOCK_ROWS", rows)
        if sum_chunk is not None:
            monkeypatch.setattr(core, "_SUM_CHUNK", sum_chunk)
        rng = np.random.default_rng(31)
        X1 = rng.uniform(-0.5, 0.5, size=(300, 3))
        X2 = rng.uniform(-0.5, 0.5, size=(270, 3)) if columns == "given" else None
        m = models_of_every_kind(rng, 3)[kind]
        starts, blocks = [], []
        for start, F in core.metric_blocks(m, X1, X2):
            expected = expanded_rows(m, X1[start : start + rows], X1 if X2 is None else X2)
            assert np.array_equal(F, expected)
            starts.append(start)
            blocks.append(F.copy())
        assert starts == list(range(0, 300, rows))
        assert np.array_equal(np.vstack(blocks), metric_matrix(m, X1, X2))

    def test_blocks_share_one_buffer(self, monkeypatch):
        # a block is a view of the sweep's buffer, which the next one overwrites
        monkeypatch.setattr(core, "BLOCK_ROWS", 7)
        rng = np.random.default_rng(32)
        X = rng.uniform(-0.5, 0.5, size=(30, 2))
        m = models_of_every_kind(rng, 2)["mahalanobis"]
        addresses = {F.__array_interface__["data"][0] for _, F in core.metric_blocks(m, X)}
        assert len(addresses) == 1

    @pytest.mark.parametrize("budget", [None, 1 << 16])
    def test_sweep_memory(self, monkeypatch, budget):
        # the sweep holds one tile of f and a 512 KB chunk of sums (the
        # unbuffered expansion peaked at 3.0 tiles).  At the default 2 MiB
        # budget a tile at n = 4000 is 65 rows, 2.1 MB, and the sweep peaks
        # at 1.26 tiles, 1.25 budgets.  At a 64 KiB budget the 16-row floor
        # makes a tile 8 budgets, and the chunk is as large: 2.07 tiles.
        if budget is not None:
            monkeypatch.setattr(core, "TILE_BYTES", budget)
        rows = core.tile_rows(4000)
        assert rows == (65 if budget is None else 16)
        rng = np.random.default_rng(33)
        X = rng.uniform(-0.5, 0.5, size=(4000, 3))
        m = MetricModel("mahalanobis", M=np.eye(3))
        starts = []
        tracemalloc.start()
        try:
            for start, _ in core.metric_blocks(m, X):
                starts.append(start)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert starts == list(range(0, 4000, rows))
        assert peak <= 2.5 * rows * 4000 * 8


class TestTileRows:
    def test_cap_byte_rule_and_floor(self):
        # 2 MiB of float64 rows: the 256-row cap up to 1024 columns, 65
        # rows at 4000, and the 16-row floor from 16 385 columns on
        cols = (0, 1, 1024, 1025, 4000, 16384, 16385, 10**7)
        assert [core.tile_rows(c) for c in cols] == [256, 256, 256, 255, 65, 16, 16, 16]

    def test_cap_wins_over_floor(self, monkeypatch):
        monkeypatch.setattr(core, "BLOCK_ROWS", 2)
        assert core.tile_rows(1) == core.tile_rows(10**7) == 2

    def test_budget_is_read_at_call_time(self, monkeypatch):
        monkeypatch.setattr(core, "TILE_BYTES", 1 << 16)
        assert (core.tile_rows(100), core.tile_rows(4000)) == (81, 16)


class TestTileBudgets:
    @pytest.mark.parametrize("kind", ["mahalanobis", "bilinear", "kernel-rbf", "kernel-linear"])
    def test_metric_matrix_agrees_across_budgets(self, monkeypatch, kind):
        # a BLAS product's last bits can depend on its row count, so the
        # matrices agree within rel 1e-12 of their largest entry, not bit
        # for bit
        rng = np.random.default_rng(34)
        X1, X2 = rng.uniform(-0.5, 0.5, size=(300, 3)), rng.uniform(-0.5, 0.5, size=(1500, 3))
        m = models_of_every_kind(rng, 3)[kind]
        got, rows = [], []
        for budget in TILE_BUDGETS:
            monkeypatch.setattr(core, "TILE_BYTES", budget)
            got.append(metric_matrix(m, X1, X2))
            rows.append(core.tile_rows(1500))
        assert rows == [16, 174, 256]
        for F in got[1:]:
            assert np.abs(F - got[0]).max() <= 1e-12 * np.abs(got[0]).max()


class TestBlockedEmpiricalLoss:
    @pytest.mark.parametrize("kind", ["mahalanobis", "bilinear", "kernel-rbf", "kernel-linear"])
    def test_blocks_match_full_hinge_mean(self, monkeypatch, kind):
        # 30 rows in blocks of 7 leave a short last block; three interleaved
        # labels put every label in every block
        monkeypatch.setattr(core, "BLOCK_ROWS", 7)
        rng = np.random.default_rng(16)
        X = rng.uniform(-0.5, 0.5, size=(30, 2))
        ds = make_ds(X, [("a", "b", "c")[i % 3] for i in range(30)])
        m = models_of_every_kind(rng, 2)[kind]
        li = ds.label_indices()
        Y = np.where(li[:, None] == li[None, :], 1.0, -1.0)
        expected = float(hinge(Y * (1.0 - metric_matrix(m, X))).mean())
        assert expected > 0.0
        assert empirical_loss(m, ds) == pytest.approx(expected, rel=1e-15, abs=0.0)

    def test_memory_is_not_quadratic(self):
        # one n x n float array is 72 MB at n = 3000; the full loss matrix
        # and its temporaries peaked at several of them
        rng = np.random.default_rng(3)
        ds = make_ds(rng.uniform(-0.5, 0.5, size=(3000, 2)), rng.choice(["a", "b"], size=3000))
        m = MetricModel("mahalanobis", M=np.eye(2))
        tracemalloc.start()
        try:
            empirical_loss(m, ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6


class TestKernelGram:
    def test_anchor_features_have_a_unit_diagonal_at_small_sigma(self):
        # features() evaluates points against the anchors with X2 given;
        # the expansion's residue left k(x, x) = 7.8e-25 here at sigma = 1e-9
        ds = gen_synthetic(SyntheticSpec(n=20, seed=1))
        m = MetricModel("kernelized", M=np.eye(20), kernel=KernelSpec("rbf", 1e-9), anchors=ds)
        assert np.diag(features(m, ds.X.copy())[0]).min() == 1.0

    def test_equal_rows_match_a_brute_force_search(self):
        # a grid with repeated rows on both sides and signed zeros
        rng = np.random.default_rng(23)
        for _ in range(30):
            d = int(rng.integers(1, 4))
            X1, X2 = (
                0.5 * rng.integers(-1, 2, size=(int(rng.integers(1, 25)), d))
                * rng.choice([-1.0, 1.0], size=d)
                for _ in range(2)
            )
            i, j = core._equal_rows(X1, X2)
            expected = [(a, b) for a in range(len(X1)) for b in range(len(X2))
                        if (X1[a] == X2[b]).all()]
            assert sorted(zip(i.tolist(), j.tolist())) == expected
            K = kernel_gram(KernelSpec("rbf", 1e-9), X1, X2)
            assert (K[i, j] == 1.0).all() and K.sum() == len(expected)

    def test_rbf_equals_explicit_expansion(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            n1, n2, d = (int(v) for v in rng.integers(1, 40, size=3))
            X1, X2 = rng.standard_normal((n1, d)), rng.standard_normal((n2, d))
            sigma = float(rng.uniform(0.2, 3.0))
            sq = (
                np.sum(X1 * X1, axis=1)[:, None]
                + np.sum(X2 * X2, axis=1)[None, :]
                - 2.0 * X1 @ X2.T
            )
            expected = np.exp(-np.maximum(sq, 0.0) / (2.0 * sigma**2))
            assert np.array_equal(kernel_gram(KernelSpec("rbf", sigma), X1, X2), expected)

    def test_sigma_square_below_float_range(self):
        # sigma^2 is subnormal below sigma = 1.5e-154 and rounds to 0 below
        # 1.5e-162, where 0/0 put NaN on the diagonal: the Gram of distinct
        # points is the identity, without a warning (these points have
        # exact squared distances, so their self-distances are exactly 0)
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, -0.25], [0.0, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for sigma in (1e-160, 1e-200, 5e-324):
                assert np.array_equal(kernel_gram(KernelSpec("rbf", sigma), X), np.eye(4))

    def test_square_gram_has_a_unit_diagonal_at_any_sigma(self):
        # the expansion q_i + q_i - 2 x_i.x_i left self-distances of order
        # 1e-17, so at sigma = 1e-9 one k(x, x) was 7.8e-25 on these points
        # (metricert gen --n 20 --seed 1), and at 1e-200 two were 0, which
        # dropped the kernel solver's rank from 20 to 18
        ds = gen_synthetic(SyntheticSpec(n=20, seed=1))
        for sigma in (1e-200, 1e-9, 0.3, 1.0):
            ks = KernelSpec("rbf", sigma)
            K = kernel_gram(ks, ds.X)
            assert np.array_equal(np.diag(K), np.ones(20))
            off = ~np.eye(20, dtype=bool)
            assert np.array_equal(K[off], kernel_gram(ks, ds.X, ds.X.copy())[off])
        model = solve_kernel(ds, KernelSpec("rbf", 1e-200), SolverConfig(c=0.1, max_iters=5))
        assert model.info["rank"] == 20

    def test_sigma_square_beyond_float_range(self):
        # sigma^2 overflows from sigma = 1.35e154 on: the Gram tends to all
        # ones, where the square raised OverflowError
        X = np.random.default_rng(22).uniform(-1.0, 1.0, size=(5, 2))
        for sigma in (1e155, 1e300, 1.7e308):
            assert np.array_equal(kernel_gram(KernelSpec("rbf", sigma), X), np.ones((5, 5)))


class TestLossBoundB:
    def test_mahalanobis_hand_value(self):
        assert FAMILIES["fro"].loss_bound(R=1.0, c=2.0) == pytest.approx(6.0)

    def test_bilinear_hand_value(self):
        assert FAMILIES["bilinear"].loss_bound(R=1.0, c=2.0) == pytest.approx(3.0)

    def test_zero_capacity_limit(self):
        assert FAMILIES["fro"].loss_bound(R=1.0, c=1e12) == pytest.approx(
            2.0, abs=1e-9
        )

    def test_invalid_c(self):
        with pytest.raises(ValueError):
            FAMILIES["fro"].loss_bound(R=1.0, c=0.0)

    def test_kernel_and_triplet_hand_values(self):
        # the rbf features have norm 1 whatever the input radius; the
        # triplet hinge of the zero matrix is g0 = 1
        assert FAMILIES["kernel-rbf"].loss_bound(R=3.0, c=2.0) == pytest.approx(6.0)
        assert FAMILIES["triplet-l21"].loss_bound(R=1.0, c=2.0) == pytest.approx(3.0)
        # the pre-table triplet form, bit for bit
        R, c = 0.7, 0.13
        assert FAMILIES["triplet-fro"].loss_bound(R, c) == 1.0 + 4.0 * R**2 * 1.0 / c


class TestDatasetInvariants:
    def test_radius_violation(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[2.0, 0.0]]), ["a"], R=1.0)

    def test_label_outside_declared_set(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[0.0]]), ["z"], R=1.0, labels=("a", "b"))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((0, 2)), [], R=1.0)

    @pytest.mark.parametrize(
        "X,R",
        [
            ([[np.nan, 0.0]], 1.0),
            ([[np.inf, 0.0]], np.inf),
            ([[0.1, 0.0]], np.nan),
        ],
    )
    def test_non_finite_rejected(self, X, R):
        # each passes the radius check, since a comparison with NaN is False
        # and inf <= inf
        with pytest.raises(ValueError, match="not finite|non-finite"):
            Dataset(np.array(X), ["a"], R=R)
