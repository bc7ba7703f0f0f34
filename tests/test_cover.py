import itertools
import math
import tracemalloc

import numpy as np
import pytest

from metricert import core, cover
from metricert.core import Dataset
from metricert.cover import (
    CoverConfig,
    Partition,
    assign_cells,
    build_partition,
    covering_number_upper_bound,
    greedy_cover,
)


def minimal_cover_size(points, radius, norm):
    """Exhaustive search for the smallest subset covering all points."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(points)

    def dist(a, b):
        return np.abs(a - b).sum() if norm == "l1" else np.linalg.norm(a - b)

    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            if all(
                min(dist(p, points[c]) for c in subset) <= radius + 1e-12
                for p in points
            ):
                return size
    return n


def make_ds(points, labels, R=None):
    X = np.atleast_2d(np.asarray(points, dtype=float))
    if R is None:
        R = float(np.linalg.norm(X, axis=1).max()) + 1e-12
    return Dataset(X, list(labels), R)


class TestGreedyCover:
    def test_line_radius_half(self):
        centers = greedy_cover([[0.0], [1.0], [2.0]], 0.5)
        assert len(centers) == 3
        assert minimal_cover_size([[0.0], [1.0], [2.0]], 0.5, "l2") == 3

    def test_single_point(self):
        assert len(greedy_cover([[0.3, 0.3]], 1.0)) == 1

    def test_greedy_trace(self):
        pts = [[0.0], [0.4], [0.8]]
        centers = greedy_cover(pts, 0.5)
        assert np.allclose(centers, [[0.0], [0.8]])
        # the middle point alone covers everything, greedy stays within 2x
        assert minimal_cover_size(pts, 0.5, "l2") == 1

    def test_empty_input(self):
        assert len(greedy_cover([], 1.0)) == 0

    @pytest.mark.parametrize("radius", [0.0, -1.0, float("nan")])
    def test_radius_not_positive_refused(self, radius):
        # a NaN radius passed a `radius <= 0` check and made one centre
        # stand for every point
        with pytest.raises(ValueError, match="radius must be positive"):
            greedy_cover([[0.0], [1.0]], radius)

    def test_cover_validity_random(self):
        rng = np.random.default_rng(1)
        for norm in ("l1", "l2"):
            for _ in range(20):
                pts = rng.uniform(-1, 1, size=(30, 2))
                radius = float(rng.uniform(0.1, 1.0))
                centers = greedy_cover(pts, radius, norm)
                diff = pts[:, None, :] - centers[None, :, :]
                d = (
                    np.abs(diff).sum(axis=2)
                    if norm == "l1"
                    else np.linalg.norm(diff, axis=2)
                )
                assert d.min(axis=1).max() <= radius

    def test_at_most_twice_optimal_small(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            pts = rng.uniform(-1, 1, size=(8, 1))
            radius = 0.4
            got = len(greedy_cover(pts, radius))
            opt = minimal_cover_size(pts, radius, "l2")
            assert opt <= got <= 2 * opt

    def test_monotone_in_radius(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            pts = rng.uniform(-1, 1, size=(15, 2))
            big = len(greedy_cover(pts, 0.5))
            small = len(greedy_cover(pts, 0.25))
            assert small >= big


def point_by_point_cover(points, radius, norm):
    """The greedy sweep one point at a time, with the library's distance
    formula: the reference the blocked sweep must reproduce exactly."""
    centers = [points[0]]
    for p in points[1:]:
        diff = p[None, :] - np.asarray(centers)
        d = np.abs(diff).sum(axis=1) if norm == "l1" else np.sqrt((diff * diff).sum(axis=1))
        if d.min() > radius:
            centers.append(p)
    return np.asarray(centers)


class TestBlockedCover:
    @pytest.mark.parametrize("norm", ["l1", "l2"])
    def test_grid_points_at_the_radius(self, monkeypatch, norm):
        # integer grid at radius 1: many points lie exactly at the radius,
        # and 61 points split into blocks of 7 leave a partial block
        monkeypatch.setattr(core, "BLOCK_ROWS", 7)
        rng = np.random.default_rng(9)
        pts = rng.integers(-3, 4, size=(61, 2)).astype(float)
        got = greedy_cover(pts, 1.0, norm)
        assert np.array_equal(got, point_by_point_cover(pts, 1.0, norm))

    @pytest.mark.parametrize("norm", ["l1", "l2"])
    def test_random_points_many_blocks(self, monkeypatch, norm):
        rng = np.random.default_rng(10)
        for block in (1, 5, 16):
            monkeypatch.setattr(core, "BLOCK_ROWS", block)
            for d in (1, 3, 10):
                pts = rng.uniform(-1, 1, size=(83, d))
                radius = float(rng.uniform(0.2, 0.8)) * np.sqrt(d)
                got = greedy_cover(pts, radius, norm)
                assert np.array_equal(got, point_by_point_cover(pts, radius, norm))

    @pytest.mark.parametrize("norm", ["l1", "l2"])
    def test_assign_cells_blocks_match_one_block(self, monkeypatch, norm):
        rng = np.random.default_rng(11)
        ds = make_ds(rng.uniform(-1, 1, size=(50, 3)), rng.choice(["a", "b"], size=50))
        p = build_partition(ds, CoverConfig(gamma=0.9, norm=norm))
        X = rng.uniform(-1.2, 1.2, size=(45, 3))  # some outside the cover
        y = list(rng.choice(["a", "b"], size=45))
        whole = assign_cells(p, X, y)
        monkeypatch.setattr(core, "BLOCK_ROWS", 4)
        assert np.array_equal(assign_cells(p, X, y), whole)
        assert (whole < 0).any() and (whole >= 0).any()


def nearest_reference(p, X):
    """Cell ids (one label) by brute force: _dists to every center, the
    full argmin (lowest index on ties) and the radius + 1e-12 check."""
    d = cover._dists(X[:, None, :], p.centers[None, :, :], p.norm)
    near = d.argmin(axis=1)
    return np.where(d[np.arange(len(X)), near] <= p.radius + 1e-12, near, -1)


def screen_cases():
    """(name, points, radius) for the screened search: integer grids with
    exact ties at the radius, repeated points, and points shifted by 1e4
    with radius 5e-4, where the expansion cancels."""
    rng = np.random.default_rng(12)
    for d in (1, 2, 3, 10, 50):
        grid = rng.integers(-2, 3, size=(40, d)).astype(float)
        for radius in (1.0, 2.0):
            yield f"grid-d{d}-r{radius}", grid, radius
        pts = rng.uniform(-1, 1, size=(30, d))
        yield f"duplicates-d{d}", np.vstack([pts, pts[::3]]), 0.4 * np.sqrt(d)
        yield f"shifted-d{d}", 1e4 + rng.uniform(-1e-3, 1e-3, size=(40, d)), 5e-4


def screen_mismatches(monkeypatch):
    """The cases where greedy_cover or assign_cells differs from the
    brute-force references, over both norms and three block sizes."""
    out = []
    for block in (1, 5, 7):
        monkeypatch.setattr(core, "BLOCK_ROWS", block)
        for name, pts, radius in screen_cases():
            for norm in ("l1", "l2"):
                centers = greedy_cover(pts, radius, norm)
                if not np.array_equal(centers, point_by_point_cover(pts, radius, norm)):
                    out.append(("cover", name, norm, block))
                    continue
                # the cover's centers twice over, so every point ties
                # between a center and its duplicate
                p = Partition(gamma=2 * radius, norm=norm, centers=np.vstack([centers, centers]),
                              labels=("a",))
                X = np.vstack([pts, pts + radius * 0.6])
                if not np.array_equal(assign_cells(p, X, ["a"] * len(X)), nearest_reference(p, X)):
                    out.append(("assign", name, norm, block))
    return out


def nearest_2d_nonzero(points, centers, norm, limit):
    """cover._nearest as it was before flat indices: the same screen, with
    the candidate pairs taken by the 2-D np.nonzero of its mask."""
    d = points.shape[1]
    sq_c = (centers * centers).sum(axis=1)
    sq_p = (points * points).sum(axis=1)
    spread = np.sqrt(sq_p) + math.sqrt(sq_c.max())
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    margin = cover._SCREEN_SLACK * (d + 8) * (eps * (spread * spread) + tiny)
    s = points @ centers.T
    s *= -2.0
    s += sq_p[:, None]
    s += sq_c[None, :]
    top = np.minimum(limit * limit, (d if norm == "l1" else 1) * (s.min(axis=1) + margin))
    i, j = np.nonzero(~(s > (top + margin)[:, None]))
    dist = cover._dists(points[i], centers[j], norm)
    order = np.lexsort((dist, i))
    first = order[np.diff(i[order], prepend=-1) != 0]
    nearest = np.zeros(len(points), dtype=int)
    best = np.full(len(points), np.inf)
    nearest[i[first]] = j[first]
    best[i[first]] = dist[first]
    return nearest, best


class TestFlatCandidateIndices:
    @pytest.mark.parametrize("norm", ["l1", "l2"])
    def test_match_2d_nonzero(self, norm):
        # an integer grid against its first 40 points twice over: exact ties
        # at every radius and between each center and its duplicate
        rng = np.random.default_rng(14)
        pts = rng.integers(-2, 3, size=(200, 3)).astype(float)
        centers = np.vstack([pts[:40], pts[:40]])
        for limit in (0.5, 1.0, 1.5, 2.0, 4.0):
            got = cover._nearest(pts, centers, norm, limit)
            expected = nearest_2d_nonzero(pts, centers, norm, limit)
            assert np.array_equal(got[0], expected[0])
            assert np.array_equal(got[1], expected[1])


class TestScreenedSearch:
    def test_equals_the_brute_force_references(self, monkeypatch):
        assert screen_mismatches(monkeypatch) == []

    def test_the_cases_need_the_margin(self, monkeypatch):
        # with no margin the rounding of the expansion drops true nearest
        # centers from the candidates
        monkeypatch.setattr(cover, "_SCREEN_SLACK", 0.0)
        assert screen_mismatches(monkeypatch)

    def test_assign_cells_memory_linear_in_centers(self):
        # temporaries are O(BLOCK_ROWS * C), not O(BLOCK_ROWS * C * d)
        rng = np.random.default_rng(13)
        X = rng.uniform(-1, 1, size=(2000, 10))
        p = Partition(gamma=3.0, norm="l2", centers=rng.uniform(-1, 1, size=(350, 10)),
                      labels=("a",))
        y = ["a"] * len(X)
        tracemalloc.start()
        try:
            ids = assign_cells(p, X, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (ids >= 0).any() and (ids < 0).any()
        assert peak < 12 * core.BLOCK_ROWS * 350 * 8


class TestCoveringNumberBound:
    def test_hand_values(self):
        assert covering_number_upper_bound(1.0, 1.0, 1) == 3
        assert covering_number_upper_bound(1.0, 2.0, 1) == 2
        assert covering_number_upper_bound(1.0, 0.5, 2) == 25

    def test_l1_rescale(self):
        # R*sqrt(2) in d=2
        assert covering_number_upper_bound(1.0, 1.0, 2, "l1") == int(
            np.ceil((1 + 2 * np.sqrt(2)) ** 2)
        )

    def test_overflow(self):
        # a count above 1e18 is returned; only one beyond the float range,
        # where the power itself overflows, is refused, naming R, gamma' and d
        assert covering_number_upper_bound(1.0, 1e-6, 20) == int(math.ceil(2000001.0**20))
        assert covering_number_upper_bound(1.0, 0.25, 19) == int(math.ceil(9.0**19))
        for gamma_half in (1e-6, 1e-300):
            with pytest.raises(ValueError, match=r"R=1\.0, gamma'=1e-\d+, d=60"):
                covering_number_upper_bound(1.0, gamma_half, 60)

    @pytest.mark.parametrize("R, gamma_half", [(float("nan"), 0.5), (1.0, float("nan"))])
    def test_nan_refused_by_name(self, R, gamma_half):
        with pytest.raises(ValueError, match="R, gamma_half must be positive"):
            covering_number_upper_bound(R, gamma_half, 2)

    def test_dominates_greedy_on_ball_data(self):
        rng = np.random.default_rng(4)
        R = 1.0
        for _ in range(20):
            pts = rng.uniform(-1, 1, size=(25, 2))
            pts *= R / np.linalg.norm(pts, axis=1).max()
            radius = float(rng.uniform(0.3, 1.0))
            for norm in ("l1", "l2"):
                got = len(greedy_cover(pts, radius, norm))
                assert got <= covering_number_upper_bound(R, radius, 2, norm)


class TestPartition:
    def test_identical_points_two_labels(self):
        ds = make_ds([[0.5, 0.0], [0.5, 0.0]], "ab")
        p = build_partition(ds, CoverConfig(gamma=1.0))
        assert p.centers.shape[0] == 1
        assert p.K == 2

    def test_line_three_cells(self):
        ds = make_ds([[0.0], [1.0], [2.0]], "aaa")
        p = build_partition(ds, CoverConfig(gamma=1.0))
        assert p.K == 3

    def test_same_cell_same_label_within_gamma(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(3, 15))
            ds = make_ds(
                rng.uniform(-1, 1, size=(n, 2)), rng.choice(["a", "b"], size=n)
            )
            gamma = float(rng.uniform(0.2, 1.5))
            p = build_partition(ds, CoverConfig(gamma=gamma))
            ids = assign_cells(p, ds.X, ds.y)
            assert (ids >= 0).all()
            for i in range(n):
                for j in range(n):
                    if ids[i] == ids[j]:
                        assert ds.y[i] == ds.y[j]
                        assert np.linalg.norm(ds.X[i] - ds.X[j]) <= gamma + 1e-9


class TestAssignCell:
    def test_center_maps_to_own_cell(self):
        ds = make_ds([[0.0, 0.0], [1.0, 0.0]], "aa")
        p = build_partition(ds, CoverConfig(gamma=0.5))
        assert assign_cells(p, p.centers[1], ["a"])[0] % p.centers.shape[0] == 1

    def test_tie_goes_to_lowest_index(self):
        p = Partition(gamma=2.0, norm="l2", centers=np.array([[0.0], [1.0]]), labels=("a",))
        assert assign_cells(p, np.array([0.5]), ["a"])[0] == 0

    def test_out_of_cover_is_minus_one(self):
        p = Partition(gamma=0.2, norm="l2", centers=np.array([[0.0]]), labels=("a",))
        assert assign_cells(p, np.array([5.0]), ["a"])[0] == -1

    def test_round_trip_within_radius(self):
        rng = np.random.default_rng(6)
        ds = make_ds(rng.uniform(-1, 1, size=(40, 2)), ["a"] * 40)
        p = build_partition(ds, CoverConfig(gamma=0.6))
        ids = assign_cells(p, ds.X, ds.y)
        for i, cid in enumerate(ids):
            center = p.centers[cid % p.centers.shape[0]]
            assert np.linalg.norm(ds.X[i] - center) <= 0.3 + 1e-9


class TestCellCounts:
    def test_one_point_per_cell(self):
        ds = make_ds([[0.0], [1.0], [2.0]], "aaa")
        p = build_partition(ds, CoverConfig(gamma=1.0))
        counts = np.bincount(assign_cells(p, ds.X, ds.y), minlength=p.K)
        assert counts.sum() == 3
        assert set(counts) <= {0, 1}

    def test_sums_to_n(self):
        rng = np.random.default_rng(7)
        ds = make_ds(rng.uniform(-1, 1, size=(25, 2)), rng.choice(["a", "b"], size=25))
        p = build_partition(ds, CoverConfig(gamma=0.7))
        assert np.bincount(assign_cells(p, ds.X, ds.y), minlength=p.K).sum() == 25

    def test_multinomial_concentration(self):
        # resampling from a fixed discrete distribution: mean cell frequency
        # approaches the cell probability within 3 standard errors
        rng = np.random.default_rng(8)
        support = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        probs = np.array([0.5, 0.3, 0.2])
        base = Dataset(support, ["a", "a", "a"], R=2.0)
        p = build_partition(base, CoverConfig(gamma=0.5))
        ids_support = assign_cells(p, support, ["a"] * 3)
        n, reps = 60, 1000
        freq = np.zeros((reps, p.K))
        for r in range(reps):
            picks = rng.choice(3, size=n, p=probs)
            for cid in ids_support[picks]:
                freq[r, cid] += 1
        freq /= n
        mean = freq.mean(axis=0)
        se = freq.std(axis=0, ddof=1) / np.sqrt(reps)
        target = np.zeros(p.K)
        for s, pr in zip(ids_support, probs):
            target[s] += pr
        for i in range(p.K):
            assert abs(mean[i] - target[i]) <= 3 * max(se[i], 1e-12) + 1e-9
