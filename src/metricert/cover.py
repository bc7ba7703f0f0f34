"""Greedy gamma-covers, covering-number bounds and the label-aware partition.

Cells pair a label with a cover center at radius gamma/2, so two points in
the same cell share their label and are within gamma of each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import core
from .core import Dataset


@dataclass(frozen=True)
class CoverConfig:
    gamma: float

    def __post_init__(self):
        if not 0.0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, not {self.gamma!r}")


def _dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """l2 norms of a - b over the last axis, from the exact differences:
    the formula that decides cover membership."""
    diff = a - b
    return np.sqrt((diff * diff).sum(axis=-1))


# To first order in eps, rounding puts the expansion |p|^2 + |c|^2 - 2 p.c
# (any summation order, FMA included) within (d + 2) eps/2 (|p| + |c|)^2 of
# the exact squared l2 distance, and the square of the _dists value within
# (d + 4) eps/2 (|p| + |c|)^2 of it.  The screen's margin is _SCREEN_SLACK
# (d + 8) eps times (|p| + max |c|)^2, plus a term for underflow.
_SCREEN_SLACK = 4.0


def _nearest(points: np.ndarray, centers: np.ndarray, limit: float):
    """The nearest center of each point by _dists (ties to the lowest index)
    and its distance, both exact wherever that distance is <= limit.

    A BLAS product gives s = |p|^2 + |c|^2 - 2 p.c for every pair.  With
    m = _SCREEN_SLACK (d + 8)(eps (|p| + max |c|)^2 + tiny), the square of
    the _dists value lies in [s - m, s + m].  So a center can be the
    nearest within `limit` only when s - m is at most both limit^2 and the
    row's least upper bound; _dists runs on those candidate pairs only.
    Temporaries are O(len(points) * C) plus the candidates' differences;
    an overflowed s or margin (NaN or inf) keeps the pair a candidate.
    """
    d = points.shape[1]
    sq_c = (centers * centers).sum(axis=1)
    sq_p = (points * points).sum(axis=1)
    spread = np.sqrt(sq_p) + math.sqrt(sq_c.max())
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    margin = _SCREEN_SLACK * (d + 8) * (eps * (spread * spread) + tiny)
    s = points @ centers.T
    s *= -2.0
    s += sq_p[:, None]
    s += sq_c[None, :]
    top = np.minimum(limit * limit, s.min(axis=1) + margin)
    i, j = np.divmod(np.flatnonzero(~(s > (top + margin)[:, None])), len(centers))
    dist = _dists(points[i], centers[j])
    # by row, then by distance; lexsort is stable, so ties keep the lowest j
    order = np.lexsort((dist, i))
    first = order[np.diff(i[order], prepend=-1) != 0]
    nearest = np.zeros(len(points), dtype=int)
    best = np.full(len(points), np.inf)
    nearest[i[first]] = j[first]
    best[i[first]] = dist[first]
    return nearest, best


def greedy_cover(points, radius: float) -> np.ndarray:
    """Greedy sweep in input order: keep a point as a new center whenever it
    is farther than `radius` from every center chosen so far.

    Candidates go a block at a time against every center chosen before the
    block; only the block's survivors are then swept one by one against the
    centers added inside it, so the centers are the point-by-point sweep's.
    """
    if not radius > 0:
        raise ValueError(f"radius must be positive, not {radius!r}")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.size == 0:
        return np.zeros((0, points.shape[1] if points.ndim == 2 else 0))
    centers = np.empty_like(points)
    count, start = 0, 0
    while start < len(points):
        # a block's distances hold one column per center chosen so far
        block = points[start : start + core.tile_rows(count)]
        start += len(block)
        if count:
            block = block[_nearest(block, centers[:count], radius)[1] > radius]
        first_new = count
        for p in block:
            if count == first_new or _dists(p, centers[first_new:count]).min() > radius:
                centers[count] = p
                count += 1
    return centers[:count].copy()


def covering_number_upper_bound(R: float, gamma_half: float, d: int) -> int:
    """Volumetric bound (1 + 2R/gamma')^d on the covering number of the
    radius-R l2 ball at radius gamma'."""
    if not (R > 0 and gamma_half > 0) or d < 1:
        raise ValueError("R, gamma_half must be positive and d >= 1")
    try:
        count = (1.0 + 2.0 * R / gamma_half) ** d
    except OverflowError:  # float ** int raises where the power overflows
        count = math.inf
    if not math.isfinite(count):
        raise ValueError(
            f"covering-number bound (1 + 2R/gamma')^d is beyond the float range at "
            f"R={R!r}, gamma'={gamma_half!r}, d={d}; use a larger gamma"
        )
    return int(math.ceil(count))


@dataclass
class Partition:
    """Label-aware cell decomposition built from a gamma/2 cover."""

    gamma: float
    centers: np.ndarray       # (num_centers, d)
    labels: tuple
    K: int = field(init=False)

    def __post_init__(self):
        self.centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        self.K = len(self.labels) * self.centers.shape[0]

    @property
    def radius(self) -> float:
        return self.gamma / 2.0

    def cell_labels(self, ids: np.ndarray) -> np.ndarray:
        """The label index of each cell id that assign_cells writes."""
        return ids // self.centers.shape[0]


def build_partition(ds: Dataset, cfg: CoverConfig, probe: Dataset | None = None) -> Partition:
    """Cover the dataset points (plus optional probe points) at radius
    gamma/2 and cross the centers with the label set."""
    points = ds.X if probe is None else np.vstack([ds.X, probe.X])
    centers = greedy_cover(points, cfg.gamma / 2.0)
    labels = ds.labels
    if probe is not None:
        labels = tuple(sorted(set(ds.labels) | set(probe.labels), key=str))
    return Partition(gamma=cfg.gamma, centers=centers, labels=labels)


def assign_cells(p: Partition, X: np.ndarray, y: list) -> np.ndarray:
    """Vectorized cell ids label_idx * num_centers + center_idx.

    Nearest center wins, ties to the lowest center index.  Points farther
    than gamma/2 from every center get id -1 (out of cover).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    nearest = np.empty(len(X), dtype=int)
    ok = np.empty(len(X), dtype=bool)
    block = core.tile_rows(len(p.centers))
    for start in range(0, len(X), block):
        rows = slice(start, start + block)
        nearest[rows], dist = _nearest(X[rows], p.centers, p.radius + 1e-12)
        ok[rows] = dist <= p.radius + 1e-12
    lookup = {lab: i for i, lab in enumerate(p.labels)}
    li = np.array([lookup[lab] for lab in y], dtype=int)
    ids = li * p.centers.shape[0] + nearest
    ids[~ok] = -1
    return ids

