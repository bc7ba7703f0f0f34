"""Greedy gamma-covers, covering-number bounds and the label-aware partition.

Cells pair a label with a cover center at radius gamma/2, so two points in
the same cell share their label and are within gamma of each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import core
from .core import Dataset, LabeledExample

_COUNT_LIMIT = 1e18


class OutOfCover(Exception):
    """A query point is farther than gamma/2 from every cover center."""


@dataclass(frozen=True)
class CoverConfig:
    gamma: float
    norm: str = "l2"  # "l1" or "l2"

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.norm not in ("l1", "l2"):
            raise ValueError(f"unknown norm {self.norm!r}")


def _dists(points: np.ndarray, centers: np.ndarray, norm: str) -> np.ndarray:
    diff = points[:, None, :] - centers[None, :, :]
    if norm == "l1":
        return np.abs(diff).sum(axis=2)
    return np.sqrt((diff * diff).sum(axis=2))


def greedy_cover(points, radius: float, norm: str = "l2") -> np.ndarray:
    """Greedy sweep in input order: keep a point as a new center whenever it
    is farther than `radius` from every center chosen so far.

    Candidates go a block at a time against every center chosen before the
    block; only the block's survivors are then swept one by one against the
    centers added inside it, so the centers are the point-by-point sweep's.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.size == 0:
        return np.zeros((0, points.shape[1] if points.ndim == 2 else 0))
    centers = np.empty_like(points)
    count = 0
    for start in range(0, len(points), core.BLOCK_ROWS):
        block = points[start : start + core.BLOCK_ROWS]
        if count:
            block = block[_dists(block, centers[:count], norm).min(axis=1) > radius]
        first_new = count
        for p in block:
            if count == first_new or (
                _dists(p[None, :], centers[first_new:count], norm).min() > radius
            ):
                centers[count] = p
                count += 1
    return centers[:count].copy()


def covering_number_upper_bound(R: float, gamma_half: float, d: int, norm: str = "l2") -> int:
    """Volumetric bound (1 + 2R/gamma')^d on the covering number of the
    radius-R l2 ball at radius gamma'; under l1 the ball radius inflates
    by sqrt(d)."""
    if R <= 0 or gamma_half <= 0 or d < 1:
        raise ValueError("R, gamma_half must be positive and d >= 1")
    eff_R = R * math.sqrt(d) if norm == "l1" else R
    if norm not in ("l1", "l2"):
        raise ValueError(f"unknown norm {norm!r}")
    count = (1.0 + 2.0 * eff_R / gamma_half) ** d
    if count > _COUNT_LIMIT:
        raise OverflowError(
            "covering-number bound exceeds representable range; use a larger gamma"
        )
    return int(math.ceil(count))


@dataclass
class Partition:
    """Label-aware cell decomposition built from a gamma/2 cover."""

    gamma: float
    norm: str
    centers: np.ndarray       # (num_centers, d)
    labels: tuple
    K: int = field(init=False)

    def __post_init__(self):
        self.centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        self.K = len(self.labels) * self.centers.shape[0]

    @property
    def radius(self) -> float:
        return self.gamma / 2.0

    def to_json_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "norm": self.norm,
            "centers": self.centers.tolist(),
            "labels": list(self.labels),
            "K": self.K,
        }


def build_partition(ds: Dataset, cfg: CoverConfig, probe: Dataset | None = None) -> Partition:
    """Cover the dataset points (plus optional probe points) at radius
    gamma/2 and cross the centers with the label set."""
    points = ds.X if probe is None else np.vstack([ds.X, probe.X])
    centers = greedy_cover(points, cfg.gamma / 2.0, cfg.norm)
    labels = ds.labels
    if probe is not None:
        labels = tuple(sorted(set(ds.labels) | set(probe.labels), key=str))
    return Partition(gamma=cfg.gamma, norm=cfg.norm, centers=centers, labels=labels)


def assign_cells(p: Partition, X: np.ndarray, y: list) -> np.ndarray:
    """Vectorized cell ids label_idx * num_centers + center_idx.

    Nearest center wins, ties to the lowest center index.  Points farther
    than gamma/2 from every center get id -1 (out of cover).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    nearest = np.empty(len(X), dtype=int)
    ok = np.empty(len(X), dtype=bool)
    for start in range(0, len(X), core.BLOCK_ROWS):
        rows = slice(start, start + core.BLOCK_ROWS)
        d = _dists(X[rows], p.centers, p.norm)
        near = d.argmin(axis=1)  # argmin takes the lowest index on ties
        nearest[rows] = near
        ok[rows] = d[np.arange(len(near)), near] <= p.radius + 1e-12
    lookup = {lab: i for i, lab in enumerate(p.labels)}
    li = np.array([lookup[lab] for lab in y], dtype=int)
    ids = li * p.centers.shape[0] + nearest
    ids[~ok] = -1
    return ids


def assign_cell(p: Partition, z: LabeledExample) -> int:
    """Cell id of a single labeled point; raises OutOfCover beyond gamma/2."""
    cid = assign_cells(p, z.x[None, :], [z.y])[0]
    if cid < 0:
        raise OutOfCover(
            f"point farther than gamma/2={p.radius:.6g} from every center"
        )
    return int(cid)


def cell_counts(p: Partition, ds: Dataset) -> np.ndarray:
    """Occupancy counts N_i over all K cells; sums to n."""
    ids = assign_cells(p, ds.X, ds.y)
    if (ids < 0).any():
        raise ValueError("dataset contains points outside the cover")
    counts = np.zeros(p.K, dtype=int)
    np.add.at(counts, ids, 1)
    return counts
