"""Helpers shared by the test modules: small datasets and per-pair oracles."""

import numpy as np

from metricert.core import Dataset, hinge, metric_eval

# core.TILE_BYTES budgets whose tiles of 1500 columns hold 16 rows (the
# floor), 174 rows (the default 2 MiB) and 256 rows (the cap)
TILE_BUDGETS = (1 << 16, 1 << 21, 1 << 40)


def make_ds(points, labels, R=None):
    X = np.atleast_2d(np.asarray(points, dtype=float))
    if R is None:
        R = float(np.linalg.norm(X, axis=1).max()) + 1e-12
    return Dataset(X, list(labels), R)


def oracle_pair_loss(m, a, i, b, j):
    """Per-pair reference: the hinge of y(1 - f) for point i of dataset a
    and point j of dataset b, from metric_eval."""
    y = 1.0 if a.y[i] == b.y[j] else -1.0
    return float(hinge(y * (1.0 - metric_eval(m, a.X[i], b.X[j]))))


def sign_hinge(F, same):
    """The pair losses as core.pair_hinge once wrote them, hinge(y * (1 - f))
    with y = +1 where `same` holds and -1 elsewhere; kept as its oracle."""
    return hinge(np.where(same, 1.0, -1.0) * (1.0 - F))
