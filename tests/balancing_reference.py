"""Reference prediction error for equivalence tests.

This is the paper's scalar definition, one probability vector at a
time: the L1 distance between the vector and the one-hot truth, mapped
from [0, 2] onto [0, 1]. The library computes the same quantity for
every row at once with ``balancing.batch_errors``.
"""

import numpy as np


def prediction_error(p, y: int) -> float:
    """L1 distance between a probability vector and the one-hot truth.

    Ranges over [0, 2]; algebraically equal to 2 * (1 - p[y]).
    """
    p = np.asarray(p, dtype=np.float64)
    _check_proba(p)
    if not 0 <= y < p.size:
        raise ValueError(f"class id {y} out of range for m={p.size}")
    onehot = np.zeros(p.size)
    onehot[y] = 1.0
    return float(np.abs(p - onehot).sum())


def _check_proba(p):
    if p.ndim != 1 or p.size < 2 or (p < 0).any() or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"invalid probability vector {p!r}")


def normalize_error(e: float) -> float:
    """Map an L1 prediction error from [0, 2] onto [0, 1]."""
    if not 0.0 <= e <= 2.0:
        raise ValueError(f"error {e} outside [0, 2]")
    return e / 2.0
