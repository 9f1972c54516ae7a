"""References for equivalence tests of ``dube.balancing``.

The prediction error is the paper's scalar definition, one probability
vector at a time: the L1 distance between the vector and the one-hot
truth, mapped from [0, 2] onto [0, 1]. The library computes the same
quantity for every row at once with ``balancing.batch_errors``.
``resample_step_with_fallbacks`` is a resampling step that replaces
vanishing weights by ones before every draw.
"""

import numpy as np

from dube import rng
from dube.balancing import batch_errors, shem_weights, target_class_size, weighted_resample


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


def resample_step_with_fallbacks(labels, class_index, probs, inter, intra, seed):
    """``(n, per_class_rows)`` of ``balancing.resample_step``, with the
    uniform draw for vanishing weights stated where it once lived.

    HEM weights whose errors all vanish become ones over the whole table,
    and a class whose weights all vanish is drawn with ones, so the
    sampler is never handed all-zero weights.
    """
    n = target_class_size([rows.size for rows in class_index], inter)
    errors = batch_errors(probs, labels)
    if intra.tag == "Uniform":
        weights = np.ones(errors.size)
    elif intra.tag == "HEM":
        weights = errors.copy() if errors.max() > 0 else np.ones(errors.size)
    else:
        weights = shem_weights(errors, intra.bins)
    per_class = []
    for c, rows in enumerate(class_index):
        w = weights[rows]
        if w.max() == 0.0:
            w = np.ones(rows.size)
        per_class.append(weighted_resample(rows, w, n, rng.child_seed(seed, c)))
    return n, per_class
