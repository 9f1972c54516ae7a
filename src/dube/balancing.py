"""Inter-class balancing targets, error-based intra-class weighting, and
the weighted per-class sampler.

Inter-class balancing picks one target size n for every class:

* RUS - random under-sampling, n = smallest class size;
* ROS - random over-sampling, n = largest class size;
* RHS - random hybrid-sampling, n = floor(mean class size).

Intra-class balancing assigns per-instance sampling weights from
normalized prediction errors:

* uniform - every instance weight 1;
* HEM - hard example mining, weight equal to the error;
* SHEM - soft hard example mining, weight equal to the inverse of the
  occupancy of the instance's bin in a b-bin error-density histogram,
  which down-weights dense error regions (both easy examples and noise
  clusters) while keeping sparse hard examples emphasized.

Nothing in this module computes distances between instances; all costs
are linear in the number of rows plus the sort inside the sampler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng


@dataclass(frozen=True)
class InterCBStrategy:
    """Inter-class balancing strategy tag: RUS, ROS or RHS."""

    tag: str

    def __post_init__(self):
        if self.tag not in ("RUS", "ROS", "RHS"):
            raise ValueError(f"unknown inter-class strategy {self.tag!r}")


@dataclass(frozen=True)
class IntraCBStrategy:
    """Intra-class weighting tag (Uniform, HEM or SHEM) plus the SHEM bin count."""

    tag: str
    bins: int = 5

    def __post_init__(self):
        if self.tag not in ("Uniform", "HEM", "SHEM"):
            raise ValueError(f"unknown intra-class strategy {self.tag!r}")
        if self.bins < 1:
            raise ValueError("bins must be >= 1")


def target_class_size(counts, strategy: InterCBStrategy) -> int:
    """Common resampling target for all classes under a strategy."""
    counts = np.asarray(counts)
    if counts.size < 2:
        raise ValueError("need at least two classes")
    if (counts < 1).any():
        raise ValueError("class counts must be positive")
    if strategy.tag == "RUS":
        return int(counts.min())
    if strategy.tag == "ROS":
        return int(counts.max())
    return int(counts.sum() // counts.size)


def batch_errors(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Half the L1 distance from each probability row to its one-hot label, in [0, 1]."""
    p_true = probs[np.arange(labels.size), labels]
    others = probs.sum(axis=1) - p_true
    # clip away float residue from probability rows summing to 1 +/- eps
    return np.clip(((1.0 - p_true) + others) / 2.0, 0.0, 1.0)


def hem_weights(errors) -> np.ndarray:
    """Weights proportional to the raw error; uniform when all errors vanish."""
    errors = np.asarray(errors, dtype=np.float64)
    if errors.size == 0:
        raise ValueError("empty error list")
    if (errors < 0).any():
        raise ValueError("negative error")
    if errors.max() == 0.0:
        return np.ones_like(errors)
    return errors.copy()


def shem_weights(errors, b: int) -> np.ndarray:
    """Inverse error-density weights over b equal-width bins of [0, 1].

    An error of 1.0 closes into the top bin. The histogram is built over
    all provided errors, so an instance's own bin is never empty and the
    reciprocal is always finite. With b = 1 every instance shares the
    single bin and the weights are uniform.
    """
    errors = np.asarray(errors, dtype=np.float64)
    if errors.size == 0:
        raise ValueError("empty error list")
    if b < 1:
        raise ValueError("bins must be >= 1")
    if (errors < 0).any() or (errors > 1).any():
        raise ValueError("errors must lie in [0, 1]")
    bins = np.minimum((errors * b).astype(np.int64), b - 1)
    density = np.bincount(bins, minlength=b) / errors.size
    return 1.0 / density[bins]


def weighted_resample(class_rows, weights, n: int, seed: int) -> np.ndarray:
    """Draw n row ids from one class according to per-instance weights.

    Shrinking (n <= len(class_rows)) samples without replacement with the
    distribution of sequential weighted draws that remove each chosen
    item, via exponential sort keys (key = Exp(1)/weight, keep the n
    smallest). Growing keeps every original row once and adds
    n - len(class_rows) weighted draws with replacement, so coverage of
    the originals is guaranteed.

    Zero-weight rows are never drawn while positive-weight rows remain;
    if the shrink target exceeds the positive-weight count the remainder
    is filled uniformly from the zero-weight rows. All-zero weights are
    rejected (callers apply the uniform fallback first).
    """
    class_rows = np.asarray(class_rows)
    weights = np.asarray(weights, dtype=np.float64)
    if class_rows.shape != weights.shape:
        raise ValueError("weights must match class_rows in length")
    if n < 1:
        raise ValueError("target size must be >= 1")
    if (weights < 0).any():
        raise ValueError("negative weight")
    if weights.max() == 0.0:
        raise ValueError("all-zero weights")
    gen = rng.stream(seed, rng.RESAMPLE)
    size = class_rows.size
    if n <= size:
        if weights.max() < np.finfo(np.float64).tiny:  # else every key Exp(1)/weight overflows
            weights = weights / weights.max()
        keys = np.full(size, np.inf)
        positive = weights > 0
        keys[positive] = gen.exponential(size=int(positive.sum())) / weights[positive]
        tiebreak = gen.random(size)
        order = np.lexsort((tiebreak, keys, ~positive))  # a tiny weight's key may be inf
        return class_rows[order[:n]]
    if np.isinf(weights.sum()):  # keep the draw probabilities finite
        weights = weights / weights.max()
    extra = gen.choice(size, size=n - size, replace=True, p=weights / weights.sum())
    return np.concatenate([class_rows, class_rows[extra]])


def intra_weights(errors: np.ndarray, strategy: IntraCBStrategy) -> np.ndarray:
    """Per-instance weights for one intra-class strategy, errors in [0, 1]."""
    if strategy.tag == "Uniform":
        return np.ones(errors.size)
    if strategy.tag == "HEM":
        return hem_weights(errors)
    return shem_weights(errors, strategy.bins)


def resample_step(labels, class_index, probs, inter: InterCBStrategy,
                  intra: IntraCBStrategy, seed: int):
    """One full duple-balanced resampling step.

    Computes normalized prediction errors of ``probs`` against ``labels``,
    turns them into instance weights (intra-class balancing, with the
    histogram taken over all rows), picks the target class size
    (inter-class balancing), and draws every class to that size. Weights
    of a class that sum to zero fall back to uniform within the class.

    Returns ``(n, per_class_rows, weights)``: the ids drawn for each class
    and every row's instance weight before the per-class uniform fallback.
    """
    counts = [index.size for index in class_index]
    n = target_class_size(counts, inter)
    errors = batch_errors(probs, labels)
    weights = intra_weights(errors, intra)
    per_class = []
    for c, rows in enumerate(class_index):
        w = weights[rows]
        if w.max() == 0.0:
            w = np.ones(rows.size)
        per_class.append(weighted_resample(rows, w, n, rng.child_seed(seed, c)))
    return n, per_class, weights
