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
        if self.tag not in list(TARGETS):  # compared, not hashed: a list is an unknown tag
            raise ValueError(f"unknown inter-class strategy {self.tag!r}")


@dataclass(frozen=True)
class IntraCBStrategy:
    """Intra-class weighting tag (Uniform, HEM or SHEM) plus the SHEM bin count,
    1 to 2**53: up to 2**53, b and b - 1 are exact float64 integers, so an
    error of 1.0 closes into bin b - 1 and no bin id overflows int64."""

    tag: str
    bins: int = 5

    def __post_init__(self):
        if self.tag not in list(WEIGHTS):  # compared, not hashed: a list is an unknown tag
            raise ValueError(f"unknown intra-class strategy {self.tag!r}")
        object.__setattr__(self, "bins", rng.integer(self.bins, "bins", high=2**53))


def target_class_size(counts, strategy: InterCBStrategy) -> int:
    """Common resampling target for all classes under a strategy."""
    counts = np.asarray(counts)
    if counts.size < 2:
        raise ValueError("need at least two classes")
    if (counts < 1).any():
        raise ValueError("class counts must be positive")
    return int(TARGETS[strategy.tag](counts))


def batch_errors(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Half the L1 distance from each probability row to its one-hot label, in [0, 1]."""
    p_true = probs[np.arange(labels.size), labels]
    others = probs.sum(axis=1) - p_true
    # clip away float residue from probability rows summing to 1 +/- eps
    return np.clip(((1.0 - p_true) + others) / 2.0, 0.0, 1.0)


def hem_weights(errors) -> np.ndarray:
    """Weights equal to the raw error (all zero when every error vanishes)."""
    errors = np.asarray(errors, dtype=np.float64)
    if errors.size == 0:
        raise ValueError("empty error list")
    if (errors < 0).any():
        raise ValueError("negative error")
    if not np.isfinite(errors).all():
        raise ValueError("errors must be finite")
    return errors.copy()


def shem_weights(errors, b: int) -> np.ndarray:
    """Inverse error-density weights over b equal-width bins of [0, 1].

    An error of 1.0 closes into the top bin. The histogram is built over
    all provided errors, so an instance's own bin is never empty and the
    reciprocal is always finite. With b = 1 every instance shares the
    single bin and the weights are uniform. Only the bins that hold an
    error are counted, so memory follows the number of errors, not b.
    """
    errors = np.asarray(errors, dtype=np.float64)
    if errors.size == 0:
        raise ValueError("empty error list")
    b = IntraCBStrategy("SHEM", b).bins  # the bin count's rule
    if (errors < 0).any() or (errors > 1).any():
        raise ValueError("errors must lie in [0, 1]")
    if np.isnan(errors).any():
        raise ValueError("errors must be finite")
    bins = np.minimum((errors * b).astype(np.int64), b - 1)
    _, inverse, counts = np.unique(bins, return_inverse=True, return_counts=True)
    return 1.0 / (counts / errors.size)[inverse]


# each inter-class tag's target size, from the array of class counts
TARGETS = {"RUS": np.min, "ROS": np.max, "RHS": lambda counts: counts.sum() // counts.size}
# each intra-class tag's instance weights, from the errors and the SHEM bin count
WEIGHTS = {"Uniform": lambda errors, bins: np.ones(errors.size),
           "HEM": lambda errors, bins: hem_weights(errors), "SHEM": shem_weights}


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
    is filled uniformly from the zero-weight rows. All-zero weights draw
    exactly the rows that all-one weights draw. An empty class, or a
    negative, NaN or infinite weight, raises ValueError.
    """
    class_rows = np.asarray(class_rows)
    weights = np.asarray(weights, dtype=np.float64)
    if class_rows.shape != weights.shape:
        raise ValueError("weights must match class_rows in length")
    if n < 1:
        raise ValueError("target size must be >= 1")
    if (weights < 0).any():
        raise ValueError("negative weight")
    if not np.isfinite(weights).all():
        raise ValueError("weights must be finite")
    if class_rows.size == 0:
        raise ValueError("class_rows must be nonempty")
    if weights.max() == 0.0:  # no row stands out: draw uniformly
        weights = np.ones_like(weights)
    gen = rng.stream(seed, rng.RESAMPLE)
    size = class_rows.size
    if n <= size:
        if weights.max() < np.finfo(np.float64).tiny:  # else every key Exp(1)/weight overflows
            weights = weights / weights.max()
        keys = np.full(size, np.inf)
        positive = weights > 0
        with np.errstate(over="ignore"):  # a tiny weight's key may overflow to inf
            keys[positive] = gen.exponential(size=int(positive.sum())) / weights[positive]
        tiebreak = gen.random(size)
        order = np.lexsort((tiebreak, keys, ~positive))
        return class_rows[order[:n]]
    with np.errstate(over="ignore"):
        overflows = np.isinf(weights.sum())
    if overflows:  # keep the draw probabilities finite
        weights = weights / weights.max()
    extra = gen.choice(size, size=n - size, replace=True, p=weights / weights.sum())
    return np.concatenate([class_rows, class_rows[extra]])


def resample_step(labels, class_index, probs, inter: InterCBStrategy,
                  intra: IntraCBStrategy, seed: int):
    """One full duple-balanced resampling step.

    Computes normalized prediction errors of ``probs`` against ``labels``,
    turns them into instance weights (intra-class balancing, with the
    histogram taken over all rows), picks the target class size
    (inter-class balancing), and draws every class to that size. A class
    whose weights are all zero is drawn uniformly (:func:`weighted_resample`).

    Returns ``(n, per_class_rows, weights)``: the ids drawn for each class
    and every row's instance weight before the per-class uniform fallback.
    """
    counts = [index.size for index in class_index]
    n = target_class_size(counts, inter)
    errors = batch_errors(probs, labels)
    weights = WEIGHTS[intra.tag](errors, intra.bins)
    per_class = [weighted_resample(rows, weights[rows], n, rng.child_seed(seed, c))
                 for c, rows in enumerate(class_index)]
    return n, per_class, weights
