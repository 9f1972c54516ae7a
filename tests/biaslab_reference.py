"""Reference forms of the bias lab's trial loop and its 1-D operations.

:func:`reference_run_bias_trials` is the straightforward per-row loop:
every trial builds its own stream, draws the data, then resamples and
perturbs from that same stream. The library draws each trial's data
once (:func:`dube.biaslab.draw_trials`) and lets every row resume the
saved stream state; each row's mean and variance must come out the
same, bit for bit. The reference builds each trial's SMOTE neighbor
table from its own distance matrix and draws each class's noise in a
call of its own, where the library builds one table per row and draws
a trial's noise in one call.
"""

import numpy as np

from dube import rng
from dube.balancing import InterCBStrategy, target_class_size
from dube.biaslab import (BIAS_STRATEGIES, BiasTrialReport, _neighbor_tables, _smote_draws,
                          _uniform_resample)


def max_margin_1d(xs, ys) -> float:
    """Midpoint between the rightmost positive and the leftmost negative.

    Positives (label 1) are the left class; the same midpoint formula is
    applied whether or not the sample is separable, so heavily perturbed
    trials stay well-defined.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys)
    pos = xs[ys == 1]
    neg = xs[ys == 0]
    if pos.size == 0 or neg.size == 0:
        raise ValueError("both classes must be nonempty")
    return float((pos.max() + neg.min()) / 2.0)


def d_max(points, mu: float) -> float:
    """Largest absolute deviation of a sample from the distribution mean."""
    points = np.asarray(points, dtype=np.float64)
    if points.size == 0:
        raise ValueError("empty sample")
    return float(np.abs(points - mu).max())


def smote_1d(points, k_neighbors: int, n_new: int, seed: int) -> np.ndarray:
    """The lab's SMOTE draws for one sample, from a stream of their own.

    All outputs lie inside [min(points), max(points)], so the sample
    extremes never move.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.size
    if n < 2:
        raise ValueError("need at least two points")
    if not 1 <= k_neighbors < n:
        raise ValueError(f"k_neighbors must be in [1, {n - 1}]")
    if n_new < 0:
        raise ValueError("n_new must be >= 0")
    table = _neighbor_tables(points[None], k_neighbors)[0]
    return _smote_draws(points, table, n_new, rng.stream(seed, rng.TRIAL))


def reference_neighbors(points, k):
    """One trial's k nearest neighbors of each point, from its own distance
    matrix by one stable argsort, ties to the lower index."""
    dist = np.abs(points[:, None] - points[None, :])
    np.fill_diagonal(dist, np.inf)
    return np.argsort(dist, axis=1, kind="stable")[:, :k]


def reference_smote_draws(points, k, n_new, gen):
    """The lab's SMOTE draws for one trial, from its own neighbor table."""
    neighbors = reference_neighbors(points, k)
    seeds = gen.integers(0, points.size, n_new)
    picks = neighbors[seeds, gen.integers(0, k, n_new)]
    u = gen.random(n_new)
    base = points[seeds]
    return base + u * (points[picks] - base)


def _resample_trial(x_min, x_maj, strategy, gen):
    if strategy == "none":
        return x_min, x_maj
    counts = [x_min.size, x_maj.size]
    if strategy == "SMOTE1D":
        if x_min.size < 2:
            raise ValueError("SMOTE1D needs at least two minority points")
        n = max(counts)
        k = min(5, x_min.size - 1)
        extra = reference_smote_draws(x_min, k, n - x_min.size, gen)
        return np.concatenate([x_min, extra]), x_maj
    n = target_class_size(counts, InterCBStrategy(strategy))
    return _uniform_resample(x_min, n, gen), _uniform_resample(x_maj, n, gen)


def reference_run_bias_trials(cfg, strategy, alpha_sigma=0.0) -> BiasTrialReport:
    """One row of the lab, each trial drawn from a freshly built stream."""
    if strategy not in BIAS_STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    optimal = cfg.optimal_boundary
    biases = np.empty(cfg.trials)
    for i in range(cfg.trials):
        gen = rng.stream(cfg.seed, rng.TRIAL, i)
        x_maj = gen.normal(cfg.mu_maj, cfg.sigma, cfg.n_maj)
        x_min = gen.normal(cfg.mu_min, cfg.sigma, cfg.n_min)
        r_min, r_maj = _resample_trial(x_min, x_maj, strategy, gen)
        if alpha_sigma > 0:
            r_min = r_min + gen.normal(0.0, alpha_sigma, r_min.size)
            r_maj = r_maj + gen.normal(0.0, alpha_sigma, r_maj.size)
        boundary = (r_min.max() + r_maj.min()) / 2.0
        biases[i] = abs(optimal - boundary)
    return BiasTrialReport(strategy=strategy, alpha_sigma=alpha_sigma,
                           mean_bias=float(biases.mean()), var_bias=float(biases.var()),
                           trials=cfg.trials)
