"""Monte Carlo lab for decision-bias analysis on 1-D two-Gaussian toys.

The lab measures how resampling strategies move the max-margin boundary
of a skewed sample toward or away from the optimal boundary of the
generating distributions. Each trial draws a fresh dataset (minority
around ``mu_min``, majority around ``mu_maj``, shared sigma), applies
one strategy's resampling, optionally perturbs every resampled point
with isotropic Gaussian noise, and records the absolute gap between the
optimal midpoint boundary and the max-margin boundary of the processed
sample.

Trial datasets depend only on (seed, trial index), never on the
strategy, so reports for different strategies built from the same config
are paired trial-by-trial: a strategy that provably cannot move the
boundary (e.g. plain over-sampling) reproduces the baseline bias
exactly, trial for trial. :func:`draw_trials` draws them once, and every
strategy row run on the result resumes each trial's random stream where
its data draws ended.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import rng
from .balancing import InterCBStrategy, target_class_size
from .dataset import check_gaussian_1d

BIAS_STRATEGIES = ("none", "RUS", "ROS", "SMOTE1D", "RHS")


@dataclass(frozen=True)
class ToyConfig:
    """1-D toy configuration; minority is the left ("positive") class.

    The optimal boundary of the generating mixture is the midpoint
    ``(mu_min + mu_maj) / 2``.
    """

    n_min: int = 3
    n_maj: int = 15
    mu_min: float = 0.0
    mu_maj: float = 4.0
    sigma: float = 1.0
    trials: int = 10_000
    seed: int = 0

    def __post_init__(self):
        toy = check_gaussian_1d(self.n_min, self.n_maj, self.mu_min, self.mu_maj, self.sigma)
        if toy[3] <= toy[2]:  # mu_maj <= mu_min
            raise ValueError("mu_maj must exceed mu_min (minority sits left)")
        checked = (*toy, rng.integer(self.trials, "trials"), rng.integer(self.seed, "seed", 0))
        for field, value in zip(fields(self), checked):  # checked is in field order
            object.__setattr__(self, field.name, value)

    @property
    def optimal_boundary(self) -> float:
        return (self.mu_min + self.mu_maj) / 2.0


@dataclass(frozen=True)
class BiasTrialReport:
    strategy: str
    alpha_sigma: float
    mean_bias: float
    var_bias: float
    trials: int


@dataclass(frozen=True)
class BoundCheck:
    """Empirical expected max of replicated noise vs its analytic bounds."""

    n_rep: int
    sigma_p: float
    empirical_mean: float
    lower: float
    upper: float
    trials: int


@dataclass(frozen=True, eq=False)
class TrialDraws:
    """Every trial's class samples, and the Philox state that follows them.

    Trial ``i`` draws ``x_maj[i]`` and then ``x_min[i]`` from
    ``rng.stream(cfg.seed, rng.TRIAL, i)``. The stream's state after
    those draws is row ``i`` of ``saved``: counter (4 words), key (2),
    buffer (4), buffer_pos, has_uint32 and uinteger, 13 uint64 words in
    all, so that every strategy row can resume trial ``i``'s stream
    exactly where the data draws left off. Philox is counter-based, so
    restoring a saved state reproduces the continuation bit for bit.
    """

    cfg: ToyConfig
    x_maj: np.ndarray  # (trials, n_maj)
    x_min: np.ndarray  # (trials, n_min)
    saved: np.ndarray  # (trials, 13) uint64

    def state(self, i: int) -> dict:
        """Trial ``i``'s saved state, in the form ``Philox.state`` takes."""
        row = self.saved[i].tolist()  # Python ints restore faster than numpy words
        return {"bit_generator": "Philox", "state": {"counter": row[:4], "key": row[4:6]},
                "buffer": row[6:10], "buffer_pos": row[10], "has_uint32": row[11],
                "uinteger": row[12]}


def draw_trials(cfg: ToyConfig) -> TrialDraws:
    """Draw every trial's data once, for all strategy rows to share."""
    t = cfg.trials
    x_maj, x_min = np.empty((t, cfg.n_maj)), np.empty((t, cfg.n_min))
    saved = np.empty((t, 13), dtype=np.uint64)
    for i in range(t):
        # the dataset is a fixed-size prefix of the trial's stream, drawn
        # before any strategy-dependent consumption
        gen = rng.stream(cfg.seed, rng.TRIAL, i)
        x_maj[i] = gen.normal(cfg.mu_maj, cfg.sigma, cfg.n_maj)
        x_min[i] = gen.normal(cfg.mu_min, cfg.sigma, cfg.n_min)
        s = gen.bit_generator.state
        saved[i] = [*s["state"]["counter"].tolist(), *s["state"]["key"].tolist(),
                    *s["buffer"].tolist(), s["buffer_pos"], s["has_uint32"], s["uinteger"]]
    for arr in (x_maj, x_min, saved):
        arr.flags.writeable = False  # shared by every row
    return TrialDraws(cfg, x_maj, x_min, saved)


def validate_row(cfg: ToyConfig, strategy: str, alpha_sigma: float) -> None:
    """Raise ``ValueError`` if (strategy, alpha_sigma) cannot run on cfg."""
    rng.one_of(strategy, BIAS_STRATEGIES, "strategy")
    rng.real(alpha_sigma, "alpha_sigma", 0)
    if strategy == "SMOTE1D" and cfg.n_min < 2:
        raise ValueError("SMOTE1D needs at least two minority points")


def _uniform_resample(x, n, gen):
    # Uniform-weight special case of the weighted sampler: a uniform
    # subset when shrinking, originals plus uniform duplicates when growing.
    if n <= x.size:
        return x[gen.permutation(x.size)[:n]]
    return np.concatenate([x, x[gen.integers(0, x.size, n - x.size)]])


def _smote_draws(points, k, n_new, gen):
    """1-D nearest-neighbor interpolation over-sampling.

    Each synthetic point is ``seed + u * (neighbor - seed)`` with u
    uniform in [0, 1], the neighbor drawn from the seed's k nearest
    (ties to the lower index), so the sample extremes never move.
    """
    dist = np.abs(points[:, None] - points[None, :])
    np.fill_diagonal(dist, np.inf)
    neighbors = np.argsort(dist, axis=1, kind="stable")[:, :k]
    seeds = gen.integers(0, points.size, n_new)
    picks = neighbors[seeds, gen.integers(0, k, n_new)]
    u = gen.random(n_new)
    base = points[seeds]
    return base + u * (points[picks] - base)


def run_bias_trials(draws: TrialDraws, strategy: str, alpha_sigma: float = 0.0) -> BiasTrialReport:
    """Mean and variance of the decision bias over the trials of ``draws``
    (from :func:`draw_trials`, whose config ``draws.cfg`` the row runs on).

    ``alpha_sigma`` is the standard deviation of the isotropic noise
    added to every resampled point (0 disables perturbation). Rows run on
    one ``draws`` are paired trial by trial. The decision boundary is
    the max-margin midpoint between the rightmost minority point and the
    leftmost majority point of the processed sample.
    """
    cfg = draws.cfg
    validate_row(cfg, strategy, alpha_sigma)
    # SMOTE1D grows the minority to the majority's size: with no smaller
    # minority it draws no point, and its row is the none row
    row = "none" if strategy == "SMOTE1D" and cfg.n_min >= cfg.n_maj else strategy
    if row == "none" and alpha_sigma == 0:
        boundaries = (draws.x_min.max(axis=1) + draws.x_maj.min(axis=1)) / 2.0
    else:
        # every trial has cfg's class sizes, so the targets are fixed per row
        counts = [cfg.n_min, cfg.n_maj]
        n = (max(counts) if row in ("none", "SMOTE1D")
             else target_class_size(counts, InterCBStrategy(row)))
        bit_generator = np.random.Philox(0)  # its state is replaced before every trial
        gen = np.random.Generator(bit_generator)
        boundaries = np.empty(cfg.trials)
        for i in range(cfg.trials):
            bit_generator.state = draws.state(i)
            r_min, r_maj = draws.x_min[i], draws.x_maj[i]
            if row == "SMOTE1D":
                extra = _smote_draws(r_min, min(5, cfg.n_min - 1), n - cfg.n_min, gen)
                r_min = np.concatenate([r_min, extra])
            elif row != "none":
                r_min, r_maj = _uniform_resample(r_min, n, gen), _uniform_resample(r_maj, n, gen)
            if alpha_sigma > 0:
                r_min = r_min + gen.normal(0.0, alpha_sigma, r_min.size)
                r_maj = r_maj + gen.normal(0.0, alpha_sigma, r_maj.size)
            boundaries[i] = (r_min.max() + r_maj.min()) / 2.0
    biases = np.abs(cfg.optimal_boundary - boundaries)
    return BiasTrialReport(strategy=strategy, alpha_sigma=alpha_sigma,
                           mean_bias=float(biases.mean()),
                           var_bias=float(biases.var()),
                           trials=cfg.trials)


def pbda_bound_values(n_rep: int, sigma_p: float) -> tuple[float, float]:
    """Analytic lower/upper bounds on the expected max of n_rep i.i.d.
    N(0, sigma_p^2) draws: sigma_p*sqrt(ln n)/sqrt(pi*ln 2) and
    sqrt(2)*sigma_p*sqrt(ln n)."""
    log_n = math.log(n_rep)
    lower = sigma_p * math.sqrt(log_n) / math.sqrt(math.pi * math.log(2))
    upper = math.sqrt(2.0) * sigma_p * math.sqrt(log_n)
    return lower, upper


def check_pbda_bound(n_rep: int, sigma_p: float, trials: int, seed: int = 0) -> BoundCheck:
    """Monte Carlo estimate of the expected boundary gain from replicated
    perturbation, next to its analytic bounds.

    When a support point is duplicated ``n_rep`` times and each copy gets
    independent N(0, sigma_p^2) noise, the expected outward shift of the
    extreme copy is the expected max of those draws; it vanishes for
    n_rep = 1 and both bounds collapse to zero.
    """
    n_rep = rng.integer(n_rep, "n_rep")
    sigma_p = rng.real(sigma_p, "sigma_p", 0, above=True)
    trials = rng.integer(trials, "trials")
    gen = rng.stream(seed, rng.BOUND, n_rep)
    draws = gen.normal(0.0, sigma_p, (trials, n_rep))
    empirical = float(draws.max(axis=1).mean())
    lower, upper = pbda_bound_values(n_rep, sigma_p)
    return BoundCheck(n_rep=n_rep, sigma_p=sigma_p, empirical_mean=empirical,
                      lower=lower, upper=upper, trials=trials)
