"""Iterative duple-balanced ensemble training and soft-vote prediction.

Training alternates between two balancing moves before each new member
is fitted. The first member trains on the raw imbalanced data. For every
later member t, the soft-vote average of the members fitted so far is
evaluated on the full original dataset; its normalized prediction errors
drive the intra-class instance weights, the inter-class strategy fixes a
common target size n, every class is drawn to n rows by the weighted
sampler, the drawn rows receive class-calibrated Gaussian perturbation,
and member t is fitted on the union.

Every fitted member but the last predicts on the original data exactly
once, and the last never does, since no later weights read its vote: the
running probability sum is buffered, so forming the current soft vote is
O(N*m) per iteration instead of refitting predictions from scratch. The
buffer is an optimization only; results are bit-identical to
recomputation.

Randomness is split one stream per (iteration, class) for resampling and
perturbation, so enlarging the ensemble never reshuffles the draws of
earlier iterations.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from . import rng
from .balancing import InterCBStrategy, IntraCBStrategy, resample_step
from .dataset import Dataset
from .learners import (LearnerParams, TreeParams, _Classifier, fit_learner, fit_members,
                       learner_from_dict, params_from_dict, params_to_dict)
from .pbda import class_covariance, perturb


@dataclass(frozen=True)
class DubeConfig:
    """Trainer configuration.

    ``alpha`` scales the per-class perturbation; 0 disables augmentation.
    ``intra.bins`` is only consulted by SHEM.
    """

    k: int = 10
    inter: InterCBStrategy = InterCBStrategy("RHS")
    intra: IntraCBStrategy = IntraCBStrategy("SHEM", bins=5)
    alpha: float = 0.0
    learner: LearnerParams = TreeParams()
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "k", rng.integer(self.k, "k"))
        object.__setattr__(self, "seed", rng.integer(self.seed, "seed", 0))
        if isinstance(self.alpha, bool) or not 0 <= self.alpha < float("inf"):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha!r}")


class EnsembleModel(_Classifier):
    """Ordered fitted members with uniform soft-vote aggregation."""

    def __init__(self, members, m: int, d: int, config: DubeConfig):
        """ValueError unless there is a member and every member has m
        classes and d features."""
        self.members, self.config = list(members), config
        self.m, self.d = rng.integer(m, "m"), rng.integer(d, "d")
        if not self.members:
            raise ValueError("a model needs at least one member")
        for i, member in enumerate(self.members):
            if (member.m, member.d) != (self.m, self.d):
                raise ValueError(f"member {i} has m={member.m}, d={member.d}; "
                                 f"the model has m={self.m}, d={self.d}")

    def predict_proba_many(self, X) -> np.ndarray:
        """Arithmetic mean of member probability rows."""
        X = self._rows(X)
        total = np.zeros((X.shape[0], self.m))
        for member in self.members:
            total += member.predict_proba_many(X)
        return total / len(self.members)


def dube_fit(ds: Dataset, cfg: DubeConfig, resample_ms: list | None = None) -> EnsembleModel:
    """Train a duple-balanced ensemble on ``ds``: the one-alpha case of
    :func:`dube_fit_lockstep`.

    Requires m >= 2. With k = 1 the result is a single learner trained on
    the raw data and no resampling is performed. Pass a list as
    ``resample_ms`` to have each iteration t >= 2 append the wall time of
    its resample step in milliseconds.
    """
    return dube_fit_lockstep(ds, cfg, [cfg.alpha], resample_ms)[0]


def dube_fit_lockstep(ds: Dataset, cfg: DubeConfig, alphas, resample_ms: list | None = None) -> list:
    """The ensemble :func:`dube_fit` trains for ``replace(cfg, alpha=a)``,
    for each ``a`` of ``alphas``, all trained at once.

    The configs share a seed, so they share the first member, the whole
    t=2 resample step, and at every iteration the standard-normal draws
    of each class, which each alpha only scales: one :func:`perturb` call
    per class perturbs every config's rows. The first member is fitted by
    :func:`fit_learner`; every later iteration's members, one per alpha,
    by :func:`fit_members` on the (alphas, m * n, d) stack of the
    perturbed class blocks, which share one label vector (n rows of each
    class). Each iteration starts by adding the previous iteration's
    training-set votes to the running sums, so the last iteration's
    members, and with k = 1 the first, never predict on ``ds``.
    ``resample_ms``, if a list, gets each iteration's wall time of the
    resample steps of all alphas, in milliseconds.
    """
    configs = [replace(cfg, alpha=a) for a in alphas]
    if ds.m < 2:
        raise ValueError("training needs at least two classes")
    covariances = [class_covariance(ds, c) for c in range(ds.m)]

    first = fit_learner(ds, cfg.learner)
    rounds, sums = [[first]], 0.0  # at t=2 every config shares the first member, so one sum

    for t in range(2, cfg.k + 1):
        sums = sums + np.stack([member.predict_proba_many(ds.features) for member in rounds[-1]])
        t0 = time.perf_counter()
        steps = [resample_step(ds.labels, ds.class_index, total / (t - 1), cfg.inter, cfg.intra,
                               rng.child_seed(cfg.seed, rng.RESAMPLE, t)) for total in sums]
        if resample_ms is not None:
            resample_ms.append((time.perf_counter() - t0) * 1000.0)
        blocks = [perturb(ds.features[np.stack([per_class[c] for _, per_class, _ in steps])],
                          [other.alpha for other in configs], covariances[c],
                          rng.child_seed(cfg.seed, rng.PERTURB, t, c))
                  for c in range(ds.m)]
        # n rows of each class, n shared by all configs; fit_members empties blocks
        rounds.append(fit_members(blocks, np.repeat(np.arange(ds.m), steps[0][0]), ds.m, cfg.learner))

    return [EnsembleModel([first, *(r[i] for r in rounds[1:])], ds.m, ds.n_features, other)
            for i, other in enumerate(configs)]


MODEL_FORMAT = "dube-model"
MODEL_VERSION = 1


def _config_to_dict(cfg: DubeConfig) -> dict:
    return {"k": cfg.k, "inter": cfg.inter.tag,
            "intra": cfg.intra.tag, "bins": cfg.intra.bins,
            "alpha": cfg.alpha, "seed": cfg.seed, "learner": params_to_dict(cfg.learner)}


def _config_from_dict(blob: dict) -> DubeConfig:
    return DubeConfig(k=blob["k"], inter=InterCBStrategy(blob["inter"]),
                      intra=IntraCBStrategy(blob["intra"], bins=blob["bins"]), alpha=blob["alpha"],
                      learner=params_from_dict(blob["learner"]), seed=blob["seed"])


def write_atomic(path, pieces) -> None:
    """Replace ``path`` whole by a text file holding the strings of
    ``pieces``, written in turn; if anything fails, that file is removed
    and ``path`` keeps its bytes."""
    if os.path.exists(path) and not os.path.isfile(path):  # a pipe or device, e.g. /dev/stdout
        with open(path, "w") as fh:
            fh.writelines(pieces)
        return
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    fh = open(tmp, "x")  # never truncates a file this call did not create
    try:
        with fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the write or the move failed
            os.unlink(tmp)


def save_model(model: EnsembleModel, path) -> None:
    """Write a versioned JSON dump atomically; floats round-trip exactly.
    The file is ``json.dumps`` of the whole model, written as the header,
    then one piece per member, then the tail, so at most one member's dict
    and text are alive at a time. ``json.dumps`` runs in the C encoder,
    where ``json.dump`` would stream through the pure-Python one."""
    head = json.dumps({
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "rng": rng.RNG_ALGORITHM,
        "m": model.m,
        "d": model.d,
        "config": _config_to_dict(model.config),
        "members": [],
    })
    members = ((", " if i else "") + json.dumps(member.to_dict())
               for i, member in enumerate(model.members))
    write_atomic(path, chain([head[:-2]], members, [head[-2:]]))  # head ends in "[]}"


def load_model(path) -> EnsembleModel:
    """Read a :func:`save_model` file, raising ValueError unless every
    member is well formed, the model passes :class:`EnsembleModel`'s
    checks, and the file holds ``config.k`` members of its config's learner
    kind."""
    try:
        with open(path) as fh:
            blob = json.load(fh)
        if (not isinstance(blob, dict) or blob.get("format") != MODEL_FORMAT
                or blob.get("version") != MODEL_VERSION):
            raise ValueError(f"not a {MODEL_FORMAT} v{MODEL_VERSION} file: {path}")
        members = [learner_from_dict(b) for b in blob["members"]]
        m, d, config = blob["m"], blob["d"], _config_from_dict(blob["config"])
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from exc
    except (TypeError, OverflowError, RecursionError) as exc:  # wrong JSON type, huge number, deep nesting
        raise ValueError(f"{path}: {exc}") from exc
    try:
        model = EnsembleModel(members, m, d, config)
    except ValueError as exc:  # the model's own rules, named with the file
        raise ValueError(f"{path}: {exc}") from exc
    kind, kinds = blob["config"]["learner"]["kind"], {b["kind"] for b in blob["members"]}
    if len(members) != model.config.k or kinds != {kind}:  # the config would fit another model
        raise ValueError(f"{path}: the config fits k={model.config.k} {kind} members; "
                         f"the file holds {len(members)} ({', '.join(sorted(kinds))})")
    return model
