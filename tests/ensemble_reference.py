"""Reference ensemble trainer for equivalence tests.

This is the straightforward form of :func:`dube.ensemble.dube_fit`: one
config at a time, a resample step per iteration, one scalar-alpha
:func:`dube.pbda.perturb` call per class, and one learner fitted per
iteration. The library fits a grid of alphas in lockstep, sharing the
first member, the t=2 step and the noise draws, and grows each
iteration's trees as forests; every member must come out the same, bit
for bit.
"""

import numpy as np

from dube import rng
from dube.balancing import resample_step
from dube.dataset import Dataset
from dube.learners import knn_fit, tree_fit, TreeParams
from dube.pbda import class_covariance, perturb


def reference_members(ds, cfg) -> list:
    """The fitted members of one duple-balanced ensemble, in order."""
    fit = ((lambda data: tree_fit(data, cfg.learner)) if isinstance(cfg.learner, TreeParams)
           else (lambda data: knn_fit(data, cfg.learner.k_neighbors)))
    covariances = [class_covariance(ds, c) for c in range(ds.m)]
    members = [fit(ds)]
    probs_sum = members[0].predict_proba_many(ds.features)
    for t in range(2, cfg.k + 1):
        _, per_class, _ = resample_step(ds.labels, ds.class_index, probs_sum / (t - 1), cfg.inter,
                                        cfg.intra, rng.child_seed(cfg.seed, rng.RESAMPLE, t))
        blocks = [perturb(ds.features[rows], cfg.alpha, covariances[c],
                          rng.child_seed(cfg.seed, rng.PERTURB, t, c))
                  for c, rows in enumerate(per_class)]
        labels = [np.full(rows.size, c) for c, rows in enumerate(per_class)]
        members.append(fit(Dataset(np.concatenate(blocks), np.concatenate(labels), m=ds.m)))
        probs_sum += members[-1].predict_proba_many(ds.features)
    return members
