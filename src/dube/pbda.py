"""Perturbation-based data augmentation.

Resampled rows of class c receive additive noise ``alpha * z`` with
``z ~ N(0, cov_c)``, where ``cov_c`` is the unbiased covariance of the
class's original rows. Calibrating on per-class statistics lets the
perturbation respect each class's own spread; because duplicated rows
receive independent noise, over-sampled classes gain genuinely new
points instead of exact copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import rng
from .dataset import Dataset, DatasetError


@dataclass(frozen=True)
class ClassCovariance:
    """Mean, covariance and row count of one class.

    ``factor`` is computed on first use and kept, so a fit factors each
    class covariance once however many iterations perturb that class.
    """

    class_id: int
    mean: np.ndarray
    cov: np.ndarray
    count: int

    @cached_property
    def factor(self) -> np.ndarray:
        """Matrix L with L @ L.T ~= cov (see :func:`_psd_factor`)."""
        return _psd_factor(self.cov)


def class_covariance(ds: Dataset, c: int) -> ClassCovariance:
    """Unbiased (n-1) covariance of class c, symmetrized and PSD-clipped.

    A singleton class gets the zero matrix, which turns perturbation into
    a no-op for that class: with one observation there is no spread to
    calibrate against, and inventing one would fabricate structure.
    ValueError unless ``c`` is an integer in [0, m - 1] (:func:`rng.integer`).
    """
    c = rng.integer(c, "class", 0, ds.m - 1)
    rows = ds.class_index[c]
    if rows.size == 0:
        raise ValueError(f"class {c} is empty")
    X = ds.features[rows]
    mean = X.mean(axis=0)
    d = ds.n_features
    if rows.size == 1:
        return ClassCovariance(c, mean, np.zeros((d, d)), 1)
    centered = X - mean
    cov = centered.T @ centered / (rows.size - 1)
    cov = (cov + cov.T) / 2.0
    w, v = np.linalg.eigh(cov)
    if w.min() < 0:
        cov = (v * np.clip(w, 0.0, None)) @ v.T
        cov = (cov + cov.T) / 2.0
    return ClassCovariance(c, mean, cov, int(rows.size))


def _psd_factor(cov: np.ndarray) -> np.ndarray:
    """Matrix L with L @ L.T ~= cov.

    Cholesky with escalating diagonal jitter, relative to the mean
    variance ``trace(cov) / d`` so that it means the same at any feature
    scale; sample covariances of near-collinear data are often
    numerically semidefinite. Falls back to an eigendecomposition with
    negative eigenvalues clipped to zero.
    """
    d = cov.shape[0]
    scale = np.trace(cov) / d
    jitter = 0.0
    for _ in range(8):
        try:
            return np.linalg.cholesky(cov + jitter * scale * np.eye(d))
        except np.linalg.LinAlgError:
            jitter = 1e-12 if jitter == 0.0 else jitter * 10.0
            if jitter > 1e-6:
                break
    w, v = np.linalg.eigh(cov)
    return v * np.sqrt(np.clip(w, 0.0, None))


def perturb(samples, alpha, cov: ClassCovariance, seed: int) -> np.ndarray:
    """Add ``alpha``-scaled class-calibrated Gaussian noise to each row.

    ``alpha = 0`` or a zero covariance returns the rows unchanged.
    Draws come from the stream for (seed,); fixed inputs give identical
    output. ``alpha`` may be a list of scales and ``samples`` a (K, n, d)
    stack of blocks (or one block for all): every scale then perturbs its
    own block, as alone, and they all share one noise draw. ValueError
    unless every scale is finite and >= 0 (:func:`rng.reals`); a result
    that is not finite raises DatasetError.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    scale = rng.reals(alpha, "alpha", 0)[..., None, None]
    if samples.shape[-1] != cov.cov.shape[0]:
        raise ValueError(
            f"dimension mismatch: samples have {samples.shape[-1]} features, "
            f"covariance is {cov.cov.shape[0]}x{cov.cov.shape[0]}")
    if not scale.any() or not cov.cov.any():
        return np.broadcast_to(samples, np.broadcast_shapes(samples.shape, scale.shape)).copy()
    gen = rng.stream(seed, rng.PERTURB)
    noise = gen.standard_normal(samples.shape[-2:]) @ cov.factor.T
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        out = np.where(scale == 0, samples, samples + scale * noise)
    if not np.isfinite(out).all():
        raise DatasetError(f"perturbing class {cov.class_id} with alpha up to {scale.max():g} "
                           f"gives non-finite features")
    return out
