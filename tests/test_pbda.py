import numpy as np
import pytest

from dube import Dataset, class_covariance, perturb, rng
from dube.pbda import _psd_factor


def dataset(X, y, m=None):
    return Dataset(np.asarray(X, dtype=float), np.asarray(y), m=m or 0)


class TestClassCovariance:
    def test_two_point_hand_computation(self):
        ds = dataset([[0.0, 0.0], [2.0, 2.0], [9.0, 9.0]], [0, 0, 1])
        cov = class_covariance(ds, 0)
        assert cov.mean.tolist() == [1.0, 1.0]
        assert cov.cov.tolist() == [[2.0, 2.0], [2.0, 2.0]]
        assert cov.count == 2

    def test_singleton_class_gets_zero_matrix(self):
        ds = dataset([[1.0, 5.0], [0.0, 0.0], [2.0, 1.0]], [0, 1, 1])
        cov = class_covariance(ds, 0)
        assert not cov.cov.any()
        out = perturb(ds.features[:1], alpha=3.0, cov=cov, seed=4)
        assert np.array_equal(out, ds.features[:1])

    def test_estimate_recovers_known_diagonal_covariance(self):
        gen = np.random.default_rng(11)
        truth = np.diag([1.0, 4.0, 0.25])
        X = gen.normal(size=(5000, 3)) * np.sqrt(np.diag(truth))
        ds = dataset(X, np.zeros(5000, dtype=int), m=1)
        cov = class_covariance(ds, 0)
        scale = np.diag(truth).max()
        # 5% of the dominant scale as the per-entry tolerance; exact zeros
        # cannot carry a relative bound
        assert np.abs(cov.cov - truth).max() <= 0.05 * scale

    def test_symmetric_and_psd(self):
        gen = np.random.default_rng(12)
        base = gen.normal(size=(40, 1)) @ gen.normal(size=(1, 6))  # rank-1, near-singular
        ds = dataset(base + 1e-9 * gen.normal(size=base.shape), np.zeros(40, dtype=int), m=1)
        cov = class_covariance(ds, 0)
        assert np.abs(cov.cov - cov.cov.T).max() < 1e-9
        assert np.linalg.eigvalsh(cov.cov).min() >= -1e-12

    def test_empty_class_rejected(self):
        ds = dataset([[0.0], [1.0]], [0, 1], m=3)
        with pytest.raises(ValueError, match="empty"):
            class_covariance(ds, 2)


class TestPerturb:
    def test_alpha_zero_is_identity(self):
        ds = dataset([[0.5, 1.0], [2.0, -1.0]], [0, 0], m=1)
        cov = class_covariance(ds, 0)
        out = perturb(ds.features, 0.0, cov, seed=1)
        assert np.array_equal(out, ds.features)

    def test_preserves_length_and_input(self):
        gen = np.random.default_rng(3)
        X = gen.normal(size=(30, 2))
        ds = dataset(X, np.zeros(30, dtype=int), m=1)
        cov = class_covariance(ds, 0)
        out = perturb(X, 0.5, cov, seed=2)
        assert out.shape == X.shape
        assert not np.array_equal(out, X)
        assert np.array_equal(ds.features, X)  # input untouched

    def test_identity_covariance_unit_variance(self):
        from dube.pbda import ClassCovariance
        cov = ClassCovariance(0, np.zeros(2), np.eye(2), 100)
        out = perturb(np.zeros((10_000, 2)), 1.0, cov, seed=5)
        assert np.abs(out.var(axis=0) - 1.0).max() <= 0.05

    def test_noise_covariance_converges_to_target(self):
        from dube.pbda import ClassCovariance
        target = np.array([[1.0, 0.6], [0.6, 2.0]])
        cov = ClassCovariance(0, np.zeros(2), target, 100)
        base = np.zeros((20_000, 2))
        out = perturb(base, 0.5, cov, seed=6)
        noise = (out - base) / 0.5
        sample = np.cov(noise.T)
        assert np.abs(sample - target).max() <= 0.05 * np.abs(target).max() + 0.02

    def test_determinism(self):
        from dube.pbda import ClassCovariance
        cov = ClassCovariance(0, np.zeros(3), np.eye(3), 10)
        X = np.arange(12, dtype=float).reshape(4, 3)
        a = perturb(X, 0.3, cov, seed=9)
        b = perturb(X, 0.3, cov, seed=9)
        assert np.array_equal(a, b)

    def test_dimension_mismatch(self):
        from dube.pbda import ClassCovariance
        cov = ClassCovariance(0, np.zeros(2), np.eye(2), 10)
        with pytest.raises(ValueError, match="dimension mismatch"):
            perturb(np.zeros((3, 4)), 0.1, cov, seed=0)

    def test_negative_alpha_rejected(self):
        from dube.pbda import ClassCovariance
        cov = ClassCovariance(0, np.zeros(2), np.eye(2), 10)
        with pytest.raises(ValueError, match="alpha"):
            perturb(np.zeros((3, 2)), -0.1, cov, seed=0)


    def test_factor_computed_once_and_unchanged(self, monkeypatch):
        from dube import pbda
        from dube.pbda import ClassCovariance
        target = np.array([[1.0, 0.6], [0.6, 2.0]])
        X = np.arange(8, dtype=float).reshape(4, 2)
        expected = X + 0.3 * (rng.stream(4, rng.PERTURB).standard_normal(X.shape)
                              @ _psd_factor(target).T)
        calls = []
        monkeypatch.setattr(pbda, "_psd_factor",
                            lambda cov: calls.append(cov) or _psd_factor(cov))
        cov = ClassCovariance(0, np.zeros(2), target, 10)
        for _ in range(3):
            assert np.array_equal(perturb(X, 0.3, cov, seed=4), expected)
        assert len(calls) == 1

    def test_fit_factors_each_class_once(self, monkeypatch):
        from dube import DubeConfig, dube_fit, make_overlap_2d, pbda
        calls = []
        monkeypatch.setattr(pbda, "_psd_factor",
                            lambda cov: calls.append(cov) or _psd_factor(cov))
        dube_fit(make_overlap_2d(20, 80, "mid", seed=0), DubeConfig(k=6, alpha=0.2))
        assert len(calls) == 2  # one per class, not one per (iteration, class)


class TestPsdFactor:
    def test_reconstructs_covariance(self):
        gen = np.random.default_rng(7)
        A = gen.normal(size=(4, 4))
        cov = A @ A.T
        L = _psd_factor(cov)
        assert np.allclose(L @ L.T, cov, atol=1e-8)

    def test_handles_semidefinite_input(self):
        v = np.array([[1.0], [2.0]])
        cov = v @ v.T  # rank 1, singular
        L = _psd_factor(cov)
        assert np.allclose(L @ L.T, cov, atol=1e-6)

    def test_jitter_is_relative_to_the_covariance(self):
        # 3 rows in 8-D give a rank-2 covariance, which Cholesky factors
        # only with jitter; scaling the features by a power of two must
        # scale the noise by the same factor
        X = np.random.default_rng(3).normal(size=(3, 8))
        ratios = []
        for scale in (2.0 ** -30, 2.0 ** 20):
            cov = class_covariance(dataset(X * scale, [0, 0, 0]), 0)
            samples = np.repeat(X * scale, 500, axis=0)
            noise = perturb(samples, alpha=0.2, cov=cov, seed=8) - samples
            spread = np.sqrt(np.trace(cov.cov))
            ratios.append(np.linalg.norm(noise, axis=1).mean() / spread)
        assert ratios[0] == pytest.approx(ratios[1], rel=1e-9)
