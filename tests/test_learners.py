from unittest import mock

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dube import Dataset, DatasetError, learners
from dube.learners import (KnnClassifier, KnnParams, TreeParams, fit_learner,
                           learner_from_dict, knn_fit, tree_fit)
from knn_reference import reference_knn_predict_proba_many
from tree_reference import reference_predict_proba_many, reference_tree_fit


def dataset(X, y, m=None):
    return Dataset(np.asarray(X, dtype=float), np.asarray(y), m=m or 0)


class TestTree:
    def test_separable_pair(self):
        ds = dataset([[0.0], [1.0]], [0, 1])
        model = tree_fit(ds, TreeParams(max_depth=1))
        assert model.predict_proba([0.0]).tolist() == [1.0, 0.0]
        assert model.predict_proba([1.0]).tolist() == [0.0, 1.0]

    def test_single_class_training_set_is_leaf(self):
        ds = dataset([[1.0], [2.0], [3.0]], [1, 1, 1], m=2)
        model = tree_fit(ds)
        assert model.n_nodes == 1
        assert model.predict_proba([9.0]).tolist() == [0.0, 1.0]

    def test_xor_solved_at_depth_two(self):
        # root gain is zero for every split; the tree must still split
        X = [[0, 0], [1, 1], [0, 1], [1, 0]]
        y = [0, 0, 1, 1]
        ds = dataset(X, y)
        model = tree_fit(ds, TreeParams(max_depth=2))
        assert np.array_equal(model.predict_many(np.asarray(X, float)), y)
        assert model.depth() == 2

    def test_training_accuracy_monotone_in_depth(self):
        gen = np.random.default_rng(0)
        X = gen.normal(size=(120, 3))
        y = (X[:, 0] + 0.5 * X[:, 1] ** 2 + 0.2 * gen.normal(size=120) > 0).astype(int)
        ds = dataset(X, y)
        last = 0.0
        for depth in range(1, 8):
            model = tree_fit(ds, TreeParams(max_depth=depth))
            acc = (model.predict_many(X) == y).mean()
            assert acc >= last - 1e-12
            last = acc

    def test_probability_contract_random_queries(self):
        gen = np.random.default_rng(5)
        X = gen.normal(size=(80, 4))
        y = gen.integers(0, 3, 80)
        model = tree_fit(dataset(X, y, m=3))
        probs = model.predict_proba_many(gen.normal(size=(50, 4)))
        assert (probs >= 0).all()
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9

    def test_min_samples_leaf_respected(self):
        gen = np.random.default_rng(2)
        X = gen.normal(size=(64, 2))
        y = gen.integers(0, 2, 64)
        model = tree_fit(dataset(X, y), TreeParams(min_samples_leaf=8))
        leaves = model.feature < 0
        # recover each leaf's training load by routing the data
        out = np.zeros(model.n_nodes, dtype=int)
        stack = [(0, np.arange(64))]
        while stack:
            node, idx = stack.pop()
            if model.feature[node] < 0:
                out[node] = idx.size
                continue
            mask = X[idx, model.feature[node]] <= model.threshold[node]
            stack.append((model.left[node], idx[mask]))
            stack.append((model.right[node], idx[~mask]))
        assert out[leaves].min() >= 8

    def test_entropy_criterion_runs(self):
        gen = np.random.default_rng(3)
        X = gen.normal(size=(60, 2))
        y = (X[:, 0] > 0).astype(int)
        model = tree_fit(dataset(X, y), TreeParams(criterion="entropy"))
        assert (model.predict_many(X) == y).all()

    def test_deterministic_fit(self):
        gen = np.random.default_rng(4)
        X = gen.normal(size=(100, 3))
        y = gen.integers(0, 2, 100)
        a = tree_fit(dataset(X, y))
        b = tree_fit(dataset(X, y))
        assert np.array_equal(a.threshold, b.threshold)
        assert np.array_equal(a.feature, b.feature)

    def test_dimension_mismatch(self):
        model = tree_fit(dataset([[0.0], [1.0]], [0, 1]))
        with pytest.raises(ValueError, match="length 1"):
            model.predict_proba([0.0, 1.0])

    def test_bad_params(self):
        with pytest.raises(ValueError):
            TreeParams(max_depth=0)
        with pytest.raises(ValueError):
            TreeParams(min_samples_leaf=0)
        with pytest.raises(ValueError):
            TreeParams(criterion="twoing")

    def test_split_between_huge_values(self):
        # lo + hi overflows to inf; the threshold falls back to lo
        ds = dataset([[1e308], [1.5e308]], [0, 1])
        model = tree_fit(ds)
        assert model.threshold[0] == 1e308
        assert model.predict_many(ds.features).tolist() == [0, 1]


# Feature values: small integers (heavy ties), signed zeros, subnormals,
# the smallest normal, and ordinary floats.
_VALUES = st.one_of(
    st.integers(-2, 2).map(float),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=True),
)


@st.composite
def tree_problems(draw):
    """A training set with duplicated rows and matching tree parameters."""
    n = draw(st.integers(1, 300))
    d = draw(st.integers(1, 4))
    m = draw(st.integers(2, 4))
    distinct = draw(hnp.arrays(np.float64, (draw(st.integers(1, n)), d), elements=_VALUES))
    pick = draw(hnp.arrays(np.int64, n, elements=st.integers(0, distinct.shape[0] - 1)))
    y = draw(hnp.arrays(np.int64, n, elements=st.integers(0, m - 1)))
    params = TreeParams(max_depth=draw(st.none() | st.integers(1, 6)),
                        min_samples_leaf=draw(st.integers(1, 8)),
                        criterion=draw(st.sampled_from(["gini", "entropy"])))
    return Dataset(distinct[pick], y, m=m), params


class TestTreeMatchesReference:
    """The presorted builder and level-wise router against a builder that
    sorts every node anew and a router that walks a stack."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(tree_problems(), st.integers(0, 2**32 - 1))
    def test_identical_trees_and_predictions(self, problem, seed):
        ds, params = problem
        tree, reference = tree_fit(ds, params), reference_tree_fit(ds, params)
        for name in ("feature", "threshold", "left", "right", "proba"):
            got, want = getattr(tree, name), getattr(reference, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name

        # training rows, random rows, and rows exactly on every threshold
        gen = np.random.default_rng(seed)
        queries = [ds.features, gen.normal(size=(20, ds.n_features))]
        for node in np.flatnonzero(tree.feature >= 0):
            on = ds.features[gen.integers(0, ds.n_rows, 3)].copy()
            on[:, tree.feature[node]] = tree.threshold[node]
            queries.append(on)
        queries = np.vstack(queries)
        assert (tree.predict_proba_many(queries).tobytes()
                == reference_predict_proba_many(reference, queries).tobytes())


class TestKnn:
    def test_exact_match_with_k1(self):
        ds = dataset([[0, 0], [3, 3]], [0, 1])
        model = knn_fit(ds, 1)
        assert model.predict_proba([3.0, 3.0]).tolist() == [0.0, 1.0]

    def test_k_equals_n_gives_prior(self):
        ds = dataset([[0], [1], [2], [3]], [0, 0, 0, 1])
        model = knn_fit(ds, 4)
        assert model.predict_proba([100.0]).tolist() == [0.75, 0.25]

    def test_hand_placed_points_vs_brute_force(self):
        X = np.array([[0, 0], [1, 0], [0, 1], [2, 2], [3, 3]], dtype=float)
        y = np.array([0, 0, 1, 1, 0])
        model = knn_fit(dataset(X, y, m=2), 3)
        gen = np.random.default_rng(8)
        for query in gen.normal(0.5, 1.5, size=(25, 2)):
            d2 = ((X - query) ** 2).sum(axis=1)
            nearest = np.argsort(d2, kind="stable")[:3]
            expected = np.bincount(y[nearest], minlength=2) / 3
            assert np.allclose(model.predict_proba(query), expected)

    def test_distance_tie_breaks_to_lower_row(self):
        # both training rows are equidistant from the origin query
        ds = dataset([[1.0, 0.0], [-1.0, 0.0]], [1, 0])
        model = knn_fit(ds, 1)
        assert model.predict_proba([0.0, 0.0]).tolist() == [0.0, 1.0]

    def test_symmetric_split_vote(self):
        ds = dataset([[-1.0], [1.0]], [0, 1])
        model = knn_fit(ds, 2)
        assert model.predict_proba([0.2]).tolist() == [0.5, 0.5]

    def test_k1_training_accuracy_on_distinct_points(self):
        gen = np.random.default_rng(10)
        X = gen.normal(size=(40, 2))
        y = gen.integers(0, 3, 40)
        model = knn_fit(dataset(X, y, m=3), 1)
        assert (model.predict_many(X) == y).all()

    def test_k_larger_than_n_rejected(self):
        ds = dataset([[0.0], [1.0]], [0, 1])
        with pytest.raises(DatasetError):
            knn_fit(ds, 3)


# Values whose squared distances come out the same for any query block
# shape. Every product is exact, so no summation order or fused
# multiply-add can change a bit. Training rows hold small integers (heavy
# distance ties) and +-1e200, whose squares overflow to inf; queries hold
# small integers, NaN and +-inf, so inf - inf and inf * 0 give NaN. A
# query value near 1e200 is left out: 1e200 * 1e200 overflows when
# multiplied and added in two steps and not when fused, and BLAS picks
# one or the other by block shape.
_SMALL = st.integers(-2, 2).map(float)
_TRAIN_VALUES = st.one_of(_SMALL, st.sampled_from([1e200, -1e200]))
_QUERY_VALUES = st.one_of(_SMALL, st.sampled_from([np.nan, np.inf, -np.inf]))


@st.composite
def knn_problems(draw):
    """A KNN model with duplicated training rows, its queries, and a block
    byte budget from one row per block up to a single block."""
    n = draw(st.integers(1, 60))
    d = draw(st.integers(1, 4))
    m = draw(st.integers(2, 4))
    distinct = draw(hnp.arrays(np.float64, (draw(st.integers(1, n)), d), elements=_TRAIN_VALUES))
    pick = draw(hnp.arrays(np.int64, n, elements=st.integers(0, distinct.shape[0] - 1)))
    y = draw(hnp.arrays(np.int64, n, elements=st.integers(0, m - 1)))
    k = draw(st.sampled_from([1, n]) | st.integers(1, n))
    queries = draw(hnp.arrays(np.float64, (draw(st.integers(1, 40)), d), elements=_QUERY_VALUES))
    nan_rows = draw(hnp.arrays(np.bool_, queries.shape[0]))
    queries[nan_rows] = np.nan
    block_bytes = draw(st.sampled_from([1, 8 * n - 1, 8 * n, 8 * n * 3 + 5, 8 << 20]))
    with np.errstate(over="ignore"):
        model = KnnClassifier(distinct[pick], y, m, k)
    return model, queries, block_bytes


class TestKnnMatchesReference:
    """The partition vote over byte-sized blocks against a stable argsort of
    every distance row over 512-row blocks."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(knn_problems())
    def test_identical_probabilities(self, problem):
        model, queries, block_bytes = problem
        with np.errstate(over="ignore", invalid="ignore"):
            with mock.patch.object(learners, "_BLOCK_BYTES", block_bytes):
                got = model.predict_proba_many(queries)
            want = reference_knn_predict_proba_many(model, queries)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_nan_distances_rank_last_in_index_order(self):
        # squared distances from inf: inf, then NaN (inf * 0) and NaN (inf - inf) twice
        model = KnnClassifier([[-1.0], [0.0], [1.0], [2.0]], [0, 1, 2, 0], 3, 2)
        with np.errstate(invalid="ignore"):
            assert model.predict_proba_many([[np.inf]]).tolist() == [[0.5, 0.5, 0.0]]


class TestSerialization:
    def test_tree_round_trip(self):
        gen = np.random.default_rng(6)
        X = gen.normal(size=(70, 3))
        y = gen.integers(0, 2, 70)
        model = tree_fit(dataset(X, y))
        clone = learner_from_dict(model.to_dict())
        queries = gen.normal(size=(30, 3))
        assert np.array_equal(model.predict_proba_many(queries),
                              clone.predict_proba_many(queries))

    def test_knn_round_trip(self):
        gen = np.random.default_rng(7)
        X = gen.normal(size=(20, 2))
        y = gen.integers(0, 2, 20)
        model = knn_fit(dataset(X, y), 3)
        clone = learner_from_dict(model.to_dict())
        queries = gen.normal(size=(10, 2))
        assert np.array_equal(model.predict_proba_many(queries),
                              clone.predict_proba_many(queries))


def test_fit_learner_dispatch():
    ds = dataset([[0.0], [1.0], [2.0]], [0, 1, 0])
    assert fit_learner(ds, TreeParams()).m == 2
    assert fit_learner(ds, KnnParams(k_neighbors=2)).k_neighbors == 2
    with pytest.raises(TypeError):
        fit_learner(ds, object())
