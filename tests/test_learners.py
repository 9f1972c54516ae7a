import inspect
import json
import tracemalloc
import warnings
from unittest import mock

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dube import Dataset, DatasetError, DubeConfig, dube_fit, learners
from dube.ensemble import _config_from_dict, _config_to_dict
from dube.learners import (KnnClassifier, KnnParams, TreeClassifier, TreeParams, fit_learner,
                           from_dict, knn_fit, to_dict, tree_fit)
from knn_reference import (blocked_distances, blocked_knn_predict_proba_many,
                           reference_knn_predict_proba_many)
from tree_reference import _xlog2x as masked_xlog2x
from tree_reference import reference_predict_proba_many, reference_tree_fit


def dataset(X, y, m=None):
    return Dataset(np.asarray(X, dtype=float), np.asarray(y), m=m or 0)


class TestTree:
    def test_separable_pair(self):
        ds = dataset([[0.0], [1.0]], [0, 1])
        model = tree_fit(ds, TreeParams(max_depth=1))
        assert model.predict_proba_many([0.0])[0].tolist() == [1.0, 0.0]
        assert model.predict_proba_many([1.0])[0].tolist() == [0.0, 1.0]

    def test_single_class_training_set_is_leaf(self):
        ds = dataset([[1.0], [2.0], [3.0]], [1, 1, 1], m=2)
        model = tree_fit(ds)
        assert model.n_nodes == 1
        assert model.predict_proba_many([9.0])[0].tolist() == [0.0, 1.0]

    def test_xor_solved_at_depth_two(self):
        # root gain is zero for every split; the tree must still split
        X = [[0, 0], [1, 1], [0, 1], [1, 0]]
        y = [0, 0, 1, 1]
        ds = dataset(X, y)
        model = tree_fit(ds, TreeParams(max_depth=2))
        assert np.array_equal(model.predict_proba_many(np.asarray(X, float)).argmax(axis=1), y)
        assert model.depth() == 2

    def test_training_accuracy_monotone_in_depth(self):
        gen = np.random.default_rng(0)
        X = gen.normal(size=(120, 3))
        y = (X[:, 0] + 0.5 * X[:, 1] ** 2 + 0.2 * gen.normal(size=120) > 0).astype(int)
        ds = dataset(X, y)
        last = 0.0
        for depth in range(1, 8):
            model = tree_fit(ds, TreeParams(max_depth=depth))
            acc = (model.predict_proba_many(X).argmax(axis=1) == y).mean()
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
        assert (model.predict_proba_many(X).argmax(axis=1) == y).all()

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
        with pytest.raises(ValueError, match="expected 1 features, got 2"):
            model.predict_proba_many([0.0, 1.0])

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
        assert model.predict_proba_many(ds.features).argmax(axis=1).tolist() == [0, 1]


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


def reference_table():
    """2,000 rows of 8 features in three classes, drawn from 1,300 distinct
    rows with labels drawn per row, so duplicates may disagree. Feature 2
    is constant and 3 is binary: wherever a level's segments meet, their
    rows hold equal values on both sides of the boundary."""
    gen = np.random.default_rng(2021)
    n = 1300
    distinct = np.column_stack([
        gen.normal(size=n).round(1), gen.integers(0, 4, n), np.ones(n), gen.integers(0, 2, n),
        gen.normal(size=n).round(2), gen.random(n), gen.integers(0, 10, n), (3 * gen.normal(size=n)).round()])
    X = distinct[gen.integers(0, n, 2000)]
    signal = X[:, 0] + 0.5 * X[:, 1] - X[:, 3] + gen.normal(0, 1.0, 2000)
    return Dataset(X, np.digitize(signal, [-0.5, 1.0]), m=3)


class TestTreeReferenceTable:
    """The level-wise builder against the depth-first reference on one fixed
    table, for both criteria, two leaf sizes and two depth limits."""

    @pytest.mark.parametrize("max_depth", [3, None])
    @pytest.mark.parametrize("min_leaf", [1, 5])
    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    def test_reference_table(self, criterion, min_leaf, max_depth):
        ds = reference_table()
        params = TreeParams(max_depth=max_depth, min_samples_leaf=min_leaf, criterion=criterion)
        boundaries = []
        level_splits = learners._level_splits

        def spy(Xs, ys, starts, *args):
            boundaries.append((Xs[:, starts[1:] - 1] == Xs[:, starts[1:]]).any())
            return level_splits(Xs, ys, starts, *args)
        with mock.patch.object(learners, "_level_splits", spy):
            tree = tree_fit(ds, params)
        reference = reference_tree_fit(ds, params)
        for name in ("feature", "threshold", "left", "right", "proba"):
            got, want = getattr(tree, name), getattr(reference, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        assert any(boundaries)  # a level whose segments meet at equal values
        assert tree.depth() == max_depth or max_depth is None
        queries = np.vstack([ds.features, np.random.default_rng(1).normal(0, 2, (200, 8))])
        assert (tree.predict_proba_many(queries).tobytes()
                == reference_predict_proba_many(reference, queries).tobytes())


def tie_table():
    """3,000 rows of six features, each drawn from a few values: signed zeros
    with the smallest subnormal, a constant -0.0, small integers, and short
    lists of two- and six-decimal values. Every root presort row is made of
    long runs of equal values, at a width where numpy's default argsort
    orders them by its vectorized kernel."""
    gen = np.random.default_rng(3000)
    n = 3000
    X = np.column_stack([
        gen.choice([-0.0, 0.0, 5e-324, 1.0], n), np.full(n, -0.0), gen.integers(-3, 4, n),
        gen.normal(size=40).round(2)[gen.integers(0, 40, n)],
        gen.normal(size=300).round(6)[gen.integers(0, 300, n)], gen.integers(0, 2, n)])
    signal = X[:, 0] + 0.5 * X[:, 2] + X[:, 3] - X[:, 5] + gen.normal(0, 1.0, n)
    return Dataset(X, np.digitize(signal, [-0.5, 1.0]), m=3)


class TestTreeTieTable:
    """The level-wise builder against the depth-first reference on a
    tie-heavy table ten times the size of the hypothesis trees."""

    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    def test_identical_trees_and_predictions(self, criterion):
        ds, params = tie_table(), TreeParams(criterion=criterion)
        tree, reference = tree_fit(ds, params), reference_tree_fit(ds, params)
        for name in ("feature", "threshold", "left", "right", "proba"):
            got, want = getattr(tree, name), getattr(reference, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        assert tree.n_nodes > 500
        assert (tree.predict_proba_many(ds.features).tobytes()
                == reference_predict_proba_many(reference, ds.features).tobytes())


@st.composite
def presort_stacks(draw):
    """An (R, n, d) stack of feature tables. Each feature holds signed
    zeros, one value only, a few values repeated many times, or six-decimal
    values; widths reach past 4,096, where numpy's default argsort is its
    vectorized kernel. Half the stacks are views of a (d, R, n) array."""
    n = draw(st.sampled_from([4096, 4097, 6000, 9000]) | st.integers(1, 600))
    R = draw(st.integers(1, 3))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    features = []
    for kind in draw(st.lists(st.sampled_from(["zeros", "one", "few", "six"]), min_size=1, max_size=4)):
        if kind == "zeros":
            features.append(gen.choice([-0.0, 0.0, 1.0, -1.0], (R, n)))
        elif kind == "one":
            features.append(np.full((R, n), gen.choice([-0.0, 0.0, 2.5])))
        elif kind == "few":
            values = gen.normal(size=int(gen.integers(2, 30))).round(6)
            features.append(values[gen.integers(0, values.size, (R, n))])
        else:
            features.append(gen.normal(0, 10, (R, n)).round(6))
    X = np.array(features).transpose(1, 2, 0)
    return X if draw(st.booleans()) else np.ascontiguousarray(X)


class TestPresort:
    """The presort orders each table by every feature; ties may come in any order."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(presort_stacks())
    def test_sorts_each_row_by_value(self, X):
        R, n, d = X.shape
        order, values = learners._presort(X)
        assert order.dtype == np.intp and order.shape == values.shape == (d, R * n)
        for r in range(R):  # table r owns columns r * n to r * n + n - 1 and ids r * n + i
            rows, part = order[:, r * n:(r + 1) * n] - r * n, values[:, r * n:(r + 1) * n]
            assert (np.sort(rows, axis=1) == np.arange(n)).all()  # each row a permutation
            assert (part[:, 1:] >= part[:, :-1]).all()
            assert part.tobytes() == np.take_along_axis(X[r].T, rows, axis=1).tobytes()


@st.composite
def class_fractions(draw):
    """A (d, n) array of class fractions c / n_rows as the entropy search
    forms them, with zeros and ones among them, or of any floats in [0, 1]."""
    d, n = draw(st.integers(1, 20)), draw(st.integers(1, 2000))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        rows = gen.integers(1, draw(st.sampled_from([2, 10, 10**6])) + 1, (d, n))
        return np.floor(gen.random((d, n)) * (rows + 1)) / rows
    p = gen.random((d, n))
    p[gen.random((d, n)) < 0.2] = gen.choice([0.0, 1.0, 5e-324, 1.0 - 2**-53])
    return p


class TestXlog2x:
    """The entropy search's p * log2(p) equals the reference builder's
    masked form bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(class_fractions())
    def test_equals_the_masked_form(self, p):
        assert learners._xlog2x(p).tobytes() == masked_xlog2x(p).tobytes()


@st.composite
def permuted_tie_tables(draw, m=None, d=None):
    """A tie-heavy training set and a permutation of its rows, with m
    classes and d features (drawn where not given). Each feature
    takes a few small integers, signed zeros with +-5e-324, or Gaussians
    rounded to one decimal; widths reach past 4,096, where numpy's default
    argsort is its vectorized kernel."""
    n = draw(st.sampled_from([4097, 6000]) | st.integers(1, 400))
    m = m or draw(st.integers(2, 4))
    d = d or draw(st.integers(1, 4))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ds = Dataset(draw(tie_features(n, d)), gen.integers(0, m, n), m=m)
    return ds, gen.permutation(n)


@st.composite
def tie_features(draw, n, d):
    """An (n, d) feature table of the kinds :func:`permuted_tie_tables` draws."""
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["few", "zeros", "rounded"]), min_size=d, max_size=d)):
        if kind == "few":
            columns.append(gen.integers(-2, int(gen.integers(-1, 4)), n).astype(float))
        elif kind == "zeros":
            columns.append(gen.choice([-0.0, 0.0, 5e-324, -5e-324, 1.0], n))
        else:
            columns.append(gen.normal(size=n).round(1))
    return np.column_stack(columns)


def assert_same_tree(got, want):
    for name in ("feature", "threshold", "left", "right", "proba"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert (got.m, got.d) == (want.m, want.d)


class TestRowOrderInvariance:
    """A tree depends on its training rows, not on their order, so the
    order of equal values after the presort reaches no tree."""

    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    @settings(max_examples=75, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(problem=permuted_tie_tables(), min_leaf=st.integers(1, 4))
    def test_permuted_rows_grow_the_same_tree(self, criterion, problem, min_leaf):
        ds, perm = problem
        params = TreeParams(min_samples_leaf=min_leaf, criterion=criterion)
        assert_same_tree(tree_fit(ds.subset(perm), params), tree_fit(ds, params))

    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(m=st.integers(2, 4), d=st.integers(1, 4), data=st.data())
    def test_forest_with_one_set_permuted(self, criterion, m, d, data):
        # one to four tables share the label vector, so one row permutation
        # moves every table's rows and the labels together
        ds, perm = data.draw(permuted_tie_tables(m, d))
        others = data.draw(st.lists(tie_features(ds.n_rows, d), max_size=3))
        X = np.stack([ds.features, *others])
        params = TreeParams(criterion=criterion)
        forests = (learners.forest_fit(X[:, perm], ds.labels[perm], m, params),
                   learners.forest_fit(X, ds.labels, m, params))
        for got, want in zip(*forests, strict=True):
            assert_same_tree(got, want)


class TestTreeMatchesReference:
    """The level-wise builder and router against a depth-first builder that
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


# Query values that routing must send the way the reference does: NaN goes
# right, infinities to the ends, and the two zeros compare equal.
_QUERY_VALUES = st.one_of(st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0]), _VALUES)


def breadth_first(tree):
    """``tree`` renumbered breadth-first, written by to_dict and read by
    from_dict: children still lie above their parent, but the numbers are
    not the depth-first ones that tree_fit gives."""
    order = [0]
    for node in order:  # the list grows while it is walked
        if tree.feature[node] >= 0:
            order += [tree.left[node], tree.right[node]]
    number = np.empty(tree.n_nodes, dtype=np.int64)
    number[order] = np.arange(tree.n_nodes)
    inner = tree.feature[order] >= 0
    blob = {**to_dict(tree),
            "feature": tree.feature[order].tolist(),
            "threshold": tree.threshold[order].tolist(),
            "left": np.where(inner, number[tree.left[order]], -1).tolist(),
            "right": np.where(inner, number[tree.right[order]], -1).tolist(),
            "proba": tree.proba[order].tolist()}
    return from_dict(json.loads(json.dumps(blob)), member=True)


class TestRoutingMatchesReference:
    """Routing through the child table against the reference router's stack,
    bit for bit, on queries that hold NaN, infinities, both zeros and every
    threshold, for tree_fit's numbering and a breadth-first one."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(tree_problems(), st.data())
    def test_identical_probabilities(self, problem, data):
        ds, params = problem
        tree = tree_fit(ds, params)
        d = ds.n_features
        queries = data.draw(hnp.arrays(np.float64, (data.draw(st.integers(1, 40)), d),
                                       elements=_QUERY_VALUES))
        on = []
        for node in np.flatnonzero(tree.feature >= 0):
            row = data.draw(hnp.arrays(np.float64, d, elements=_QUERY_VALUES))
            row[tree.feature[node]] = tree.threshold[node]
            on.append(row)
        queries = np.vstack([queries, ds.features, *on])
        want = reference_predict_proba_many(tree, queries).tobytes()
        renumbered = breadth_first(tree)
        assert reference_predict_proba_many(renumbered, queries).tobytes() == want
        for router in (tree, renumbered):
            assert router.predict_proba_many(queries).tobytes() == want

    def test_breadth_first_numbering_differs(self):
        tree = tree_fit(reference_table(), TreeParams(max_depth=4))
        renumbered = breadth_first(tree)
        inner = renumbered.feature >= 0
        children = np.stack([renumbered.left[inner], renumbered.right[inner]], axis=1).ravel()
        assert children.tolist() == list(range(1, tree.n_nodes))
        assert renumbered.left.tolist() != tree.left.tolist()


class TestNonContiguousQueries:
    """A query batch in any memory layout is scored as its C-ordered copy."""

    @staticmethod
    def layouts(queries):
        wide = np.zeros((queries.shape[0], 2 * queries.shape[1]))
        wide[:, ::2] = queries
        backwards = np.ascontiguousarray(queries[::-1])[::-1]
        return {"fortran": np.asfortranarray(queries), "every-other-column": wide[:, ::2],
                "reversed-rows": backwards}

    @pytest.mark.parametrize("layout", ["fortran", "every-other-column", "reversed-rows"])
    @pytest.mark.parametrize("kind", ["tree", "ensemble"])
    def test_same_bytes_as_c_order(self, kind, layout):
        ds = reference_table()
        if kind == "tree":
            model = tree_fit(ds, TreeParams(min_samples_leaf=3))
        else:
            model = dube_fit(ds, DubeConfig(k=3, learner=TreeParams(min_samples_leaf=3)))
        queries = ds.features[::7].copy()
        queries[::5, 1] = np.nan
        queries[1::5, 4] = -np.inf
        view = self.layouts(queries)[layout]
        assert not view.flags.c_contiguous and np.array_equal(view, queries, equal_nan=True)
        want = model.predict_proba_many(queries)
        assert model.predict_proba_many(view).tobytes() == want.tobytes()


@st.composite
def forest_problems(draw):
    """An (R, n, d) stack of one to six tables with duplicated and tied
    values, their shared label vector and the class count m. The labels may
    hold one class only, so that no root grows."""
    d = draw(st.integers(1, 4))
    m = draw(st.integers(2, 4))
    n = draw(st.integers(1, 120))
    tables = []
    for _ in range(draw(st.integers(1, 6))):
        distinct = draw(hnp.arrays(np.float64, (draw(st.integers(1, n)), d), elements=_VALUES))
        pick = draw(hnp.arrays(np.int64, n, elements=st.integers(0, distinct.shape[0] - 1)))
        tables.append(distinct[pick])
    top = draw(st.integers(0, m - 1))
    y = draw(hnp.arrays(np.int64, n, elements=st.integers(0, top)))
    return np.stack(tables), y, m


class TestForestMatchesTrees:
    """A forest grown over R tables that share labels against R tree_fit calls."""

    @pytest.mark.parametrize("max_depth", [3, None])
    @pytest.mark.parametrize("min_leaf", [1, 5])
    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(problem=forest_problems())
    def test_each_tree_as_if_grown_alone(self, criterion, min_leaf, max_depth, problem):
        X, y, m = problem
        params = TreeParams(max_depth=max_depth, min_samples_leaf=min_leaf, criterion=criterion)
        forest = learners.forest_fit(X, y, m, params)
        assert len(forest) == len(X)
        for tree, table in zip(forest, X):
            alone = tree_fit(Dataset(table, y, m=m), params)
            for name in ("feature", "threshold", "left", "right", "proba"):
                got, want = getattr(tree, name), getattr(alone, name)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
            assert (tree.m, tree.d) == (alone.m, alone.d)


class TestFitMembers:
    """fit_members against one tree_fit or knn_fit call per table of its stack."""

    R, m = 7, 3
    counts = [20, 12, 8]

    def problem(self):
        """Seven 40 x 3 tables of rounded values, split into their class blocks."""
        X = np.random.default_rng(5).normal(size=(self.R, sum(self.counts), 3)).round(1)
        y = np.repeat(np.arange(self.m), self.counts)
        return X, y, np.split(X, np.cumsum(self.counts)[:-1], axis=1)

    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    def test_forests_then_a_run_of_one(self, monkeypatch, criterion):
        X, y, blocks = self.problem()
        sizes, forest_fit = [], learners.forest_fit
        monkeypatch.setattr(learners, "forest_fit",
                            lambda X, *rest: sizes.append(len(X)) or forest_fit(X, *rest))
        monkeypatch.setattr(learners, "_FOREST_BYTES", 3 * X[0].nbytes)
        params = TreeParams(min_samples_leaf=2, criterion=criterion)
        members = learners.fit_members(blocks, y, self.m, params)
        assert blocks == [] and sizes == [3, 3, 1]  # the run of one through tree_fit
        monkeypatch.setattr(learners, "forest_fit", forest_fit)
        for member, table in zip(members, X, strict=True):
            assert_same_tree(member, tree_fit(Dataset(table, y, m=self.m), params))

    def test_knn_members_one_by_one(self, monkeypatch):
        X, y, blocks = self.problem()
        fits, knn = [], learners.knn_fit
        monkeypatch.setattr(learners, "knn_fit", lambda ds, k: fits.append(k) or knn(ds, k))
        members = learners.fit_members(blocks, y, self.m, KnnParams(k_neighbors=4))
        assert fits == [4] * self.R
        for member, table in zip(members, X, strict=True):
            assert member.X.tobytes() == table.tobytes() and member.y.tobytes() == y.tobytes()
            assert (member.m, member.k_neighbors) == (self.m, 4)

    def test_a_run_of_one_holds_one_copy_of_its_rows(self, monkeypatch):
        # neither the blocks nor the stack outlive the Dataset that tree_fit gets
        n, d = 20_000, 16
        labels = np.repeat([0, 1], n // 2)
        held = []
        monkeypatch.setattr(learners, "tree_fit", lambda ds, params: held.append(
            tracemalloc.get_traced_memory()[0] - start) or "member")
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            gen = np.random.default_rng(0)
            blocks = [gen.normal(size=(1, n // 2, d)) for _ in range(2)]
            assert learners.fit_members(blocks, labels, 2, TreeParams()) == ["member"]
        finally:
            tracemalloc.stop()
        assert held[0] < 1.5 * n * d * 8  # the Dataset's features, labels and class index


class TestKnn:
    def test_exact_match_with_k1(self):
        ds = dataset([[0, 0], [3, 3]], [0, 1])
        model = knn_fit(ds, 1)
        assert model.predict_proba_many([3.0, 3.0])[0].tolist() == [0.0, 1.0]

    def test_k_equals_n_gives_prior(self):
        ds = dataset([[0], [1], [2], [3]], [0, 0, 0, 1])
        model = knn_fit(ds, 4)
        assert model.predict_proba_many([100.0])[0].tolist() == [0.75, 0.25]

    def test_hand_placed_points_vs_brute_force(self):
        X = np.array([[0, 0], [1, 0], [0, 1], [2, 2], [3, 3]], dtype=float)
        y = np.array([0, 0, 1, 1, 0])
        model = knn_fit(dataset(X, y, m=2), 3)
        gen = np.random.default_rng(8)
        for query in gen.normal(0.5, 1.5, size=(25, 2)):
            d2 = ((X - query) ** 2).sum(axis=1)
            nearest = np.argsort(d2, kind="stable")[:3]
            expected = np.bincount(y[nearest], minlength=2) / 3
            assert np.allclose(model.predict_proba_many(query)[0], expected)

    def test_distance_tie_breaks_to_lower_row(self):
        # both training rows are equidistant from the origin query
        ds = dataset([[1.0, 0.0], [-1.0, 0.0]], [1, 0])
        model = knn_fit(ds, 1)
        assert model.predict_proba_many([0.0, 0.0])[0].tolist() == [0.0, 1.0]

    def test_symmetric_split_vote(self):
        ds = dataset([[-1.0], [1.0]], [0, 1])
        model = knn_fit(ds, 2)
        assert model.predict_proba_many([0.2])[0].tolist() == [0.5, 0.5]

    def test_k1_training_accuracy_on_distinct_points(self):
        gen = np.random.default_rng(10)
        X = gen.normal(size=(40, 2))
        y = gen.integers(0, 3, 40)
        model = knn_fit(dataset(X, y, m=3), 1)
        assert (model.predict_proba_many(X).argmax(axis=1) == y).all()

    def test_huge_finite_values_warn_nothing(self):
        # squares above ~1.8e308 overflow to inf; such rows rank last, silently
        queries = np.array([[1e155, 0.0], [0.0, 1.0], [-2e155, 3.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = KnnClassifier([[1e155, 0.0], [0.0, 1.0]], [0, 1], 2, 1)
            got = model.predict_proba_many(queries)
        with np.errstate(over="ignore", invalid="ignore"):
            want = reference_knn_predict_proba_many(model, queries)
        assert got.tobytes() == want.tobytes()

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
    """A KNN model with duplicated training rows, its queries, a block byte
    budget from one row per block up to a single block, and a slice byte
    budget from one row per slice up to the default."""
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
    slice_bytes = draw(st.sampled_from([1, 8 * n, 8 * n * 3 + 5, learners._SLICE_BYTES]))
    with np.errstate(over="ignore"):
        model = KnnClassifier(distinct[pick], y, m, k)
    return model, queries, block_bytes, slice_bytes


class TestKnnMatchesReference:
    """The partition vote over byte-sized blocks and slices against a stable
    argsort of every distance row over 512-row blocks."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(knn_problems())
    def test_identical_probabilities(self, problem):
        model, queries, block_bytes, slice_bytes = problem
        with np.errstate(over="ignore", invalid="ignore"):
            with mock.patch.multiple(learners, _BLOCK_BYTES=block_bytes, _SLICE_BYTES=slice_bytes):
                got = model.predict_proba_many(queries)
            want = reference_knn_predict_proba_many(model, queries)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_nan_distances_rank_last_in_index_order(self):
        # squared distances from inf: inf, then NaN (inf * 0) and NaN (inf - inf) twice
        model = KnnClassifier([[-1.0], [0.0], [1.0], [2.0]], [0, 1, 2, 0], 3, 2)
        with np.errstate(invalid="ignore"):
            assert model.predict_proba_many([[np.inf]]).tolist() == [[0.5, 0.5, 0.0]]


@st.composite
def gaussian_knn_problems(draw):
    """A KNN model on Gaussian rows, some of them repeated, its queries (new
    rows, then training rows, some of either all NaN), and block and slice
    byte budgets."""
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 120))
    d = draw(st.integers(1, 8))
    m = draw(st.integers(2, 4))
    distinct = gen.normal(size=(draw(st.integers(1, n)), d))
    X = distinct[gen.integers(0, distinct.shape[0], n)]
    k = draw(st.sampled_from([1, n]) | st.integers(1, n))
    queries = np.concatenate([gen.normal(size=(draw(st.integers(1, 60)), d)),
                              X[:draw(st.integers(0, n))]])
    queries[gen.random(queries.shape[0]) < draw(st.sampled_from([0.0, 0.1]))] = np.nan
    block_bytes = draw(st.sampled_from([1, 8 * n - 1, 8 * n, 8 * n * 3 + 5, 8 * n * 17, 8 << 20]))
    slice_bytes = draw(st.sampled_from([1, 8 * n, 8 * n * 2 + 3, learners._SLICE_BYTES]))
    return KnnClassifier(X, gen.integers(0, m, n), m, k), queries, block_bytes, slice_bytes


class TestKnnMatchesBlockedForm:
    """Distances formed in place and voted by slices against the earlier
    form, whole-block temporaries and ``_nearest``, on data whose distance
    arithmetic rounds: the bits must match for every block and slice size."""

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(gaussian_knn_problems())
    def test_identical_probabilities(self, problem):
        model, queries, block_bytes, slice_bytes = problem
        with mock.patch.multiple(learners, _BLOCK_BYTES=block_bytes, _SLICE_BYTES=slice_bytes):
            got = model.predict_proba_many(queries)
        want = blocked_knn_predict_proba_many(model, queries, block_bytes)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("block_rows, slice_rows", [(7, 3), (100, 16), (None, 1), (None, None)])
    def test_identical_probabilities_at_size(self, block_rows, slice_rows):
        gen = np.random.default_rng(23)
        distinct = gen.normal(size=(600, 8))
        X = np.concatenate([distinct, distinct[:300]])
        model = KnnClassifier(X, gen.integers(0, 3, X.shape[0]), 3, 5)
        queries = np.concatenate([gen.normal(size=(400, 8)), X[::7]])
        n = X.shape[0]
        block_bytes = 8 * n * block_rows + 1 if block_rows else learners._BLOCK_BYTES
        slice_bytes = 8 * n * slice_rows if slice_rows else learners._SLICE_BYTES
        with mock.patch.multiple(learners, _BLOCK_BYTES=block_bytes, _SLICE_BYTES=slice_bytes):
            got = model.predict_proba_many(queries)
        want = blocked_knn_predict_proba_many(model, queries, block_bytes)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(gaussian_knn_problems())
    def test_only_rows_without_exactly_k_reach_nearest(self, problem):
        # a row's k nearest are found by _nearest only where its k-th smallest
        # distance is NaN or equals the next one; those rows' distances, which
        # _nearest sees, must be the earlier form's bit for bit (NaN for NaN)
        model, queries, block_bytes, slice_bytes = problem
        k, real, seen = model.k_neighbors, learners._nearest, [np.empty((0, model.X.shape[0]))]

        def nearest(d2, k):
            seen.append(d2.copy())
            return real(d2, k)
        with mock.patch.multiple(learners, _BLOCK_BYTES=block_bytes, _SLICE_BYTES=slice_bytes,
                                 _nearest=nearest):
            model.predict_proba_many(queries)
        want = [seen[0]]
        for _, d2 in blocked_distances(model, queries, block_bytes):
            ranked = np.sort(d2, axis=1)
            tied = ranked[:, k - 1] == ranked[:, k] if k < ranked.shape[1] else False
            want.append(d2[np.isnan(ranked[:, k - 1]) | tied])
        got, want = np.concatenate(seen), np.concatenate(want)
        assert got.shape == want.shape
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert got[~np.isnan(got)].tobytes() == want[~np.isnan(want)].tobytes()


class TestSerialization:
    # hyperparameters of every learner kind; a kind added to the table without them fails
    PARAMS = {"tree": TreeParams(max_depth=3, min_samples_leaf=2, criterion="entropy"),
              "knn": KnnParams(k_neighbors=3)}

    @pytest.mark.parametrize("kind", learners.LEARNERS)
    def test_every_kind_round_trips(self, kind):
        params_class, classifier_class = learners.LEARNERS[kind]
        params = self.PARAMS[kind]
        assert type(params) is params_class
        blob = json.loads(json.dumps(to_dict(params)))
        assert blob["kind"] == kind and from_dict(blob, member=False) == params
        cfg = DubeConfig(k=2, learner=params, seed=4)
        assert _config_from_dict(json.loads(json.dumps(_config_to_dict(cfg)))) == cfg
        gen = np.random.default_rng(8)
        model = fit_learner(dataset(gen.normal(size=(30, 2)), np.arange(30) % 3), params)
        clone = from_dict(json.loads(json.dumps(to_dict(model))), member=True)
        assert type(model) is type(clone) is classifier_class
        queries = gen.normal(size=(10, 2))
        assert np.array_equal(model.predict_proba_many(queries), clone.predict_proba_many(queries))

    @pytest.mark.parametrize("kind", learners.LEARNERS)
    def test_member_saves_each_constructor_argument_once(self, kind):
        # a field added to the constructor but not to SAVED, or the reverse, fails
        member_class = learners.LEARNERS[kind][1]
        assert len(set(member_class.SAVED)) == len(member_class.SAVED)
        assert set(member_class.SAVED) == set(inspect.signature(member_class).parameters)

    def test_tree_round_trip(self):
        gen = np.random.default_rng(6)
        X = gen.normal(size=(70, 3))
        y = gen.integers(0, 2, 70)
        model = tree_fit(dataset(X, y))
        clone = from_dict(to_dict(model), member=True)
        assert type(clone) is learners.LEARNERS["tree"][1]
        queries = gen.normal(size=(30, 3))
        assert np.array_equal(model.predict_proba_many(queries),
                              clone.predict_proba_many(queries))

    def test_knn_round_trip(self):
        gen = np.random.default_rng(7)
        X = gen.normal(size=(20, 2))
        y = gen.integers(0, 2, 20)
        model = knn_fit(dataset(X, y), 3)
        clone = from_dict(to_dict(model), member=True)
        assert type(clone) is learners.LEARNERS["knn"][1]
        queries = gen.normal(size=(10, 2))
        assert np.array_equal(model.predict_proba_many(queries),
                              clone.predict_proba_many(queries))


def test_fit_learner_dispatch():
    ds = dataset([[0.0], [1.0], [2.0]], [0, 1, 0])
    assert fit_learner(ds, TreeParams()).m == 2
    assert fit_learner(ds, KnnParams(k_neighbors=2)).k_neighbors == 2
    with pytest.raises(TypeError):
        fit_learner(ds, object())
