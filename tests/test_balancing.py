import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balancing_reference import normalize_error, prediction_error, resample_step_with_fallbacks
from dube import rng
from dube.balancing import (InterCBStrategy, IntraCBStrategy, batch_errors, hem_weights,
                            resample_step, shem_weights, target_class_size,
                            weighted_resample)


class TestTargetClassSize:
    def test_toy_configuration(self):
        counts = [15, 3]
        assert target_class_size(counts, InterCBStrategy("RUS")) == 3
        assert target_class_size(counts, InterCBStrategy("ROS")) == 15
        assert target_class_size(counts, InterCBStrategy("RHS")) == 9

    def test_already_balanced(self):
        for tag in ("RUS", "ROS", "RHS"):
            assert target_class_size([50, 50], InterCBStrategy(tag)) == 50

    def test_fold_scale_counts(self):
        counts = [1971, 58]
        assert target_class_size(counts, InterCBStrategy("RUS")) == 58
        assert target_class_size(counts, InterCBStrategy("ROS")) == 1971
        assert target_class_size(counts, InterCBStrategy("RHS")) == 1014

    def test_permutation_invariance(self):
        gen = np.random.default_rng(0)
        for _ in range(25):
            counts = gen.integers(1, 500, size=gen.integers(2, 6))
            perm = gen.permutation(counts)
            for tag in ("RUS", "ROS", "RHS"):
                strat = InterCBStrategy(tag)
                assert target_class_size(counts, strat) == target_class_size(perm, strat)

    def test_bad_strategy_tag(self):
        with pytest.raises(ValueError):
            InterCBStrategy("SMOTE")


class TestPredictionError:
    def test_perfect_prediction(self):
        assert prediction_error([1.0, 0.0], 0) == 0.0

    def test_binary_substitution(self):
        assert prediction_error([0.8, 0.2], 0) == pytest.approx(0.4, abs=1e-12)

    def test_three_class_substitution(self):
        assert prediction_error([0.1, 0.7, 0.2], 1) == pytest.approx(0.6, abs=1e-12)

    def test_identity_with_true_class_probability(self):
        gen = np.random.default_rng(1)
        for _ in range(200):
            m = int(gen.integers(2, 6))
            p = gen.dirichlet(np.ones(m))
            y = int(gen.integers(0, m))
            assert prediction_error(p, y) == pytest.approx(2 * (1 - p[y]), abs=1e-9)

    def test_invalid_probability_vector(self):
        with pytest.raises(ValueError):
            prediction_error([0.7, 0.7], 0)
        with pytest.raises(ValueError):
            prediction_error([1.2, -0.2], 0)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            prediction_error([0.5, 0.5], 2)


class TestNormalizeError:
    @pytest.mark.parametrize("raw,expected", [(0.0, 0.0), (2.0, 1.0), (0.4, 0.2)])
    def test_values(self, raw, expected):
        assert normalize_error(raw) == expected

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            normalize_error(2.5)
        with pytest.raises(ValueError):
            normalize_error(-0.1)


class TestHemWeights:
    def test_proportional_to_error(self):
        w = hem_weights([0.2, 0.4])
        assert w.tolist() == [0.2, 0.4]
        probs = w / w.sum()
        assert np.allclose(probs, [1 / 3, 2 / 3])

    def test_all_zero_fallback_uniform(self):
        # HEM weights are the errors; the sampler draws all-zero weights uniformly
        weights = hem_weights([0.0, 0.0, 0.0])
        assert weights.tolist() == [0.0, 0.0, 0.0]
        rows = np.array([3, 5, 8])
        for n in (2, 7):
            assert np.array_equal(weighted_resample(rows, weights, n, seed=4),
                                  weighted_resample(rows, np.ones(3), n, seed=4))

    def test_singleton(self):
        assert hem_weights([0.7]).tolist() == [0.7]

    def test_strict_monotonicity(self):
        gen = np.random.default_rng(2)
        errors = gen.random(100)
        w = hem_weights(errors)
        for i, j in gen.integers(0, 100, size=(200, 2)):
            if errors[i] > errors[j]:
                assert w[i] > w[j]

    def test_negative_error_rejected(self):
        with pytest.raises(ValueError):
            hem_weights([0.1, -0.2])

    @pytest.mark.parametrize("bad, message", [(np.inf, "errors must be finite"),
                                              (-np.inf, "negative error")])
    def test_infinite_error_rejected(self, bad, message):
        # NaN is a case of tests/test_input_checks.py
        with pytest.raises(ValueError, match=f"^{message}$"):
            hem_weights([bad, 0.5])


class TestShemWeights:
    def test_inverse_density_example(self):
        w = shem_weights([0.05, 0.05, 0.45, 0.95], 5)
        assert w.tolist() == [2.0, 2.0, 4.0, 4.0]

    def test_single_bin_degrades_to_uniform(self):
        # all errors share one bin, so its density is 1 and weights are 1
        w = shem_weights([0.11, 0.12, 0.13], 10)
        assert w.tolist() == [1.0, 1.0, 1.0]

    def test_b1_uniform_regardless_of_errors(self):
        w = shem_weights([0.0, 0.3, 0.9, 1.0], 1)
        assert w.tolist() == [1.0, 1.0, 1.0, 1.0]

    def test_degenerate_single_value(self):
        assert shem_weights([0.31] * 7, 10).tolist() == [1.0] * 7

    def test_top_edge_closes_into_last_bin(self):
        # 1.0 shares the top bin [0.75, 1] with 0.9
        assert shem_weights([0.9, 1.0, 0.1], 4).tolist() == [1.5, 1.5, 3.0]

    def test_uniform_errors_law_of_large_numbers(self):
        gen = rng.stream(123, 99)
        errors = gen.random(1000)
        w = shem_weights(errors, 10)
        assert np.abs(1.0 / w - 0.1).max() <= 0.05
        # seeded draw checked against a direct per-bin count
        for i in range(10):
            lo, hi = i / 10, (i + 1) / 10
            in_bin = (errors >= lo) & ((errors < hi) if i < 9 else (errors <= hi))
            assert (w[in_bin] == 1.0 / (in_bin.sum() / 1000)).all()

    @pytest.mark.parametrize("errors, b", [([], 5), ([0.5, 1.5], 5), ([-0.1, 0.5], 5), ([0.5], 0)],
                             ids=["empty", "above_one", "negative", "no_bins"])
    def test_invalid_input_rejected(self, errors, b):
        with pytest.raises(ValueError):
            shem_weights(errors, b)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_error_lies_outside_the_range(self, bad):
        with pytest.raises(ValueError, match=r"^errors must lie in \[0, 1\]$"):
            shem_weights([bad, 0.5], 3)

    def test_same_bin_same_weight_and_reciprocal_identity(self):
        gen = np.random.default_rng(3)
        errors = gen.random(200)
        b = 7
        w = shem_weights(errors, b)
        hist = np.minimum((errors * b).astype(int), b - 1)
        for bin_id in np.unique(hist):
            in_bin = w[hist == bin_id]
            assert (in_bin == in_bin[0]).all()
            density = (hist == bin_id).sum() / errors.size
            assert in_bin[0] == 1.0 / density
            assert in_bin[0] * density == pytest.approx(1.0, abs=1e-12)


class TestWeightedResample:
    def test_noop_resample_returns_all_rows(self):
        rows = np.array([4, 7, 9])
        out = weighted_resample(rows, np.ones(3), 3, seed=0)
        assert sorted(out.tolist()) == [4, 7, 9]

    def test_singleton_oversample(self):
        out = weighted_resample(np.array([5]), np.array([2.0]), 4, seed=1)
        assert out.tolist() == [5, 5, 5, 5]

    def test_monte_carlo_matches_analytic_probability(self):
        rows = np.array([0, 1])
        weights = np.array([1.0, 3.0])
        hits = 0
        trials = 40_000
        for seed in range(trials):
            hits += weighted_resample(rows, weights, 1, seed=seed)[0]
        assert abs(hits / trials - 0.75) <= 0.01

    def test_subnormal_weights_keep_their_ratio(self):
        rows, weights = np.array([0, 1]), np.array([1e-310, 3e-310])
        with np.errstate(over="raise"):  # no sort key may overflow to inf
            hits = sum(weighted_resample(rows, weights, 1, seed=seed)[0] for seed in range(4000))
        assert 0.72 <= hits / 4000 <= 0.78

    def test_shrink_returns_distinct_rows(self):
        gen = np.random.default_rng(4)
        rows = np.arange(30)
        for seed in range(20):
            weights = gen.random(30) + 0.01
            out = weighted_resample(rows, weights, 12, seed=seed)
            assert out.size == 12
            assert np.unique(out).size == 12

    def test_grow_contains_every_original(self):
        rows = np.array([3, 6, 9])
        out = weighted_resample(rows, np.array([1.0, 1.0, 5.0]), 10, seed=7)
        assert out.size == 10
        assert set(rows.tolist()) <= set(out.tolist())

    def test_zero_weight_rows_drawn_last(self):
        rows = np.arange(6)
        weights = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
        out = weighted_resample(rows, weights, 3, seed=5)
        assert set(out.tolist()) == {0, 1, 2}

    def test_determinism(self):
        rows = np.arange(50)
        weights = np.linspace(0.1, 2.0, 50)
        a = weighted_resample(rows, weights, 20, seed=9)
        b = weighted_resample(rows, weights, 20, seed=9)
        assert np.array_equal(a, b)

    def test_all_zero_weights_draw_as_all_one(self):
        rows = np.array([1, 2])
        for n in (1, 2, 5):  # shrink, keep every row, grow
            assert np.array_equal(weighted_resample(rows, np.zeros(2), n, seed=0),
                                  weighted_resample(rows, np.ones(2), n, seed=0))

    @pytest.mark.parametrize("bad, message", [(np.nan, "weights must be finite"),
                                              (np.inf, "weights must be finite"),
                                              (-np.inf, "negative weight")])
    @pytest.mark.parametrize("n", [2, 5], ids=["shrink", "grow"])
    def test_non_finite_weight_rejected(self, bad, message, n):
        with pytest.raises(ValueError, match=f"^{message}$"):
            weighted_resample(np.arange(3), [bad, 1.0, 1.0], n, seed=0)


@st.composite
def resample_problems(draw):
    """Distinct row ids, weights with zeros, tiny and huge values, a target size."""
    size = draw(st.integers(1, 30))
    weight = st.sampled_from([0.0, 5e-324, 1e-310, 1e308]) | st.floats(0, allow_infinity=False)
    weights = np.array(draw(st.lists(weight, min_size=size, max_size=size)))
    if weights.max() == 0.0:
        weights[draw(st.integers(0, size - 1))] = draw(st.floats(1e-300, 1e300))
    rows = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(1000)[:size]
    return rows, weights, draw(st.integers(1, 3 * size)), draw(st.integers(0, 2**63 - 1))


class TestWeightedResampleProperties:
    @settings(max_examples=300, deadline=None)
    @given(resample_problems())
    def test_size_membership_and_zero_weights(self, problem):
        rows, weights, n, seed = problem
        out = weighted_resample(rows, weights, n, seed)
        assert out.size == n and np.isin(out, rows).all()
        copies = (out[:, None] == rows[None, :]).sum(axis=0)
        zero = weights == 0.0
        if n > rows.size:
            # every original once, and only positive-weight rows drawn again
            assert (copies >= 1).all() and (copies[zero] == 1).all()
        else:
            assert (copies <= 1).all()
            assert copies[zero].sum() == max(0, n - int((~zero).sum()))


class TestAllZeroWeights:
    @settings(max_examples=300, deadline=None)
    @given(size=st.integers(1, 40), data=st.data(), seed=st.integers(0, 2**63 - 1))
    def test_draw_as_all_one_weights(self, size, data, seed):
        # targets from 1 to three times the class: the shrink and the grow path
        n = data.draw(st.integers(1, 3 * size))
        rows = np.random.default_rng(seed).permutation(1000)[:size]
        assert np.array_equal(weighted_resample(rows, np.zeros(size), n, seed),
                              weighted_resample(rows, np.ones(size), n, seed))


@st.composite
def step_problems(draw):
    """Labels, class index and probability rows in which some classes are
    predicted perfectly, so that their HEM errors all vanish."""
    m = draw(st.integers(2, 4))
    sizes = draw(st.lists(st.integers(1, 12), min_size=m, max_size=m))
    perfect = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = gen.permutation(np.repeat(np.arange(m), sizes))
    probs = gen.dirichlet(np.ones(m), size=labels.size)
    for c in np.flatnonzero(perfect):
        probs[labels == c] = np.eye(m)[c]
    class_index = tuple(np.flatnonzero(labels == c) for c in range(m))
    return labels, class_index, probs, draw(st.integers(1, 6)), draw(st.integers(0, 2**63 - 1))


class TestResampleStepMatchesReference:
    @pytest.mark.parametrize("inter", ["RUS", "ROS", "RHS"])
    @pytest.mark.parametrize("intra", ["Uniform", "HEM", "SHEM"])
    @settings(max_examples=60, deadline=None)
    @given(problem=step_problems())
    def test_draws_equal_the_fallback_reference(self, inter, intra, problem):
        labels, class_index, probs, bins, seed = problem
        strategies = InterCBStrategy(inter), IntraCBStrategy(intra, bins)
        n, per_class, _ = resample_step(labels, class_index, probs, *strategies, seed)
        ref_n, ref_per_class = resample_step_with_fallbacks(labels, class_index, probs,
                                                           *strategies, seed)
        assert n == ref_n
        assert all(np.array_equal(a, b) for a, b in zip(per_class, ref_per_class, strict=True))


class TestBatchErrorsMatchReference:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 5), st.integers(1, 30), st.sampled_from([0.05, 0.5, 1.0, 5.0]),
           st.floats(-1e-12, 1e-12), st.integers(0, 2**32 - 1))
    def test_equal_to_scalar_definition(self, m, n, concentration, excess, seed):
        gen = np.random.default_rng(seed)
        probs = gen.dirichlet(np.full(m, concentration), size=n) * (1.0 + excess)
        labels = gen.integers(0, m, n)
        batch = batch_errors(probs, labels)
        for i in range(n):
            # a row summing to 1 + 1e-12 with p[y] near 0 lies a residue
            # above 2; batch_errors clips that residue, so clip it here too
            raw = min(prediction_error(probs[i], int(labels[i])), 2.0)
            assert abs(batch[i] - normalize_error(raw)) <= 1e-12


class TestResampleStep:
    def test_rus_uniform_step_sizes(self):
        labels = np.repeat([0, 1], [12, 4])
        class_index = (np.arange(12), np.arange(12, 16))
        probs = np.full((16, 2), 0.5)
        n, per_class, _ = resample_step(
            labels, class_index, probs, InterCBStrategy("RUS"),
            IntraCBStrategy("Uniform"), seed=3)
        assert n == 4
        assert all(rows.size == 4 for rows in per_class)
        assert np.unique(per_class[0]).size == 4  # distinct under-sample

    def test_per_class_zero_weight_fallback(self):
        # class 0 predicted perfectly -> all its HEM weights are zero
        labels = np.repeat([0, 1], [6, 3])
        class_index = (np.arange(6), np.arange(6, 9))
        probs = np.zeros((9, 2))
        probs[:6, 0] = 1.0
        probs[6:, 0] = 1.0  # class 1 rows fully wrong -> weight 1
        n, per_class, _ = resample_step(
            labels, class_index, probs, InterCBStrategy("RUS"),
            IntraCBStrategy("HEM"), seed=1)
        assert per_class[0].size == n == 3

    def test_batch_errors_match_scalar_op(self):
        gen = np.random.default_rng(6)
        probs = gen.dirichlet(np.ones(3), size=40)
        labels = gen.integers(0, 3, 40)
        batch = batch_errors(probs, labels)
        for i in range(40):
            scalar = normalize_error(prediction_error(probs[i], int(labels[i])))
            assert batch[i] == pytest.approx(scalar, abs=1e-12)
