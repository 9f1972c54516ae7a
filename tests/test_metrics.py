import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dube.metrics import (binary_auroc, confusion_matrix, evaluate,
                          macro_auroc, macro_f1, mcc)


def pair_count_auroc(y_is_pos, scores):
    """Brute-force oracle: wins + half-ties over all positive-negative pairs."""
    pos = scores[y_is_pos]
    neg = scores[~y_is_pos]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (pos.size * neg.size)


class TestMacroF1:
    def test_perfect_predictions(self):
        assert macro_f1([0, 1, 2, 1], [0, 1, 2, 1]) == 1.0

    def test_hand_confusion_example(self):
        # class 1: P=1, R=1/2, F1=2/3; class 0: P=2/3, R=1, F1=4/5
        value = macro_f1([1, 1, 0, 0], [1, 0, 0, 0])
        assert value == pytest.approx(11 / 15, abs=1e-12)

    def test_never_predicted_class_scores_zero(self):
        value = macro_f1([0, 1, 0, 1], [0, 0, 0, 0])
        # class 1 term is 0; class 0: P=1/2, R=1 -> F1=2/3
        assert value == pytest.approx((2 / 3) / 2, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            macro_f1([0, 1], [0])

    def test_relabeling_invariance(self):
        gen = np.random.default_rng(0)
        for _ in range(30):
            m = int(gen.integers(2, 5))
            y = gen.integers(0, m, 60)
            p = gen.integers(0, m, 60)
            perm = gen.permutation(m)
            assert macro_f1(perm[y], perm[p], m) == pytest.approx(macro_f1(y, p, m), abs=1e-12)


class TestMcc:
    def test_perfect_predictions(self):
        assert mcc([0, 1, 0, 2], [0, 1, 0, 2]) == pytest.approx(1.0, abs=1e-12)

    def test_constant_predictor_is_zero(self):
        assert mcc([0, 1, 0, 1], [1, 1, 1, 1]) == 0.0

    def test_binary_closed_form_example(self):
        # TP=1, TN=2, FP=0, FN=1 -> 1/sqrt(3)
        assert mcc([1, 1, 0, 0], [1, 0, 0, 0]) == pytest.approx(1 / np.sqrt(3), abs=1e-12)

    def test_matches_binary_closed_form_randomly(self):
        gen = np.random.default_rng(1)
        for _ in range(100):
            y = gen.integers(0, 2, 30)
            p = gen.integers(0, 2, 30)
            cm = confusion_matrix(y, p, 2)
            tn, fp, fn, tp = cm[0, 0], cm[0, 1], cm[1, 0], cm[1, 1]
            den = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
            expected = 0.0 if den == 0 else (tp * tn - fp * fn) / np.sqrt(den)
            assert mcc(y, p, 2) == pytest.approx(expected, abs=1e-12)

    def test_relabeling_invariance(self):
        gen = np.random.default_rng(2)
        for _ in range(30):
            m = int(gen.integers(2, 5))
            y = gen.integers(0, m, 50)
            p = gen.integers(0, m, 50)
            perm = gen.permutation(m)
            assert mcc(perm[y], perm[p], m) == pytest.approx(mcc(y, p, m), abs=1e-12)


class TestMacroAuroc:
    def test_perfect_ordering(self):
        y = [0, 0, 1, 1]
        scores = np.array([[0.9, 0.1], [0.8, 0.2], [0.1, 0.9], [0.2, 0.8]])
        assert macro_auroc(y, scores) == 1.0

    def test_identical_scores_give_half(self):
        y = [0, 1, 0, 1]
        scores = np.full((4, 2), 0.5)
        assert macro_auroc(y, scores) == 0.5

    def test_hand_pair_counting_example(self):
        y = [1, 0, 1, 0]
        class1 = np.array([0.9, 0.8, 0.4, 0.3])
        scores = np.column_stack([1 - class1, class1])
        # pairs for class 1: (0.9>0.8), (0.9>0.3), (0.4<0.8), (0.4>0.3) -> 3/4
        assert binary_auroc(np.array(y) == 1, class1) == 0.75
        assert macro_auroc(y, scores) == 0.75

    def test_monotone_transform_invariance(self):
        gen = np.random.default_rng(3)
        y = gen.integers(0, 2, 40)
        y[:2] = [0, 1]
        raw = gen.normal(size=40)
        a = binary_auroc(y == 1, raw)
        b = binary_auroc(y == 1, np.exp(2.0 * raw) + 5.0)
        assert a == pytest.approx(b, abs=1e-12)

    def test_matches_pair_counting_on_random_instances(self):
        gen = np.random.default_rng(4)
        for _ in range(50):
            n = int(gen.integers(4, 50))
            y = gen.integers(0, 2, n)
            y[:2] = [0, 1]
            scores = np.round(gen.random(n), 2)  # force ties
            assert binary_auroc(y == 1, scores) == pair_count_auroc(y == 1, scores)

    def test_absent_class_rejected(self):
        scores = np.full((4, 3), 1 / 3)
        with pytest.raises(ValueError, match="absent"):
            macro_auroc([0, 1, 0, 1], scores)


class TestEvaluate:
    def test_bundles_confusion_and_per_class(self):
        y = np.array([0, 0, 1, 1])
        scores = np.array([[0.9, 0.1], [0.4, 0.6], [0.2, 0.8], [0.7, 0.3]])
        report = evaluate(y, scores.argmax(axis=1), scores)
        assert report.confusion.sum() == 4
        assert report.confusion.tolist() == [[1, 1], [1, 1]]
        assert len(report.per_class) == 2
        assert 0.0 <= report.macro_auroc <= 1.0


class TestEvaluatePermutation:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 4), st.integers(0, 30), st.booleans(), st.integers(0, 2**32 - 1))
    def test_row_order_does_not_matter(self, m, extra, coarse, seed):
        gen = np.random.default_rng(seed)
        y_true = np.concatenate([np.arange(m), gen.integers(0, m, extra)])
        scores = gen.dirichlet(np.ones(m), size=y_true.size)
        if coarse:  # tied scores exercise the midranks
            scores = np.round(scores, 1)
        y_pred = gen.integers(0, m, y_true.size)
        perm = gen.permutation(y_true.size)
        a = evaluate(y_true, y_pred, scores)
        b = evaluate(y_true[perm], y_pred[perm], scores[perm])
        assert (a.macro_f1, a.mcc, a.macro_auroc) == (b.macro_f1, b.mcc, b.macro_auroc)
