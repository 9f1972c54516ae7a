"""Class-balanced evaluation: macro F1, the multiclass Matthews
correlation coefficient, and macro one-vs-rest AUROC.

Degenerate-case conventions (documented, standard):

* a class whose precision and recall are both zero contributes F1 = 0;
* MCC is 0 when either marginal of the confusion matrix is constant
  (zero denominator);
* AUROC ties are handled with midranks, which matches counting each
  tied positive-negative pair as half a win.

Labels pass :func:`dube.rng.integers` and scores :func:`dube.rng.reals`,
so a label that is not a whole number in [0, m - 1], or a NaN or
infinite score, raises ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng


@dataclass(frozen=True)
class EvalReport:
    macro_f1: float
    mcc: float
    macro_auroc: float
    per_class: tuple          # (precision, recall, f1) per class
    confusion: np.ndarray     # (m, m) counts, rows = truth


def confusion_matrix(y_true, y_pred, m: int | None = None) -> np.ndarray:
    """(m, m) counts, rows = truth; m defaults to the largest label + 1.
    ValueError unless both label arrays have equal length and every label
    is a whole number in [0, m - 1] (:func:`rng.integers`)."""
    high = math.inf if m is None else m - 1
    y_true, y_pred = rng.integers(y_true, "labels", 0, high), rng.integers(y_pred, "labels", 0, high)
    if y_true.shape != y_pred.shape:
        raise ValueError("y_true and y_pred must have equal length")
    m = int(np.concatenate([y_true, y_pred]).max()) + 1 if m is None else m
    return np.bincount(y_true * m + y_pred, minlength=m * m).reshape(m, m)


def _precision_recall_f1(cm: np.ndarray):
    tp = np.diag(cm).astype(np.float64)
    pred_tot = cm.sum(axis=0).astype(np.float64)
    true_tot = cm.sum(axis=1).astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(pred_tot > 0, tp / pred_tot, 0.0)
        recall = np.where(true_tot > 0, tp / true_tot, 0.0)
        pr = precision + recall
        f1 = np.where(pr > 0, 2 * precision * recall / np.where(pr > 0, pr, 1.0), 0.0)
    return precision, recall, f1


def macro_f1(y_true, y_pred, m: int | None = None) -> float:
    """Unweighted mean over classes of 2PR/(P+R)."""
    cm = confusion_matrix(y_true, y_pred, m)
    return float(_precision_recall_f1(cm)[2].mean())


def mcc(y_true, y_pred, m: int | None = None) -> float:
    """Multiclass correlation coefficient from the full confusion matrix.

    Uses the covariance form
    ``(s*c - t.p) / sqrt((s^2 - p.p) * (s^2 - t.t))`` with s the sample
    count, c the correct count, and t/p the true/predicted marginals;
    for m = 2 this reduces to the familiar
    (TP*TN - FP*FN) / sqrt((TP+FP)(TP+FN)(TN+FP)(TN+FN)).
    """
    return _mcc(confusion_matrix(y_true, y_pred, m))


def _mcc(cm: np.ndarray) -> float:
    """:func:`mcc` of a confusion matrix."""
    cm = cm.astype(np.float64)
    s, c = cm.sum(), np.trace(cm)
    t, p = cm.sum(axis=1), cm.sum(axis=0)  # the truth and prediction marginals
    num = c * s - t @ p
    den_sq = (s * s - p @ p) * (s * s - t @ t)
    if den_sq <= 0:
        return 0.0
    return float(num / np.sqrt(den_sq))


def _midranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties averaged."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    avg = ends - (counts - 1) / 2.0
    return avg[inverse]


def binary_auroc(y_is_pos: np.ndarray, scores: np.ndarray) -> float:
    """Rank-statistic AUROC of one score column.

    Equals the fraction of positive-negative pairs ranked correctly,
    ties counting one half. ``y_is_pos`` is read as a bool mask, so an
    integer 0/1 mask gives the same value. The scores pass
    :func:`rng.reals`, so a NaN or infinite score raises ValueError.
    """
    y_is_pos = np.asarray(y_is_pos, dtype=bool)  # an int mask would fancy-index the ranks
    scores = rng.reals(scores, "scores")
    if y_is_pos.size != scores.size:
        raise ValueError(f"AUROC needs one score per label, got {y_is_pos.size} labels "
                         f"and {scores.size} scores")
    n_pos = int(y_is_pos.sum())
    n_neg = y_is_pos.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUROC needs both positive and negative examples")
    ranks = _midranks(scores)
    pos_rank_sum = ranks[y_is_pos].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def macro_auroc(y_true, scores) -> float:
    """Mean one-vs-rest AUROC over the score columns.

    Every label must be a whole number in [0, m - 1] for m score columns
    (:func:`rng.integers`), and every class must appear in ``y_true``; a
    class with no positives (or no negatives) has no defined ranking and
    is rejected rather than silently skipped.
    """
    scores = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    m = scores.shape[1]
    y_true = rng.integers(y_true, "labels", 0, m - 1)
    if scores.shape[0] != y_true.size:
        raise ValueError("scores must have one row per label")
    total = 0.0
    for c in range(m):
        is_pos = y_true == c
        if not is_pos.any():
            raise ValueError(f"class {c} absent from y_true; its AUROC is undefined")
        total += binary_auroc(is_pos, scores[:, c])
    return total / m


def evaluate(y_true, y_pred, scores) -> EvalReport:
    """Bundle all metrics for one (truth, prediction, score) triple."""
    m = np.atleast_2d(scores).shape[1]
    cm = confusion_matrix(y_true, y_pred, m)
    precision, recall, f1 = _precision_recall_f1(cm)
    return EvalReport(
        macro_f1=float(f1.mean()),
        mcc=_mcc(cm),
        macro_auroc=macro_auroc(y_true, scores),
        per_class=tuple(zip(precision.tolist(), recall.tolist(), f1.tolist())),
        confusion=cm,
    )
