"""One case per input check of the library that no other test reaches.

Each case calls the public function that holds the check and asserts
the exception's type and its whole message.
"""

import re

import numpy as np
import pytest

from dube import DubeConfig, EnsembleModel, rng
from dube.balancing import (InterCBStrategy, IntraCBStrategy, hem_weights, shem_weights,
                            target_class_size, weighted_resample)
from dube.biaslab import ToyConfig, check_pbda_bound
from dube.dataset import (Dataset, DatasetError, make_gaussian_1d, make_overlap_2d,
                          stratified_k_fold)
from dube.learners import (KnnClassifier, KnnParams, TreeClassifier, TreeParams, knn_fit,
                           learner_from_dict)
from dube.metrics import binary_auroc, macro_auroc

TABLE = Dataset(np.arange(8.0)[:, None], [0, 1] * 4)


def leaf(m, d):
    """A one-node tree of m classes on d features."""
    return TreeClassifier([-1], [0.0], [-1], [-1], [[1.0] + [0.0] * (m - 1)], m, d)

CASES = {
    "IntraCBStrategy-tag": (lambda: IntraCBStrategy("hem"),
                            ValueError, "unknown intra-class strategy 'hem'"),
    # a tag is compared, not hashed, so a list is an unknown tag
    "InterCBStrategy-tag-list": (lambda: InterCBStrategy(["RUS"]),
                                 ValueError, "unknown inter-class strategy ['RUS']"),
    "IntraCBStrategy-tag-list": (lambda: IntraCBStrategy(["HEM"]),
                                 ValueError, "unknown intra-class strategy ['HEM']"),
    "IntraCBStrategy-bins": (lambda: IntraCBStrategy("SHEM", bins=0), ValueError,
                             "bins must be an integer in [1, 9007199254740992], got 0"),
    "IntraCBStrategy-bins-above-2**53": (lambda: IntraCBStrategy("SHEM", bins=2**53 + 1), ValueError,
                                         "bins must be an integer in [1, 9007199254740992], "
                                         "got 9007199254740993"),
    "target_class_size-one-class": (lambda: target_class_size([5], InterCBStrategy("RUS")),
                                    ValueError, "need at least two classes"),
    "target_class_size-empty-class": (lambda: target_class_size([5, 0], InterCBStrategy("ROS")),
                                      ValueError, "class counts must be positive"),
    "hem_weights-empty": (lambda: hem_weights([]), ValueError, "empty error list"),
    "hem_weights-nan": (lambda: hem_weights([np.nan, 0.5]), ValueError, "errors must be finite"),
    "shem_weights-nan": (lambda: shem_weights([np.nan, 0.5], 3),
                         ValueError, "errors must be finite"),
    # near 2**63 a bin id would overflow int64 (an OverflowError or a cast warning)
    "shem_weights-bins-2**63+1": (lambda: shem_weights([0.5, 0.9], 2**63 + 1), ValueError,
                                  "bins must be an integer in [1, 9007199254740992], "
                                  "got 9223372036854775809"),
    "shem_weights-bins-2**63-1": (lambda: shem_weights([0.5, 1.0], 2**63 - 1), ValueError,
                                  "bins must be an integer in [1, 9007199254740992], "
                                  "got 9223372036854775807"),
    "weighted_resample-lengths": (lambda: weighted_resample([0, 1, 2], [1.0, 1.0], 2, seed=0),
                                  ValueError, "weights must match class_rows in length"),
    "weighted_resample-target": (lambda: weighted_resample([0, 1], [1.0, 1.0], 0, seed=0),
                                 ValueError, "target size must be >= 1"),
    "weighted_resample-negative": (lambda: weighted_resample([0, 1], [1.0, -1.0], 1, seed=0),
                                   ValueError, "negative weight"),
    "weighted_resample-nan": (lambda: weighted_resample([0, 1, 2], [np.nan, 1.0, 1.0], 2, seed=0),
                              ValueError, "weights must be finite"),
    "weighted_resample-empty": (lambda: weighted_resample([], [], 1, seed=0),
                                ValueError, "class_rows must be nonempty"),
    "ToyConfig-class-size": (lambda: ToyConfig(n_maj=0),
                             ValueError, "n_maj must be an integer in [1, inf], got 0"),
    "ToyConfig-trials": (lambda: ToyConfig(trials=0),
                         ValueError, "trials must be an integer in [1, inf], got 0"),
    "Dataset-1d-features": (lambda: Dataset(np.zeros(3), [0, 1, 0]),
                            DatasetError, "features must be 2-D, got shape (3,)"),
    "Dataset-label-count": (lambda: Dataset(np.zeros((3, 1)), [0, 1]),
                            DatasetError, "labels length must match feature rows"),
    "Dataset-no-rows": (lambda: Dataset(np.zeros((0, 1)), []), DatasetError, "empty dataset"),
    "Dataset-negative-label": (lambda: Dataset(np.zeros((2, 1)), [0, -1]),
                               DatasetError, "negative class id"),
    "Dataset-label-past-m": (lambda: Dataset(np.zeros((2, 1)), [0, 2], m=2),
                             DatasetError, "label 2 out of range for m=2"),
    "FoldPlan-split-fold": (lambda: stratified_k_fold(TABLE, 2, seed=0).split(TABLE, 2),
                            DatasetError, "fold 2 out of range"),
    "stratified_k_fold-k": (lambda: stratified_k_fold(TABLE, 1, seed=0),
                            ValueError, "k must be an integer in [2, inf], got 1"),
    "make_gaussian_1d-class-size": (lambda: make_gaussian_1d(0, 5, 0.0, 4.0, 1.0, seed=0),
                                    ValueError, "n_min must be an integer in [1, inf], got 0"),
    "make_overlap_2d-class-size": (lambda: make_overlap_2d(5, 0, "mid", seed=0),
                                   ValueError, "n_maj must be an integer in [1, inf], got 0"),
    "KnnParams-k": (lambda: KnnParams(0), ValueError, "k_neighbors must be an integer in [1, inf], got 0"),
    "knn_fit-k": (lambda: knn_fit(TABLE, 0), ValueError, "k_neighbors must be an integer in [1, inf], got 0"),
    # node 1's left child is node 0, its parent: routing would never end
    "TreeClassifier-cycle": (lambda: TreeClassifier([0, 0, -1], [0.5, 0.5, 0.0], [1, 0, -1], [2, 2, -1],
                                                    [[0, 0], [0, 0], [1, 0]], 2, 1), ValueError,
                             "tree child index must lie above its parent and below the node count"),
    "KnnClassifier-k-above-rows": (lambda: KnnClassifier(np.zeros((3, 2)), [0, 1, 0], 2, 5),
                                   DatasetError, "k_neighbors=5 exceeds 3 training rows"),
    # a memberless model used to predict NaN rows with a divide warning
    "EnsembleModel-no-members": (lambda: EnsembleModel([], 2, 2, DubeConfig()),
                                 ValueError, "a model needs at least one member"),
    "EnsembleModel-member-size": (lambda: EnsembleModel([leaf(2, 1)], 2, 3, DubeConfig()), ValueError,
                                  "member 0 has m=2, d=1; the model has m=2, d=3"),
    "learner_from_dict-kind": (lambda: learner_from_dict({"kind": "svm"}),
                               ValueError, "unknown learner kind 'svm'"),
    # an unhashable kind is unknown too, so load_model words it the same way
    "learner_from_dict-kind-list": (lambda: learner_from_dict({"kind": ["x"]}),
                                    ValueError, "unknown learner kind ['x']"),
    "learner_from_dict-kind-none": (lambda: learner_from_dict({"kind": None}),
                                    ValueError, "unknown learner kind None"),
    "binary_auroc-one-class": (lambda: binary_auroc(np.array([True, True]), [0.1, 0.2]),
                               ValueError, "AUROC needs both positive and negative examples"),
    "macro_auroc-rows": (lambda: macro_auroc([0, 1], [[0.5, 0.5]]),
                         ValueError, "scores must have one row per label"),
    "stream-seed": (lambda: rng.stream(-1, rng.TRIAL),
                    ValueError, "seed must be an integer in [0, inf], got -1"),
    "child_seed-seed": (lambda: rng.child_seed(-5, rng.CELL, 0),
                        ValueError, "seed must be an integer in [0, inf], got -5"),
}


@pytest.mark.parametrize("call, error, message", CASES.values(), ids=CASES.keys())
def test_check_raises_its_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


# Every whole-number setting of the library, as (call keeping what it made of
# the value, name, low, high): each passes rng.integer where its object is built.
INTEGERS = {
    "DubeConfig-k": (lambda v: DubeConfig(k=v).k, "k", 1, None),
    "DubeConfig-seed": (lambda v: DubeConfig(seed=v).seed, "seed", 0, None),
    "IntraCBStrategy-bins": (lambda v: IntraCBStrategy("SHEM", v).bins, "bins", 1, 2**53),
    "TreeParams-max_depth": (lambda v: TreeParams(max_depth=v).max_depth, "max_depth", 1, None),
    "TreeParams-min_samples_leaf": (lambda v: TreeParams(min_samples_leaf=v).min_samples_leaf,
                                    "min_samples_leaf", 1, None),
    "KnnParams-k_neighbors": (lambda v: KnnParams(v).k_neighbors, "k_neighbors", 1, None),
    "ToyConfig-n_min": (lambda v: ToyConfig(n_min=v).n_min, "n_min", 1, None),
    "ToyConfig-n_maj": (lambda v: ToyConfig(n_maj=v).n_maj, "n_maj", 1, None),
    "ToyConfig-trials": (lambda v: ToyConfig(trials=v).trials, "trials", 1, None),
    "ToyConfig-seed": (lambda v: ToyConfig(seed=v).seed, "seed", 0, None),
    "TreeClassifier-m": (lambda v: TreeClassifier([-1], [0.0], [-1], [-1], [[1.0, 0.0, 0.0]], v, 1).m,
                         "m", 1, None),
    "TreeClassifier-d": (lambda v: leaf(2, v).d, "d", 1, None),
    "KnnClassifier-m": (lambda v: KnnClassifier(np.zeros((4, 1)), [0, 1, 0, 1], v, 1).m, "m", 1, None),
    "KnnClassifier-k_neighbors": (lambda v: KnnClassifier(np.zeros((4, 1)), [0, 1, 0, 1], 2, v).k_neighbors,
                                  "k_neighbors", 1, None),
    "knn_fit-k_neighbors": (lambda v: knn_fit(TABLE, v).k_neighbors, "k_neighbors", 1, None),
    "EnsembleModel-m": (lambda v: EnsembleModel([leaf(3, 2)], v, 2, DubeConfig()).m, "m", 1, None),
    "EnsembleModel-d": (lambda v: EnsembleModel([leaf(2, 3)], 2, v, DubeConfig()).d, "d", 1, None),
    "stream-seed": (lambda v: rng.stream(v, rng.TRIAL).bit_generator.seed_seq.entropy, "seed", 0, None),
    "child_seed-seed": (lambda v: rng.child_seed(v, rng.CELL, 0), "seed", 0, None),
    "Dataset-m": (lambda v: Dataset(TABLE.features, TABLE.labels, m=v).m, "m", 0, None),
    "stratified_k_fold-k": (lambda v: stratified_k_fold(TABLE, v, seed=0).k_folds, "k", 2, None),
    "make_gaussian_1d-n_min": (lambda v: make_gaussian_1d(v, 5, 0.0, 4.0, 1.0, 0).class_index[1].size,
                               "n_min", 1, None),
    "make_gaussian_1d-n_maj": (lambda v: make_gaussian_1d(5, v, 0.0, 4.0, 1.0, 0).class_index[0].size,
                               "n_maj", 1, None),
    "make_overlap_2d-n_min": (lambda v: make_overlap_2d(v, 5, "mid", 0).class_index[1].size, "n_min", 1, None),
    "make_overlap_2d-n_maj": (lambda v: make_overlap_2d(5, v, "mid", 0).class_index[0].size, "n_maj", 1, None),
    "check_pbda_bound-n_rep": (lambda v: check_pbda_bound(v, 0.5, 10).n_rep, "n_rep", 1, None),
    "check_pbda_bound-trials": (lambda v: check_pbda_bound(2, 0.5, v).trials, "trials", 1, None),
}
NOT_WHOLE = [2.5, True, "3", None, float("nan"), float("inf")]


@pytest.mark.parametrize("call, name, low, high", INTEGERS.values(), ids=INTEGERS.keys())
def test_integer_setting_rejects_what_is_not_a_whole_number_in_range(call, name, low, high):
    for value in NOT_WHOLE + [low - 1] + ([high + 1] if high is not None else []):
        if value is None and name == "max_depth":  # None is an unbounded depth
            continue
        message = f"{name} must be an integer in [{low}, {'inf' if high is None else high}], got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
            call(value)
        assert type(info.value) is ValueError


@pytest.mark.parametrize("call, name, low, high", INTEGERS.values(), ids=INTEGERS.keys())
def test_integer_setting_keeps_an_int(call, name, low, high):
    for value in (3.0, np.int64(3)):
        got = call(value)
        assert type(got) is int and got == call(3)
