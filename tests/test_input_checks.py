"""One case per input check of the library that no other test reaches.

Each case calls the public function that holds the check and asserts
the exception's type and its whole message.
"""

import re

import numpy as np
import pytest

from dube import rng
from dube.balancing import (InterCBStrategy, IntraCBStrategy, hem_weights, shem_weights,
                            target_class_size, weighted_resample)
from dube.biaslab import ToyConfig
from dube.dataset import (Dataset, DatasetError, make_gaussian_1d, make_overlap_2d,
                          stratified_k_fold)
from dube.learners import KnnParams, knn_fit, learner_from_dict
from dube.metrics import binary_auroc, macro_auroc

TABLE = Dataset(np.arange(8.0)[:, None], [0, 1] * 4)

CASES = {
    "IntraCBStrategy-tag": (lambda: IntraCBStrategy("hem"),
                            ValueError, "unknown intra-class strategy 'hem'"),
    "IntraCBStrategy-bins": (lambda: IntraCBStrategy("SHEM", bins=0),
                             ValueError, "bins must be >= 1"),
    "target_class_size-one-class": (lambda: target_class_size([5], InterCBStrategy("RUS")),
                                    ValueError, "need at least two classes"),
    "target_class_size-empty-class": (lambda: target_class_size([5, 0], InterCBStrategy("ROS")),
                                      ValueError, "class counts must be positive"),
    "hem_weights-empty": (lambda: hem_weights([]), ValueError, "empty error list"),
    "hem_weights-nan": (lambda: hem_weights([np.nan, 0.5]), ValueError, "errors must be finite"),
    "shem_weights-nan": (lambda: shem_weights([np.nan, 0.5], 3),
                         ValueError, "errors must be finite"),
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
    "ToyConfig-class-size": (lambda: ToyConfig(n_maj=0), ValueError, "class sizes must be >= 1"),
    "ToyConfig-trials": (lambda: ToyConfig(trials=0), ValueError, "trials must be >= 1"),
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
                            DatasetError, "k must be >= 2, got 1"),
    "make_gaussian_1d-class-size": (lambda: make_gaussian_1d(0, 5, 0.0, 4.0, 1.0, seed=0),
                                    DatasetError, "class sizes must be >= 1"),
    "make_overlap_2d-class-size": (lambda: make_overlap_2d(5, 0, "mid", seed=0),
                                   DatasetError, "class sizes must be >= 1"),
    "KnnParams-k": (lambda: KnnParams(0), ValueError, "k_neighbors must be >= 1"),
    "knn_fit-k": (lambda: knn_fit(TABLE, 0), DatasetError, "k_neighbors must be >= 1"),
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
                    ValueError, "seed must be an integer >= 0, got -1"),
    "child_seed-seed": (lambda: rng.child_seed(-5, rng.CELL, 0),
                        ValueError, "seed must be an integer >= 0, got -5"),
}


@pytest.mark.parametrize("call, error, message", CASES.values(), ids=CASES.keys())
def test_check_raises_its_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
