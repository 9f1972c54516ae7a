"""One case per input check of the library that no other test reaches.

Each case calls the public function that holds the check and asserts
the exception's type and its whole message.
"""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dube import DubeConfig, EnsembleModel, rng
from dube.balancing import (TARGETS, WEIGHTS, InterCBStrategy, IntraCBStrategy, hem_weights,
                            shem_weights, target_class_size, weighted_resample)
from dube.biaslab import BIAS_STRATEGIES, ToyConfig, check_pbda_bound, validate_row
from dube.cli import _DEFAULTS, run_noise_sweep
from dube.dataset import (OVERLAP_SEPARATION, Dataset, DatasetError, inject_flip_noise,
                          make_gaussian_1d, make_overlap_2d, stratified_k_fold)
from dube.learners import (CRITERIA, LEARNERS, KnnClassifier, KnnParams, TreeClassifier,
                           TreeParams, from_dict, knn_fit, to_dict)
from dube.metrics import binary_auroc, confusion_matrix, macro_auroc
from dube.pbda import class_covariance, perturb

TABLE = Dataset(np.arange(8.0)[:, None], [0, 1] * 4)


def leaf(m, d):
    """A one-node tree of m classes on d features."""
    return TreeClassifier([-1], [0.0], [-1], [-1], [[1.0] + [0.0] * (m - 1)], m, d)

CASES = {
    "IntraCBStrategy-tag": (lambda: IntraCBStrategy("hem"),
                            ValueError, "unknown intra-class strategy 'hem'"),
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
    "hem_weights-empty": (lambda: hem_weights([]), ValueError, "errors must be nonempty"),
    "hem_weights-nan": (lambda: hem_weights([np.nan, 0.5]),
                        ValueError, "errors must be finite and >= 0, got nan"),
    "shem_weights-nan": (lambda: shem_weights([np.nan, 0.5], 3),
                         ValueError, "errors must be in [0, 1], got nan"),
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
                                 ValueError, "n must be an integer in [1, inf], got 0"),
    "weighted_resample-negative": (lambda: weighted_resample([0, 1], [1.0, -1.0], 1, seed=0),
                                   ValueError, "weights must be finite and >= 0, got -1.0"),
    "weighted_resample-nan": (lambda: weighted_resample([0, 1, 2], [np.nan, 1.0, 1.0], 2, seed=0),
                              ValueError, "weights must be finite and >= 0, got nan"),
    "weighted_resample-empty": (lambda: weighted_resample([], [], 1, seed=0),
                                ValueError, "weights must be nonempty"),
    "perturb-alpha-negative": (lambda: perturb(np.zeros((2, 1)), -0.5, class_covariance(TABLE, 0), 0),
                               ValueError, "alpha must be finite and >= 0, got -0.5"),
    # a NaN scale used to pass and fail later as "gives non-finite features"
    "perturb-alpha-nan": (lambda: perturb(np.zeros((2, 1)), [0.5, np.nan], class_covariance(TABLE, 0), 0),
                          ValueError, "alpha must be finite and >= 0, got nan"),
    # -1 used to give the last class's covariance labelled class -1
    "class_covariance-class-negative": (lambda: class_covariance(TABLE, -1),
                                        ValueError, "class must be an integer in [0, 1], got -1"),
    # a bool is not a number of a real-valued setting, as DubeConfig's alpha is not
    "validate_row-alpha_sigma-bool": (lambda: validate_row(ToyConfig(), "RUS", True),
                                      ValueError, "alpha_sigma must be finite and >= 0, got True"),
    "check_pbda_bound-sigma_p-nan": (lambda: check_pbda_bound(2, float("nan"), 10),
                                     ValueError, "sigma_p must be finite and > 0, got nan"),
    "check_pbda_bound-sigma_p-inf": (lambda: check_pbda_bound(2, float("inf"), 10),
                                     ValueError, "sigma_p must be finite and > 0, got inf"),
    "check_pbda_bound-sigma_p-bool": (lambda: check_pbda_bound(2, True, 10),
                                      ValueError, "sigma_p must be finite and > 0, got True"),
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
    "inject_flip_noise-ratio-bool": (lambda: inject_flip_noise(TABLE, True, 0),
                                     ValueError, "noise ratio must be in [0, 1], got True"),
    "FoldPlan-split-fold": (lambda: stratified_k_fold(TABLE, 2, seed=0).split(TABLE, 2),
                            ValueError, "fold must be an integer in [0, 1], got 2"),
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
    "KnnClassifier-fractional-label": (lambda: KnnClassifier(np.zeros((3, 2)), [0, 1.5, 0], 2, 1),
                                       DatasetError, "labels must be whole numbers"),
    # a memberless model used to predict NaN rows with a divide warning
    "EnsembleModel-no-members": (lambda: EnsembleModel([], 2, 2, DubeConfig()),
                                 ValueError, "a model needs at least one member"),
    "EnsembleModel-member-size": (lambda: EnsembleModel([leaf(2, 1)], 2, 3, DubeConfig()), ValueError,
                                  "member 0 has m=2, d=1; the model has m=2, d=3"),
    "from_dict-member-kind": (lambda: from_dict({"kind": "svm"}, member=True),
                              ValueError, "unknown learner kind 'svm'"),
    # an unhashable kind is unknown too, so load_model words it the same way
    "from_dict-member-kind-list": (lambda: from_dict({"kind": ["x"]}, member=True),
                                   ValueError, "unknown learner kind ['x']"),
    "from_dict-member-kind-none": (lambda: from_dict({"kind": None}, member=True),
                                   ValueError, "unknown learner kind None"),
    # a negative label used to wrap into the last row, one past m raised IndexError
    "confusion_matrix-negative-label": (lambda: confusion_matrix([0, -1], [0, 1]),
                                        ValueError, "labels must lie in [0, 2), got -1 to 1"),
    "confusion_matrix-label-past-m": (lambda: confusion_matrix([0, 2], [0, 1], m=2),
                                      ValueError, "labels must lie in [0, 2), got 0 to 2"),
    # a fractional label used to be cut to a class: 1.5 counted as class 1
    "confusion_matrix-fractional-label": (lambda: confusion_matrix([0, 1.5, 1], [0, 1, 1]),
                                          DatasetError, "labels must be whole numbers"),
    "macro_auroc-fractional-label": (lambda: macro_auroc([0, 1.9, 1], [[.9, .1], [.2, .8], [.3, .7]]),
                                     DatasetError, "labels must be whole numbers"),
    "real-above-high": (lambda: rng.real(0, "x", 0, 1, above=True), ValueError, "x must be in (0, 1], got 0"),
    "binary_auroc-one-class": (lambda: binary_auroc(np.array([True, True]), [0.1, 0.2]),
                               ValueError, "AUROC needs both positive and negative examples"),
    # the mask is read as bools, so every nonzero entry is a positive; this one
    # used to fancy-index the ranks and raise IndexError
    "binary_auroc-one-class-int-mask": (lambda: binary_auroc(np.array([1, 2]), [0.1, 0.2]),
                                        ValueError, "AUROC needs both positive and negative examples"),
    # a mask of another length than the scores used to raise numpy's IndexError
    "binary_auroc-length": (lambda: binary_auroc(np.array([True, False, False]), [0.9, 0.1]),
                            ValueError, "AUROC needs one score per label, got 3 labels and 2 scores"),
    "macro_auroc-rows": (lambda: macro_auroc([0, 1], [[0.5, 0.5]]),
                         ValueError, "scores must have one row per label"),
    # NaN scores used to be ranked: these gave 0.0 and 1.0
    "binary_auroc-nan-score": (lambda: binary_auroc(np.array([True, False, False]), [np.inf, np.nan, np.nan]),
                               ValueError, "scores must be finite, got inf"),
    "macro_auroc-nan-score": (lambda: macro_auroc([0, 1, 1], [[.9, .1], [.2, np.nan], [.3, .7]]),
                              ValueError, "scores must be finite, got nan"),
    # a label with no score column used to count as a negative of every class
    "macro_auroc-label-past-m": (lambda: macro_auroc([0, 1, 2, 2], np.eye(4)[:, :2]),
                                 ValueError, "labels must lie in [0, 2), got 0 to 2"),
    "macro_auroc-negative-label": (lambda: macro_auroc([0, 1, -1], np.eye(3)[:, :2]),
                                   ValueError, "labels must lie in [0, 2), got -1 to 1"),
    "stream-seed": (lambda: rng.stream(-1, rng.TRIAL),
                    ValueError, "seed must be an integer in [0, inf], got -1"),
    "child_seed-seed": (lambda: rng.child_seed(-5, rng.CELL, 0),
                        ValueError, "seed must be an integer in [0, inf], got -5"),
}


@pytest.mark.parametrize("call, error, message", CASES.values(), ids=CASES.keys())
def test_check_raises_its_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_binary_auroc_reads_an_int_mask_as_bools():
    # an int mask used to fancy-index the ranks: this one gave 3.0
    scores = np.array([0.9, 0.1, 0.2])
    as_bools = binary_auroc(np.array([True, False, False]), scores)
    assert binary_auroc(np.array([1, 0, 0]), scores) == as_bools == 1.0


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.floats() | st.sampled_from([-1.0, 0.0, 1.0]), max_size=6),
       low=st.none() | FINITE, high=st.none() | FINITE)
def test_reals_accepts_exactly_the_nonempty_finite_arrays_in_range(values, low, high):
    low, high = -np.inf if low is None else low, np.inf if high is None else high
    outside = [v for v in values if not (np.isfinite(v) and low <= v <= high)]
    if values and not outside:
        got = rng.reals(values, "x", low, high)
        assert got.dtype == np.float64 and got.tolist() == values
        return
    bound = (f"in [{low:g}, {high:g}]" if high < np.inf else
             f"finite and >= {low:g}" if low > -np.inf else "finite")
    message = f"x must be {bound}, got {outside[0]!r}" if values else "x must be nonempty"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        rng.reals(values, "x", low, high)
    assert type(info.value) is ValueError


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
    "weighted_resample-n": (lambda v: weighted_resample([0, 1], [1.0, 1.0], v, seed=0).size, "n", 1, None),
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


MEMBERS = {"tree": to_dict(leaf(2, 1)), "knn": to_dict(knn_fit(TABLE, 1))}
# Every named choice of the library, as (call, name, table): each passes
# rng.one_of where its object is built.
CHOICES = {
    "InterCBStrategy-tag": (lambda v: InterCBStrategy(v), "inter-class strategy", TARGETS),
    "IntraCBStrategy-tag": (lambda v: IntraCBStrategy(v), "intra-class strategy", WEIGHTS),
    "TreeParams-criterion": (lambda v: TreeParams(criterion=v), "criterion", CRITERIA),
    "from_dict-params-kind": (lambda v: from_dict({"kind": v, "k_neighbors": 3} if v == "knn"
                                                  else {"kind": v}, member=False), "learner kind", LEARNERS),
    # a known kind reads its own member; an unknown one reads the tree's with its kind replaced
    "from_dict-member-kind": (lambda v: from_dict({**MEMBERS["knn" if v == "knn" else "tree"], "kind": v},
                                                  member=True), "learner kind", LEARNERS),
    "make_overlap_2d-level": (lambda v: make_overlap_2d(5, 5, v, 0), "overlap level", OVERLAP_SEPARATION),
    "validate_row-strategy": (lambda v: validate_row(ToyConfig(), v, 0.0), "strategy", BIAS_STRATEGIES),
}


@pytest.mark.parametrize("call, name, table", CHOICES.values(), ids=CHOICES.keys())
def test_choice_rejects_what_is_not_a_key_of_its_table(call, name, table):
    # a one-item list is compared, never hashed: an unknown choice, not a TypeError
    for value in ["unknown", *([key] for key in table)]:
        with pytest.raises(ValueError, match=f"^{re.escape(f'unknown {name} {value!r}')}$") as info:
            call(value)
        assert type(info.value) is ValueError


@pytest.mark.parametrize("call, name, table", CHOICES.values(), ids=CHOICES.keys())
def test_choice_accepts_each_key_of_its_table(call, name, table):
    for key in table:
        call(key)


# Every real-valued setting of the library, as (call keeping what it made of
# the value, or None where it keeps nothing of it, name, low, high, above):
# each passes rng.real where its object is built or its function starts.
SYNTH = str(Path(__file__).parent / "golden" / "synth.csv")
REALS = {
    "DubeConfig-alpha": (lambda v: DubeConfig(alpha=v).alpha, "alpha", 0, None, False),
    "validate_row-alpha_sigma": (lambda v: validate_row(ToyConfig(), "RUS", v), "alpha_sigma", 0, None, False),
    "check_pbda_bound-sigma_p": (lambda v: check_pbda_bound(2, v, 10).sigma_p, "sigma_p", 0, None, True),
    "inject_flip_noise-ratio": (lambda v: inject_flip_noise(TABLE, v, 0) and None, "noise ratio", 0, 1, False),
    "ToyConfig-mu_min": (lambda v: ToyConfig(mu_min=v).mu_min, "mu_min", None, None, False),
    "ToyConfig-mu_maj": (lambda v: ToyConfig(mu_maj=v).mu_maj, "mu_maj", None, None, False),
    "ToyConfig-sigma": (lambda v: ToyConfig(sigma=v).sigma, "sigma", 0, None, True),
    "run_noise_sweep-ratio": (lambda v: run_noise_sweep({**_DEFAULTS["noise-sweep"], "input": SYNTH, "k": 1,
                                                         "folds": 2, "noise_grid": [v]}).rows[0][0],
                              "--noise-grid ratios", 0, 1, False),
}
NOT_REAL = [True, "0.5", None, float("nan"), float("inf"), -float("inf"), 10**400]


@pytest.mark.parametrize("call, name, low, high, above", REALS.values(), ids=REALS.keys())
def test_real_setting_rejects_what_is_not_a_finite_number_in_range(call, name, low, high, above):
    if high is not None:
        bound = f"in [{low}, {high}]"
    else:
        bound = "finite" + ("" if low is None else f" and {'>' if above else '>='} {low}")
    outside = ([] if low is None else [low if above else low - 0.5]) + ([] if high is None else [high + 0.5])
    for value in NOT_REAL + outside:
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be {bound}, got {value!r}')}$") as info:
            call(value)
        assert type(info.value) is ValueError


@pytest.mark.parametrize("call, name, low, high, above", REALS.values(), ids=REALS.keys())
def test_real_setting_keeps_a_float(call, name, low, high, above):
    # a float32 is made a Python float before it meets a bound, so no cast warns
    for value in (1, np.float32(0.5), np.float64(0.5)):
        got = call(value)
        assert got is None or (type(got) is float and got == float(value))


# DubeConfig's object fields pass rng.one_of on their type: each of these
# used to build, and a string strategy failed only at fit time.
@pytest.mark.parametrize("field, value", [
    ("inter", "RUS"), ("inter", None), ("inter", IntraCBStrategy("HEM")),
    ("intra", "HEM"), ("intra", None), ("intra", InterCBStrategy("RUS")),
    ("learner", "tree"), ("learner", None), ("learner", InterCBStrategy("RUS"))],
    ids=[f"{field}-{kind}" for field in ("inter", "intra", "learner") for kind in ("str", "None", "strategy")])
def test_dube_config_field_rejects_another_type(field, value):
    message = f"unknown {field} type {type(value)!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        DubeConfig(k=2, **{field: value})
    assert type(info.value) is ValueError
