import csv
import math
import re
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from csv_reference import reference_load_csv
from dube import (Dataset, DatasetError, class_counts, inject_flip_noise,
                  load_csv, make_gaussian_1d, make_overlap_2d,
                  stratified_k_fold)
from dube.learners import knn_fit
from dube.metrics import macro_auroc

INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_byte_order_mark_is_skipped(self, tmp_path):
        # left in the first cell, the mark would fail to parse and make row 1 a header
        path = tmp_path / "bom.csv"
        path.write_text("\ufeff1.0,2.0,a\n3.0,4.0,b\n5.0,6.0,a\n7.0,8.0,b\n", encoding="utf-8")
        ds = load_csv(path, 2)
        assert ds.n_rows == 4
        assert ds.features[0].tolist() == [1.0, 2.0]

    def test_byte_order_mark_before_a_header(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_text("\ufefflabel,x\na,1\nb,2\n", encoding="utf-8")
        ds = load_csv(path, "label")
        assert ds.label_names == ("a", "b")
        assert ds.features[:, 0].tolist() == [1.0, 2.0]

    def test_first_appearance_label_mapping(self, tmp_path):
        ds = load_csv(write(tmp_path, "1.0,a\n2.0,b\n3.0,a\n"), 1)
        assert ds.m == 2
        assert ds.label_names == ("a", "b")
        assert ds.class_index[0].tolist() == [0, 2]
        assert ds.class_index[1].tolist() == [1]

    def test_label_column_by_name(self, tmp_path):
        ds = load_csv(write(tmp_path, "x,y,target\n1,2,p\n3,4,q\n"), "target")
        assert ds.n_features == 2
        assert ds.features[1].tolist() == [3.0, 4.0]

    def test_header_autodetected_with_index_column(self, tmp_path):
        ds = load_csv(write(tmp_path, "x,label\n1.5,a\n2.5,b\n"), 1)
        assert ds.n_rows == 2

    def test_numeric_labels_no_header(self, tmp_path):
        ds = load_csv(write(tmp_path, "1.0,0\n2.0,1\n3.0,0\n"), 1)
        assert ds.n_rows == 3
        assert class_counts(ds).tolist() == [2, 1]

    def test_nan_cell_rejected(self, tmp_path):
        with pytest.raises(DatasetError, match="non-finite"):
            load_csv(write(tmp_path, "1.0,a\nnan,b\n"), 1)

    def test_non_numeric_cell_rejected(self, tmp_path):
        with pytest.raises(DatasetError, match="non-numeric"):
            load_csv(write(tmp_path, "1.0,a\noops,b\n"), 1)

    def test_single_class_rejected(self, tmp_path):
        with pytest.raises(DatasetError, match="single-class"):
            load_csv(write(tmp_path, "1.0,a\n2.0,a\n"), 1)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="cannot read"):
            load_csv(tmp_path / "nope.csv", 0)

    def test_comment_lines_skipped(self, tmp_path):
        ds = load_csv(write(tmp_path, "# a comment\n1.0,a\n2.0,b\n"), 1)
        assert ds.n_rows == 2

    @pytest.mark.parametrize("text,label_column,message", [
        ("", 1, "empty file"),
        ("# only a comment\n\n , \n", 1, "empty file"),
        ("1.0,a\n2.0,3.0,b\n", 1, "ragged rows"),
        ("x,y\n1.0,a\n", "target", "no column named 'target'"),
        ("1.0,a\n2.0,b\n", 2, "label column index 2 out of range"),
        ("1.0,a\n2.0,b\n", -1, "label column index -1 out of range"),
        ("x,label\n", "label", "no data rows"),
        ("x,label\n", 1, "no data rows"),
    ])
    def test_unusable_table(self, tmp_path, text, label_column, message):
        path = write(tmp_path, text)
        with pytest.raises(DatasetError) as info:
            load_csv(path, label_column)
        assert str(info.value) == f"{path}: {message}"


def outcome(load, path, label_column):
    """What ``load`` makes of a table: the dataset's arrays and label
    space, or the message of the DatasetError it raised."""
    try:
        ds = load(path, label_column)
    except DatasetError as exc:
        return str(exc)
    return (ds.features.shape, ds.features.tobytes(), ds.labels.tobytes(),
            ds.label_names, ds.m)


FINITE_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e6, 1e6).map(lambda x: f"{x:e}"),
    st.floats(-1e6, 1e6).map(lambda x: f"{x:+.3f}"),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["1_000", "-2_5.0_1", "1E5", "1e-400", "+.5", "5.", " 7 ", "\t-3.25 ",
                     "\u0661\u0662"]),
)
NUMERIC_CELLS = st.one_of(
    FINITE_CELLS,
    st.sampled_from(["nan", "-NaN", "inf", "-Infinity", "1e400", " -1e400 "]),
)
ANY_CELLS = st.one_of(
    NUMERIC_CELLS,
    st.sampled_from(["oops", "", " ", "1__0", "0x10", "nan(1)", "2.0\x00", "1,5", "\"q\""]),
)


@st.composite
def csv_tables(draw):
    """CSV rows of one table and a label column to load it by."""
    d = draw(st.integers(0, 3))
    label_pos = draw(st.integers(0, d))
    cells = draw(st.sampled_from([FINITE_CELLS, NUMERIC_CELLS, ANY_CELLS]))
    names = draw(st.sampled_from([["a", "b", "c"], ["0", "1", "2"], [" x", "y ", "x"],
                                  ["1.5", "-2", "nan"]]))
    rows = []
    for _ in range(draw(st.integers(1, 10))):
        row = draw(st.lists(cells, min_size=d, max_size=d))
        row.insert(label_pos, draw(st.sampled_from(names)))
        rows.append(row)
    header = draw(st.lists(st.sampled_from(["f", " label ", "1", "nan", "x y"]),
                           min_size=d + 1, max_size=d + 1))
    by = draw(st.sampled_from(["index", "name", "other"]))
    if by == "name" or draw(st.booleans()):
        rows.insert(0, header)
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), ["# note"] + [""] * d)
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [" "] * (d + 1))
    if by == "index":
        label_column = label_pos
    elif by == "name":
        label_column = header[label_pos].strip()
    else:
        label_column = draw(st.one_of(st.integers(-1, d + 1), st.just("missing")))
    return rows, label_column


CSV_TEXT = st.text(alphabet=",\n\r\"# \t.-+_eE0123456789naify\x00\xa0\u0661", max_size=80)


class TestLoadCsvFuzz:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.one_of(st.binary(), st.text().map(str.encode), CSV_TEXT.map(str.encode)),
           st.one_of(st.integers(-2, 4), st.sampled_from(["", "label", "a", "1"])))
    def test_loads_or_raises_dataset_error(self, tmp_path, content, label_column):
        path = tmp_path / "fuzz.csv"
        path.write_bytes(content)
        try:
            ds = load_csv(path, label_column)
        except DatasetError:
            return
        assert ds.m >= 2 and np.isfinite(ds.features).all()


class TestLoadCsvMatchesReference:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(csv_tables())
    def test_same_dataset_or_message(self, tmp_path, table):
        rows, label_column = table
        path = tmp_path / "table.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        want = outcome(reference_load_csv, path, label_column)
        assert outcome(load_csv, path, label_column) == want

    def test_benchmark_input_tables(self, tmp_path, monkeypatch):
        inputs = types.ModuleType("perfbench_inputs")
        inputs.__file__ = str(INPUTS)
        monkeypatch.setitem(sys.modules, inputs.__name__, inputs)  # dataclasses look it up
        exec(compile(INPUTS.read_text(), str(INPUTS), "exec"), inputs.__dict__)
        for workload, specs in inputs.TABLES.items():
            if specs["tiny"] is None:
                continue
            path = tmp_path / f"{workload}.csv"
            inputs.write_csv(path, specs["tiny"], seed=1)
            for label_column in ("label", specs["tiny"].features):
                got = outcome(load_csv, path, label_column)
                assert not isinstance(got, str), got
                assert got == outcome(reference_load_csv, path, label_column)


class TestDatasetInvariants:
    def test_class_index_partitions_rows(self):
        gen = np.random.default_rng(0)
        ds = Dataset(gen.normal(size=(40, 3)), gen.integers(0, 4, 40), m=4)
        merged = np.sort(np.concatenate(ds.class_index))
        assert merged.tolist() == list(range(40))

    @settings(max_examples=100, deadline=None)
    @given(labels=st.lists(st.sampled_from([0, 1, 3, 7, 40]), min_size=1, max_size=30),
           extra=st.integers(0, 50))
    def test_class_index_has_every_class(self, labels, extra):
        # labels with gaps and any m above the largest: absent classes get empty rows
        labels = np.array(labels)
        ds = Dataset(np.zeros((labels.size, 1)), labels, m=int(labels.max()) + 1 + extra)
        assert len(ds.class_index) == ds.m
        for c, rows in enumerate(ds.class_index):
            want = np.flatnonzero(labels == c)
            assert rows.dtype == want.dtype and rows.tolist() == want.tolist()
            assert not rows.flags.writeable

    def test_index_memory_does_not_grow_with_the_largest_label(self):
        # it scanned every class id up to the largest label: 25.7 MB traced at 10**5
        tracemalloc.start()
        try:
            ds = Dataset(np.zeros((2, 1)), [0, 10**5])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20
        assert ds.class_index[10**5].tolist() == [1] and ds.class_index[5].size == 0

    def test_class_index_is_not_a_constructor_argument(self):
        # the index is always built from the labels, never taken from a caller
        with pytest.raises(TypeError, match="class_index"):
            Dataset(np.zeros((3, 1)), [0, 1, 0], class_index=(np.arange(3),))

    def test_features_readonly(self):
        ds = make_gaussian_1d(2, 5, 0, 4, 1, seed=0)
        with pytest.raises(ValueError):
            ds.features[0, 0] = 99.0

    def test_nonfinite_features_rejected(self):
        with pytest.raises(DatasetError):
            Dataset(np.array([[np.inf]]), np.array([0]))

    def test_featureless_table_rejected(self):
        with pytest.raises(DatasetError, match="no columns"):
            Dataset(np.zeros((4, 0)), [0, 1, 0, 1])


WHOLE_OR_NOT = st.one_of(st.integers(-2, 9).map(float), st.floats(),
                         st.sampled_from([2.0**63, -2.0**63, 2.0**63 - 1024, 0.5, -0.0]))


class TestLabels:
    # each label rule's failure is rng.integers' ValueError, naming the first label outside
    @pytest.mark.parametrize("labels, first", [([0.5, 1.7, 1.2], 0.5), (["0", "1", "1"], "0"),
                                               ([0, 1, 2**70], 2**70), ([0, 1, float("nan")], float("nan")),
                                               ([0, 1, float("-inf")], float("-inf")),
                                               ([True, False, True], True)],
                             ids=["fractions", "text", "past-int64", "nan", "inf", "bool"])
    def test_other_than_whole_numbers_rejected(self, labels, first):
        message = f"labels must be an integer in [0, inf], got {first!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
            Dataset(np.zeros((3, 1)), labels)
        assert type(info.value) is ValueError

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.uint16, np.uint32, np.uint64,
                                       np.int64, np.float32, np.float64])
    def test_integers_and_whole_floats_taken(self, dtype):
        ds = Dataset(np.zeros((3, 1)), np.array([2, 0, 1], dtype=dtype))
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [2, 0, 1]

    @pytest.mark.parametrize("big", [2**63, 2**64 - 1])
    def test_unsigned_past_int64_rejected(self, big):
        # the int64 cast would wrap these to negative class ids
        message = f"labels must be an integer in [0, inf], got {big}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
            Dataset(np.zeros((2, 1)), np.array([0, big], dtype=np.uint64))
        assert type(info.value) is ValueError

    def test_largest_unsigned_within_int64_taken(self):
        # it is a whole number within int64, so only the label space rejects it
        message = f"labels must be an integer in [0, 1], got {2**63 - 1}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
            Dataset(np.zeros((2, 1)), np.array([0, 2**63 - 1], dtype=np.uint64), m=2)
        assert type(info.value) is ValueError

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(WHOLE_OR_NOT, min_size=1, max_size=6))
    def test_float_labels_are_taken_only_when_whole(self, values):
        features = np.zeros((len(values), 1))
        outside = [v for v in values if not (math.isfinite(v) and v == math.trunc(v) and 0 <= v <= 7)]
        if not outside:
            ds = Dataset(features, np.array(values), m=8)
            assert ds.labels.tolist() == [int(v) for v in values]
            return
        message = f"labels must be an integer in [0, 7], got {outside[0]!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
            Dataset(features, np.array(values), m=8)
        assert type(info.value) is ValueError


class TestClassCounts:
    def test_toy_imbalance(self):
        ds = make_gaussian_1d(3, 15, 0, 4, 1, seed=1)
        counts = class_counts(ds)
        assert counts.tolist() == [15, 3]
        assert counts[0] / counts[1] == 5.0  # imbalance ratio

    def test_balanced(self):
        ds = make_gaussian_1d(4, 4, 0, 4, 1, seed=1)
        assert class_counts(ds).tolist() == [4, 4]


class TestStratifiedKFold:
    def test_divisible_sizes(self):
        gen = np.random.default_rng(3)
        ds = Dataset(gen.normal(size=(15, 2)), np.repeat([0, 1], [10, 5]))
        plan = stratified_k_fold(ds, 5, seed=11)
        for fold in range(5):
            rows = np.flatnonzero(plan.assignments == fold)
            labels = ds.labels[rows]
            assert (labels == 0).sum() == 2
            assert (labels == 1).sum() == 1

    def test_determinism(self):
        ds = make_gaussian_1d(20, 60, 0, 4, 1, seed=5)
        a = stratified_k_fold(ds, 5, seed=7)
        b = stratified_k_fold(ds, 5, seed=7)
        assert np.array_equal(a.assignments, b.assignments)
        c = stratified_k_fold(ds, 5, seed=8)
        assert not np.array_equal(a.assignments, c.assignments)

    def test_class_smaller_than_k(self):
        ds = make_gaussian_1d(3, 7, 0, 4, 1, seed=0)
        with pytest.raises(DatasetError, match="fewer than k"):
            stratified_k_fold(ds, 5, seed=0)

    def test_stratification_property_random_sizes(self):
        gen = np.random.default_rng(9)
        for trial in range(20):
            sizes = gen.integers(4, 40, size=gen.integers(2, 5))
            labels = np.repeat(np.arange(sizes.size), sizes)
            ds = Dataset(gen.normal(size=(labels.size, 2)), labels)
            k = int(gen.integers(2, 5))
            if sizes.min() < k:
                continue
            plan = stratified_k_fold(ds, k, seed=trial)
            for c in range(sizes.size):
                per_fold = np.bincount(plan.assignments[ds.class_index[c]], minlength=k)
                assert per_fold.max() - per_fold.min() <= 1

    def test_split_round_trip(self):
        ds = make_gaussian_1d(10, 40, 0, 4, 1, seed=2)
        plan = stratified_k_fold(ds, 5, seed=2)
        train, test = plan.split(ds, 0)
        assert train.n_rows + test.n_rows == ds.n_rows
        assert train.m == test.m == 2


class TestFlipNoise:
    def test_zero_noise_is_identity(self):
        ds = make_gaussian_1d(10, 100, 0, 4, 1, seed=4)
        assert inject_flip_noise(ds, 0.0, seed=1) is ds

    def test_symmetric_flip_preserves_counts(self):
        ds = make_gaussian_1d(10, 100, 0, 4, 1, seed=4)
        noisy = inject_flip_noise(ds, 0.2, seed=1)
        assert class_counts(noisy).tolist() == class_counts(ds).tolist()
        changed = np.flatnonzero(noisy.labels != ds.labels)
        assert changed.size == 4  # 2 each way
        assert (ds.labels[changed] == 0).sum() == 2
        assert (ds.labels[changed] == 1).sum() == 2

    def test_never_flips_same_row_twice(self):
        ds = make_gaussian_1d(50, 200, 0, 4, 1, seed=6)
        noisy = inject_flip_noise(ds, 0.5, seed=3)
        # every changed row moved exactly one class away from its original
        changed = np.flatnonzero(noisy.labels != ds.labels)
        assert changed.size == 2 * 25
        assert np.array_equal(noisy.features, ds.features)

    def test_multiclass_rejected(self):
        gen = np.random.default_rng(1)
        ds = Dataset(gen.normal(size=(30, 2)), gen.integers(0, 3, 30), m=3)
        with pytest.raises(DatasetError, match="binary"):
            inject_flip_noise(ds, 0.1, seed=0)

    def test_bad_ratio_rejected(self):
        ds = make_gaussian_1d(5, 20, 0, 4, 1, seed=0)
        with pytest.raises(ValueError, match=r"^noise ratio must be in \[0, 1\], got 1.5$"):
            inject_flip_noise(ds, 1.5, seed=0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 30), st.integers(1, 30), st.floats(0.0, 1.0), st.integers(0, 2**32))
    def test_moves_floor_r_n_min_rows_each_way(self, n0, n1, r, seed):
        labels = np.repeat([0, 1], [n0, n1])
        ds = Dataset(np.zeros((labels.size, 1)), labels, m=2)
        noisy = inject_flip_noise(ds, r, seed)
        assert class_counts(noisy).tolist() == [n0, n1]
        flips = math.floor(r * min(n0, n1))
        moved = ds.labels[noisy.labels != ds.labels]
        assert np.bincount(moved, minlength=2).tolist() == [flips, flips]

    def test_determinism(self):
        ds = make_gaussian_1d(20, 100, 0, 4, 1, seed=8)
        a = inject_flip_noise(ds, 0.3, seed=5)
        b = inject_flip_noise(ds, 0.3, seed=5)
        assert np.array_equal(a.labels, b.labels)


class TestGenerators:
    def test_gaussian_1d_shape_and_labels(self):
        ds = make_gaussian_1d(3, 15, 0.0, 4.0, 1.0, seed=12)
        assert ds.n_features == 1
        assert class_counts(ds).tolist() == [15, 3]
        # majority sits to the right of the minority on average
        assert ds.features[ds.class_index[0]].mean() > ds.features[ds.class_index[1]].mean()

    def test_gaussian_1d_determinism(self):
        a = make_gaussian_1d(5, 9, 0, 4, 1, seed=3)
        b = make_gaussian_1d(5, 9, 0, 4, 1, seed=3)
        assert np.array_equal(a.features, b.features)

    def test_gaussian_1d_bad_sigma(self):
        with pytest.raises(ValueError, match="^sigma must be finite and > 0, got 0.0$"):
            make_gaussian_1d(3, 15, 0, 4, 0.0, seed=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("position", [2, 3, 4], ids=["mu_min", "mu_maj", "sigma"])
    def test_gaussian_1d_non_finite(self, position, value):
        args = [3, 15, 0.0, 4.0, 1.0]
        args[position] = value
        name = ["mu_min", "mu_maj", "sigma"][position - 2]
        bound = " and > 0" if name == "sigma" else ""
        with pytest.raises(ValueError, match=f"^{name} must be finite{bound}, got {value!r}$"):
            make_gaussian_1d(*args, seed=0)

    def test_overlap_2d_counts_and_determinism(self):
        a = make_overlap_2d(100, 1000, "mid", seed=5)
        b = make_overlap_2d(100, 1000, "mid", seed=5)
        assert class_counts(a).tolist() == [1000, 100]
        assert np.array_equal(a.features, b.features)

    def test_overlap_2d_low_overlap_is_nearly_separable(self):
        # wide-k neighbor vote approximates the Bayes posterior, whose
        # AUROC at the low-overlap separation is ~0.998
        train = make_overlap_2d(100, 1000, "low", seed=21)
        test = make_overlap_2d(100, 1000, "low", seed=22)
        model = knn_fit(train, 15)
        probs = model.predict_proba_many(test.features)
        assert macro_auroc(test.labels, probs) > 0.99

    def test_overlap_levels_order_difficulty(self):
        scores = {}
        for level in ("low", "mid", "high"):
            train = make_overlap_2d(150, 1500, level, seed=31)
            test = make_overlap_2d(150, 1500, level, seed=32)
            probs = knn_fit(train, 15).predict_proba_many(test.features)
            scores[level] = macro_auroc(test.labels, probs)
        assert scores["low"] > scores["mid"] > scores["high"]

    def test_unknown_overlap_level(self):
        with pytest.raises(ValueError, match=r"^unknown overlap level 'extreme'$"):
            make_overlap_2d(10, 10, "extreme", seed=0)
