import errno
import functools
import inspect
import json
import re
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dube
from dube import (DubeConfig, EnsembleModel, class_counts, dube_fit, load_model,
                  make_overlap_2d, save_model)
from dube import balancing, pbda, rng
from dube.balancing import InterCBStrategy, IntraCBStrategy
from dube.dataset import Dataset, DatasetError
from dube.ensemble import dube_fit_lockstep
from dube.learners import KnnParams, TreeClassifier, TreeParams, knn_fit, to_dict, tree_fit
from ensemble_reference import reference_members


def small_dataset(seed=0, n_min=20, n_maj=80):
    return make_overlap_2d(n_min, n_maj, "mid", seed=seed)


def save_edited_model(tmp_path, learner, edit):
    """Save a small fitted ensemble, apply ``edit`` to its JSON, and
    return the path."""
    ds = small_dataset(10, n_min=10, n_maj=30)
    path = tmp_path / "model.json"
    save_model(dube_fit(ds, DubeConfig(k=2, learner=learner, seed=1)), path)
    blob = json.loads(path.read_text())
    edit(blob)
    path.write_text(json.dumps(blob))
    return path


class _StubLearner:
    """Constant-output member for aggregation math."""

    def __init__(self, row, d=2):
        self.row = np.asarray(row, dtype=float)
        self.m = self.row.size
        self.d = d

    def predict_proba_many(self, X):
        return np.tile(self.row, (np.atleast_2d(X).shape[0], 1))


class TestSoftVote:
    def test_single_member_mean_is_identity(self):
        model = EnsembleModel([_StubLearner([0.7, 0.3])], 2, 2, DubeConfig(k=1))
        assert model.predict_proba_many([0.0, 0.0])[0].tolist() == [0.7, 0.3]

    def test_two_opposed_members_average_to_half(self):
        model = EnsembleModel([_StubLearner([1.0, 0.0]), _StubLearner([0.0, 1.0])],
                              2, 2, DubeConfig(k=2))
        assert model.predict_proba_many([0.0, 0.0])[0].tolist() == [0.5, 0.5]

    def test_four_member_mean_matches_direct_summation(self):
        gen = np.random.default_rng(0)
        rows = gen.dirichlet(np.ones(3), size=4)
        model = EnsembleModel([_StubLearner(r, d=2) for r in rows], 3, 2, DubeConfig(k=4))
        expected = rows.sum(axis=0) / 4
        assert np.allclose(model.predict_proba_many([0.0, 0.0])[0], expected, atol=1e-12)

    def test_single_row_methods(self):
        # one d-vector is a one-row batch
        model = EnsembleModel([_StubLearner([0.9, 0.1])], 2, 2, DubeConfig(k=1))
        assert model.predict_proba_many([0.0, 0.0]).tolist() == [[0.9, 0.1]]

    @pytest.mark.parametrize("learner", [TreeParams(), KnnParams(3)])
    def test_batch_feature_count_checked(self, learner):
        # an ensemble and each of its members take a (n, d) batch or one d-vector row
        model = dube_fit(small_dataset(), DubeConfig(k=2, learner=learner, seed=1))
        for predictor in (model, model.members[0]):
            assert predictor.predict_proba_many([0.0, 0.0]).shape == (1, 2)
            with pytest.raises(ValueError, match="expected 2 features, got 3"):
                predictor.predict_proba_many(np.zeros((4, 3)))
            for shape in ((3, 2, 2), (1, 2, 2, 2)):  # rows of d values, but not a 2-D batch
                with pytest.raises(ValueError, match=re.escape(f"2-D batch, got shape {shape}")):
                    predictor.predict_proba_many(np.zeros(shape))


@pytest.fixture
def resample_steps(monkeypatch):
    """The (soft vote, (n, per-class rows, weights)) of every resample step
    of the test's fits, recorded where dube.ensemble looks the step up."""
    import dube.ensemble as ens
    steps = []

    def record(labels, class_index, probs, *rest):
        step = balancing.resample_step(labels, class_index, probs, *rest)
        steps.append((probs, step))
        return step
    monkeypatch.setattr(ens, "resample_step", record)
    return steps


class TestExports:
    def test_every_exported_name_resolves(self):
        # a removed name must leave the export list too
        assert [name for name in dube.__all__ if not hasattr(dube, name)] == []


class TestDubeFit:
    def test_k1_trains_single_learner_on_raw_data(self, resample_steps):
        ds = small_dataset(1)
        cfg = DubeConfig(k=1, seed=3)
        model = dube_fit(ds, cfg)
        assert len(model.members) == 1
        assert resample_steps == []  # no resampling happened
        reference = tree_fit(ds, TreeParams())
        assert np.array_equal(model.predict_proba_many(ds.features),
                              reference.predict_proba_many(ds.features))

    def test_rus_uniform_trace_targets_equal_min_count(self, resample_steps):
        ds = small_dataset(2)
        cfg = DubeConfig(k=4, inter=InterCBStrategy("RUS"),
                         intra=IntraCBStrategy("Uniform"), alpha=0.0, seed=5)
        dube_fit(ds, cfg)
        min_count = int(class_counts(ds).min())
        assert [n for _, (n, _, _) in resample_steps] == [min_count] * 3
        for _, (_, per_class, _) in resample_steps:
            for rows in per_class:
                assert rows.size == min_count

    def test_total_resample_size_is_m_times_n(self, resample_steps):
        ds = small_dataset(3)
        cfg = DubeConfig(k=3, inter=InterCBStrategy("RHS"), seed=6, alpha=0.1)
        dube_fit(ds, cfg)
        assert len(resample_steps) == 2
        for _, (n, per_class, _) in resample_steps:
            assert sum(rows.size for rows in per_class) == ds.m * n

    def test_buffered_predictions_match_recomputation_bitwise(self, resample_steps):
        ds = small_dataset(4)
        cfg = DubeConfig(k=5, alpha=0.2, seed=7)
        model = dube_fit(ds, cfg)
        assert len(resample_steps) == 4
        for t, (probs, _) in enumerate(resample_steps, start=2):
            total = np.zeros((ds.n_rows, ds.m))
            for member in model.members[: t - 1]:
                total += member.predict_proba_many(ds.features)
            assert np.array_equal(probs, total / (t - 1))

    def test_determinism(self):
        ds = small_dataset(5)
        cfg = DubeConfig(k=4, alpha=0.3, seed=11)
        probe = np.random.default_rng(0).normal(0, 3, size=(40, 2))
        a = dube_fit(ds, cfg).predict_proba_many(probe)
        b = dube_fit(ds, cfg).predict_proba_many(probe)
        assert np.array_equal(a, b)

    def test_seed_changes_model(self):
        ds = small_dataset(5)
        probe = np.random.default_rng(0).normal(0, 3, size=(40, 2))
        a = dube_fit(ds, DubeConfig(k=4, alpha=0.3, seed=11)).predict_proba_many(probe)
        b = dube_fit(ds, DubeConfig(k=4, alpha=0.3, seed=12)).predict_proba_many(probe)
        assert not np.array_equal(a, b)

    def test_growing_k_keeps_earlier_iterations(self, resample_steps):
        ds = small_dataset(6)
        dube_fit(ds, DubeConfig(k=3, seed=9))
        dube_fit(ds, DubeConfig(k=5, seed=9))
        small, big = resample_steps[:2], resample_steps[2:]
        assert len(big) == 4
        for (_, early), (_, late) in zip(small, big):
            for a, b in zip(early[1], late[1]):
                assert np.array_equal(a, b)

    def test_single_class_rejected(self):
        ds = Dataset(np.zeros((4, 1)), np.zeros(4, dtype=int), m=1)
        with pytest.raises(ValueError, match="two classes"):
            dube_fit(ds, DubeConfig(k=2))

    def test_knn_learner_supported(self):
        ds = small_dataset(7)
        cfg = DubeConfig(k=3, learner=KnnParams(k_neighbors=5), seed=2)
        model = dube_fit(ds, cfg)
        probs = model.predict_proba_many(ds.features)
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9

    def test_uniform_alpha0_hem_weights_live_in_trace(self, resample_steps):
        ds = small_dataset(8)
        cfg = DubeConfig(k=3, intra=IntraCBStrategy("HEM"), seed=4)
        dube_fit(ds, cfg)
        assert len(resample_steps) == 2
        for _, (_, _, weights) in resample_steps:
            assert weights.size == ds.n_rows
            assert (weights >= 0).all()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DubeConfig(k=0)
        with pytest.raises(ValueError):
            DubeConfig(alpha=-0.5)


class TestPredictionBuffering:
    @pytest.mark.parametrize("alphas, k, passes", [
        pytest.param(None, 1, 0, id="k1"), pytest.param(None, 2, 1, id="k2"),
        pytest.param(None, 6, 5, id="k6"),
        # the shared first member, then one member per alpha at t = 2 and 3
        pytest.param([0.0, 0.1, 0.2], 4, 1 + 3 * 2, id="lockstep-3-alphas-k4")])
    def test_every_member_but_the_last_votes_once(self, monkeypatch, alphas, k, passes):
        # the running probability sum means fitting k members costs k - 1
        # prediction passes over the data, not k(k-1)/2; the last
        # iteration's members vote on no later weights, so never predict
        import dube.ensemble as ens
        ds = small_dataset(12)
        calls = []

        class CountingLearner:
            def __init__(self, tag):
                self.tag = tag
                self.m, self.d = ds.m, ds.n_features

            def predict_proba_many(self, X):
                calls.append((self.tag, np.atleast_2d(X).shape[0]))
                return np.full((np.atleast_2d(X).shape[0], 2), 0.5)

        counter = iter(range(100))
        monkeypatch.setattr(ens, "fit_learner",
                            lambda d, params: CountingLearner(next(counter)))
        monkeypatch.setattr(ens, "fit_members", lambda blocks, labels, m, params: [
            CountingLearner(next(counter)) for _ in range(len(blocks[0]))])
        cfg = DubeConfig(k=k, seed=1)
        models = dube_fit_lockstep(ds, cfg, alphas) if alphas else [dube_fit(ds, cfg)]
        assert {len(model.members) for model in models} == {k}
        train_passes = [c for c in calls if c[1] == ds.n_rows]
        assert len(train_passes) == passes
        assert sorted(tag for tag, _ in train_passes) == list(range(passes))


class TestNoDistanceComputation:
    def test_resampling_modules_expose_no_distance_ops(self):
        names = [n.lower() for n in dir(balancing)] + [n.lower() for n in dir(pbda)]
        assert not [n for n in names if "dist" in n or "neighbor" in n]

    def test_resampling_sources_free_of_pairwise_primitives(self):
        for module in (balancing, pbda):
            source = inspect.getsource(module)
            for token in ("cdist", "pairwise", "kneighbors"):
                assert token not in source


class TestSaveLoad:
    def test_tree_ensemble_round_trip(self, tmp_path):
        ds = small_dataset(9)
        model = dube_fit(ds, DubeConfig(k=3, alpha=0.2, seed=13))
        path = tmp_path / "model.json"
        save_model(model, path)
        clone = load_model(path)
        probe = np.random.default_rng(1).normal(0, 3, size=(25, 2))
        assert np.array_equal(model.predict_proba_many(probe),
                              clone.predict_proba_many(probe))
        assert clone.config == model.config

    def test_knn_ensemble_round_trip(self, tmp_path):
        ds = small_dataset(10, n_min=10, n_maj=30)
        model = dube_fit(ds, DubeConfig(k=2, learner=KnnParams(k_neighbors=3), seed=1))
        path = tmp_path / "model.json"
        save_model(model, path)
        clone = load_model(path)
        probe = np.random.default_rng(2).normal(0, 3, size=(10, 2))
        assert np.array_equal(model.predict_proba_many(probe),
                              clone.predict_proba_many(probe))

    def test_failed_save_keeps_the_old_file(self, tmp_path, monkeypatch):
        import dube.ensemble as ens
        model = dube_fit(small_dataset(9), DubeConfig(k=2, seed=13))
        path = tmp_path / "model.json"
        path.write_bytes(b"old model")

        def disk_full(file, mode="r"):
            # the temporary file stores part of the text, then the disk is full
            fh = open(file, mode)
            write = fh.write

            def write_part(text):
                write(text[:11])
                raise OSError(errno.ENOSPC, "No space left on device")
            fh.write = write_part
            return fh
        monkeypatch.setattr(ens, "open", disk_full, raising=False)
        with pytest.raises(OSError, match="No space left"):
            save_model(model, path)
        assert path.read_bytes() == b"old model"
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    def test_member_of_no_learner_kind_is_not_saved(self, tmp_path):
        # to_dict used to leak StopIteration, which the member generator
        # turned into RuntimeError
        model = EnsembleModel([_StubLearner([0.7, 0.3], d=1)], 2, 1, DubeConfig(k=1))
        with pytest.raises(ValueError, match="^no learner kind saves a _StubLearner$"):
            save_model(model, tmp_path / "model.json")
        assert list(tmp_path.iterdir()) == []

    @staticmethod
    def recorded_writes(ens, monkeypatch, fail_at=None):
        """Record every string written to a file ``ens`` opens; the write
        numbered ``fail_at`` (from 0) finds the disk full."""
        pieces = []

        def recording(file, mode="r"):
            fh = open(file, mode)
            write = fh.write

            def write_piece(text):
                if len(pieces) == fail_at:
                    raise OSError(errno.ENOSPC, "No space left on device")
                pieces.append(text)
                return write(text)
            fh.write = write_piece
            return fh
        monkeypatch.setattr(ens, "open", recording, raising=False)
        return pieces

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def fitted(learner, k=3, rows=60):
        """A k-member model of ``learner`` on a two-class Gaussian table."""
        gen = np.random.default_rng(5)
        ds = Dataset(gen.normal(size=(rows, 4)), (np.arange(rows) % 5 == 0).astype(int))
        return dube_fit(ds, DubeConfig(k=k, alpha=0.1, learner=learner, seed=7))

    @pytest.mark.parametrize("learner", [TreeParams(), KnnParams(k_neighbors=3)],
                             ids=["tree", "knn"])
    @pytest.mark.parametrize("count", [1, 3])  # a model has at least one member
    def test_bytes_equal_one_dumps_of_the_blob(self, tmp_path, monkeypatch, learner, count):
        import dube.ensemble as ens
        fitted = self.fitted(learner)
        model = EnsembleModel(fitted.members[:count], fitted.m, fitted.d, fitted.config)
        cfg = model.config
        blob = {"format": "dube-model", "version": 1, "rng": rng.RNG_ALGORITHM,
                "m": model.m, "d": model.d,
                "config": {"k": cfg.k, "inter": cfg.inter.tag, "intra": cfg.intra.tag,
                           "bins": cfg.intra.bins, "alpha": cfg.alpha, "seed": cfg.seed,
                           "learner": to_dict(cfg.learner)},
                "members": [to_dict(member) for member in model.members]}
        path = tmp_path / "model.json"
        pieces = self.recorded_writes(ens, monkeypatch)
        save_model(model, path)
        assert path.read_bytes() == json.dumps(blob).encode()
        # the header, one piece per member, then the tail
        members = [json.dumps(member) for member in blob["members"]]
        assert pieces[0].endswith('"members": [') and pieces[-1] == "]}"
        assert pieces[1:-1] == [(", " if i else "") + text for i, text in enumerate(members)]
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    def test_failed_second_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        import dube.ensemble as ens
        path = tmp_path / "model.json"
        path.write_bytes(b"old model")
        pieces = self.recorded_writes(ens, monkeypatch, fail_at=1)
        with pytest.raises(OSError, match="No space left"):
            save_model(self.fitted(TreeParams()), path)
        assert len(pieces) == 1 and pieces[0].endswith('"members": [')  # only the header
        assert path.read_bytes() == b"old model"
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    @pytest.mark.parametrize("learner", [TreeParams(), KnnParams(k_neighbors=3)],
                             ids=["tree", "knn"])
    def test_save_peak_bounded_by_the_largest_member(self, tmp_path, learner):
        model = self.fitted(learner, k=6, rows=1500)
        largest = max(model.members, key=lambda member: len(json.dumps(to_dict(member))))
        alone = EnsembleModel([largest], model.m, model.d, model.config)

        def peak(saved):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                save_model(saved, tmp_path / "model.json")
                return tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
        assert peak(model) < 1.5 * peak(alone)

    def test_version_guard(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "other", "version": 1}')
        with pytest.raises(ValueError, match="not a dube-model"):
            load_model(path)


class TestTreeModelValidation:
    """A tree member must be well formed to load; each defect below would
    otherwise fail, or never finish, at predict time."""

    @staticmethod
    def save_stump(tmp_path, **defect):
        # x <= 0.5 goes to leaf 1 (class 0), else to leaf 2 (class 1)
        stump = TreeClassifier([0, -1, -1], [0.5, 0.0, 0.0], [1, -1, -1], [2, -1, -1],
                               [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], m=2, d=1)
        path = tmp_path / "model.json"
        save_model(EnsembleModel([stump], 2, 1, DubeConfig(k=1)), path)
        blob = json.loads(path.read_text())
        blob["members"][0].update(defect)
        path.write_text(json.dumps(blob))
        return path

    def test_well_formed_stump_loads(self, tmp_path):
        model = load_model(self.save_stump(tmp_path))
        assert model.predict_proba_many([[0.5], [0.6]]).tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_array_lengths_differ(self, tmp_path):
        with pytest.raises(ValueError, match="nonzero length"):
            load_model(self.save_stump(tmp_path, threshold=[0.5, 0.0]))

    @pytest.mark.parametrize("defect", [{"left": [1, -1]}, {"right": [2, -1, -1, -1]}],
                             ids=["left", "right"])
    def test_child_array_lengths_differ(self, tmp_path, defect):
        with pytest.raises(ValueError, match="tree arrays must share a nonzero length"):
            load_model(self.save_stump(tmp_path, **defect))

    def test_feature_out_of_range(self, tmp_path):
        with pytest.raises(ValueError, match="feature index"):
            load_model(self.save_stump(tmp_path, feature=[1, -1, -1]))
        with pytest.raises(ValueError, match="feature index"):
            load_model(self.save_stump(tmp_path, feature=[0, -2, -1]))

    def test_child_out_of_range(self, tmp_path):
        with pytest.raises(ValueError, match="child index"):
            load_model(self.save_stump(tmp_path, right=[3, -1, -1]))

    def test_child_cycle(self, tmp_path):
        # 0 -> 1 -> 2 -> 0: routing would never reach a leaf
        with pytest.raises(ValueError, match="child index"):
            load_model(self.save_stump(tmp_path, feature=[0, 0, 0], left=[1, 2, 0],
                                       right=[1, 2, 0]))

    def test_proba_shape(self, tmp_path):
        with pytest.raises(ValueError, match="proba"):
            load_model(self.save_stump(tmp_path, proba=[[0, 0, 0], [1, 0, 0], [0, 1, 0]]))

    def test_leaf_row_not_a_distribution(self, tmp_path):
        with pytest.raises(ValueError, match="sum to 1"):
            load_model(self.save_stump(tmp_path, proba=[[0, 0], [0.5, 0.4], [0, 1]]))


class TestModelFileValidation:
    """load_model checks the whole file. Each defect below used to load,
    then fail at predict time or predict rows that are not distributions."""

    @staticmethod
    def save_knn(tmp_path, edit):
        return save_edited_model(tmp_path, KnnParams(k_neighbors=3), edit)

    def test_model_m_differs_from_member(self, tmp_path):
        with pytest.raises(ValueError, match="member 0 has m=2, d=2; the model has m=3"):
            load_model(self.save_knn(tmp_path, lambda blob: blob.update(m=3)))

    def test_model_d_differs_from_member(self, tmp_path):
        with pytest.raises(ValueError, match="member 0 has m=2, d=2; the model has m=2, d=3"):
            load_model(self.save_knn(tmp_path, lambda blob: blob.update(d=3)))

    # a member's keys are its constructor's arguments, so the constructor names a missing one
    MISSING = {("model", "m"): "missing key 'm'", ("model", "config"): "missing key 'config'",
               ("model", "members"): "missing key 'members'",
               ("member", "k_neighbors"): "KnnClassifier.__init__() missing 1 required positional "
                                          "argument: 'k_neighbors'",
               ("member", "y"): "KnnClassifier.__init__() missing 1 required positional argument: 'y'"}

    @pytest.mark.parametrize("where,key", MISSING, ids=[f"{where}-{key}" for where, key in MISSING])
    def test_missing_key(self, tmp_path, where, key):
        def edit(blob):
            del (blob if where == "model" else blob["members"][0])[key]
        path = self.save_knn(tmp_path, edit)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {self.MISSING[where, key]}')}$"):
            load_model(path)

    # A file whose config could not rebuild it: dube_fit(ds, model.config) would fit
    # another number of members, or members of another kind. Both used to load.
    @pytest.mark.parametrize("edit,message", [
        (lambda blob: blob["config"].update(k=10), "the config fits k=10 tree members; "
                                                   "the file holds 2 (tree)"),
        (lambda blob: blob["config"].update(k=1), "the config fits k=1 tree members; "
                                                  "the file holds 2 (tree)"),
        (lambda blob: blob["config"].update(learner={"kind": "knn", "k_neighbors": 5}),
         "the config fits k=2 knn members; the file holds 2 (tree)"),
        (lambda blob: blob["members"].__setitem__(1, to_dict(knn_fit(small_dataset(10), 3))),
         "the config fits k=2 tree members; the file holds 2 (knn, tree)")],
        ids=["more-k", "fewer-k", "config-kind", "member-kind"])
    def test_config_disagrees_with_members(self, tmp_path, edit, message):
        path = save_edited_model(tmp_path, TreeParams(), edit)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_model(path)

    def test_no_members(self, tmp_path):
        with pytest.raises(ValueError, match="at least one member"):
            load_model(self.save_knn(tmp_path, lambda blob: blob.update(members=[])))

    def test_k_neighbors_zero(self, tmp_path):
        with pytest.raises(ValueError, match="k_neighbors"):
            load_model(self.save_knn(tmp_path,
                                     lambda blob: blob["members"][0].update(k_neighbors=0)))

    def test_k_neighbors_above_rows(self, tmp_path):
        rows = []

        def edit(blob):
            member = blob["members"][0]
            rows.append(len(member["X"]))
            member["k_neighbors"] = rows[0] + 1
        path = self.save_knn(tmp_path, edit)
        message = f"{path}: k_neighbors={rows[0] + 1} exceeds {rows[0]} training rows"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_model(path)

    # a KNN member's table passes Dataset's rule, so these are Dataset's messages
    @pytest.mark.parametrize("label, message", [(-1, "negative class id"),
                                                (2, "label 2 out of range for m=2")], ids=["-1", "2"])
    def test_label_outside_classes(self, tmp_path, label, message):
        def edit(blob):
            blob["members"][0]["y"][0] = label
        path = self.save_knn(tmp_path, edit)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_model(path)

    def test_features_not_a_matrix(self, tmp_path):
        rows = []

        def edit(blob):
            member = blob["members"][0]
            member["X"] = [row[0] for row in member["X"]]
            rows.append(len(member["X"]))
        path = self.save_knn(tmp_path, edit)
        message = f"{path}: features must be 2-D, got shape ({rows[0]},)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_model(path)

    def test_label_count_differs_from_rows(self, tmp_path):
        def edit(blob):
            blob["members"][0]["y"].pop()
        path = self.save_knn(tmp_path, edit)
        message = f"{path}: labels length must match feature rows"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_model(path)

    @pytest.mark.parametrize("label", [0.7, 1.5, float("nan")])
    def test_label_not_an_integer(self, tmp_path, label):
        def edit(blob):
            blob["members"][0]["y"][0] = label
        path = self.save_knn(tmp_path, edit)
        message = f"{path}: labels must be whole numbers"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_model(path)

    def test_k_neighbors_not_an_integer(self, tmp_path):
        with pytest.raises(ValueError, match="k_neighbors must be an integer in .*, got 2.5"):
            load_model(self.save_knn(tmp_path,
                                     lambda blob: blob["members"][0].update(k_neighbors=2.5)))

    def test_integral_floats_load(self, tmp_path):
        def edit(blob):
            member = blob["members"][0]
            member["k_neighbors"] = float(member["k_neighbors"])
            member["y"] = [float(label) for label in member["y"]]
        model = load_model(self.save_knn(tmp_path, edit))
        assert model.members[0].k_neighbors == 3
        assert model.members[0].y.dtype == np.int64


class TestModelFileIntegers:
    """The file's and each member's m and d, and a KNN member's
    k_neighbors, must be whole numbers. An int() cast used to load
    "m": 2.5 as 2, and a null k_neighbors raised TypeError."""

    LEARNERS = [TreeParams(), KnnParams(k_neighbors=3)]

    @pytest.mark.parametrize("learner", LEARNERS, ids=["tree", "knn"])
    @pytest.mark.parametrize("where,key", [("model", "m"), ("model", "d"), ("member", "m")])
    @pytest.mark.parametrize("value", [2.5, None, True, "2", float("nan"), float("inf"), 0])
    def test_size_not_a_whole_number(self, tmp_path, learner, where, key, value):
        def edit(blob):
            (blob if where == "model" else blob["members"][-1])[key] = value
        with pytest.raises(ValueError, match=rf"{key} must be an integer in \[1, inf\], got"):
            load_model(save_edited_model(tmp_path, learner, edit))

    @pytest.mark.parametrize("value", [2.9, 0, None, True])
    def test_tree_member_d_not_a_whole_number(self, tmp_path, value):
        def edit(blob):
            blob["members"][0]["d"] = value
        with pytest.raises(ValueError, match=r"d must be an integer in \[1, inf\], got"):
            load_model(save_edited_model(tmp_path, TreeParams(), edit))

    @pytest.mark.parametrize("value", [None, "3", True, float("nan")])
    def test_k_neighbors_not_a_number(self, tmp_path, value):
        def edit(blob):
            blob["members"][0]["k_neighbors"] = value
        with pytest.raises(ValueError, match="k_neighbors must be an integer in .*, got"):
            load_model(save_edited_model(tmp_path, KnnParams(k_neighbors=3), edit))

    @pytest.mark.parametrize("learner", LEARNERS, ids=["tree", "knn"])
    def test_integral_float_sizes_load(self, tmp_path, learner):
        def edit(blob):
            for part in [blob, *blob["members"]]:
                part.update({key: float(part[key]) for key in ("m", "d") if key in part})
            for part in (blob["config"], blob["config"]["learner"]):
                part.update({key: float(value) for key, value in part.items()
                             if key in ("k", "bins", "seed", "min_samples_leaf", "k_neighbors")})
        model = load_model(save_edited_model(tmp_path, learner, edit))
        assert (model.m, model.d) == (2, 2) and type(model.m) is int and type(model.d) is int
        assert all(type(member.m) is int and type(member.d) is int for member in model.members)
        assert model.config == DubeConfig(k=2, learner=learner, seed=1)
        assert type(model.config.k) is int and type(model.config.seed) is int


def whole(low, high):
    """A whole number in [low, high], as an int, a float or a numpy int."""
    return st.builds(lambda kind, value: kind(value), st.sampled_from([int, float, np.int64]),
                     st.integers(low, high))


def real(low, high):
    """A real number in [low, high], as an int, a float or a numpy float."""
    return (st.integers(int(low), int(high)) | st.floats(low, high)
            | st.floats(low, high, width=32).map(np.float32) | st.floats(low, high).map(np.float64))


class TestIntegerSettingsRoundTrip:
    """Every whole-number setting is checked, and made an int, where its
    object is built, and alpha is made a float, so a config that builds
    also fits, saves and loads. A KNN neighbour count of 2.5 used to fit
    members with 2 neighbours and write a file that would not load; a numpy
    min_samples_leaf used to fit and then fail to save."""

    @settings(max_examples=30, deadline=None)
    @given(k=whole(1, 3), intra=st.sampled_from(["Uniform", "HEM", "SHEM"]), bins=whole(1, 2**53),
           seed=whole(0, 2**32), knn=st.booleans(), depth=st.none() | whole(1, 4), leaf=whole(1, 3),
           neighbours=whole(1, 3), alpha=real(0, 2))
    def test_accepted_config_fits_saves_and_loads_equal(self, k, intra, bins, seed, knn, depth, leaf,
                                                        neighbours, alpha):
        learner = KnnParams(neighbours) if knn else TreeParams(max_depth=depth, min_samples_leaf=leaf)
        cfg = DubeConfig(k=k, intra=IntraCBStrategy(intra, bins), alpha=alpha, learner=learner, seed=seed)
        assert type(cfg.alpha) is float and cfg.alpha == alpha
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.json"
            save_model(dube_fit(small_dataset(), cfg), path)
            assert load_model(path).config == cfg

    def test_fractional_knn_neighbours_rejected_when_built(self):
        with pytest.raises(ValueError, match=r"^k_neighbors must be an integer in \[1, inf\], got 2.5$"):
            DubeConfig(k=2, learner=KnnParams(2.5))

    def test_numpy_min_samples_leaf_saves_and_loads(self, tmp_path):
        learner = TreeParams(min_samples_leaf=np.int64(2))
        assert type(learner.min_samples_leaf) is int
        path = tmp_path / "model.json"
        save_model(dube_fit(small_dataset(), DubeConfig(k=2, learner=learner)), path)
        assert load_model(path).config.learner == TreeParams(min_samples_leaf=2)


class TestModelFileTypes:
    """Every malformed model file raises ValueError. A JSON value of the
    wrong type used to raise AttributeError or TypeError, an unknown
    learner kind in the config read as a missing key, a config k of 2.5,
    an alpha of NaN or true, or a seed of "x" loaded, and deeply nested
    JSON raised RecursionError. A tree leaf of NaNs, a NaN or infinite
    threshold, and a non-finite KNN feature loaded and predicted NaN rows."""

    def test_top_level_not_an_object(self, tmp_path):
        path = save_edited_model(tmp_path, TreeParams(), lambda blob: None)
        path.write_text(json.dumps([json.loads(path.read_text())]))
        with pytest.raises(ValueError, match="not a dube-model v1 file"):
            load_model(path)

    @pytest.mark.parametrize("where,value", [
        ("members", 5), ("members", "tree"), ("members", {"kind": "tree"}), ("members", None),
        ("member", 5), ("member", [1, 2]), ("member", "tree"), ("member", None),
        ("config", []), ("config", "k = 2"), ("config", None),
        ("learner", []), ("learner", "tree"), ("learner", None)])
    def test_value_of_the_wrong_type(self, tmp_path, where, value):
        def edit(blob):
            if where == "member":
                blob["members"][0] = value
            elif where == "learner":
                blob["config"]["learner"] = value
            else:
                blob[where] = value
        path = save_edited_model(tmp_path, TreeParams(), edit)
        with pytest.raises(ValueError) as info:
            load_model(path)
        assert str(info.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("key,value,message", [
        ("k", 2.5, r"k must be an integer in \[1, inf\], got 2.5"),
        ("k", "3", r"k must be an integer in \[1, inf\], got '3'"),
        ("bins", 2.5, r"bins must be an integer in \[1, 9007199254740992\], got 2.5"),
        ("seed", "x", r"seed must be an integer in \[0, inf\], got 'x'"),
        ("seed", -1, r"seed must be an integer in \[0, inf\], got -1"),
        ("alpha", float("nan"), "alpha must be finite and >= 0, got nan"),
        ("alpha", float("inf"), "alpha must be finite and >= 0, got inf"),
        ("alpha", -0.1, "alpha must be finite and >= 0, got -0.1"),
        ("alpha", "0.2", "alpha must be finite and >= 0, got '0.2'"),
        ("alpha", True, "alpha must be finite and >= 0, got True"),
        ("inter", ["RUS"], r"unknown inter-class strategy \['RUS'\]"),
        ("intra", ["HEM"], r"unknown intra-class strategy \['HEM'\]")])
    def test_config_value(self, tmp_path, key, value, message):
        def edit(blob):
            blob["config"][key] = value
        with pytest.raises(ValueError, match=message):
            load_model(save_edited_model(tmp_path, TreeParams(), edit))

    # a config value, a member's own rule and a JSON syntax error used to
    # reach the caller without the file's name
    @pytest.mark.parametrize("edit,message", [
        (lambda blob: blob["config"].update(k=0), "k must be an integer in [1, inf], got 0"),
        (lambda blob: blob["config"].update(inter=3), "unknown inter-class strategy 3"),
        (lambda blob: blob["config"].update(bins=0),
         "bins must be an integer in [1, 9007199254740992], got 0"),
        (lambda blob: blob["config"].update(alpha=-1), "alpha must be finite and >= 0, got -1"),
        (lambda blob: blob["members"][0].update(d=0), "d must be an integer in [1, inf], got 0"),
        (lambda blob: blob.update(format="other"), "not a dube-model v1 file")],
        ids=["k", "inter", "bins", "alpha", "member", "format"])
    def test_error_names_the_file(self, tmp_path, edit, message):
        path = save_edited_model(tmp_path, TreeParams(), edit)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_model(path)

    def test_json_syntax_error_names_the_file(self, tmp_path):
        path = save_edited_model(tmp_path, TreeParams(), lambda blob: None)
        path.write_text(path.read_text()[:-1])
        with pytest.raises(ValueError) as info:
            load_model(path)
        assert str(info.value).startswith(f"{path}: Expecting ")

    def test_deeply_nested_json(self, tmp_path):
        path = save_edited_model(tmp_path, TreeParams(), lambda blob: None)
        blob = {**json.loads(path.read_text()), "members": "@"}
        path.write_text(json.dumps(blob).replace('"@"', "[" * 100_000 + "]" * 100_000))
        with pytest.raises(ValueError) as info:
            load_model(path)
        assert str(info.value).startswith(f"{path}: maximum recursion depth exceeded")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("where", ["leaf", "threshold", "knn X"])
    def test_non_finite_member_value(self, tmp_path, where, value):
        def edit(blob):
            member = blob["members"][0]
            if where == "knn X":
                member["X"][0][1] = value
            elif where == "leaf":
                member["proba"][member["feature"].index(-1)] = [value, value]
            else:
                assert member["feature"][0] >= 0
                member["threshold"][0] = value
        learner = KnnParams(k_neighbors=3) if where == "knn X" else TreeParams()
        path = save_edited_model(tmp_path, learner, edit)
        # a KNN member's features pass Dataset's rule
        pattern = (f"^{re.escape(f'{path}: features contain NaN or infinite values')}$"
                   if where == "knn X" else "must be finite")
        with pytest.raises(ValueError, match=pattern):
            load_model(path)

    @pytest.mark.parametrize("learner,key,value,message", [
        (TreeParams(), "kind", "svm", "unknown learner kind 'svm'"),
        (TreeParams(), "kind", ["tree"], r"unknown learner kind \['tree'\]"),
        (TreeParams(), "depth", 3, "unexpected keyword argument 'depth'"),
        (TreeParams(), "min_samples_leaf", 2.5, "min_samples_leaf must be an integer"),
        (TreeParams(), "min_samples_leaf", None, r"min_samples_leaf must be an integer in \[1, inf\], got None"),
        (TreeParams(), "max_depth", "4", "max_depth must be an integer"),
        (TreeParams(), "max_depth", 0, "max_depth must be an integer"),
        (KnnParams(k_neighbors=3), "k_neighbors", "3", "k_neighbors must be an integer"),
        (KnnParams(k_neighbors=3), "k_neighbors", 2.5, "k_neighbors must be an integer")])
    def test_learner_setting(self, tmp_path, learner, key, value, message):
        def edit(blob):
            blob["config"]["learner"][key] = value
        with pytest.raises(ValueError, match=message):
            load_model(save_edited_model(tmp_path, learner, edit))

    # both parts of learners.from_dict pass every key to the constructor, so an unknown
    # one is rejected; a member's used to be ignored
    @pytest.mark.parametrize("learner,where,owner", [
        (TreeParams(), "learner", "TreeParams"), (KnnParams(k_neighbors=3), "learner", "KnnParams"),
        (TreeParams(), "member", "TreeClassifier"), (KnnParams(k_neighbors=3), "member", "KnnClassifier")],
        ids=["tree-learner", "knn-learner", "tree-member", "knn-member"])
    def test_unknown_learner_key(self, tmp_path, learner, where, owner):
        def edit(blob):
            (blob["config"]["learner"] if where == "learner" else blob["members"][0])["x"] = 1
        path = save_edited_model(tmp_path, learner, edit)
        message = f"{path}: {owner}.__init__() got an unexpected keyword argument 'x'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_model(path)


def json_paths(value, path=()):
    """The key path of every value inside a JSON blob."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from json_paths(child, path + (key,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([2**64, -2**64]) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


@functools.lru_cache(maxsize=None)
def saved_model_text(learner):
    with tempfile.TemporaryDirectory() as tmp:
        return save_edited_model(Path(tmp), learner, lambda blob: None).read_text()


class TestModelFileFuzz:
    """Any one value of a saved model replaced by any JSON value, NaN and
    Infinity included: the file loads and predicts probability rows, or
    load_model raises ValueError."""

    @pytest.mark.parametrize("learner", [TreeParams(), KnnParams(k_neighbors=3)], ids=["tree", "knn"])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), value=JSON_VALUES)
    def test_one_value_replaced(self, learner, data, value):
        with tempfile.TemporaryDirectory() as tmp:
            blob = json.loads(saved_model_text(learner))
            *parents, key = data.draw(st.sampled_from(list(json_paths(blob))))
            parent = blob
            for step in parents:
                parent = parent[step]
            parent[key] = value
            path = Path(tmp) / "edited.json"
            path.write_text(json.dumps(blob))
            try:
                model = load_model(path)
            except ValueError:
                return
            probs = model.predict_proba_many(np.random.default_rng(0).normal(0, 3, (20, model.d)))
        assert probs.shape == (20, model.m) and (probs >= 0).all()
        assert (np.abs(probs.sum(axis=1) - 1.0) <= 1e-9).all()


@st.composite
def fit_problems(draw):
    """A small multi-class table and a config for either learner."""
    m = draw(st.integers(2, 3))
    d = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(3, 25), min_size=m, max_size=m))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # rounding makes duplicate values, so splits and neighbours meet ties
    X = np.round(np.vstack([gen.normal(c, 1.0, size=(n, d)) for c, n in enumerate(sizes)]), 1)
    y = np.repeat(np.arange(m), sizes)
    if draw(st.booleans()):
        learner = TreeParams(max_depth=draw(st.none() | st.integers(1, 4)),
                             criterion=draw(st.sampled_from(["gini", "entropy"])))
    else:
        learner = KnnParams(k_neighbors=draw(st.integers(1, 3)))
    cfg = DubeConfig(k=draw(st.integers(1, 4)),
                     inter=InterCBStrategy(draw(st.sampled_from(["RUS", "ROS", "RHS"]))),
                     intra=IntraCBStrategy(draw(st.sampled_from(["Uniform", "HEM", "SHEM"]))),
                     alpha=draw(st.sampled_from([0.0, 0.3])), learner=learner,
                     seed=draw(st.integers(0, 2**32 - 1)))
    return Dataset(X, y, m=m), cfg


class TestRoundTripProperty:
    @settings(max_examples=40, deadline=None)
    @given(fit_problems())
    def test_predictions_byte_equal_after_load(self, problem):
        ds, cfg = problem
        model = dube_fit(ds, cfg)
        probe = np.vstack([ds.features, np.random.default_rng(0).normal(0, 3, (30, ds.n_features))])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.json"
            save_model(model, path)
            clone = load_model(path)
        assert clone.config == model.config
        assert (clone.predict_proba_many(probe).tobytes()
                == model.predict_proba_many(probe).tobytes())


def assert_same_member(got, want):
    """Fitted members equal array for array, dtype and bytes, and in every other field."""
    assert type(got) is type(want) and vars(got).keys() == vars(want).keys()
    for name, value in vars(got).items():
        if isinstance(value, np.ndarray):
            other = vars(want)[name]
            assert value.dtype == other.dtype and value.tobytes() == other.tobytes(), name
        else:
            assert value == vars(want)[name], name


class TestLockstepMatchesDubeFit:
    """A grid of alphas fitted in lockstep against one dube_fit per alpha
    and against the one-config-at-a-time reference loop."""

    @settings(max_examples=60, deadline=None)
    @given(fit_problems(), st.data())
    def test_members_bit_identical(self, problem, data):
        ds, cfg = problem
        alphas = data.draw(st.lists(st.sampled_from([0.0, 0.05, 0.3, 1.0]), min_size=1, max_size=4))
        grid = data.draw(st.permutations([0.0, alphas[0], *alphas]))  # 0.0 and a repeat
        configs = [replace(cfg, alpha=alpha) for alpha in grid]
        models = dube_fit_lockstep(ds, cfg, grid)
        assert [model.config for model in models] == configs
        for model, config in zip(models, configs):
            alone, reference = dube_fit(ds, config).members, reference_members(ds, config)
            assert len(model.members) == len(alone) == len(reference) == cfg.k
            for got, want, ref in zip(model.members, alone, reference):
                assert_same_member(got, want)
                assert_same_member(got, ref)


def identity_table(sizes, d, seed):
    """Class c's rows around c on a 0.1 grid, so splits and neighbours meet ties."""
    gen = np.random.default_rng(seed)
    X = np.round(np.vstack([gen.normal(c, 1.0, size=(n, d)) for c, n in enumerate(sizes)]), 1)
    return Dataset(X, np.repeat(np.arange(len(sizes)), sizes), m=len(sizes))


@st.composite
def identity_problems(draw, equal_counts=False, trees_only=False):
    """A table of 2-3 classes of at most 40 rows and 1-3 features, and a config."""
    m = draw(st.integers(2, 3))
    sizes = (draw(st.lists(st.integers(2, 40), min_size=m, max_size=m)) if not equal_counts
             else [draw(st.integers(2, 40))] * m)
    ds = identity_table(sizes, draw(st.integers(1, 3)), draw(st.integers(0, 2**32 - 1)))
    learner = TreeParams(max_depth=draw(st.none() | st.integers(1, 4)),
                         criterion=draw(st.sampled_from(["gini", "entropy"])))
    if not trees_only and draw(st.booleans()):
        learner = KnnParams(k_neighbors=draw(st.integers(1, 3)))
    cfg = DubeConfig(k=draw(st.integers(1, 4)),
                     inter=InterCBStrategy(draw(st.sampled_from(["RUS", "ROS", "RHS"]))),
                     intra=IntraCBStrategy(draw(st.sampled_from(["Uniform", "HEM", "SHEM"]))),
                     alpha=draw(st.sampled_from([0.0, 0.3])), learner=learner,
                     seed=draw(st.integers(0, 2**32 - 1)))
    return ds, cfg


def identity_probe(ds):
    return np.vstack([ds.features, np.random.default_rng(0).normal(0, 3, (20, ds.n_features))])


class TestPaperIdentities:
    """Identities that follow from the paper's definitions, checked end to
    end through dube_fit as equal predicted probabilities."""

    @settings(max_examples=100, deadline=None)
    @given(identity_problems())
    @example((identity_table([12, 30, 5], 2, 1),
              DubeConfig(k=4, inter=InterCBStrategy("RHS"), alpha=0.3, learner=KnnParams(3), seed=8)))
    def test_shem_with_one_bin_is_uniform(self, problem):
        # one bin holds every error, so every row has weight 1
        ds, cfg = problem
        shem = dube_fit(ds, replace(cfg, intra=IntraCBStrategy("SHEM", bins=1)))
        uniform = dube_fit(ds, replace(cfg, intra=IntraCBStrategy("Uniform")))
        probe = identity_probe(ds)
        assert np.array_equal(shem.predict_proba_many(probe), uniform.predict_proba_many(probe))

    @settings(max_examples=100, deadline=None)
    @given(identity_problems(equal_counts=True))
    @example((identity_table([15, 15], 3, 2),
              DubeConfig(k=4, intra=IntraCBStrategy("HEM"), alpha=0.3, seed=5)))
    def test_inter_strategies_agree_on_equal_class_counts(self, problem):
        # the smallest, largest and mean class size are one n
        ds, cfg = problem
        probe = identity_probe(ds)
        rus, ros, rhs = (dube_fit(ds, replace(cfg, inter=InterCBStrategy(tag))).predict_proba_many(probe)
                         for tag in ("RUS", "ROS", "RHS"))
        assert np.array_equal(rus, ros) and np.array_equal(rus, rhs)

    @settings(max_examples=100, deadline=None)
    @given(identity_problems(equal_counts=True, trees_only=True))
    @example((identity_table([20, 20, 20], 1, 3), DubeConfig(k=4, seed=6)))
    def test_ros_uniform_without_noise_grows_copies_of_the_raw_tree(self, problem):
        # every row is drawn once, and no tree depends on row order; KNN
        # breaks distance ties by row index, so it is left out
        ds, cfg = problem
        cfg = replace(cfg, inter=InterCBStrategy("ROS"), intra=IntraCBStrategy("Uniform"), alpha=0.0)
        probe = identity_probe(ds)
        raw = tree_fit(ds, cfg.learner).predict_proba_many(probe)
        members = dube_fit(ds, cfg).members
        assert len(members) == cfg.k
        for member in members:
            assert np.array_equal(member.predict_proba_many(probe), raw)


class TestHugeAlpha:
    """alpha * noise overflows: the fit ends in the library's error, with no warning."""

    @pytest.mark.parametrize("fit, grid", [
        (lambda ds, cfg, grid: dube_fit(ds, replace(cfg, alpha=grid[0])), [1e308]),
        (dube_fit_lockstep, [0.0, 1e308, 0.1]),
    ], ids=["dube_fit", "lockstep"])
    def test_non_finite_perturbation_raises(self, fit, grid):
        ds = small_dataset(6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DatasetError, match="alpha up to 1e\\+308 gives non-finite features"):
                fit(ds, DubeConfig(k=3, seed=2), grid)
