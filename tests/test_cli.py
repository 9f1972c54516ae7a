import concurrent.futures
import errno
import os
import pickle
import stat
import subprocess
import sys
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dube
from dube import Dataset, load_csv, class_counts, make_overlap_2d
from dube.balancing import TARGETS, WEIGHTS
from dube.biaslab import ToyConfig
from dube.dataset import OVERLAP_SEPARATION
from dube.learners import CRITERIA, LEARNERS
from dube.cli import (CliError, DEFAULT_ALPHA_GRID, build_dube_config, build_parser, main,
                      resolve_options, run_bench, run_biaslab, run_cv_cell, run_noise_sweep,
                      run_param_sweep, run_synth, _COMMANDS, _DEFAULTS, _cv_cells, _cv_job,
                      _read_config_file)
from dube.ensemble import DubeConfig


def options(command, **overrides):
    merged = dict(_DEFAULTS[command])
    merged.update(overrides)
    return merged


def write_dataset(path, n_min=30, n_maj=120, seed=3):
    report = run_synth(options("synth", generator="overlap2d", n_min=n_min,
                               n_maj=n_maj, overlap="mid", seed=seed))
    path.write_text(report.render())
    return str(path)


def strip_volatile(text):
    return [line for line in text.splitlines()
            if not line.startswith(("# generated_at", "# timing"))]


class TestSynth:
    def test_round_trip_through_load_csv(self, tmp_path):
        path = write_dataset(tmp_path / "toy.csv", n_min=12, n_maj=48)
        ds = load_csv(path, "label")
        assert class_counts(ds).tolist() == [48, 12]
        assert ds.label_names == ("majority", "minority")

    def test_gaussian_generator(self, tmp_path):
        report = run_synth(options("synth", generator="gaussian1d", n_min=3, n_maj=15))
        assert len(report.rows) == 18


class TestBench:
    def test_report_structure(self, tmp_path):
        path = write_dataset(tmp_path / "toy.csv")
        report = run_bench(options("bench", input=path, k=3, folds=3, seed=1))
        cells = [row for row in report.rows if row[0] == "cell"]
        assert len(cells) == 3
        kinds = [row[0] for row in report.rows]
        assert kinds.count("mean") == 1 and kinds.count("std") == 1
        assert "resample_ms_per_iteration_mean" in report.timing
        # worker processes send each cell's resample times back with its metrics
        pooled = run_bench(options("bench", input=path, k=3, folds=3, seed=1, jobs=2))
        assert pooled.body() == report.body()
        timing = pooled.render().splitlines()[1]
        assert timing.startswith("# timing: ")
        assert "resample_ms_per_iteration_mean=" in timing and "resample_ms_total=" in timing
        assert pooled.timing["resample_ms_total"] > 0

    @pytest.mark.parametrize("k", [1, 3])
    def test_cell_returns_one_resample_time_per_resampling_iteration(self, k):
        train, test = make_overlap_2d(10, 30, "mid", seed=2), make_overlap_2d(5, 15, "mid", seed=3)
        *_, resample_ms = run_cv_cell(train, test, DubeConfig(k=k), 7, None)
        assert len(resample_ms) == k - 1
        assert all(ms >= 0 for ms in resample_ms)

    def test_determinism_two_executions(self, tmp_path):
        path = write_dataset(tmp_path / "toy.csv")
        opts = options("bench", input=path, k=3, folds=2, repeats=2, seed=5)
        a = run_bench(opts).body()
        b = run_bench(opts).body()
        assert a == b

    def test_serial_equals_concurrent(self, tmp_path):
        path = write_dataset(tmp_path / "toy.csv")
        serial = run_bench(options("bench", input=path, k=3, folds=3, seed=5, jobs=1))
        parallel = run_bench(options("bench", input=path, k=3, folds=3, seed=5, jobs=4))
        assert serial.body() == parallel.body()

    def test_cv_job_and_result_survive_pickle(self, tmp_path):
        # worker processes receive each job and return its result pickled
        opts = options("bench", input=write_dataset(tmp_path / "toy.csv"), k=2, folds=2, seed=5)
        ds = load_csv(opts["input"], "label")
        point = ("", build_dube_config(opts), 0.1, DEFAULT_ALPHA_GRID)
        job = (opts["seed"], point, ds, _cv_cells(ds, opts)[0])
        result = _cv_job(job)
        assert isinstance(result, tuple), result  # a string is a failed cell
        # the last field holds wall-clock resample times
        assert pickle.dumps(_cv_job(pickle.loads(pickle.dumps(job)))[:-1]) == \
            pickle.dumps(result[:-1])
        blob = pickle.dumps(result)
        assert pickle.dumps(pickle.loads(blob)) == blob

    def test_cells_are_split_when_their_jobs_run(self, monkeypatch):
        # 4 repeats x 5 folds of a 20,000 x 16 table: only a running cell's
        # train and test copies may exist, not those of every cell at once
        import dube.cli as cli
        base = make_overlap_2d(2000, 18000, "mid", 0)
        ds = Dataset(np.tile(base.features, 8), base.labels)
        monkeypatch.setattr(cli, "run_cv_cell", lambda train, test, *rest: (None, 0.0, []))
        opts = options("bench", folds=5, repeats=4, jobs=1)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            [results] = cli._cross_validate(ds, opts, [("", None, None, None)], [])
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert len(results) == 20
        assert peak < 4 * ds.features.nbytes, peak / ds.features.nbytes

    def test_no_more_workers_than_jobs(self, tmp_path, monkeypatch):
        # the fake pool runs in this process, so no worker is ever started
        import dube.cli as cli
        started = []

        class InProcessPool:
            def __init__(self, max_workers, mp_context):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        path = write_dataset(tmp_path / "toy.csv")
        serial = run_bench(options("bench", input=path, k=2, folds=3, jobs=1)).body("text")
        for cpus, workers in [(16, 3), (2, 2)]:  # 3 cells, then 2 usable CPUs
            monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
            started.clear()
            body = run_bench(options("bench", input=path, k=2, folds=3, jobs=8)).body("text")
            assert started == [workers]
            assert body == serial

    def test_folds_must_be_at_least_two(self, tmp_path):
        path = write_dataset(tmp_path / "toy.csv")
        with pytest.raises(CliError, match="folds"):
            run_bench(options("bench", input=path, folds=1))

    def test_missing_input(self):
        with pytest.raises(CliError, match="input"):
            run_bench(options("bench"))

    def test_details_section_serializes_per_class_and_confusion(self, tmp_path):
        path = write_dataset(tmp_path / "toy.csv")
        report = run_bench(options("bench", input=path, k=2, folds=2, seed=4,
                                   details=True))
        title, columns, rows = report.extra_sections[0]
        assert "per-class" in title
        assert columns[-2:] == ["pred_0", "pred_1"]
        assert len(rows) == 2 * 2  # cells x classes
        for row in rows:
            confusion_count = row[-2] + row[-1]
            assert confusion_count > 0
        body = report.body("text")
        assert "precision" in body

    def test_auto_alpha_records_choice(self, tmp_path):
        path = write_dataset(tmp_path / "toy.csv", n_min=40, n_maj=160)
        report = run_bench(options("bench", input=path, k=2, folds=2, seed=2, alpha="auto"))
        cells = [row for row in report.rows if row[0] == "cell"]
        assert all(isinstance(row[3], float) for row in cells)


class TestNoiseSweep:
    def test_row_count_matches_grid(self, tmp_path):
        path = write_dataset(tmp_path / "toy.csv", n_min=40, n_maj=160)
        report = run_noise_sweep(options(
            "noise-sweep", input=path, k=2, folds=2, seed=3,
            noise_grid=[0.0, 0.1, 0.2, 0.3, 0.4, 0.5], inter="rus"))
        assert len(report.rows) == 18  # 6 ratios x 3 strategies
        strategies = {row[1] for row in report.rows}
        assert strategies == {"uniform", "hem", "shem"}

    def test_empty_grid_rejected(self, tmp_path):
        path = write_dataset(tmp_path / "toy.csv")
        with pytest.raises(CliError, match="noise-grid"):
            run_noise_sweep(options("noise-sweep", input=path, noise_grid=[]))

    @pytest.mark.parametrize("grid", ["0,1.5", "nan", "-0.1"])
    @pytest.mark.parametrize("from_file", [False, True])
    def test_ratio_outside_unit_interval_fails_before_any_cell(
            self, tmp_path, capsys, monkeypatch, grid, from_file):
        import dube.cli as cli

        def no_cells(*args):
            raise AssertionError("a cell ran")
        monkeypatch.setattr(cli, "run_cv_cell", no_cells)
        argv = ["noise-sweep", "--input", write_dataset(tmp_path / "toy.csv"), "--k", "2"]
        if from_file:
            (tmp_path / "run.conf").write_text(f"noise_grid = {grid}\n")
            argv += ["--config", str(tmp_path / "run.conf")]
        else:
            argv += ["--noise-grid", grid]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "--noise-grid ratios must be in [0, 1], got" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("grid, message", [("", "must be a nonempty list"),
                                               ("0.1,0.2,0.10", "repeats the value 0.1")])
    @pytest.mark.parametrize("from_file", [False, True])
    def test_empty_or_repeating_grid_fails_before_any_cell(
            self, tmp_path, capsys, monkeypatch, grid, message, from_file):
        import dube.cli as cli

        def no_cells(*args):
            raise AssertionError("a cell ran")
        monkeypatch.setattr(cli, "run_cv_cell", no_cells)
        argv = ["noise-sweep", "--input", write_dataset(tmp_path / "toy.csv"), "--k", "2"]
        if from_file:
            (tmp_path / "run.conf").write_text(f"noise_grid = {grid}\n")
            argv += ["--config", str(tmp_path / "run.conf")]
        else:
            argv += ["--noise-grid", grid]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"error: --noise-grid {message}" in captured.err
        assert captured.out == ""

    # every point sets its own intra-class strategy: none is taken or echoed
    def test_intra_flag_rejected(self, tmp_path, capsys):
        path = write_dataset(tmp_path / "toy.csv")
        with pytest.raises(SystemExit) as exc:
            main(["noise-sweep", "--input", path, "--intra", "hem"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --intra" in capsys.readouterr().err

    def test_intra_config_key_rejected(self, tmp_path, capsys):
        path = write_dataset(tmp_path / "toy.csv")
        cfg = tmp_path / "run.conf"
        cfg.write_text("intra = hem\n")
        assert main(["noise-sweep", "--input", path, "--config", str(cfg)]) == 2
        assert "run.conf:1: unknown setting 'intra'" in capsys.readouterr().err

    def test_config_line_names_no_intra(self, tmp_path):
        path = write_dataset(tmp_path / "toy.csv")
        report = run_noise_sweep(options("noise-sweep", input=path, k=2, folds=2,
                                         noise_grid=[0.0]))
        assert "intra=" not in report.config_line
        assert " bins=5 " in report.config_line

    def test_multiclass_rejected(self, tmp_path):
        path = tmp_path / "multi.csv"
        gen = np.random.default_rng(0)
        lines = ["f0,label"] + [f"{gen.normal()},{label}" for label in "abc" * 30]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CliError, match="binary"):
            run_noise_sweep(options("noise-sweep", input=str(path), noise_grid=[0.0]))


class TestLeakageGuard:
    def test_noise_never_touches_test_folds(self, tmp_path, monkeypatch):
        import dube.cli as cli
        path = write_dataset(tmp_path / "toy.csv", n_min=30, n_maj=120)
        clean = load_csv(path, "label")
        clean_label = {clean.features[i].tobytes(): clean.labels[i]
                       for i in range(clean.n_rows)}
        seen_tests = []
        original = cli.run_cv_cell

        def recording(train, test, *args, **kwargs):
            seen_tests.append(test)
            return original(train, test, *args, **kwargs)

        monkeypatch.setattr(cli, "run_cv_cell", recording)
        run_noise_sweep(options("noise-sweep", input=path, k=2, folds=3,
                                seed=7, noise_grid=[0.0, 0.4]))
        assert seen_tests
        for test_ds in seen_tests:
            for i in range(test_ds.n_rows):
                key = test_ds.features[i].tobytes()
                assert clean_label[key] == test_ds.labels[i]


class TestPartialFailure:
    def test_failed_cells_reported_and_exit_one(self, tmp_path, capsys):
        # minority count 11 over 5 folds leaves 8 or 9 minority training
        # rows; an under-sampled resample has 16 or 18 rows, so 17
        # neighbors is satisfiable only in some cells
        path = write_dataset(tmp_path / "toy.csv", n_min=11, n_maj=44)
        code = main(["bench", "--input", path, "--k", "2", "--folds", "5",
                     "--inter", "rus", "--learner", "knn",
                     "--knn-neighbors", "17", "--seed", "3"])
        assert code == 1
        out = capsys.readouterr().out
        assert "# failed:" in out
        assert "exceeds" in out

    def test_bins_above_2_53_rejected_before_any_cell(self, tmp_path, capsys):
        path = write_dataset(tmp_path / "toy.csv")
        assert main(["bench", "--input", path, "--k", "2", "--folds", "2",
                     "--bins", "10000000000000000000"]) == 2
        captured = capsys.readouterr()
        assert ("error: bins must be an integer in [1, 9007199254740992], got 10000000000000000000"
                in captured.err)
        assert "# failed:" not in captured.out

    def test_all_cells_failed_is_config_error(self, tmp_path, capsys):
        path = write_dataset(tmp_path / "toy.csv", n_min=11, n_maj=44)
        code = main(["bench", "--input", path, "--k", "2", "--folds", "5",
                     "--inter", "rus", "--learner", "knn",
                     "--knn-neighbors", "40", "--seed", "3"])
        assert code == 2
        assert "all cells failed" in capsys.readouterr().err


class TestParamSweep:
    def test_alpha_grid_rows(self, tmp_path):
        path = write_dataset(tmp_path / "toy.csv")
        report = run_param_sweep(options(
            "param-sweep", input=path, k=2, folds=2, seed=1, alpha_grid=[0.0, 0.2, 0.4]))
        grid_rows = [row for row in report.rows if row[0] == "grid"]
        assert [row[1] for row in grid_rows] == [0.0, 0.2, 0.4]

    def test_single_point_grid(self, tmp_path):
        path = write_dataset(tmp_path / "toy.csv")
        report = run_param_sweep(options(
            "param-sweep", input=path, k=2, folds=2, seed=1, bins_grid=[5]))
        assert len(report.rows) == 1

    def test_select_appends_validation_choice(self, tmp_path):
        path = write_dataset(tmp_path / "toy.csv", n_min=40, n_maj=160)
        report = run_param_sweep(options(
            "param-sweep", input=path, k=2, folds=2, seed=1,
            alpha_grid=[0.0, 0.3], select=True))
        selected = [row for row in report.rows if row[0] == "selected"]
        assert len(selected) == 1
        assert selected[0][1] in (0.0, 0.15, 0.3)  # median of per-cell choices

    def test_selected_cells_equal_the_grid_cells_at_their_alphas(self, tmp_path, monkeypatch):
        # a selected cell is fitted like an --alpha auto cell: with the alpha
        # it tuned, from the same cell seed as the grid point at that alpha
        import dube.cli as cli
        calls, original = [], cli._cross_validate
        monkeypatch.setattr(cli, "_cross_validate",
                            lambda *args: calls.append(original(*args)) or calls[-1])
        path = write_dataset(tmp_path / "toy.csv")  # the golden files' table
        grid = [0.0, 0.2, 0.4]
        report = run_param_sweep(options("param-sweep", input=path, k=3, folds=3, seed=1,
                                         alpha_grid=grid, select=True))
        [(*grid_results, selected)] = calls
        assert len(selected) == 3 and len({alpha for _, _, _, alpha, _ in selected}) == 2
        for rep, fold, metrics, alpha, _ in selected:
            [match] = [r[2] for r in grid_results[grid.index(alpha)] if r[:2] == (rep, fold)]
            assert pickle.dumps(match) == pickle.dumps(metrics)
        assert report.rows[-1][0] == "selected" and len(report.rows[-1]) == 8

    def test_select_body_is_the_same_under_jobs(self, tmp_path):
        path = write_dataset(tmp_path / "toy.csv", n_min=40, n_maj=160)
        opts = options("param-sweep", input=path, k=2, folds=3, seed=4,
                       alpha_grid=[0.0, 0.3], select=True)
        serial = run_param_sweep(opts)
        parallel = run_param_sweep({**opts, "jobs": 2})
        assert serial.rows[-1][0] == "selected"
        assert serial.body() == parallel.body()

    def test_select_fails_cell_by_cell(self, tmp_path, capsys):
        # alpha 1e308 makes perturb non-finite: its grid cells fail, and so do
        # the selected cells, whose tuning fits it in lockstep with alpha 0
        path = write_dataset(tmp_path / "toy.csv")
        code = main(["param-sweep", "--input", path, "--k", "2", "--folds", "3",
                     "--alpha-grid", "0,1e308", "--select"])
        out = capsys.readouterr().out
        assert code == 1
        rows = [line for line in out.splitlines() if not line.startswith("#")]
        assert [row.split(",")[:2] for row in rows[1:]] == [["grid", "0.0"]]
        failed = [line for line in out.splitlines() if line.startswith("# failed:")]
        assert [line.split(" repeat=")[0] for line in failed] == \
            ["# failed: alpha=1e+308"] * 3 + ["# failed: selected"] * 3
        assert all("non-finite" in line for line in failed)

    @pytest.mark.parametrize("key, value, message", [
        ("alpha-grid", "", "must be a nonempty list"),
        ("bins-grid", "", "must be a nonempty list"),
        ("alpha-grid", "0.1,0.3,0.10", "repeats the value 0.1"),
        ("alpha-grid", "0,-0", "repeats the value -0.0"),  # the same perturbation
        ("bins-grid", "3,1,3", "repeats the value 3")])
    @pytest.mark.parametrize("from_file", [False, True])
    def test_empty_or_repeating_grid_fails_before_any_cell(
            self, tmp_path, capsys, monkeypatch, key, value, message, from_file):
        import dube.cli as cli

        def no_cells(*args):
            raise AssertionError("a cell ran")
        monkeypatch.setattr(cli, "run_cv_cell", no_cells)
        argv = ["param-sweep", "--input", write_dataset(tmp_path / "toy.csv"), "--k", "2"]
        if from_file:
            (tmp_path / "run.conf").write_text(f"{key} = {value}\n")
            argv += ["--config", str(tmp_path / "run.conf")]
        else:
            argv += [f"--{key}", value]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"error: --{key} {message}" in captured.err
        assert captured.out == ""

    def test_single_bin_equals_uniform_exactly(self, tmp_path):
        # SHEM with one bin assigns weight 1.0 everywhere, consuming the
        # same draws as uniform weighting: identical models, identical rows
        path = write_dataset(tmp_path / "toy.csv")
        sweep = run_param_sweep(options(
            "param-sweep", input=path, k=3, folds=2, seed=6, intra="shem",
            bins_grid=[1]))
        bench = run_bench(options("bench", input=path, k=3, folds=2, seed=6,
                                  intra="uniform"))
        mean_row = next(row for row in bench.rows if row[0] == "mean")
        grid_row = sweep.rows[0]
        assert grid_row[2] == mean_row[4]  # macro_f1 mean
        assert grid_row[4] == mean_row[5]  # mcc mean
        assert grid_row[6] == mean_row[6]  # macro_auroc mean

    def test_exactly_one_grid_required(self, tmp_path):
        path = write_dataset(tmp_path / "toy.csv")
        with pytest.raises(CliError, match="exactly one"):
            run_param_sweep(options("param-sweep", input=path))
        with pytest.raises(CliError, match="exactly one"):
            run_param_sweep(options("param-sweep", input=path,
                                    alpha_grid=[0.1], bins_grid=[5]))

    def test_auto_alpha_rejected(self, tmp_path, capsys):
        # the grid points run at fixed alphas; auto would be ignored
        path = write_dataset(tmp_path / "toy.csv")
        assert main(["param-sweep", "--input", path, "--bins-grid", "1,5",
                     "--alpha", "auto"]) == 2
        assert "--alpha-grid ... --select" in capsys.readouterr().err

    @pytest.mark.parametrize("intra", ["hem", "uniform"])
    def test_bins_grid_needs_shem(self, tmp_path, capsys, intra):
        # only SHEM reads bins: every grid point would give the same row
        path = write_dataset(tmp_path / "toy.csv")
        assert main(["param-sweep", "--input", path, "--bins-grid", "1,5",
                     "--intra", intra]) == 2
        assert "needs --intra shem" in capsys.readouterr().err

    def test_bins_grid_rejects_select(self, tmp_path, capsys):
        # --select chooses an alpha; a bins sweep has no alpha grid to choose from
        path = write_dataset(tmp_path / "toy.csv")
        assert main(["param-sweep", "--input", path, "--bins-grid", "1,5",
                     "--select"]) == 2
        assert "needs --alpha-grid" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("alpha-grid", "0.1,x", "bad float list '0.1,x'"),
        ("bins-grid", "1,2.5", "bad int list '1,2.5'")])
    def test_bad_list_named_in_flag_and_config(self, tmp_path, capsys, key, value, message):
        path = write_dataset(tmp_path / "toy.csv")
        with pytest.raises(SystemExit) as exc:
            main(["param-sweep", "--input", path, f"--{key}", value])
        assert exc.value.code == 2 and message in capsys.readouterr().err
        cfg = tmp_path / "run.conf"
        cfg.write_text(f"{key} = {value}\n")
        assert main(["param-sweep", "--input", path, "--config", str(cfg)]) == 2
        assert f"run.conf:1: {message}" in capsys.readouterr().err


class TestBiaslab:
    def test_strategy_rows_and_bound_section(self):
        report = run_biaslab(options("biaslab", trials=200, seed=4))
        assert len(report.rows) == 10  # 5 strategies x 2 alpha_sigmas
        assert len(report.extra_sections) == 1
        _, columns, bound_rows = report.extra_sections[0]
        assert len(bound_rows) == 6
        assert columns[0] == "n_rep"

    def test_paired_ros_equals_none_row(self):
        report = run_biaslab(options("biaslab", trials=300, seed=8))
        by_key = {(row[0], row[1]): row[2] for row in report.rows}
        assert by_key[("ROS", 0.0)] == by_key[("none", 0.0)]

    def test_determinism(self):
        a = run_biaslab(options("biaslab", trials=150, seed=2)).body()
        b = run_biaslab(options("biaslab", trials=150, seed=2)).body()
        assert a == b

    def test_one_draw_and_one_call_per_row(self, monkeypatch):
        import dube.cli as cli
        calls = {"draw_trials": [], "run_bias_trials": []}

        def counting(name):
            original = getattr(cli, name)

            def wrapper(*args, **kwargs):
                calls[name].append(args)
                return original(*args, **kwargs)
            return wrapper
        for name in calls:
            monkeypatch.setattr(cli, name, counting(name))
        report = run_biaslab(options("biaslab", trials=30, seed=5, alpha_sigmas=[0.0, 0.1, 0.3]))
        assert len(calls["draw_trials"]) == 1
        rows = [(strategy, alpha) for strategy, alpha, *_ in report.rows]
        assert [args[1:3] for args in calls["run_bias_trials"]] == rows
        assert len({id(args[0]) for args in calls["run_bias_trials"]}) == 1  # the one draws
        assert len(rows) == 5 * 3

    @pytest.mark.parametrize("flags", [["--sigma", "nan"], ["--mu-maj", "inf"],
                                       ["--mu-min=-inf"]])
    def test_non_finite_toy_exit_code(self, capsys, flags):
        assert main(["biaslab", "--trials", "5"] + flags) == 2
        assert "must be finite" in capsys.readouterr().err

    def test_one_minority_point_fails_before_any_trial(self, capsys, monkeypatch):
        import dube.cli as cli

        def no_draws(cfg):
            raise AssertionError("trials drawn")
        monkeypatch.setattr(cli, "draw_trials", no_draws)
        assert main(["biaslab", "--trials", "5", "--n-min", "1"]) == 2
        assert "SMOTE1D needs at least two minority points" in capsys.readouterr().err

    @pytest.mark.parametrize("from_file", [False, True])
    def test_empty_alpha_sigmas_fail_before_any_trial(self, tmp_path, capsys, monkeypatch,
                                                      from_file):
        import dube.cli as cli

        def no_draws(cfg):
            raise AssertionError("trials drawn")
        monkeypatch.setattr(cli, "draw_trials", no_draws)
        argv = ["biaslab", "--trials", "5"]
        if from_file:
            (tmp_path / "lab.conf").write_text("alpha_sigmas =\n")
            argv += ["--config", str(tmp_path / "lab.conf")]
        else:
            argv += ["--alpha-sigmas", ""]
        assert main(argv) == 2
        assert "--alpha-sigmas must be a nonempty list" in capsys.readouterr().err

    @pytest.mark.parametrize("from_file", [False, True])
    def test_repeated_alpha_sigma_fails_before_any_trial(self, tmp_path, capsys, monkeypatch,
                                                         from_file):
        import dube.cli as cli

        def no_draws(cfg):
            raise AssertionError("trials drawn")
        monkeypatch.setattr(cli, "draw_trials", no_draws)
        argv = ["biaslab", "--trials", "5"]
        if from_file:
            (tmp_path / "lab.conf").write_text("alpha_sigmas = 0.2,0,0.20\n")
            argv += ["--config", str(tmp_path / "lab.conf")]
        else:
            argv += ["--alpha-sigmas", "0.2,0,0.20"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "error: --alpha-sigmas repeats the value 0.2" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_alpha_sigma_fails_before_any_trial(self, capsys, monkeypatch, value):
        import dube.cli as cli

        def no_draws(cfg):
            raise AssertionError("trials drawn")
        monkeypatch.setattr(cli, "draw_trials", no_draws)
        assert main(["biaslab", "--trials", "5", "--alpha-sigmas", f"0.2,{value}"]) == 2
        assert f"alpha_sigma must be finite and >= 0, got {value}" in capsys.readouterr().err


class TestMainEntry:
    def test_bench_writes_report(self, tmp_path, capsys):
        data = write_dataset(tmp_path / "toy.csv")
        out = tmp_path / "report.csv"
        code = main(["bench", "--input", data, "--k", "2", "--folds", "2",
                     "--seed", "3", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.startswith("# generated_at=")
        assert "macro_auroc" in text

    def test_config_error_exit_code(self, tmp_path, capsys):
        data = write_dataset(tmp_path / "toy.csv")
        assert main(["bench", "--input", data, "--folds", "1"]) == 2
        assert "folds" in capsys.readouterr().err

    def test_missing_file_exit_code(self, capsys):
        assert main(["bench", "--input", "/nonexistent.csv"]) == 2

    @pytest.mark.parametrize("argv, size", [(["synth", "--n-maj", str(2**57)], "1.00 EiB"),
                                            (["biaslab", "--trials", str(2**50)], "120. PiB")],
                             ids=["synth", "biaslab"])
    def test_unallocatable_size_exit_code(self, argv, size):
        # each request (2**60 bytes and more) is beyond what any machine can
        # map, and the child's address space is capped at 2 GiB besides, so
        # no case can commit real memory
        script = ("import resource, sys\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))\n"
                  "from dube.cli import main\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "PYTHONPATH": os.path.dirname(os.path.dirname(dube.__file__))}
        done = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                              text=True, env=env, timeout=120)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith(f"error: Unable to allocate {size} ")
        assert done.stderr.count("\n") == 1

    def test_label_only_table_exit_code(self, tmp_path, capsys):
        data = tmp_path / "labels.csv"
        data.write_text("label\n" + "a\nb\n" * 4)
        assert main(["bench", "--input", str(data), "--folds", "2"]) == 2
        assert "no feature columns besides the label column" in capsys.readouterr().err

    def test_huge_alpha_ends_in_library_error(self, tmp_path, capsys):
        # alpha * noise overflows; perturb reports it rather than a RuntimeWarning
        data = write_dataset(tmp_path / "toy.csv", n_min=12, n_maj=48)
        assert main(["bench", "--input", data, "--k", "2", "--folds", "2", "--alpha", "1e308"]) == 2
        err = capsys.readouterr().err
        assert "all cells failed" in err and "gives non-finite features" in err

    def test_text_format(self, tmp_path, capsys):
        data = write_dataset(tmp_path / "toy.csv")
        code = main(["bench", "--input", data, "--k", "2", "--folds", "2",
                     "--format", "text"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "macro_auroc" in stdout
        assert "," not in stdout.splitlines()[-2]

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        data = write_dataset(tmp_path / "toy.csv")
        cfg = tmp_path / "run.conf"
        cfg.write_text("k = 2\nfolds = 2\nseed = 9\n# comment line\n")
        code = main(["bench", "--input", data, "--config", str(cfg), "--k", "3"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "k=3" in stdout  # flag wins over file
        assert "folds=2" in stdout

    @pytest.mark.parametrize("command,setting", [
        ("bench", "inter = foo"), ("bench", "intra = foo"), ("bench", "format = xml"),
        ("bench", "learner = svm"), ("synth", "generator = foo")])
    def test_config_value_outside_choices(self, tmp_path, capsys, command, setting):
        data = write_dataset(tmp_path / "toy.csv")
        cfg = tmp_path / "run.conf"
        cfg.write_text(setting + "\n")
        argv = [command, "--config", str(cfg)] + (["--input", data] if command == "bench" else [])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"run.conf:1: invalid {setting.split()[0]}" in err and "choose from" in err

    @pytest.mark.parametrize("argv", [["bench", "--k", "2", "--folds", "2"],
                                      ["biaslab", "--trials", "20"]])
    def test_unwritable_out(self, tmp_path, capsys, argv):
        data = write_dataset(tmp_path / "toy.csv")
        out = tmp_path / "missing" / "report.csv"
        if argv[0] == "bench":
            argv = argv + ["--input", data]
        assert main(argv + ["--out", str(out)]) == 2
        assert f"error: cannot write {out}" in capsys.readouterr().err

    def test_failed_out_write_keeps_the_old_report(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "lab.csv"
        out.write_text("old report\n")

        def disk_full(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device")
        monkeypatch.setattr(os, "replace", disk_full)
        assert main(["biaslab", "--trials", "20", "--out", str(out)]) == 2
        assert f"error: cannot write {out}: No space left on device" in capsys.readouterr().err
        assert out.read_text() == "old report\n"
        assert [p.name for p in tmp_path.iterdir()] == ["lab.csv"]

    def test_out_to_a_pipe_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert main(["biaslab", "--trials", "20", "--out", str(fifo)]) == 0
            text = os.read(reader, 1 << 16).decode()
        finally:
            os.close(reader)
        assert "mean_bias" in text and stat.S_ISFIFO(os.stat(fifo).st_mode)

    @pytest.mark.parametrize("command", ["bench", "noise-sweep", "param-sweep"])
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, command, jobs):
        data = write_dataset(tmp_path / "toy.csv")
        assert main([command, "--input", data, "--jobs", jobs]) == 2
        assert "error: --jobs must be >= 1" in capsys.readouterr().err
        cfg = tmp_path / "run.conf"
        cfg.write_text(f"jobs = {jobs}\n")
        assert main([command, "--input", data, "--config", str(cfg)]) == 2
        assert "error: --jobs must be >= 1" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        data = write_dataset(tmp_path / "toy.csv")
        cfg = tmp_path / "run.conf"
        cfg.write_text("vorpal = 12\n")
        assert main(["bench", "--input", data, "--config", str(cfg)]) == 2

    # settings that would change nothing in these commands' reports are not taken
    @pytest.mark.parametrize("command, flag, value", [
        ("noise-sweep", "details", None), ("param-sweep", "details", None),
        ("synth", "format", "text")])
    def test_setting_without_effect_rejected(self, tmp_path, capsys, command, flag, value):
        with pytest.raises(SystemExit) as exc:
            main([command, f"--{flag}"] + ([value] if value else []))
        assert exc.value.code == 2
        assert f"unrecognized arguments: --{flag}" in capsys.readouterr().err
        cfg = tmp_path / "run.conf"
        cfg.write_text(f"{flag} = {value or 'true'}\n")
        assert main([command, "--config", str(cfg)]) == 2
        assert f"run.conf:1: unknown setting '{flag}'" in capsys.readouterr().err

    def test_biaslab_command(self, tmp_path):
        out = tmp_path / "lab.csv"
        code = main(["biaslab", "--trials", "100", "--seed", "1", "--out", str(out)])
        assert code == 0
        assert "mean_bias" in out.read_text()

    def test_biaslab_text_format(self, tmp_path):
        out = tmp_path / "lab.txt"
        code = main(["biaslab", "--trials", "50", "--seed", "1",
                     "--format", "text", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert "strategy" in text and "n_rep" in text

    def test_rendered_files_identical_modulo_volatile_lines(self, tmp_path):
        data = write_dataset(tmp_path / "toy.csv")
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(["bench", "--input", data, "--k", "2", "--folds", "2",
                         "--seed", "3", "--jobs", "2" if name == "b.csv" else "1",
                         "--out", str(out)]) == 0
            outs.append(strip_volatile(out.read_text()))
        assert outs[0] == outs[1]

    def test_synth_command_round_trip(self, tmp_path):
        out = tmp_path / "synth.csv"
        code = main(["synth", "--generator", "gaussian1d", "--n-min", "4",
                     "--n-maj", "20", "--seed", "2", "--out", str(out)])
        assert code == 0
        ds = load_csv(str(out), "label")
        assert class_counts(ds).tolist() == [20, 4]


class TestSeedAndToyChecks:
    @pytest.mark.parametrize("by", ["flag", "config"])
    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_negative_seed_names_the_seed(self, tmp_path, capsys, command, by):
        argv = [command]
        if command in ("bench", "noise-sweep", "param-sweep"):
            argv += ["--input", write_dataset(tmp_path / "toy.csv"), "--folds", "2"]
        if command == "param-sweep":
            argv += ["--alpha-grid", "0"]
        if command == "biaslab":
            argv += ["--trials", "5"]
        if by == "flag":
            argv += ["--seed", "-1"]
        else:
            (tmp_path / "run.conf").write_text("seed = -1\n")
            argv += ["--config", str(tmp_path / "run.conf")]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: seed must be an integer in [0, inf], got -1\n"

    @pytest.mark.parametrize("flag, value, message", [
        ("--sigma", "nan", "sigma must be finite and > 0, got nan"),
        ("--sigma", "inf", "sigma must be finite and > 0, got inf"),
        ("--mu-min", "inf", "mu_min must be finite, got inf")],
        ids=["--sigma-nan", "--sigma-inf", "--mu-min-inf"])
    def test_synth_non_finite_toy_value(self, capsys, flag, value, message):
        assert main(["synth", flag, value]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_toy_settings_are_toy_config_fields(self):
        settings = {s.name: s for s in _COMMANDS["biaslab"].echoed}
        for f in fields(ToyConfig):
            assert (settings[f.name].default, settings[f.name].type) == (f.default, type(f.default))


class TestResolveOptions:
    def test_defaults_flow_through(self):
        opts = resolve_options("bench", {})
        assert opts["k"] == 10
        assert opts["inter"] == "rhs"
        assert opts["intra"] == "shem"
        assert opts["bins"] == 5
        for command in ("bench", "param-sweep"):  # the CLI's defaults are the library's
            assert build_dube_config(resolve_options(command, {})) == DubeConfig()


# one or more values for every setting of every command, as typed by a user
SAMPLES = {
    "input": ["data.csv"], "label_col": ["3", "target"], "k": ["7"], "inter": ["rus"],
    "intra": ["hem"], "bins": ["4"], "alpha": ["0.25", "auto"], "learner": ["knn"],
    "tree_max_depth": ["4", "none"], "tree_min_leaf": ["2"], "tree_criterion": ["entropy"],
    "knn_neighbors": ["3"], "folds": ["4"], "repeats": ["2"], "seed": ["11"], "jobs": ["2"],
    "details": ["true"], "config": ["other.conf"], "out": ["report.csv"], "format": ["text"],
    "noise_grid": ["0,0.25"], "alpha_grid": ["0.1,0.3"], "bins_grid": ["2,6"],
    "select": ["true"], "n_min": ["4"], "n_maj": ["20"], "mu_min": ["-1.5"],
    "mu_maj": ["2.5"], "sigma": ["0.5"], "trials": ["300"], "alpha_sigmas": ["0.1,0.3"],
    "generator": ["overlap2d"], "overlap": ["high"],
}
TABLE = [(command, setting) for command, spec in _COMMANDS.items()
         for setting in spec.echoed + spec.rest]
SWITCHES = [(command, setting) for command, setting in TABLE if setting.switch]


class TestSettingsTable:
    def test_every_setting_has_a_sample(self):
        assert {setting.name for _, setting in TABLE} == set(SAMPLES)

    def test_every_setting_has_a_parser(self):
        # a text setting parses through str, so the config reader has one parse path
        assert all(callable(setting.type) for _, setting in TABLE)

    def test_learner_choices_are_the_learner_kinds(self):
        choices = [setting.choices for _, setting in TABLE if setting.name == "learner"]
        assert choices and all(c == list(LEARNERS) == ["tree", "knn"] for c in choices)

    @pytest.mark.parametrize("name,table,expected", [
        ("tree_criterion", CRITERIA, ["gini", "entropy"]),
        ("overlap", OVERLAP_SEPARATION, ["low", "mid", "high"])])
    def test_choices_are_their_library_tables(self, name, table, expected):
        choices = [setting.choices for _, setting in TABLE if setting.name == name]
        assert choices and all(c == list(table) == expected for c in choices)

    @pytest.mark.parametrize("name,table,expected", [("inter", TARGETS, ["rhs", "ros", "rus"]),
                                                     ("intra", WEIGHTS, ["hem", "shem", "uniform"])])
    def test_strategy_choices_are_the_balancing_tags(self, name, table, expected):
        choices = [setting.choices for _, setting in TABLE if setting.name == name]
        assert choices and all(c == sorted(tag.lower() for tag in table) == expected
                               for c in choices)

    @pytest.mark.parametrize("command,setting,raw", [
        (command, setting, raw) for command, setting in TABLE for raw in SAMPLES[setting.name]],
        ids=lambda value: getattr(value, "name", value))
    def test_flag_and_config_file_agree(self, tmp_path, command, setting, raw):
        flag = "--" + setting.name.replace("_", "-")
        argv = [command, flag] if setting.switch else [command, flag, raw]
        from_flag = vars(build_parser().parse_args(argv))[setting.name]
        path = tmp_path / "run.conf"
        path.write_text(f"{setting.name} = {raw}\n")
        from_file = _read_config_file(path, _COMMANDS[command])[setting.name]
        assert from_file == from_flag
        assert type(from_file) is type(from_flag)

    @pytest.mark.parametrize("command,setting", SWITCHES,
                             ids=lambda value: getattr(value, "name", value))
    @pytest.mark.parametrize("raw", ["no", "off", "1", ""])
    def test_switch_value_other_than_true_or_false(self, tmp_path, capsys, command, setting, raw):
        path = tmp_path / "run.conf"
        path.write_text(f"# a comment\n{setting.name} = {raw}\n")
        assert main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"run.conf:2: {setting.name} is a switch: expected true or false" in err

    @pytest.mark.parametrize("command,setting", SWITCHES,
                             ids=lambda value: getattr(value, "name", value))
    def test_switch_false_in_any_case(self, tmp_path, command, setting):
        path = tmp_path / "run.conf"
        path.write_text(f"{setting.name} = False\n")
        assert _read_config_file(path, _COMMANDS[command]) == {setting.name: False}


KEYS = sorted({setting.name for _, setting in TABLE} | {"vorpal"})
CONFIG_TEXT = st.lists(st.one_of(
    st.tuples(st.sampled_from(KEYS), st.sampled_from([" = ", "=", " "]),
              st.one_of(st.sampled_from([v for vs in SAMPLES.values() for v in vs]),
                        st.text(max_size=6))).map("".join),
    st.text(max_size=12))).map("\n".join)


class TestUnreadableFiles:
    def test_csv_field_over_the_csv_module_limit(self, tmp_path, capsys):
        path = tmp_path / "wide.csv"
        path.write_text("x,label\n" + "1" * 131_073 + ",a\n2,b\n")
        assert main(["bench", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"error: cannot read {path}: field larger than field limit" in err

    def test_csv_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes("x,label\n1.0,caf\xe9\n2.0,b\n".encode("latin-1"))
        assert main(["bench", "--input", str(path)]) == 2
        assert f"error: cannot read {path}: 'utf-8' codec can't decode" in capsys.readouterr().err

    def test_config_not_utf8(self, tmp_path, capsys):
        data = write_dataset(tmp_path / "toy.csv")
        path = tmp_path / "run.conf"
        path.write_bytes(b"k = 2 # \xff\n")
        assert main(["bench", "--input", data, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"error: cannot read config file {path}: 'utf-8' codec can't decode" in err

    def test_config_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "bom.conf"
        path.write_text("\ufeffk = 2\n", encoding="utf-8")
        assert _read_config_file(path, _COMMANDS["bench"]) == {"k": 2}

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(sorted(_COMMANDS)),
           st.one_of(st.binary(), CONFIG_TEXT.map(str.encode), st.text().map(str.encode)))
    def test_config_file_fuzz_raises_only_cli_error(self, tmp_path, command, content):
        path = tmp_path / "fuzz.conf"
        path.write_bytes(content)
        try:
            values = _read_config_file(path, _COMMANDS[command])
        except CliError:
            return
        assert set(values) <= {setting.name for c, setting in TABLE if c == command}
