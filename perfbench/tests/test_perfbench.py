"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def runs():
    """(detail, result) per (workload, trace), each run once."""
    cache = {}

    def get(workload, trace):
        if (workload, trace) not in cache:
            proc = run_bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            cache[workload, trace] = json.loads(lines[-2]), json.loads(lines[-1])
        return cache[workload, trace]

    return get


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(runs, workload):
    detail, result = runs(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    assert list(result["metrics"]) == names
    for metric in BENCHMARK["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert entry["value"] > 0
    assert detail["named_metrics"]["fail_ratio"][0] == 0.0
    env = detail["environment"]
    assert env["nproc"] >= env["blas_threads"] >= 1
    assert detail["digest_check"].startswith("skipped")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_leaves_output_digest_unchanged(runs, workload):
    untraced, _ = runs(workload, 0)
    traced, result = runs(workload, 1)
    assert result["correct"]
    assert traced["samples"]["traced_rounds"] >= 1
    assert traced["digest"] == untraced["digest"]
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert result["metrics"]["trace.hook_errors"]["value"] == 0
    assert isinstance(result["metrics"]["trace.overhead_s"]["value"], float)


def test_layer_counts_follow_the_workload(runs):
    """Counts derived from spans match what each workload is known to do."""
    layers = {w: {k: v["value"] for k, v in runs(w, 1)[1]["metrics"].items()}
              for w in WORKLOADS}
    fit = layers["fit-tree"]  # tiny: k=3 trees, one dube_fit, one input load
    assert fit["learners.tree_fits"] == 3 and fit["ensemble.members"] == 3
    assert fit["learners.first_member_fits"] == 1
    assert fit["learners.first_member_unique_ratio"] == 1.0
    assert fit["balancing.resample_calls"] == 2 and fit["pbda.perturb_calls"] == 2 * 3
    assert fit["learners.knn_distance_evals"] == 0 and fit["dataset.load_csv_s"] > 0
    cv = layers["cv-auto"]  # 5 cells, each tuning 6 alphas then refitting once
    assert cv["cli.tune_fits"] == 5 * 6 and cv["learners.first_member_fits"] == 5 * 7
    assert cv["learners.first_member_unique_ratio"] < 1.0
    knn = layers["knn"]
    assert knn["learners.knn_distance_evals"] > 0 and knn["learners.tree_fits"] == 0
    lab = layers["biaslab"]  # 5 strategies x 2 alphas x 50 trials
    assert lab["biaslab.trials"] == 10 * 50 and lab["rng.streams"] >= 10 * 50
    assert lab["learners.tree_fits"] == 0 and lab["dataset.datasets_built"] == 0


@pytest.fixture
def bench_modules():
    """The benchmark's modules, imported with the library's sources on the path."""
    sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]
    try:
        import run
        import tracing
        import workloads

        yield run, tracing, workloads
    finally:
        del sys.path[:2]


def test_tracer_restores_every_name(bench_modules):
    _, tracing, _ = bench_modules
    owners = [(tracing.resolve(t), attr) for t, attr, _, _ in tracing.TRACED]
    before = [tracing.lookup(owner, attr) for owner, attr in owners]
    with tracing.Tracer():
        assert all(tracing.lookup(owner, attr) is not original
                   for (owner, attr), original in zip(owners, before))
    assert all(tracing.lookup(owner, attr) is original
               for (owner, attr), original in zip(owners, before))


@pytest.mark.parametrize("workload", ["fit-tree", "biaslab"])
def test_round_variants_do_different_work(bench_modules, tmp_path, workload):
    """No round of a run repeats another's work, so a memo kept across
    calls cannot speed up later rounds; one variant is deterministic."""
    run, _, workloads = bench_modules
    spec = run.inputs.TABLES[workload]["tiny"]
    csv = tmp_path / "input.csv" if spec is not None else None
    if csv is not None:
        run.inputs.write_csv(csv, spec, 3)
    work = workloads.make(workload, "tiny", csv, 3, tmp_path)
    work.setup()
    digests = [work.round(variant).digest for variant in (0, 1, 0)]
    assert digests[0] == digests[2] != digests[1]


def test_recorded_seed_with_changed_input_fails(bench_modules):
    run, _, _ = bench_modules
    record = {"input_sha256": "a" * 64, "digest": "d" * 64}
    assert run.check_digest(record, "a" * 64, "d" * 64) == ("matched", None)
    status, error = run.check_digest(record, "a" * 64, "e" * 64)
    assert status == "MISMATCH" and error
    status, error = run.check_digest(record, "b" * 64, "d" * 64)
    assert status == "INPUT MISMATCH" and error
    status, error = run.check_digest(None, "b" * 64, "d" * 64)
    assert status.startswith("skipped") and error is None


def copy_benchmark(dest):
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(BENCH_DIR, dest / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))


def test_refuses_to_run_without_the_sources(tmp_path):
    copy_benchmark(tmp_path)
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_digest_does_not_depend_on_checkout_location(runs, tmp_path):
    """The cv-auto report names its input file; the name must be relative."""
    copy_benchmark(tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("cv-auto", 0, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    moved = json.loads(proc.stdout.strip().splitlines()[-2])
    assert moved["digest"] == runs("cv-auto", 0)[0]["digest"]
