"""Benchmark runner for dube.

    python3 perfbench/run.py --workload fit-tree --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a source checkout; nothing is installed. The
runner writes the workload's input CSV from ``--seed`` before any clock
starts, then runs the workload in fresh interpreters (nine set-up
probes and one measuring process, one at a time, with BLAS pinned to
one thread) and prints:

* one ``detail`` JSON line: environment, input sha256, every metric
  under the names of perfbench/README.md, sample counts, the digest
  check and any errors;
* as the last line, the result object: ``correct``, ``attempted``,
  ``failed`` and ``metrics`` (the end-to-end metrics of BENCHMARK.json,
  or with ``--trace 1`` its per-layer metrics).

``--workload all`` runs every workload in turn and prints a table of
the named metrics instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 9
BLAS_THREADS = 1
RUN_BUDGET_S = 170  # a run must end within 180 s; children share this budget
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

sys.path.insert(0, str(HERE))
import calibration  # noqa: E402  (the benchmark's own modules, next to this file)
import inputs  # noqa: E402

# Workload-specific names of the generic end-to-end metrics.
OP_NAME = {"fit-tree": ("fit_s", "s"), "knn": ("fit_s", "s"),
           "cv-auto": ("cell_s_p50", "s"), "biaslab": ("bias_row_s_p50", "s")}
ITEMS_NAME = {"fit-tree": ("predict_rows_per_s", "rows/s"),
              "knn": ("predict_rows_per_s", "rows/s"),
              "cv-auto": ("cells_per_s", "cells/s"), "biaslab": ("trials_per_s", "trials/s")}


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def run_child(args, deadline=None):
    """Run child.py in a fresh interpreter; return its last stdout line as JSON.

    A child still running at ``deadline`` (a ``time.monotonic`` value) is
    killed and waited for, and ``subprocess.TimeoutExpired`` is raised.
    """
    cmd = [sys.executable, str(HERE / "child.py")] + [str(a) for a in args]
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dube").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_revision():
    """HEAD of the checkout, or None when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": BLAS_THREADS,
            "git_revision": git_revision(), "src_sha256": source_digest()}


def recorded(workload, seed):
    with open(HERE / "digests.json") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def check_digest(record, csv_sha, digest):
    """(status, error) of comparing an output digest with its record.

    ``error`` is None when the check passed or was skipped; a status
    starting with "skipped" means no check was made. For a recorded
    seed whose input no longer has the recorded sha256 the check fails:
    a changed generator or numpy must not switch it off unnoticed.
    """
    if record is None:
        return "skipped: no digest recorded for this seed", None
    if csv_sha is not None and record.get("input_sha256") != csv_sha:
        return "INPUT MISMATCH", (f"input sha256 {csv_sha} != recorded "
                                  f"{record.get('input_sha256')}; re-record with "
                                  "record_digests.py only if the new input is intended")
    if record["digest"] != digest:
        return "MISMATCH", f"output digest {digest} != recorded {record['digest']}"
    return "matched", None


def prepare_input(workload, scale, seed):
    spec = inputs.TABLES[workload][scale]
    if spec is None:
        return None, None
    csv = OUT / f"{workload}-{scale}.csv"
    return csv, inputs.write_csv(csv, spec, seed)


def child_args(workload, scale, seed, csv):
    """Arguments naming one workload input for child.py."""
    args = ["--workload", workload, "--scale", scale, "--seed", seed]
    if csv is not None:
        # relative to the checkout, so the report body (which names its
        # input) and its digest do not depend on where the checkout lives
        args += ["--csv", csv.relative_to(ROOT)]
    return args


def timings(probes, rounds, factor):
    """The timed end-to-end metrics, each sample's seconds scaled by ``factor(sample)``.

    A round's unit operations share the round's factor; rates divide by it.
    """
    return {
        "setup_s": statistics.median(p["setup_s"] * factor(p) for p in probes),
        "wall_s": statistics.median(r["wall_s"] * factor(r) for r in rounds),
        "op_s_p50": statistics.median(op * factor(r) for r in rounds for op in r["ops"]),
        "items_per_s": (sum(r["items"] for r in rounds)
                        / sum(r["items_s"] * factor(r) for r in rounds)),
    }


def measure(workload, seed, seconds, trace, scale="full"):
    """Run one workload; return (detail, result) as printed."""
    deadline = time.monotonic() + RUN_BUDGET_S
    csv, csv_sha = prepare_input(workload, scale, seed)
    base = child_args(workload, scale, seed, csv)
    probes = [run_child(["setup"] + base, deadline) for _ in range(SETUP_PROBES)]
    child = run_child(["measure"] + base + ["--seconds", seconds, "--trace", trace], deadline)

    attempted, failed, errors = child["attempted"], child["failed"], list(child["errors"])
    rounds = [r for r in child["rounds"] if not r["traced"]]
    digest = child["rounds"][0]["digest"] if child["rounds"] else None
    record = recorded(workload, seed) if scale == "full" else None
    digest_check, error = check_digest(record, csv_sha, digest)
    if not digest_check.startswith("skipped"):
        attempted += 1
    if error is not None:
        failed += 1
        errors.append(error)
    if not rounds:
        raise RuntimeError("no round completed:\n" + "\n".join(errors))

    raw = timings(probes, rounds, lambda sample: 1.0)
    end_to_end = timings(probes, rounds, lambda s: calibration.scaled(1.0, s["kernel_s"]))
    end_to_end["peak_rss_mb"] = child["peak_rss_mb"]
    quality = [r["quality"] for r in rounds if r["quality"] is not None]
    op_name, op_unit = OP_NAME[workload]
    items_name, items_unit = ITEMS_NAME[workload]
    named = {
        "setup_s": [end_to_end["setup_s"], "s"],
        "wall_s": [end_to_end["wall_s"], "s"],
        op_name: [end_to_end["op_s_p50"], op_unit],
        items_name: [end_to_end["items_per_s"], items_unit],
        "peak_rss_mb": [end_to_end["peak_rss_mb"], "MB"],
        "fail_ratio": [failed / attempted, "ratio"],
    }
    if quality:
        named["macro_auroc"] = [quality[0], "score"]
    detail = {
        "detail": workload, "seed": seed, "scale": scale, "seconds": seconds, "trace": trace,
        "environment": environment(),
        "input": {"path": str(csv.relative_to(ROOT)) if csv else None, "sha256": csv_sha},
        "named_metrics": named,
        "uncalibrated": raw,
        "kernel_s_p50": statistics.median(r["kernel_s"] for r in rounds),
        "samples": {"setup_s": len(probes), "rounds": len(rounds),
                    "ops": sum(len(r["ops"]) for r in rounds),
                    "traced_rounds": len(child["rounds"]) - len(rounds)},
        "digest": digest, "digest_check": digest_check,
        "variants": len({r["variant"] for r in child["rounds"]}),
        "errors": errors,
    }
    bench = load_benchmark()
    if trace:
        layers = child["layers"] or {}
        wanted = [(m["name"], m["unit"]) for m in bench["per_layer"]]
        metrics = {name: {"value": layers.get(name), "unit": unit} for name, unit in wanted}
    else:
        wanted = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in wanted}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return detail, result


def parse_args(argv):
    parser = argparse.ArgumentParser(description="dube benchmark runner")
    parser.add_argument("--workload", required=True, choices=list(inputs.TABLES) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--scale", default="full", choices=["full", "tiny"],
                        help="tiny inputs for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def print_table(details):
    print(f"{'workload':<10} {'metric':<20} {'value':>14}  unit")
    for detail in details:
        for name, (value, unit) in detail["named_metrics"].items():
            print(f"{detail['detail']:<10} {name:<20} {value:>14.6g}  {unit}")


def main(argv=None):
    # a terminated runner raises SystemExit, so subprocess.run kills and
    # waits for the child it is running instead of leaving it behind
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    if not (ROOT / "src" / "dube" / "__init__.py").is_file():
        print(f"error: no dube sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = list(inputs.TABLES) if args.workload == "all" else [args.workload]
    details = []
    for name in names:
        try:
            detail, result = measure(name, args.seed, args.seconds, args.trace, args.scale)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(detail))
        details.append(detail)
    if args.workload == "all":
        print_table(details)
    else:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
