"""Measure every workload over several seeds and summarize the spread.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/BASELINE.json

Each (workload, seed) is one run of run.py with tracing off, one after
another, so this takes about 30 s per run. For every end-to-end metric
the summary gives the median, the quartiles of
``statistics.quantiles(values, n=4)`` and their distance as a share of
the median (the spread), next to the metric's bound and the spread the
same runs show before calibration. One traced run per workload (the
first seed) adds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run
from record_digests import seed_range


def bench_run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "n": len(values)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workload", action="append", choices=list(run.inputs.TABLES))
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args(argv)
    bench = run.load_benchmark()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    summary = {"seeds": [args.seeds.start, args.seeds.stop - 1], "run_seconds": seconds,
               "workloads": {}}
    for workload in args.workload or list(run.inputs.TABLES):
        values, raw, named, failures = {}, {}, {}, 0
        for seed in args.seeds:
            detail, result = bench_run(workload, seed, seconds, 0)
            failures += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for name, value in detail["uncalibrated"].items():
                raw.setdefault(name, []).append(value)
            for name, (value, unit) in detail["named_metrics"].items():
                named.setdefault(name, {"unit": unit, "values": []})["values"].append(value)
            rounded = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(workload, seed, rounded, detail["digest_check"], flush=True)
        summary["environment"] = detail["environment"]
        traced_detail, traced = bench_run(workload, args.seeds.start, seconds, 1)
        entry = {
            "failed": failures,
            "end_to_end": {name: {**spread(v), "bound": bounds[name]}
                           for name, v in values.items()},
            "uncalibrated": {name: spread(v) for name, v in raw.items()},
            "named_median": {name: [statistics.median(m["values"]), m["unit"]]
                             for name, m in named.items()},
            "per_layer_seed": args.seeds.start,
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
        summary["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            flag = "" if s["spread"] < s["bound"] / 3 else "  (above a third of the bound)"
            uncal = entry["uncalibrated"].get(name)
            uncal = f" (uncalibrated {uncal['spread']:.3f})" if uncal else ""
            print(f"  {workload:9s} {name:12s} median {s['median']:<12.6g} "
                  f"spread {s['spread']:.3f}{uncal} bound {s['bound']}{flag}", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
