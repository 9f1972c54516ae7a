"""One workload in one fresh interpreter; started by run.py.

Modes:

* ``setup``: time importing ``dube`` plus loading the workload's input
  (``load_csv`` builds the Dataset), then time the calibration kernel;
  print ``{"setup_s": ..., "kernel_s": ...}``.
* ``measure``: set up, warm up, then run rounds of variants 0, 1, 2,
  ... back to back until ``--seconds`` have passed, timing the
  calibration kernel before and after each round. With ``--trace 1``
  each variant runs twice, traced and then untraced, so the pair's
  output digests can be compared. Prints one JSON object with every
  round's numbers.
* ``digest``: set up and run the round of variant 0; print its output
  digest.

The library is imported only after the set-up clock starts, so the
import is part of ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracing

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "measure", "digest"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--scale", default="full", choices=["full", "tiny"])
    parser.add_argument("--csv", type=Path)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    return parser.parse_args(argv)


def setup(args):
    """(workload, seconds spent importing the library and loading the input)."""
    t0 = perf_counter()
    import workloads

    workload = workloads.make(args.workload, args.scale, args.csv, args.seed, OUT)
    workload.setup()
    return workload, perf_counter() - t0


def round_record(rnd, variant, traced, kernel_s):
    return {"variant": variant, "traced": traced, "kernel_s": kernel_s, "wall_s": rnd.wall_s,
            "ops": rnd.ops, "items": rnd.items, "items_s": rnd.items_s,
            "digest": rnd.digest, "quality": rnd.quality, "attempted": rnd.checks.attempted,
            "failed": rnd.checks.failed, "errors": rnd.checks.errors}


def measure(args, workload):
    import calibration  # imports numpy; a top-level import would hide it from setup_s

    workload.warmup()
    tracer = tracing.Tracer() if args.trace else None
    # traced first, so a variant's traced round does its work afresh
    passes = (True, False) if tracer is not None else (False,)
    rounds, layers, errors = [], [], []
    attempted = failed = 0
    variant = 0
    started = perf_counter()
    while not errors and (not rounds or perf_counter() - started < args.seconds):
        for traced in passes:
            kernel_before = calibration.kernel_s()
            try:
                if traced:
                    tracer.run_id = variant
                    with tracer:
                        workload.setup()  # a traced round also covers one input load
                        rnd = workload.round(variant)
                    layers.append(tracing.layer_metrics(tracer.spans, tracer.run_id))
                else:
                    rnd = workload.round(variant)
            except Exception:
                attempted += 1
                failed += 1
                errors.append(traceback.format_exc(limit=4))
                break
            kernel_s = (kernel_before + calibration.kernel_s()) / 2
            rounds.append(round_record(rnd, variant, traced, kernel_s))
        variant += 1
    for rnd in rounds:
        attempted += rnd["attempted"]
        failed += rnd["failed"]
        errors += rnd["errors"]
    # the traced and the untraced round of one variant must agree
    by_variant = {}
    for rnd in rounds:
        by_variant.setdefault(rnd["variant"], set()).add(rnd["digest"])
    attempted += 1
    differing = sorted(v for v, digests in by_variant.items() if len(digests) > 1)
    if differing:
        failed += 1
        errors.append(f"traced and untraced outputs differ for variants {differing}")
    layer = None
    if layers:
        # per variant, calibrated traced wall minus calibrated untraced wall
        walls = {(r["variant"], r["traced"]): calibration.scaled(r["wall_s"], r["kernel_s"])
                 for r in rounds}
        overheads = [walls[v, True] - walls[v, False] for v in by_variant
                     if (v, False) in walls and (v, True) in walls]
        layer = tracing.combine(layers)
        layer["trace.overhead_s"] = statistics.median(overheads) if overheads else None
        layer["trace.hook_errors"] = tracer.hook_errors
        tracer.write(OUT / f"spans-{args.workload}-{args.scale}.jsonl")
    return {"rounds": rounds, "layers": layer,
            "attempted": attempted, "failed": failed, "errors": errors,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def main(argv=None):
    args = parse_args(argv)
    OUT.mkdir(parents=True, exist_ok=True)
    workload, setup_s = setup(args)
    if args.mode == "setup":
        import calibration

        out = {"setup_s": setup_s, "kernel_s": calibration.kernel_s()}
    elif args.mode == "digest":
        workload.warmup()
        rnd = workload.round(0)
        out = {"digest": rnd.digest, "failed": rnd.checks.failed, "errors": rnd.checks.errors}
    else:
        out = measure(args, workload)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
