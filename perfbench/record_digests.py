"""Record the output digest of every workload for a range of seeds.

    python3 perfbench/record_digests.py --seeds 0-31

For each (workload, seed) this writes the input, runs one round in a
fresh interpreter and stores the input's sha256 and the output digest
(sha256 of the saved model JSON for fit-tree and knn, of the report
body for cv-auto and biaslab) in perfbench/digests.json. run.py then
fails any later run of a recorded seed whose output differs. Record
only from a commit whose results are known good: a change that alters
results must be declared as a behaviour change before it is recorded.
"""

from __future__ import annotations

import argparse
import json

import run


def seed_range(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-23")
    parser.add_argument("--workload", action="append", choices=list(run.inputs.TABLES),
                        help="default: every workload")
    args = parser.parse_args(argv)
    path = run.HERE / "digests.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    run.OUT.mkdir(exist_ok=True)
    for workload in args.workload or list(run.inputs.TABLES):
        for seed in args.seeds:
            csv, csv_sha = run.prepare_input(workload, "full", seed)
            out = run.run_child(["digest"] + run.child_args(workload, "full", seed, csv))
            if out["failed"]:
                raise SystemExit(f"{workload} seed {seed}: checks failed: {out['errors']}")
            table.setdefault(workload, {})[str(seed)] = {"input_sha256": csv_sha,
                                                         "digest": out["digest"]}
            print(workload, seed, out["digest"], flush=True)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
