#!/usr/bin/env python3
"""Steadiness of the end-to-end metrics: run each workload k times, one seed
per run, and print each metric's median, quartiles and spread against its
bound in BENCHMARK.json.

    python3 cohbench/steady.py --runs 10 [--workloads cli haar] [--first-seed 1]

The spread is (q3 - q1) / median with the quartiles of
statistics.quantiles(values, n=4).  `setup_s` has no spread limit of its
own; its bound limits how far a median may move between two sets of runs.
The failed share (failed / attempted) must be identical in every run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(ROOT / "cohbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="*", default=names, choices=names)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workloads:
        results = [run_once(workload, args.first_seed + i, spec["run_seconds"]) for i in range(args.runs)]
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"{workload}: correct={correct} failed share={sorted(shares)}")
        steady &= correct and len(shares) == 1
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            ok = name == "setup_s" or spread <= bound / 3.0
            steady &= ok
            print(f"  {name:15s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  "
                  f"spread {spread:7.2%}  bound {bound:.0%}  {'ok' if ok else 'WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
