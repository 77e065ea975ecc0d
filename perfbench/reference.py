#!/usr/bin/env python3
"""Regenerate the reference figures of perfbench/README.md.

    python3 perfbench/reference.py

Takes the workloads and the run length from BENCHMARK.json.  For each
workload: two sets of untraced runs, seeds 1-10 and then seeds 11-20
(every workload's first set before any second set), then one traced run
on seed 1.  Prints, as Markdown, each end-to-end metric's median,
quartiles and spread (interquartile distance over median, as
statistics.quantiles(values, n=4) gives the quartiles) per set, the
change of the second set's median against the first's, the failed share
of every workload, and a table of every per-layer metric of the traced
runs.  Runs one benchmark process at a time.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONFIG = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]
SECONDS = CONFIG["run_seconds"]
SETS = (range(1, 11), range(11, 21))
TRACED_SEED = 1


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=HERE.parent, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    untraced = {(w, i): [run(w, seed, 0) for seed in seeds]
                for i, seeds in enumerate(SETS) for w in WORKLOADS}
    traced = {w: run(w, TRACED_SEED, 1) for w in WORKLOADS}
    bounds = {m["name"]: m["bound"] for m in CONFIG["end_to_end"]}

    for i, seeds in enumerate(SETS):
        print(f"End-to-end, set {i + 1}: seeds {seeds[0]}-{seeds[-1]}, `--seconds {SECONDS}`:\n")
        print("| workload | metric | median | Q1 | Q3 | (Q3-Q1)/median | bound |")
        print("|---|---|---|---|---|---|---|")
        for w in WORKLOADS:
            for name, first in untraced[w, i][0]["metrics"].items():
                med, q1, q3, share = spread([r["metrics"][name]["value"] for r in untraced[w, i]])
                print(f"| {w} | `{name}` ({first['unit']}) | {med:.4g} | {q1:.4g} | {q3:.4g} "
                      f"| {share:.3f} | {bounds[name]} |")
        print()

    print("Set 2 against set 1, (median 2 - median 1) / median 1:\n")
    print("| workload | " + " | ".join(f"`{name}`" for name in bounds) + " |")
    print("|---|" + "---|" * len(bounds))
    for w in WORKLOADS:
        meds = [{name: statistics.median(r["metrics"][name]["value"] for r in untraced[w, i])
                 for name in bounds} for i in range(len(SETS))]
        cells = " | ".join(f"{meds[1][n] / meds[0][n] - 1:+.3f}" for n in bounds)
        print(f"| {w} | {cells} |")
    print()
    for w in WORKLOADS:
        results = untraced[w, 0] + untraced[w, 1]
        shares = {str(Fraction(r["failed"], r["attempted"])) for r in results}
        print(f"- {w}: correct in every run: {all(r['correct'] for r in results)}; "
              f"failed/attempted: {', '.join(sorted(shares))}")

    print(f"\nPer-layer, traced run on seed {TRACED_SEED}:\n")
    print("| metric | unit | " + " | ".join(WORKLOADS) + " |")
    print("|---|---|" + "---|" * len(WORKLOADS))
    for name, first in traced[WORKLOADS[0]]["metrics"].items():
        cells = " | ".join(f"{traced[w]['metrics'][name]['value']:.4g}" for w in WORKLOADS)
        print(f"| `{name}` | {first['unit']} | {cells} |")
    print("\ntraced runs correct: "
          + ", ".join(f"{w} {traced[w]['correct']}" for w in WORKLOADS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
