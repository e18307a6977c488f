#!/usr/bin/env python3
"""Re-judge two earlier speed-up claims from bigmesh-l8 run records.

    python3 perfbench/claims.py [.bench_build/perfbench]

Each untraced bigmesh-l8 run steps every mode in one process, in an order
that alternates with the seed's parity, so one run is one pair of samples
for each claim. A gain holds when the faster side wins at least nine tenths
of the pairs and the medians differ by more than the baseline's
interquartile range.
"""

import glob
import json
import os
import statistics
import sys

CLAIMS = [
    ("locality renumbering: taskplan_reorder faster than taskplan", "taskplan", "taskplan_reorder"),
    ("task graph: taskplan faster than plan", "plan", "taskplan"),
]


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else ".bench_build/perfbench"
    runs = []
    for path in sorted(glob.glob(os.path.join(root, "bigmesh-l8-seed*-e2e.json"))):
        with open(path) as f:
            rec = json.load(f)
        runs.append((rec["provenance"]["seed"], rec["values"]))
    if len(runs) < 2:
        print("need at least two bigmesh-l8 run records under " + root)
        return 1
    for title, base, new in CLAIMS:
        b = [v["sw.step_s." + base] for _, v in runs]
        n = [v["sw.step_s." + new] for _, v in runs]
        wins = sum(1 for x, y in zip(b, n) if y < x)
        losses = sum(1 for x, y in zip(b, n) if y > x)
        bq1, _, bq3 = statistics.quantiles(b, n=4)
        nq1, _, nq3 = statistics.quantiles(n, n=4)
        mb, mn = statistics.median(b), statistics.median(n)
        holds = wins >= 0.9 * len(runs) and mb - mn > bq3 - bq1
        print(f"{title}: {len(runs)} pairs, {wins} wins / {losses} losses; "
              f"{base} median {mb:.4f} s [q1 {bq1:.4f}, q3 {bq3:.4f}], "
              f"{new} median {mn:.4f} s [q1 {nq1:.4f}, q3 {nq3:.4f}], "
              f"ratio {mb / mn:.3f}x -> {'HOLDS' if holds else 'NOT SUPPORTED'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
