#!/usr/bin/env python3
"""Compare two sets of benchmark runs: ``python3 bench/compare.py A B``.

``A`` (the parent) and ``B`` (the change) are run records as
``bench/run.py`` appends them to ``bench/out/runs.jsonl``.  Runs pair up
by workload, trace mode and seed (repeats of one seed pair in order), so
run both sides over the same seeds, alternating which side runs first.

Each workload and metric gets one row:

* ``improved`` — at least 10 pairs, B wins at least 9 in 10 of them (ties
  count for neither side), and the medians differ in B's favour by more
  than A's interquartile range;
* ``regressed`` — B's median is worse than A's by more than the metric's
  bound (per-layer metrics have none: there the improvement rule runs in
  reverse);
* ``unresolved`` — fewer than 10 pairs, or A's own spread is wider than
  the bound and B does not beat every run of A;
* ``unchanged`` — otherwise.

The exit code is 1 if any end-to-end metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: str) -> dict:
    """(workload, trace, seed, repeat) -> metric name -> value."""
    runs: dict = {}
    repeats: defaultdict = defaultdict(int)
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            key = (record["workload"], record["trace"], record["seed"])
            runs[(*key, repeats[key])] = {
                name: metric["value"]
                for name, metric in record["result"]["metrics"].items()
            }
            repeats[key] += 1
    return runs


def verdict(a: list[float], b: list[float], better: str,
            bound: float | None) -> tuple[str, float, float, float, int]:
    """Status plus A's median, B's median, A's IQR and B's pair wins."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    losses = sum(sign * (y - x) < 0 for x, y in zip(a, b))
    median_a, median_b = statistics.median(a), statistics.median(b)
    iqr_a = 0.0
    if len(a) >= 2:
        q1, _, q3 = statistics.quantiles(a, n=4)
        iqr_a = q3 - q1
    gain = sign * (median_b - median_a)
    enough = len(a) >= MIN_PAIRS
    stats = (median_a, median_b, iqr_a, wins)
    if enough and wins >= WIN_SHARE * len(a) and gain > iqr_a:
        return ("improved", *stats)
    scale = abs(median_a) or 1.0
    if bound is None:
        if enough and losses >= WIN_SHARE * len(a) and -gain > iqr_a:
            return ("regressed", *stats)
        return ("unchanged" if enough else "unresolved", *stats)
    if -gain > bound * scale:
        return ("regressed", *stats)
    b_beats_all = (min(b) > max(a)) if sign > 0 else (max(b) < min(a))
    if not enough or (iqr_a > bound * scale and not b_beats_all):
        return ("unresolved", *stats)
    return ("unchanged", *stats)


def compare(parent: dict, change: dict, bench: dict) -> list[tuple]:
    rows = []
    kinds = ((0, bench["end_to_end"]), (1, bench["per_layer"]))
    for workload in (entry["name"] for entry in bench["workloads"]):
        for trace, entries in kinds:
            keys = sorted(key for key in parent.keys() & change.keys()
                          if key[0] == workload and key[1] == trace)
            if not keys:
                continue
            for entry in entries:
                name = entry["name"]
                a = [parent[key][name] for key in keys]
                b = [change[key][name] for key in keys]
                rows.append((workload, name, len(keys),
                             *verdict(a, b, entry["better"],
                                      entry.get("bound"))))
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(load(args.parent), load(args.change), bench)
    end_to_end = {entry["name"] for entry in bench["end_to_end"]}
    print(f"{'workload':20} {'metric':34} {'pairs':>5} {'parent':>12} "
          f"{'change':>12} {'delta':>8} {'IQR':>7} {'wins':>5}  status")
    regressed = False
    for workload, name, pairs, status, med_a, med_b, iqr_a, wins in rows:
        scale = abs(med_a) or 1.0
        print(f"{workload:20} {name:34} {pairs:5d} {med_a:12.5g} "
              f"{med_b:12.5g} {100 * (med_b - med_a) / scale:7.1f}% "
              f"{100 * iqr_a / scale:6.1f}% {wins:5d}  {status}")
        regressed |= status == "regressed" and name in end_to_end
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
