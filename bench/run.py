#!/usr/bin/env python3
"""Run the benchmark: ``python3 bench/run.py [--workload W] [--seed S]
[--seconds T] [--trace 0|1]``.

With ``--workload`` one workload runs in this process and the last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — every ``end_to_end`` metric of
``BENCHMARK.json`` untraced, every ``per_layer`` metric with
``--trace 1``.  The run exits non-zero if any output was wrong.

Without ``--workload`` every workload runs in its own fresh subprocess,
one after another, once untraced and once traced; the summary shows the
tracing overhead and checks that tracing left every modelled metric
unchanged.

Every run appends its record to ``bench/out/runs.jsonl`` (the input of
``bench/compare.py``) and writes its layer table and raw spans to
``bench/out/<workload>-seed<S>-trace<T>.json``.  The program is imported
from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"


def declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        print(f"no program to benchmark: {source / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))

    from fcbench.spans import Tracer
    from fcbench.workloads import MODELLED, WORKLOADS, measure

    load = WORKLOADS[workload](seed)
    tracer = Tracer(load.raw_requests) if trace else None
    if tracer is None:
        outcome = measure(load, seconds)
    else:
        with tracer.installed():
            outcome = measure(load, seconds, tracer=tracer)
    metrics = outcome["metrics"]
    result = result_line(outcome, declared()["per_layer" if trace
                                             else "end_to_end"])

    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": workload, "seed": seed, "trace": int(trace),
              "result": result}
    with open(OUT_DIR / "runs.jsonl", "a") as handle:
        handle.write(json.dumps(record) + "\n")
    detail = {**record, "checks_ok": outcome["checks_ok"],
              "modelled": {name: metrics[name] for name in MODELLED},
              "metrics": metrics}
    if tracer is not None:
        detail.update(layers=tracer.table(), spans=tracer.spans)
        print(_layer_table(tracer), file=sys.stderr)
    (OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(detail) + "\n")

    print(json.dumps(result))
    return 0 if result["correct"] else 1


def result_line(outcome: dict, entries: list[dict]) -> dict:
    """The result object: the declared metrics, by name, with units."""
    metrics = outcome["metrics"]
    return {
        "correct": outcome["failed"] == 0 and outcome["checks_ok"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {entry["name"]: {"value": metrics[entry["name"]],
                                    "unit": entry["unit"]}
                    for entry in entries},
    }


def _layer_table(tracer) -> str:
    requests = max(1, tracer.requests)
    lines = [f"{'span':28} {'calls/req':>10} {'self us/req':>12} "
             f"{'self %':>7} {'cycles/req':>12}"]
    for name, row in sorted(tracer.table().items(),
                            key=lambda item: -item[1]["self_s"]):
        if not row["calls"]:
            continue
        lines.append(
            f"{name:28} {row['calls'] / requests:10.1f} "
            f"{1e6 * row['self_s'] / requests:12.1f} "
            f"{100 * row['self_s'] / tracer.total_s:7.2f} "
            f"{row['cycles'] / requests:12.0f}")
    return "\n".join(lines)


def run_all(seed: int, seconds: float) -> int:
    """Each workload untraced, then traced, each in a fresh process."""
    status = 0
    for entry in declared()["workloads"]:
        workload = entry["name"]
        results = {}
        for trace in (0, 1):
            child = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, check=False)
            lines = child.stdout.strip().splitlines()
            if child.returncode or not lines:
                print(f"{workload} trace={trace}: exit {child.returncode}")
                status = 1
                break
            results[trace] = json.loads(
                (OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json")
                .read_text())
            if trace:
                # The per-layer table went to standard error.
                result = results[trace]["result"]
                print(f"{workload} trace=1: attempted {result['attempted']},"
                      f" failed {result['failed']}")
            else:
                print(f"{workload} trace=0: {lines[-1]}")
        if len(results) < 2:
            continue
        untraced, traced = results[0], results[1]
        if untraced["modelled"] != traced["modelled"]:
            print(f"{workload}: tracing changed modelled metrics: "
                  f"{untraced['modelled']} != {traced['modelled']}")
            status = 1
        plain = untraced["metrics"]["request_ms_p50"]
        slowed = traced["metrics"]["request_ms_p50"]
        print(f"{workload}: tracing overhead "
              f"{100 * (slowed / plain - 1):.1f}% on request_ms_p50 "
              f"({plain:.4g} ms untraced, {slowed:.4g} ms traced)")
    return status


def main(argv: list[str] | None = None) -> int:
    bench = declared()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
