"""Smoke test of the benchmark at reduced sizes (8 devices, 2 publishes;
50 fires): the declared metric names, trace invariance and hash-seed
independence of every modelled metric."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fcbench.spans import Tracer
from fcbench.workloads import MODELLED, RECORD_ONLY, WORKLOADS, measure

BENCH_DIR = Path(__file__).resolve().parent
DECLARED = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def small(name: str, seed: int = 3):
    if name.startswith("fleet_"):
        return WORKLOADS[name](seed, devices=8, episode=2)
    return WORKLOADS[name](seed, episode=50)


def run_small(name: str, tracer: Tracer | None = None) -> dict:
    outcome = measure(small(name), seconds=0.0, tracer=tracer)
    assert outcome["failed"] == 0 and outcome["checks_ok"], outcome
    return outcome["metrics"]


def test_declared_workloads_exist():
    assert [entry["name"] for entry in DECLARED["workloads"]] \
        == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_names_and_trace_invariance(name):
    untraced = run_small(name)
    tracer = Tracer(raw_requests=1)
    with tracer.installed():
        traced = run_small(name, tracer)
    end_to_end = {entry["name"] for entry in DECLARED["end_to_end"]}
    per_layer = {entry["name"] for entry in DECLARED["per_layer"]}
    assert set(traced) == end_to_end | per_layer | set(RECORD_ONLY)
    assert end_to_end <= set(untraced)
    assert {name: traced[name] for name in MODELLED} \
        == {name: untraced[name] for name in MODELLED}
    assert tracer.self_time_gap() <= 0.01
    assert tracer.spans and tracer.spans[0][0] == 0


_PROBE = """
import json
from fcbench.workloads import MODELLED, measure
from test_bench_smoke import small
print(json.dumps({name: {key: value for key, value
                         in measure(small(name), 0.0)["metrics"].items()
                         if key in MODELLED}
                  for name in %r}))
"""


def test_modelled_metrics_ignore_hash_seed():
    path = os.pathsep.join([str(BENCH_DIR), str(BENCH_DIR.parent / "src")])
    children = [
        subprocess.Popen(
            [sys.executable, "-c", _PROBE % list(WORKLOADS)],
            env={**os.environ, "PYTHONHASHSEED": hash_seed,
                 "PYTHONPATH": path},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for hash_seed in ("0", "1")
    ]
    streams = [child.communicate(timeout=120) for child in children]
    for child, (_, stderr) in zip(children, streams):
        assert child.returncode == 0, stderr
    outputs = [json.loads(stdout.splitlines()[-1]) for stdout, _ in streams]
    assert outputs[0] == outputs[1]
