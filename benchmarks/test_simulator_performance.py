"""Simulator wall-clock throughput (not a paper experiment).

Library-health benchmark: how many eBPF instructions per host second each
execution engine simulates.  Useful for users sizing long simulations, and
it quantifies the execution-core design points in wall time as well as in
modelled cycles: the pre-decoded interpreter dispatch, the defensive
CertFC build, and the §11 install-time template JIT (basic blocks
compiled to Python source with registers as locals), which must deliver
at least a 3x interpreter-relative speedup.

Modelled-cycle accounting is engine-independent, so all Fig. 8 / Table 2
/ Table 4 outputs stay byte-identical under execution-core performance
work.  The wall-clock table below depends on the host, so it is printed
(``pytest -s``) rather than recorded under ``benchmarks/results/``.
"""

from __future__ import annotations

from repro.analysis import format_table
from repro.vm import CertFCInterpreter, Interpreter, compile_program
from repro.vm.memory import Permission
from repro.workloads.fletcher32 import (
    FLETCHER32_INPUT,
    INPUT_BASE,
    fletcher32_program,
    make_context,
)

_ENGINES = {
    "interpreter": Interpreter,
    "certfc (defensive)": CertFCInterpreter,
    "jit (template)": compile_program,
}


def _make(factory):
    vm = factory(fletcher32_program())
    vm.access_list.grant_bytes("in", INPUT_BASE, FLETCHER32_INPUT,
                               Permission.READ)
    context = make_context()
    return vm, context


def _bench(benchmark, factory):
    vm, context = _make(factory)
    result = benchmark(lambda: vm.run(context=context))
    return result.stats.executed


def test_simulator_throughput_interpreter(benchmark):
    executed = _bench(benchmark, Interpreter)
    assert executed > 1000


def test_simulator_throughput_certfc(benchmark):
    executed = _bench(benchmark, CertFCInterpreter)
    assert executed > 1000


def test_simulator_throughput_jit(benchmark):
    executed = _bench(benchmark, compile_program)
    assert executed > 1000


def test_relative_wall_speed(benchmark):
    """One combined row: instructions simulated per CPU second.

    Each round times every engine back to back on this thread's CPU
    clock, so a round's JIT/interpreter ratio compares runs made under
    the same host load; time spent descheduled is charged to no engine.
    The table and the bar take the median over the rounds, so one round
    caught by a shift in host speed cannot decide the outcome.
    """
    import statistics
    import time

    def measure_all():
        runs = {}
        for name, factory in _ENGINES.items():
            vm, context = _make(factory)
            vm.run(context=context)  # warm up
            runs[name] = (vm, context)
        rounds = []
        for _ in range(7):
            rates = {}
            for name, (vm, context) in runs.items():
                start = time.thread_time()
                executed = 0
                while time.thread_time() - start < 0.05:
                    executed += vm.run(context=context).stats.executed
                rates[name] = executed / (time.thread_time() - start)
            rounds.append(rates)
        return rounds

    rounds = benchmark.pedantic(measure_all, rounds=1, iterations=1)
    rows = {name: statistics.median(rates[name] for rates in rounds)
            for name in _ENGINES}
    speedup = statistics.median(
        rates["jit (template)"] / rates["interpreter"] for rates in rounds)
    print()
    print(format_table(
        ["Engine", "instructions / CPU second"],
        [[name, f"{rate:,.0f}"] for name, rate in rows.items()],
        title=f"Simulator throughput (host-dependent; JIT {speedup:.2f}x)",
    ))
    # The template JIT must beat the pre-decoded interpreter by at least
    # 3x (the acceptance bar for the install-time-transpile design
    # point; it typically lands near 3.5x).
    assert speedup > 3.0
