"""Fault containment parity across rBPF, mini-Wasm and script containers.

The §9 isolation property is runtime-agnostic in the multi-runtime deploy
plane: an out-of-bounds access, a divide-by-zero and a runaway loop must
each abort as a *contained* fault of the same taxonomy (MemoryFault /
DivisionFault / BranchLimitFault) regardless of which runtime hosts the
container — and the engine's fault-detach plus the supervisor's
crash-loop quarantine must fire identically, never disturbing the
well-behaved neighbours sharing the hook.
"""

from __future__ import annotations

import pytest

from repro.core import FC_HOOK_FANOUT, HostingEngine
from repro.core.hooks import Hook, HookMode
from repro.deploy import ImageSpec
from repro.rtos import Kernel
from repro.vm import assemble
from repro.vm.imagecache import IMAGE_CACHE
from repro.workloads import thread_counter_program

WASM_HEADER = "module pages=1\nfunc main params=1 locals=0\n"

#: runtime -> fault kind -> ImageSpec factory.  Every program verifies
#: (or parses) clean and faults only at run time.
FAULTY = {
    "rbpf": {
        "MemoryFault": lambda: ImageSpec.from_program(assemble(
            "lddw r1, 0x10\n    ldxb r0, [r1]\n    exit", name="oob")),
        "DivisionFault": lambda: ImageSpec.from_program(assemble(
            "mov r1, 0\n    mov r0, 7\n    div r0, r1\n    exit",
            name="div0")),
        "BranchLimitFault": lambda: ImageSpec.from_program(assemble(
            "spin:\n    add r1, 1\n    ja spin", name="spin")),
    },
    "wasm": {
        "MemoryFault": lambda: ImageSpec.from_wasm(
            WASM_HEADER + "    i32.const 999999\n    i32.load8_u 0\n"
            "    return\nend\n", name="oob"),
        "DivisionFault": lambda: ImageSpec.from_wasm(
            WASM_HEADER + "    i32.const 7\n    i32.const 0\n"
            "    i32.div_u\n    return\nend\n", name="div0"),
        "BranchLimitFault": lambda: ImageSpec.from_wasm(
            WASM_HEADER + "    loop\n        br 0\n    end\n"
            "    i32.const 0\n    return\nend\n", name="spin"),
    },
    "script": {
        "MemoryFault": lambda: ImageSpec.from_script(
            "return input[100000];", name="oob"),
        "DivisionFault": lambda: ImageSpec.from_script(
            "return 7 / 0;", name="div0"),
        "BranchLimitFault": lambda: ImageSpec.from_script(
            "var x = 0;\nwhile (1 > 0) { x = x + 1; }\nreturn x;",
            name="spin"),
    },
}

CASES = [(runtime, kind)
         for runtime, kinds in FAULTY.items()
         for kind in kinds]


@pytest.fixture(autouse=True)
def fresh_cache():
    IMAGE_CACHE.clear()
    yield
    IMAGE_CACHE.clear()


def make_engine() -> HostingEngine:
    engine = HostingEngine(Kernel(), implementation="jit")
    engine.register_hook(Hook(FC_HOOK_FANOUT, mode=HookMode.SYNC))
    return engine


def attach_neighbours(engine: HostingEngine) -> list:
    """One well-behaved container per runtime, sharing the hook."""
    neighbours = []
    for spec in (
        ImageSpec.from_program(thread_counter_program(), name="good-rbpf"),
        ImageSpec.from_wasm(
            WASM_HEADER + "    i32.const 42\n    return\nend\n",
            name="good-wasm"),
        ImageSpec.from_script("return 7;", name="good-script"),
    ):
        container = engine.load(spec.instantiate(), name=spec.name)
        engine.attach(container, FC_HOOK_FANOUT)
        neighbours.append(container)
    return neighbours


@pytest.mark.parametrize("runtime,kind", CASES,
                         ids=[f"{r}-{k}" for r, k in CASES])
class TestFaultMatrix:
    def test_fault_contained_with_expected_kind(self, runtime, kind):
        engine = make_engine()
        spec = FAULTY[runtime][kind]()
        container = engine.load(spec.instantiate(), name="bad")
        engine.attach(container, FC_HOOK_FANOUT)
        run = engine.execute(container, context=bytearray(16))
        assert not run.ok
        assert run.fault.kind == kind
        # The host kernel keeps running; the fault is recorded, not raised.
        assert container.fault_count == 1

    def test_neighbours_undisturbed(self, runtime, kind):
        engine = make_engine()
        neighbours = attach_neighbours(engine)
        bad = engine.load(FAULTY[runtime][kind]().instantiate(), name="bad")
        engine.attach(bad, FC_HOOK_FANOUT)
        firing = engine.fire_hook(FC_HOOK_FANOUT, context=bytearray(16))
        by_name = {run.container.name: run for run in firing.runs}
        assert not by_name["bad"].ok
        for neighbour in neighbours:
            assert by_name[neighbour.name].ok, neighbour.name
            assert neighbour.fault_count == 0

    def test_crash_loop_detaches_only_the_sick_slot(self, runtime, kind):
        engine = make_engine()
        neighbours = attach_neighbours(engine)
        bad = engine.load(FAULTY[runtime][kind]().instantiate(), name="bad")
        engine.attach(bad, FC_HOOK_FANOUT)
        for _ in range(engine.supervisor.config.fault_streak):
            engine.execute(bad, context=bytearray(16))
        attached = [c.name for c in engine.hook(FC_HOOK_FANOUT).containers]
        assert "bad" not in attached
        assert sorted(attached) == sorted(n.name for n in neighbours)
        assert (FC_HOOK_FANOUT, "bad") in engine.supervisor.quarantined_slots()
