"""Fault containment parity across rBPF, mini-Wasm and script containers.

The §9 isolation property is runtime-agnostic in the multi-runtime deploy
plane: an out-of-bounds access, a divide-by-zero and a runaway loop must
each abort as a *contained* fault of the same taxonomy (MemoryFault /
DivisionFault / BranchLimitFault) regardless of which runtime hosts the
container — and the engine's fault-detach plus the supervisor's
crash-loop quarantine must fire identically, never disturbing the
well-behaved neighbours sharing the hook.

Every instance of one rBPF image maps the image's own immutable
``.rodata`` bytes instead of a private copy; on every engine a store into
it is a contained ``MemoryFault``, while ``.data`` and the context stay
private, writable buffers.
"""

from __future__ import annotations

import pytest

from repro.core import FC_HOOK_FANOUT, FC_HOOK_SCHED, HostingEngine
from repro.core.hooks import Hook, HookMode
from repro.deploy import ImageSpec
from repro.rtos import Kernel
from repro.vm import assemble
from repro.vm.imagecache import IMAGE_CACHE
from repro.vm.memory import Permission
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
        # A builtin called with the wrong argument type (see
        # BAD_BUILTIN_CALLS for every bad call shape).
        "IllegalInstructionFault": lambda: ImageSpec.from_script(
            "return len(5);", name="badcall"),
    },
}

#: Script calls a builtin refuses: a wrong argument type, too few and
#: too many arguments.  Each must fault inside the container; none may
#: reach the host as a Python ``TypeError``.
BAD_BUILTIN_CALLS = ["return len(5);", "return len();",
                     "return len(input, input);"]

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


@pytest.mark.parametrize("source", BAD_BUILTIN_CALLS)
def test_bad_builtin_call_is_a_contained_fault(source):
    engine = make_engine()
    neighbours = attach_neighbours(engine)
    bad = engine.load(ImageSpec.from_script(source, name="bad").instantiate(),
                      name="bad")
    engine.attach(bad, FC_HOOK_FANOUT)
    run = engine.execute(bad, context=bytearray(16))
    assert not run.ok
    assert run.fault.kind == "IllegalInstructionFault"
    assert "len" in run.fault.message
    assert bad.fault_count == 1
    firing = engine.fire_hook(FC_HOOK_FANOUT, context=bytearray(16))
    assert [run.ok for run in firing.runs] == [
        container is not bad for container in
        engine.hook(FC_HOOK_FANOUT).containers]
    assert all(neighbour.fault_count == 0 for neighbour in neighbours)


#: Engines that host rBPF images: the interpreter builds and the JIT.
RBPF_ENGINES = ["rbpf", "femto-containers", "certfc", "jit"]

#: Loads .rodata (so the JIT's inlined MRU path holds that region), then
#: stores into it: the store must fault, never reach the shared buffer.
RODATA_STORES = {
    "stxb": "lddwr r1, 0\n    ldxb r2, [r1]\n    stxb [r1], r2\n    exit",
    "stw": "lddwr r1, 0\n    ldxw r2, [r1]\n    stw [r1+4], 7\n    exit",
    "stxdw": "lddwr r1, 0\n    ldxdw r2, [r1]\n    stxdw [r1], r2\n"
             "    exit",
}

#: Bumps a .data byte and returns it: per-instance state.
DATA_COUNTER = ("lddwd r1, 0\n    ldxb r0, [r1]\n    add r0, 1\n"
                "    stxb [r1], r0\n    exit")


def rbpf_engine(implementation: str) -> HostingEngine:
    engine = HostingEngine(Kernel(), implementation=implementation)
    engine.register_hook(Hook(FC_HOOK_FANOUT, mode=HookMode.SYNC))
    return engine


def attach_instances(engine: HostingEngine, image: ImageSpec,
                     count: int = 2) -> list:
    instances = []
    for index in range(count):
        container = engine.load(image.instantiate(), name=f"i{index}")
        engine.attach(container, FC_HOOK_FANOUT)
        instances.append(container)
    return instances


def region(container, name: str):
    return next(r for r in container.vm.access_list.regions
                if r.name == name)


@pytest.mark.parametrize("implementation", RBPF_ENGINES)
class TestSharedRodata:
    """Every instance of one image maps the image's own immutable
    ``.rodata`` bytes; isolation holds because every store is
    permission-checked before it touches a buffer."""

    @pytest.mark.parametrize("store", RODATA_STORES)
    def test_store_into_rodata_is_a_memory_fault(self, implementation,
                                                 store):
        rodata = bytes(range(16))
        image = ImageSpec.from_program(assemble(
            RODATA_STORES[store], rodata=rodata, name="ro"))
        engine = rbpf_engine(implementation)
        first, second = attach_instances(engine, image)
        run = engine.execute(first)
        assert not run.ok and run.fault.kind == "MemoryFault"
        assert region(first, ".rodata").data == rodata
        # The neighbour instance is unaffected and faults the same way.
        assert engine.execute(second).fault.kind == "MemoryFault"

    def test_instances_share_one_rodata_buffer(self, implementation):
        image = ImageSpec.from_program(assemble(
            "lddwr r1, 0\n    ldxb r0, [r1+3]\n    exit",
            rodata=b"\x00\x01\x02\x2a", name="ro"))
        engine = rbpf_engine(implementation)
        first, second = attach_instances(engine, image)
        shared = region(first, ".rodata").data
        assert shared is region(second, ".rodata").data
        assert shared is image.rodata
        assert [engine.execute(c).value for c in (first, second)] == [42, 42]

    def test_data_stays_private_per_instance(self, implementation):
        image = ImageSpec.from_program(assemble(
            DATA_COUNTER, data=bytes(8), name="counter"))
        engine = rbpf_engine(implementation)
        first, second = attach_instances(engine, image)
        assert region(first, ".data").data is not region(second, ".data").data
        assert [engine.execute(first).value for _ in range(3)] == [1, 2, 3]
        assert engine.execute(second).value == 1
        assert image.data == bytes(8)

    def test_read_only_context_rebinds_in_place(self, implementation):
        # The scheduler hook grants a read-only context struct.
        engine = rbpf_engine(implementation)
        container = engine.load(assemble("ldxb r0, [r1+1]\n    exit"),
                                name="ctx")
        engine.attach(container, FC_HOOK_SCHED)
        runs = [engine.execute(container, context=bytes([0, value]) +
                               bytes(14))
                for value in (7, 3)]
        assert [run.value for run in runs] == [7, 3]
        bound = region(container, "context")
        assert bound.perms == Permission.READ
        assert isinstance(bound.data, bytearray)
        again = container.vm.bind_context(b"\x00\x09" + bytes(14),
                                          Permission.READ)
        assert again is bound
        assert container.vm.context_bytes()[1] == 9
