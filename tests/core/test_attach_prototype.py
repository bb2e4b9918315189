"""Instances cloned from one shared prototype behave like cold-built ones.

An attach looks up the image's :class:`~repro.vm.imagecache
.InstancePrototype` (verdict, JIT template or decoded slot table, the
shared ``.rodata`` region, the initial ``.data`` bytes) and clones the
instance from it.  Generated verifier-accepted programs that read and
write ``.rodata``, ``.data`` and the stack — some of them faulting, some
running away — are attached three times on every eBPF engine, and every
run is compared with the same sequence built under
:func:`~repro.memo.memos_disabled`, where each instance derives its own
prototype: values, fault kinds and pcs, counts, run cycles and attach
cycles must match.  Siblings must not see each other's ``.data`` or
stack, a store into the shared ``.rodata`` faults and leaves it intact,
a rejected image stores no prototype, and a narrower contract or helper
set never inherits a wider verdict.  Wasm and script images take the
same path.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import FC_HOOK_TIMER, HostingEngine
from repro.core.container import ContainerState, count_vector
from repro.core.errors import AttachError
from repro.core.policy import ContainerContract
from repro.deploy import ImageSpec
from repro.memo import memos_disabled
from repro.rtos import Kernel, nrf52840
from repro.vm import Program, assemble
from repro.vm import helpers as h
from repro.vm.imagecache import IMAGE_CACHE

IMPLEMENTATIONS = ("rbpf", "femto-containers", "certfc", "jit")
INSTANCES = 3
RUNS = 2

_WIDTHS = {1: "b", 2: "h", 4: "w", 8: "dw"}


@pytest.fixture(autouse=True)
def fresh_cache():
    IMAGE_CACHE.clear()
    yield
    IMAGE_CACHE.clear()


@st.composite
def _step(draw, index: int, rodata: int, data: int) -> list[str]:
    """One generated step; ``index`` keeps its labels unique."""
    kind = draw(st.sampled_from(
        ["rodata_load", "data_load", "data_store", "rodata_store",
         "stack", "alu", "loop", "div", "helper", "spin"]))
    suffix = _WIDTHS[draw(st.sampled_from(sorted(_WIDTHS)))]
    if kind in ("rodata_load", "data_load"):
        size = rodata if kind == "rodata_load" else data
        base = "lddwr" if kind == "rodata_load" else "lddwd"
        offset = draw(st.integers(-2, size + 2))
        return [f"{base} r6, 0", f"ldx{suffix} r7, [r6{offset:+d}]",
                "add r0, r7"]
    if kind in ("data_store", "rodata_store"):
        size = data if kind == "data_store" else rodata
        base = "lddwd" if kind == "data_store" else "lddwr"
        offset = draw(st.integers(-2, size + 2))
        if draw(st.booleans()):
            return [f"{base} r6, 0", f"stx{suffix} [r6{offset:+d}], r0"]
        return [f"{base} r6, 0",
                f"st{suffix} [r6{offset:+d}], {draw(st.integers(-99, 99))}"]
    if kind == "stack":
        offset = draw(st.integers(0, 504))
        return [f"stx{suffix} [r10+{offset}], r0",
                f"ldx{suffix} r7, [r10+{offset}]", "add r0, r7"]
    if kind == "alu":
        op = draw(st.sampled_from(["add", "mul", "xor", "sub"]))
        return [f"{op} r0, {draw(st.integers(-1000, 1000))}"]
    if kind == "loop":
        return [f"mov r8, {draw(st.integers(1, 12))}", f"loop{index}:",
                "add r0, r8", "sub r8, 1", f"jne r8, 0, loop{index}"]
    if kind == "div":
        return [f"mov r9, {draw(st.integers(0, 3))}", "div r0, r9"]
    if kind == "helper":
        return [f"call {h.BPF_NOW_MS:#x}", "add r0, 1"]
    return [f"spin{index}:", f"ja spin{index}"]


@st.composite
def image_case(draw) -> dict:
    """A verifier-accepted program with ``.rodata`` and ``.data``."""
    rodata = draw(st.binary(min_size=1, max_size=24))
    data = draw(st.binary(min_size=1, max_size=24))
    lines = ["mov r0, 0"]
    for index in range(draw(st.integers(1, 5))):
        lines += draw(_step(index, len(rodata), len(data)))
    lines.append("exit")
    return {
        "text": assemble("\n".join(f"    {line}" for line in lines)
                         ).to_bytes(),
        "rodata": rodata,
        "data": data,
        "branch_limit": draw(st.sampled_from([8, 64])),
        "context": draw(st.binary(max_size=16)),
    }


def _observe_fleet(implementation: str, spec: ImageSpec,
                   contract: ContainerContract, context: bytes) -> list:
    """Attach ``INSTANCES`` instances of ``spec`` on a fresh engine and run
    each ``RUNS`` times; everything modelled, in order."""
    engine = HostingEngine(Kernel(nrf52840()), implementation=implementation)
    clock = engine.kernel.clock
    observed = []
    containers = []
    for index in range(INSTANCES):
        container = engine.load(spec.instantiate(f"fc-{index}"),
                                contract=contract)
        before = clock.cycles
        engine.attach(container, FC_HOOK_TIMER)
        observed.append(("attach", clock.cycles - before))
        containers.append(container)
    for container in containers:
        for _ in range(RUNS):
            run = engine.execute(container, context)
            fault = run.fault
            observed.append((
                run.value,
                None if fault is None else (fault.kind, fault.pc),
                count_vector(run.stats),
                run.cycles,
            ))
    return observed, containers


def _rbpf_spec(case: dict) -> ImageSpec:
    return ImageSpec(name="app", text=case["text"], rodata=case["rodata"],
                     data=case["data"])


@settings(max_examples=40, deadline=None)
@given(case=image_case())
def test_clones_match_cold_built_instances(case):
    """Per engine: one shared prototype, runs bit-identical to instances
    that each derived their own, and siblings that stay independent."""
    spec = _rbpf_spec(case)
    contract = ContainerContract(branch_limit=case["branch_limit"])
    for implementation in IMPLEMENTATIONS:
        IMAGE_CACHE.clear()
        cloned, containers = _observe_fleet(implementation, spec, contract,
                                            case["context"])
        prototypes = {id(container.vm.prototype) for container in containers}
        assert len(prototypes) == 1, implementation
        with memos_disabled():
            cold, cold_containers = _observe_fleet(
                implementation, spec, contract, case["context"])
        assert len({id(c.vm.prototype) for c in cold_containers}) == INSTANCES
        assert cloned == cold, implementation

        # Siblings: each instance's runs repeat the first instance's, so
        # no instance saw another's .data or stack.
        runs = cloned[INSTANCES:]
        for index in range(1, INSTANCES):
            assert runs[index * RUNS:(index + 1) * RUNS] == runs[:RUNS]
        vms = [container.vm for container in containers]
        assert len({id(vm.data_region) for vm in vms}) == INSTANCES
        assert len({id(vm.data_region.data) for vm in vms}) == INSTANCES
        assert len({id(vm.stack.data) for vm in vms}) == INSTANCES
        assert len({id(vm.access_list) for vm in vms}) == INSTANCES
        # The shared .rodata is never written, whatever the runs stored.
        assert bytes(vms[0].prototype.rodata.data) == case["rodata"]


@pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
def test_data_store_is_private_to_its_instance(implementation):
    spec = ImageSpec(name="app", text=assemble(
        "lddwd r6, 0\n    ldxb r0, [r6]\n    add r0, 1\n"
        "    stxb [r6], r0\n    stxb [r10+3], r0\n    exit").to_bytes(),
        data=b"\x05")
    engine = HostingEngine(Kernel(nrf52840()), implementation=implementation)
    first, second = (
        engine.attach(engine.load(spec.instantiate(f"fc-{index}")),
                      FC_HOOK_TIMER)
        for index in range(2))
    assert first.vm.prototype is second.vm.prototype
    assert [engine.execute(first).value for _ in range(3)] == [6, 7, 8]
    assert bytes(second.vm.data_region.data) == b"\x05"
    assert bytes(second.vm.stack.data) == bytes(len(second.vm.stack.data))
    assert engine.execute(second).value == 6
    assert first.vm.prototype.data == b"\x05"


@pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
def test_store_into_shared_rodata_faults_and_leaves_it(implementation):
    spec = ImageSpec(name="app", text=assemble(
        "lddwr r6, 0\n    stb [r6+1], 7\n    exit").to_bytes(),
        rodata=b"abc")
    engine = HostingEngine(Kernel(nrf52840()), implementation=implementation)
    first, second = (
        engine.attach(engine.load(spec.instantiate(f"fc-{index}")),
                      FC_HOOK_TIMER)
        for index in range(2))
    shared = first.vm.prototype.rodata
    assert second.vm.prototype.rodata is shared
    for container in (first, second):
        run = engine.execute(container)
        assert run.fault is not None and run.fault.kind == "MemoryFault"
        assert run.fault.pc == 2
    assert bytes(shared.data) == b"abc"


CALLER = assemble("mov r1, 1\n    mov r2, 2\n    call 0x01\n    exit")


@pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
def test_rejected_image_stores_no_prototype(implementation):
    engine = HostingEngine(Kernel(nrf52840()), implementation=implementation)
    strict = ContainerContract(helpers=frozenset())
    for attempt in range(2):
        misses = IMAGE_CACHE.misses
        container = engine.load(Program.from_bytes(CALLER.to_bytes()),
                                contract=strict, name=f"fc-{attempt}")
        with pytest.raises(AttachError):
            engine.attach(container, FC_HOOK_TIMER)
        assert IMAGE_CACHE.misses > misses  # derived (and refused) again
        assert len(IMAGE_CACHE) == 0


@pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
def test_narrower_contract_never_inherits_a_wider_verdict(implementation):
    engine = HostingEngine(Kernel(nrf52840()), implementation=implementation)
    wide = engine.attach(engine.load(Program.from_bytes(CALLER.to_bytes()),
                                     name="wide"), FC_HOOK_TIMER)
    assert wide.state is ContainerState.ATTACHED
    narrower = (ContainerContract(helpers=frozenset()),
                ContainerContract(helpers=frozenset({h.BPF_NOW_MS})))
    for index, contract in enumerate(narrower):
        with pytest.raises(AttachError):
            engine.attach(engine.load(Program.from_bytes(CALLER.to_bytes()),
                                      contract=contract, name=f"n{index}"),
                          FC_HOOK_TIMER)
    # Only the wide verdict is stored: its key grants every helper.
    assert [key[3].allowed_helpers for key in IMAGE_CACHE] \
        == [frozenset(engine.helpers.ids())]


WASM_HEADER = "module pages=1\nfunc main params=1 locals=0\n"

#: Wasm and script images: clean, out of bounds, division by zero and
#: runaway, each reading the context it is fired with.
OTHER_RUNTIMES = {
    "wasm-clean": lambda: ImageSpec.from_wasm(
        WASM_HEADER + "    i32.const 0\n    i32.load8_u 0\n"
        "    local.get 0\n    i32.add\n    return\nend\n", name="app"),
    "wasm-oob": lambda: ImageSpec.from_wasm(
        WASM_HEADER + "    i32.const 999999\n    i32.load8_u 0\n"
        "    return\nend\n", name="app"),
    "wasm-div0": lambda: ImageSpec.from_wasm(
        WASM_HEADER + "    i32.const 7\n    local.get 0\n    i32.div_u\n"
        "    return\nend\n", name="app"),
    "wasm-spin": lambda: ImageSpec.from_wasm(
        WASM_HEADER + "    loop\n        br 0\n    end\n"
        "    i32.const 0\n    return\nend\n", name="app"),
    "script-clean": lambda: ImageSpec.from_script(
        "var s = 0;\nvar i = 0;\nwhile (i < len(input)) "
        "{ s = s + input[i]; i = i + 1; }\nreturn s;", name="app"),
    "script-oob": lambda: ImageSpec.from_script(
        "return input[100000];", name="app"),
    "script-div0": lambda: ImageSpec.from_script(
        "return 7 / len(input);", name="app"),
    "script-spin": lambda: ImageSpec.from_script(
        "var x = 0;\nwhile (1 > 0) { x = x + 1; }\nreturn x;", name="app"),
}


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(sorted(OTHER_RUNTIMES)),
       context=st.binary(max_size=12))
def test_wasm_and_script_clones_match_cold_built(name, context):
    spec = OTHER_RUNTIMES[name]()
    contract = ContainerContract(branch_limit=40)
    IMAGE_CACHE.clear()
    cloned, containers = _observe_fleet("femto-containers", spec, contract,
                                        context)
    assert len({id(c.vm.prototype) for c in containers}) == 1
    with memos_disabled():
        cold, _ = _observe_fleet("femto-containers", spec, contract, context)
    assert cloned == cold
    runs = cloned[INSTANCES:]
    assert runs[RUNS:2 * RUNS] == runs[:RUNS]
