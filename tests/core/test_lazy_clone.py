"""An attach is a lookup: the instance is cloned at the container's first use.

``HostingEngine.attach`` keeps every modelled charge, the image-cache
prototype lookup and the pre-flight verdict (verifier and grant layout);
the instance itself — stack, ``.data``, grant regions, access list, VM
object — is cloned from the prototype when the container first runs or
``container.vm`` is first read.

The pinned tests hold the pre-flight at attach on every eBPF engine,
Wasm and script, and count ``instantiate`` calls.  The Hypothesis
differential runs one generated sequence of attaches, replaces, fires,
detaches, plan applies (with rollback), probation re-attaches and reboots
three times: on an engine that reads ``container.vm`` right after every
attach (the eager timing, through the same code), on one that never
does, and on the second again under :func:`~repro.memo.memos_disabled`,
where no two attaches share a prototype.  Every step's outcome, the
clock, the hooks' contents and the image cache's hit and miss deltas
must match between the first two, and everything but the cache deltas
with the third, so neither the clone's timing nor an instance shared
between containers can change what a device does.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    FC_HOOK_SCHED,
    FC_HOOK_TIMER,
    ContainerState,
    HostingEngine,
)
from repro.core.container import count_vector
from repro.core.errors import AttachError
from repro.core.hooks import Hook, HookMode
from repro.core.policy import ContainerContract, HookPolicy, MemoryGrant
from repro.deploy import AttachmentSpec, DeploymentSpec, ImageSpec
from repro.deploy.plan import apply, plan
from repro.memo import memos_disabled
from repro.rtos import Kernel, nrf52840
from repro.runtimes.base import container_runtime
from repro.vm import assemble
from repro.vm.imagecache import IMAGE_CACHE
from repro.vm.memory import GRANT_BASE, STACK_BASE, Permission
from repro.vm.supervisor import SupervisorConfig

IMPLEMENTATIONS = ("rbpf", "femto-containers", "certfc", "jit")

#: A synchronous pad that maps one 8 B read-write packet buffer.
PAD = "lazy.pad"
PKT = MemoryGrant("pkt", GRANT_BASE, 8, Permission.READ_WRITE)

WASM_HEADER = "module pages=1\nfunc main params=1 locals=0\n"


def _rbpf(source: str, **sections) -> ImageSpec:
    return ImageSpec(name="app", text=assemble(source).to_bytes(),
                     **sections)


#: Images the differential deploys.  ``counter`` keeps its state in
#: ``.data`` and ``pkt`` in its grant region, so two containers sharing
#: one instance would count together; ``ctx`` faults on an empty context
#: (unmapped load) and on an even first byte (division); ``bad`` calls a
#: helper no firmware registers, so the verifier refuses it everywhere.
IMAGES = {
    "counter": _rbpf("lddwd r6, 0\n    ldxb r0, [r6]\n    add r0, 1\n"
                     "    stxb [r6], r0\n    exit", data=b"\x05"),
    "pkt": _rbpf(f"lddw r6, {GRANT_BASE:#x}\n    ldxb r0, [r6]\n"
                 "    add r0, 3\n    stxb [r6], r0\n    exit"),
    "ctx": _rbpf("ldxb r2, [r1]\n    and r2, 1\n    mov r0, 12\n"
                 "    div r0, r2\n    exit"),
    "bad": _rbpf("mov r1, 1\n    call 0x77\n    exit"),
}

#: The deployed slots: (hook, name).
SLOTS = ((FC_HOOK_SCHED, "s0"), (PAD, "s1"), (PAD, "s2"))
HOOKS = (FC_HOOK_SCHED, PAD, FC_HOOK_TIMER)
SUPERVISOR = SupervisorConfig(fault_streak=1, probation_base_us=1_000.0)


@pytest.fixture(autouse=True)
def fresh_cache():
    IMAGE_CACHE.clear()
    yield
    IMAGE_CACHE.clear()


@pytest.fixture
def instantiations(monkeypatch):
    """Count every ``instantiate`` call of every runtime."""
    calls = []
    for tag in ("rbpf", "wasm", "script"):
        runtime = container_runtime(tag)

        def counted(*args, _real=runtime.instantiate, _tag=tag):
            calls.append(_tag)
            return _real(*args)

        monkeypatch.setattr(runtime, "instantiate", counted)
    return calls


def _pad_engine(implementation: str, *grants: MemoryGrant) -> HostingEngine:
    engine = HostingEngine(Kernel(nrf52840()), implementation=implementation)
    engine.register_hook(Hook(PAD, mode=HookMode.SYNC,
                              policy=HookPolicy(memory_grants=grants)))
    return engine


# -- the pre-flight stays at attach ---------------------------------------------

#: One image per engine and runtime: (implementation, image factory).
ENGINES = [(implementation, lambda: IMAGES["counter"])
           for implementation in IMPLEMENTATIONS] + [
    ("femto-containers", lambda: ImageSpec.from_wasm(
        WASM_HEADER + "    i32.const 7\n    return\nend\n", name="app")),
    ("femto-containers", lambda: ImageSpec.from_script("return 7;",
                                                       name="app")),
]
ENGINE_IDS = list(IMPLEMENTATIONS) + ["wasm", "script"]


def _verify_charge(engine: HostingEngine, image) -> int:
    """rBPF's verify pass, charged before its pre-flight can refuse."""
    return len(image.slots) * engine.board.verify_cycles_per_slot


def _startup_charge(engine: HostingEngine, image) -> int:
    """Wasm's or script's cold start, charged before the pre-flight."""
    return container_runtime(image.runtime).startup_cycles(image,
                                                           engine.board)


#: What an attach refused by its pre-flight charges, per runtime.
PREFLIGHT_CHARGE = {"rbpf": _verify_charge, "wasm": _startup_charge,
                    "script": _startup_charge}


def _assert_refused(engine: HostingEngine, spec: ImageSpec,
                    contract: ContainerContract, match: str,
                    instantiations: list, charge) -> None:
    """The attach is refused with ``match``, leaves nothing behind and
    charges exactly ``charge(engine, image)`` cycles."""
    tenant = engine.create_tenant("t")
    image = spec.instantiate("app")
    container = engine.load(image, tenant=tenant, contract=contract)
    clock = engine.kernel.clock
    before = clock.cycles
    with pytest.raises(AttachError, match=match):
        engine.attach(container, PAD)
    assert clock.cycles - before == charge(engine, image)
    assert container.hook is None
    assert container.state is ContainerState.LOADED
    assert engine.hook(PAD).containers == []
    assert container not in tenant.containers
    assert container.vm is None
    assert instantiations == []


@pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
def test_grant_over_the_stack_is_refused_at_attach(implementation,
                                                   instantiations):
    engine = _pad_engine(implementation, MemoryGrant(
        "pkt", STACK_BASE + 64, 32, Permission.READ_WRITE))
    _assert_refused(engine, IMAGES["counter"], ContainerContract(),
                    "region 'pkt' overlaps 'stack'", instantiations,
                    _verify_charge)


@pytest.mark.parametrize(("implementation", "image"), ENGINES,
                         ids=ENGINE_IDS)
def test_overlapping_grants_are_refused_at_attach(implementation, image,
                                                  instantiations):
    engine = _pad_engine(
        implementation,
        MemoryGrant("a", GRANT_BASE, 64, Permission.READ),
        MemoryGrant("b", GRANT_BASE + 32, 64, Permission.READ))
    spec = image()
    _assert_refused(engine, spec, ContainerContract(),
                    "region 'b' overlaps 'a'", instantiations,
                    PREFLIGHT_CHARGE[spec.runtime])


#: A verifier-refused image per engine and runtime, and what its refusal
#: charges: rBPF its verify pass, Wasm over its granted instruction limit
#: nothing.  Script has no attach-time verdict to refuse: its parse at
#: decode is its pre-flight.
REFUSED = [(implementation, lambda: IMAGES["bad"], ContainerContract(),
            "helper 0x77 not allowed", _verify_charge)
           for implementation in IMPLEMENTATIONS] + [
    ("femto-containers", lambda: ImageSpec.from_wasm(
        WASM_HEADER + "    i32.const 7\n    i32.const 1\n    i32.add\n"
        "    return\nend\n", name="app"),
     ContainerContract(max_instructions=2), "granted limit is 2",
     lambda engine, image: 0),
]


@pytest.mark.parametrize(
    ("implementation", "image", "contract", "match", "charge"), REFUSED,
    ids=list(IMPLEMENTATIONS) + ["wasm"])
def test_verifier_rejection_is_refused_at_attach(implementation, image,
                                                 contract, match, charge,
                                                 instantiations):
    _assert_refused(_pad_engine(implementation), image(), contract, match,
                    instantiations, charge)


#: Two distinct images per engine and runtime.
PAIRS = [(implementation, IMAGES["counter"], IMAGES["ctx"])
         for implementation in IMPLEMENTATIONS] + [
    ("femto-containers",
     ImageSpec.from_wasm(WASM_HEADER + "    i32.const 7\n    return\nend\n",
                         name="app"),
     ImageSpec.from_wasm(WASM_HEADER + "    i32.const 8\n    return\nend\n",
                         name="app")),
    ("femto-containers", ImageSpec.from_script("return 7;", name="app"),
     ImageSpec.from_script("return 8;", name="app")),
]


@pytest.mark.parametrize(("implementation", "first", "second"), PAIRS,
                         ids=ENGINE_IDS)
def test_a_container_replaced_before_it_runs_is_never_cloned(
        implementation, first, second, instantiations):
    engine = HostingEngine(Kernel(nrf52840()), implementation=implementation)
    clock = engine.kernel.clock
    old = engine.attach(engine.load(first.instantiate("app")), FC_HOOK_SCHED)
    before = clock.cycles
    new = engine.replace(old, second.instantiate("app"))
    assert clock.cycles > before  # the replacement paid its install
    assert instantiations == []
    engine.fire_hook(FC_HOOK_SCHED, b"\x01" * 16)
    assert len(instantiations) == 1
    engine.fire_hook(FC_HOOK_SCHED, b"\x01" * 16)
    assert len(instantiations) == 1
    assert new.vm is new.vm and new.vm.services is engine


# -- the differential -------------------------------------------------------------


class EagerEngine(HostingEngine):
    """Reads ``container.vm`` right after every attach: the clone is made
    when an eager attach made it, through the same code."""

    def attach(self, container, hook_name, position=None):
        attached = super().attach(container, hook_name, position)
        assert attached.vm is not None
        return attached


class Device:
    """One simulated device driven by generated steps."""

    def __init__(self, engine_class: type, implementation: str) -> None:
        self.engine_class = engine_class
        self.implementation = implementation
        self.spec: DeploymentSpec | None = None
        self.engine = self._boot(Kernel(nrf52840()))

    def _boot(self, kernel: Kernel) -> HostingEngine:
        engine = self.engine_class(kernel, implementation=self.implementation,
                                   supervisor=SUPERVISOR)
        engine.register_hook(Hook(PAD, mode=HookMode.SYNC,
                                  policy=HookPolicy(memory_grants=(PKT,))))
        engine.create_tenant("hand")
        return engine

    def step(self, step: tuple) -> object:
        engine = self.engine
        kind = step[0]
        try:
            if kind == "deploy":
                spec = DeploymentSpec(
                    name="lazy", tenants=("ops",),
                    images={name: IMAGES[name] for name in IMAGES},
                    attachments=tuple(
                        AttachmentSpec(image=slot[0], hook=hook,
                                       tenant="ops", name=name,
                                       count=slot[1])
                        for (hook, name), slot in zip(SLOTS, step[1])
                        if slot is not None))
                apply(engine, plan(engine, spec))
                self.spec = spec
            elif kind == "attach":
                _, image, hook = step
                engine.attach(engine.load(
                    IMAGES[image].instantiate(image),
                    tenant=engine.tenants["hand"]), hook)
            elif kind in ("replace", "detach"):
                containers = engine.containers()
                if not containers:
                    return "empty"
                target = containers[step[1] % len(containers)]
                if kind == "detach":
                    engine.detach(target)
                else:
                    engine.replace(target, IMAGES[step[2]].instantiate(
                        target.name))
            elif kind == "fire":
                _, hook, context = step
                return [
                    (run.container.name, run.value,
                     None if run.fault is None
                     else (run.fault.kind, run.fault.pc),
                     count_vector(run.stats), run.cycles)
                    for run in engine.fire_hook(hook, context).runs]
            elif kind == "wait":
                engine.kernel.run(until_us=engine.kernel.now_us + step[1])
            elif kind == "reboot":
                old = engine.kernel
                kernel = Kernel(old.board, clock=old.clock)
                kernel.clock.charge(old.board.reboot_cycles)
                self.engine = self._boot(kernel)
                if self.spec is not None:
                    apply(self.engine, plan(self.engine, self.spec))
        except AttachError as exc:
            return ("rejected", str(exc))
        return "ok"

    def state(self) -> tuple:
        """Everything modelled about the device, read without touching
        any container's ``vm``."""
        engine = self.engine
        return (
            engine.kernel.clock.cycles,
            engine.fault_total,
            tuple((container.name, hook_name,
                   container.tenant.name if container.tenant else None,
                   container.image_hash[:8], container.runs,
                   tuple((f.kind, f.pc) for f in container.faults),
                   container.health.state if container.health else "ok")
                  for container, hook_name in engine.slots()),
        )


def _run(steps: list, engine_class: type, implementation: str) -> list:
    """Each step's outcome, the device state and the image cache's hit
    and miss deltas, from a cold cache."""
    IMAGE_CACHE.clear()
    device = Device(engine_class, implementation)
    observed = []
    for step in steps:
        hits, misses = IMAGE_CACHE.hits, IMAGE_CACHE.misses
        outcome = device.step(step)
        observed.append((step, outcome, device.state(),
                         IMAGE_CACHE.hits - hits,
                         IMAGE_CACHE.misses - misses))
    return observed


#: Refused images are rarer, so most sequences get past their deploys.
_IMAGE = st.sampled_from(["counter", "pkt", "ctx"] * 3 + ["bad"])
_CONTEXT = st.sampled_from([b"", b"\x01" * 16, b"\x02" * 16])

# Per slot: empty, or an image and its instance count.
DEPLOY = st.tuples(st.just("deploy"),
                   st.tuples(*[st.none() | st.tuples(_IMAGE, st.integers(1, 2))
                               for _ in SLOTS]))
FIRE = st.tuples(st.just("fire"), st.sampled_from(HOOKS), _CONTEXT)
STEPS = st.one_of(
    DEPLOY,
    st.tuples(st.just("attach"), _IMAGE, st.sampled_from(HOOKS)),
    st.tuples(st.just("replace"), st.integers(0, 5), _IMAGE),
    st.tuples(st.just("detach"), st.integers(0, 5)),
    FIRE, FIRE, FIRE,
    st.tuples(st.just("wait"), st.sampled_from([500.0, 3_000.0])),
    st.tuples(st.just("reboot")),
)


@settings(max_examples=150, deadline=None)
@given(implementation=st.sampled_from(IMPLEMENTATIONS), first=DEPLOY,
       rest=st.lists(STEPS, min_size=6, max_size=20))
def test_clone_timing_changes_nothing(implementation, first, rest):
    steps = [first, *rest]
    eager = _run(steps, EagerEngine, implementation)
    lazy = _run(steps, HostingEngine, implementation)
    assert lazy == eager
    with memos_disabled():
        unshared = _run(steps, HostingEngine, implementation)
    assert [row[:3] for row in unshared] == [row[:3] for row in lazy]
