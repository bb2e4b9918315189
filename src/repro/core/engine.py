"""The Femto-Container hosting engine (paper §5, §7, Fig 3).

The engine is the middleware core: it owns the firmware's launchpad hooks,
verifies and attaches container images, instantiates their VMs with the
granted privileges, fires hooks when RTOS events occur, contains faults,
and keeps the memory accounting the evaluation reports.

Fault isolation contract: **no exception from hosted bytecode ever
propagates out of** :meth:`HostingEngine.execute` — a faulting container is
recorded and, when a fault threshold is exceeded, detached; the RTOS and
other containers keep running.  The property-based tests drive adversarial
bytecode through this path and assert the kernel never observes a fault.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

from repro.core.container import (
    ContainerRun,
    ContainerState,
    FaultRecord,
    FemtoContainer,
    VM_CLASSES,
)
from repro.core.errors import AttachError, EngineError, UnknownHookError
from repro.core.hooks import (
    FC_HOOK_COAP,
    FC_HOOK_SCHED,
    FC_HOOK_SENSOR_READ,
    FC_HOOK_TIMER,
    Hook,
    HookMode,
)
from repro.core.kvstore import KeyValueStore
from repro.core.policy import ContainerContract, HookPolicy, grant
from repro.core.syscalls import CoapResponseContext, build_helper_registry
from repro.core.tenant import Tenant
from repro.rtos.kernel import Kernel
from repro.rtos.saul import SaulRegistry
from repro.rtos.thread import Wait
from repro.runtimes.base import container_runtime
from repro.vm.errors import VMFault
from repro.vm.memory import AccessList, MemoryRegion, Permission
from repro.vm.program import Program
from repro.vm.supervisor import ContainerSupervisor, SupervisorConfig
from repro.vm.verifier import VerifierConfig
from repro.vm.interpreter import ExecutionStats, VMConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rtos.board import Board
    from repro.vm.supervisor import SlotHealth


class SlotSnapshot(NamedTuple):
    """One slot's runtime baseline (see :meth:`HostingEngine
    .runtime_snapshot`): the container object plus its run/cycle
    counters at snapshot time, and the supervisor's health record for
    the slot (``None`` when never observed)."""

    container: FemtoContainer
    runs: int
    cycles: int
    health: "SlotHealth | None"


@dataclass
class HookFiring:
    """Result of one hook activation."""

    hook: Hook
    runs: list[ContainerRun] = field(default_factory=list)
    dispatch_cycles: int = 0

    @property
    def total_cycles(self) -> int:
        return self.dispatch_cycles + sum(run.cycles for run in self.runs)

    @property
    def results(self) -> list[int | None]:
        return [run.value for run in self.runs]

    @property
    def effective_results(self) -> list[int]:
        """Fig 3 semantics: the control-flow values the firmware consumes.

        An empty hook — or a faulted container — contributes the hook's
        default result ("Bypass with Default Result"), so firmware logic
        downstream of the launchpad always has a well-defined input.
        """
        if not self.runs:
            return [self.hook.default_result]
        return [
            run.value if run.ok and run.value is not None
            else self.hook.default_result
            for run in self.runs
        ]


class HostingEngine:
    """One device's Femto-Container middleware instance."""

    def __init__(
        self,
        kernel: Kernel,
        implementation: str = "femto-containers",
        saul: SaulRegistry | None = None,
        supervisor: SupervisorConfig | None = None,
    ) -> None:
        if implementation not in VM_CLASSES:
            raise EngineError(
                f"unknown VM implementation {implementation!r}; "
                f"choose from {sorted(VM_CLASSES)}"
            )
        self.kernel = kernel
        self.board: "Board" = kernel.board
        self.implementation = implementation
        self.saul = saul if saul is not None else SaulRegistry()
        self.helpers = build_helper_registry(self)
        self.global_store = KeyValueStore(name="global", scope="global")
        self.tenants: dict[str, Tenant] = {}
        self.hooks: dict[str, Hook] = {}
        self.hooks_by_uuid: dict[str, Hook] = {}
        self.trace_log: list[str] = []
        #: Device-lifetime fault counter: every contained fault, including
        #: faults of containers since detached or replaced.  This is the
        #: monotonic signal fleet-level canary gating reads — a container
        #: object's own ``fault_count`` dies with the container, this
        #: number survives hot-swaps and fault-detaches.
        self.fault_total: int = 0
        #: Execution context (valid while a container runs).
        self.current_container: FemtoContainer | None = None
        self.current_pdu: CoapResponseContext | None = None
        #: Crash-loop/overrun watchdog (``supervisor=None``: the default
        #: :class:`~repro.vm.supervisor.SupervisorConfig` policy).
        self.supervisor = ContainerSupervisor(self, supervisor)
        self._register_default_hooks()

    # -- firmware-provided hooks ------------------------------------------------

    def _register_default_hooks(self) -> None:
        """The launchpads this firmware build ships with (§7)."""
        self.register_hook(Hook(FC_HOOK_SCHED, mode=HookMode.SYNC,
                                policy=HookPolicy(context_writable=False)))
        self.register_hook(Hook(FC_HOOK_TIMER, mode=HookMode.THREAD))
        self.register_hook(Hook(FC_HOOK_COAP, mode=HookMode.THREAD))
        self.register_hook(Hook(FC_HOOK_SENSOR_READ, mode=HookMode.THREAD))

    def register_hook(self, hook: Hook) -> Hook:
        """Compile a launchpad into the firmware (needs a firmware update
        on a real device — done at engine construction here)."""
        if hook.name in self.hooks:
            raise EngineError(f"hook {hook.name!r} already registered")
        self.hooks[hook.name] = hook
        self.hooks_by_uuid[str(hook.uuid)] = hook
        if hook.name == FC_HOOK_SCHED:
            self.kernel.scheduler.sched_hook = self._sched_launchpad
        return hook

    def hook(self, name: str) -> Hook:
        try:
            return self.hooks[name]
        except KeyError:
            raise UnknownHookError(
                f"hook {name!r} is not compiled into this firmware"
            ) from None

    def hook_by_uuid(self, uuid_str: str) -> Hook:
        try:
            return self.hooks_by_uuid[str(uuid_str)]
        except KeyError:
            raise UnknownHookError(
                f"no hook with storage-location UUID {uuid_str}"
            ) from None

    # -- tenants ---------------------------------------------------------------

    def create_tenant(self, name: str) -> Tenant:
        if name in self.tenants:
            raise EngineError(f"tenant {name!r} already exists")
        tenant = Tenant(name=name)
        self.tenants[name] = tenant
        return tenant

    # -- container lifecycle ------------------------------------------------------

    def load(
        self,
        program: Program,
        tenant: Tenant | None = None,
        contract: ContainerContract | None = None,
        name: str | None = None,
    ) -> FemtoContainer:
        """Store an application image in RAM (not yet attached)."""
        return FemtoContainer(
            name=name or program.name,
            program=program,
            tenant=tenant,
            contract=contract or ContainerContract(),
        )

    def attach(self, container: FemtoContainer, hook_name: str) -> FemtoContainer:
        """Verify ``container`` under the hook's policy and attach it.

        This is the paper's install step: pre-flight checking happens here,
        once, and its cost is charged to the virtual clock.  Attaching a
        JIT container additionally charges the §11 transpilation cost.

        The *virtual* clock always pays the full verify+install price —
        that is the device model the evaluation reports.  The *host*,
        however, resolves both through the process-wide image cache, so
        attaching the N-th instance of an already-seen image (same
        content hash, same granted limits) costs dictionary lookups
        instead of a re-verify and a re-transpile.
        """
        hook = self.hook(hook_name)
        if container.hook is not None:
            raise AttachError(
                f"container {container.name!r} is already attached to "
                f"{container.hook.name!r}"
            )
        tenant_name = container.tenant.name if container.tenant else None
        try:
            granted = grant(hook.policy_for(tenant_name), container.contract)
        except Exception as exc:
            raise self._rejected(container, exc) from exc

        verifier_config = VerifierConfig(
            max_instructions=granted.max_instructions,
            allowed_helpers=(
                granted.allowed_helpers
                if granted.allowed_helpers is not None
                else self.helpers.ids()
            ),
        )
        vm_config = VMConfig(branch_limit=granted.branch_limit,
                             stack_size=granted.stack_size)
        access = AccessList()
        for region_grant in granted.memory_grants:
            access.add(MemoryRegion.zeroed(
                region_grant.name, region_grant.start, region_grant.size,
                region_grant.perms,
            ))

        runtime = container_runtime(container.program.runtime)
        try:
            vm = runtime.attach(self, container, granted, vm_config, access,
                                verifier_config)
        except Exception as exc:
            raise self._rejected(container, exc) from exc

        container.vm = vm
        container.runtime = runtime
        container.granted = granted
        container.hook = hook
        container.state = ContainerState.ATTACHED
        hook.containers.append(container)
        if container.tenant is not None:
            container.tenant.adopt(container)
        if hook.mode is HookMode.THREAD:
            self._spawn_worker(container)
        self.supervisor.notify_attach(container, hook.name)
        return container

    @staticmethod
    def _rejected(container: FemtoContainer, exc: Exception) -> AttachError:
        """An image the pre-flight refused is dropped from the device:
        it leaves its tenant (a later successful attach re-adopts it)."""
        if container.tenant is not None:
            container.tenant.release(container)
        return AttachError(f"container {container.name!r} rejected: {exc}")

    def detach(self, container: FemtoContainer) -> None:
        """Remove ``container`` from its hook and release it from its
        tenant: past this call only the caller (a rollback log, a
        quarantine record) keeps it alive, and :meth:`attach` re-adopts
        it if it ever comes back."""
        hook = container.hook
        if hook is None:
            return
        hook.containers.remove(container)
        container.hook = None
        container.state = ContainerState.DETACHED
        if container.tenant is not None:
            container.tenant.release(container)
        # Thread-mode containers own a worker thread: tell it to exit so a
        # detach (or hot replace) never leaks a blocked zombie thread.
        if container.event_queue is not None:
            container.event_queue.post_new("detach")  # type: ignore[attr-defined]

    def replace(self, old: FemtoContainer, new_program: Program) -> FemtoContainer:
        """Hot-swap a container's application (the SUIT update effect).

        The replacement keeps the old container's *name*: the deployed
        slot is the stable identity operators (and the declarative
        deployment reconciler) track across updates — only the image
        content changes.
        """
        if old.hook is None:
            raise AttachError("cannot replace a detached container")
        hook_name = old.hook.name
        tenant = old.tenant
        contract = old.contract
        self.detach(old)
        fresh = self.load(new_program, tenant=tenant, contract=contract,
                          name=old.name)
        try:
            return self.attach(fresh, hook_name)
        except Exception:
            # Failure-atomic: a replacement whose image is rejected must
            # not leave the slot empty.  The rejection already released
            # the never-attached ``fresh`` from the tenant; re-attach the
            # old container (re-verified, so the clock is charged like
            # any install; a real device restoring its old image pays it
            # too).
            self.attach(old, hook_name)
            raise

    def _spawn_worker(self, container: FemtoContainer) -> None:
        """Worker thread for THREAD-mode hooks (one thread per instance)."""
        queue = self.kernel.new_event_queue(f"{container.name}-events")
        container.event_queue = queue  # type: ignore[attr-defined]

        def worker(thread):
            while True:
                event = yield Wait(queue)
                if event.kind == "detach":
                    return
                context, pdu, done = event.payload
                run = self.execute(container, context, pdu=pdu)
                if done is not None:
                    done(run)

        container.worker = self.kernel.create_thread(
            name=f"fc/{container.name}",
            body=worker,
            priority=9,
            stack_size=container.vm.config.stack_size + 512,
        )

    # -- execution ------------------------------------------------------------------

    def _sched_launchpad(self, previous_pid: int, next_pid: int) -> None:
        """Listing 1: the hook compiled into the scheduler's hot path."""
        context = struct.pack("<QQ", previous_pid, next_pid)
        self.fire_hook(FC_HOOK_SCHED, context)

    def fire_hook(
        self,
        hook_name: str,
        context: bytes = b"",
        pdu: CoapResponseContext | None = None,
        done=None,
    ) -> HookFiring:
        """Fire a launchpad: run (or wake) every attached container.

        Charges the empty-hook dispatch cost even when nothing is attached
        (the pad's existence costs ~100 ticks; Table 4).
        """
        hook = self.hook(hook_name)
        hook.fires += 1
        self.kernel.clock.charge(self.board.hook_dispatch_cycles)
        firing = HookFiring(hook=hook,
                            dispatch_cycles=self.board.hook_dispatch_cycles)
        containers = hook.containers
        if hook.mode is HookMode.SYNC:
            # Hot path (the scheduler launchpad fires on every context
            # switch): iterate the attach list in place, no per-fire
            # snapshot.  The only mutation a synchronous run can cause is
            # the fault-detach of the very container that just ran
            # (helpers cannot attach or detach), so an index walk that
            # re-checks its slot after each run is exactly as safe as a
            # copy — and allocation-free.
            runs = firing.runs
            index = 0
            while index < len(containers):
                container = containers[index]
                runs.append(self.execute(container, context, pdu=pdu))
                if index < len(containers) and containers[index] is container:
                    index += 1
                # else: the run fault-detached `container`; its removal
                # shifted the next container into this slot.
        else:
            # Posting to worker queues never mutates the attach list.
            for container in containers:
                container.event_queue.post_new(  # type: ignore[attr-defined]
                    "fire", (context, pdu, done)
                )
        return firing

    def execute(
        self,
        container: FemtoContainer,
        context: bytes = b"",
        pdu: CoapResponseContext | None = None,
    ) -> ContainerRun:
        """Run one container once, containing any fault (Fig 3 flow)."""
        vm = container.vm
        if vm is None:
            raise EngineError(f"container {container.name!r} is not attached")
        granted = container.granted
        perms = (
            Permission.READ_WRITE
            if granted is None or granted.context_writable
            else Permission.READ
        )
        # Hoisted for the hook-fire hot path: one attribute walk each,
        # and the save/restore of the execution context is two plain
        # attribute swaps (no allocation on the non-fault path — even the
        # ExecutionStats fallback is only built when a fault swallowed
        # the real one).
        board = self.board
        clock = self.kernel.clock
        previous_container = self.current_container
        previous_pdu = self.current_pdu
        self.current_container = container
        self.current_pdu = pdu
        clock.charge(board.vm_setup_cycles)
        fault: FaultRecord | None = None
        value: int | None = None
        stats: ExecutionStats | None = None
        try:
            result = vm.run(context=context if context else None,
                            context_perms=perms)
            value = result.value
            stats = result.stats
        except VMFault as exc:
            # The fault is *contained*: record it, never re-raise.
            fault = FaultRecord(
                kind=type(exc).__name__,
                message=str(exc),
                at_cycles=clock.cycles,
                pc=exc.pc,
            )
        finally:
            self.current_container = previous_container
            self.current_pdu = previous_pdu
            if pdu is not None:
                # Unmap the PDU buffer: the grant lasts one execution.
                # (AccessList.remove also invalidates its MRU region cache.)
                vm.access_list.remove(pdu.region)

        if stats is None:
            stats = ExecutionStats()
        cycles = container.runtime.execution_cycles(
            board, stats, self.implementation, self.helpers
        ) + board.vm_setup_cycles
        clock.charge(max(0, cycles - board.vm_setup_cycles))
        run = ContainerRun(
            container=container,
            value=value,
            stats=stats,
            cycles=cycles,
            duration_us=board.us(cycles),
            fault=fault,
        )
        container.record_run(run)
        if fault is not None:
            self.fault_total += 1
        if pdu is not None and value is not None:
            pdu.payload_length = max(
                0, min(int(value) - pdu.header_length, pdu.payload_capacity)
            )
        self.supervisor.observe(container, run)
        return run

    # -- periodic (timer hook) convenience ----------------------------------------

    def attach_periodic(
        self,
        container: FemtoContainer,
        period_us: float,
        hook_name: str = FC_HOOK_TIMER,
    ):
        """Attach to the timer hook and fire it every ``period_us``.

        Returns a cancel function.  This is the §8.3 sensor-reader pattern:
        a timer event periodically launches the container.
        """
        if container.hook is None:
            self.attach(container, hook_name)

        def fire() -> None:
            self.fire_hook(hook_name, struct.pack("<QQ", 0, 0))

        return self.kernel.timers.set_periodic(fire, period_us)

    # -- accounting --------------------------------------------------------------------

    def containers(self) -> list[FemtoContainer]:
        seen: list[FemtoContainer] = []
        for hook in self.hooks.values():
            seen.extend(hook.containers)
        return seen

    def runtime_snapshot(self) -> dict[tuple[str, str], SlotSnapshot]:
        """Per-slot :class:`SlotSnapshot` baselines.

        Keyed by ``(hook name, container name)`` like
        :meth:`fault_counts`.  The container *object* is part of the
        snapshot on purpose: run and cycle counters live on the
        instance, so a later reader can compute deltas even for a
        container the engine fault-detached in the meantime (fleet
        canary health gates rely on exactly that).  Every slot
        additionally carries its live health record — including slots
        whose container is currently *quarantined* (detached), so a
        fleet health reader sees the sick slot, not a silent absence.
        """
        snapshot: dict[tuple[str, str], SlotSnapshot] = {}
        for container in self.containers():
            if container.hook is None:
                continue
            key = (container.hook.name, container.name)
            snapshot[key] = SlotSnapshot(
                container, container.runs, container.total_cycles,
                self.supervisor.health(*key))
        for key, health in self.supervisor.counters().items():
            if key not in snapshot and health.quarantined:
                snapshot[key] = SlotSnapshot(
                    health.container, health.container.runs,
                    health.container.total_cycles, health)
        return snapshot

    def fault_counts(self) -> dict[tuple[str, str], int]:
        """Per-slot fault counts of currently attached containers.

        Keyed by ``(hook name, container name)`` — the planner's slot
        identity — because one container name may legally appear on
        several hooks.
        """
        return {(container.hook.name, container.name): container.fault_count
                for container in self.containers()
                if container.hook is not None}

    def store_ram_bytes(self) -> int:
        """RAM of all key-value stores plus housekeeping (§10.3's 340 B)."""
        from repro.core.tenant import TENANT_STRUCT_BYTES

        total = self.global_store.ram_bytes
        total += sum(
            TENANT_STRUCT_BYTES + t.store.ram_bytes
            for t in self.tenants.values()
        )
        total += sum(c.local_store.ram_bytes for c in self.containers())
        return total

    def total_ram_bytes(self) -> int:
        """Engine-attributable RAM: instances + images + stores (§10.3)."""
        return self.store_ram_bytes() + sum(
            c.vm.ram_bytes + c.program.image_size
            for c in self.containers()
            if c.vm is not None
        )
