"""The Femto-Container itself: one sandboxed application instance."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.kvstore import KeyValueStore
from repro.core.policy import ContainerContract, GrantedPolicy
from repro.vm.certfc import CertFCInterpreter
from repro.vm.interpreter import ExecutionStats, Interpreter, RbpfInterpreter
from repro.vm.jit import CompiledProgram
from repro.vm.program import Program

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.hooks import Hook
    from repro.core.tenant import Tenant
    from repro.rtos.thread import Thread

#: implementation name -> interpreter class.
VM_CLASSES = {
    "rbpf": RbpfInterpreter,
    "femto-containers": Interpreter,
    "certfc": CertFCInterpreter,
    "jit": CompiledProgram,
}


class ContainerState(enum.Enum):
    """Lifecycle of a container image on the device."""

    LOADED = "loaded"        # image in RAM, not yet verified
    ATTACHED = "attached"    # verified and bound to a hook
    DETACHED = "detached"    # removed from its hook, image still present


@dataclass
class FaultRecord:
    """One contained fault (the host keeps running — that is the point)."""

    kind: str
    message: str
    at_cycles: int
    pc: int | None = None


@dataclass
class ContainerRun:
    """Outcome of one launchpad-triggered execution."""

    container: "FemtoContainer"
    value: int | None
    stats: ExecutionStats
    cycles: int
    duration_us: float
    fault: FaultRecord | None = None

    @property
    def ok(self) -> bool:
        return self.fault is None


@dataclass(eq=False)
class FemtoContainer:
    """One deployable application: bytecode + contract + runtime state.

    Equality is identity: two instances of one image are distinct
    deployments, and hook and tenant lists find a container by ``is``.
    """

    name: str
    program: Program
    tenant: "Tenant | None" = None
    contract: ContainerContract = field(default_factory=ContainerContract)
    state: ContainerState = ContainerState.LOADED
    #: Filled at attach time by the hosting engine.
    vm: Interpreter | None = None
    #: The :class:`~repro.runtimes.base.ContainerRuntime` that attached
    #: this container (set by the engine; ``None`` before first attach).
    runtime: object = None
    granted: GrantedPolicy | None = None
    hook: "Hook | None" = None
    local_store: KeyValueStore = field(default=None)  # type: ignore[assignment]
    #: Worker thread for HookMode.THREAD execution.
    worker: "Thread | None" = None
    #: Event queue feeding the worker thread (set by the engine).
    event_queue: object = None
    #: Lifetime accounting.
    runs: int = 0
    faults: list[FaultRecord] = field(default_factory=list)
    total_cycles: int = 0
    lifetime_stats: ExecutionStats = field(default_factory=ExecutionStats)

    def __post_init__(self) -> None:
        if self.local_store is None:
            self.local_store = KeyValueStore(
                name=f"{self.name}-local", scope="local"
            )
        if self.tenant is not None:
            self.tenant.adopt(self)

    # -- accounting -----------------------------------------------------------

    @property
    def ram_bytes(self) -> int:
        """RAM this instance pins: VM state + image (stored in RAM after a
        network deployment, per §5) + its local store."""
        vm_bytes = self.vm.ram_bytes if self.vm is not None else 0
        return vm_bytes + self.program.image_size + self.local_store.ram_bytes

    @property
    def fault_count(self) -> int:
        return len(self.faults)

    @property
    def image_hash(self) -> str:
        """Content hash of the deployed image (the shared-cache key).

        Instances with equal hashes share verify results and JIT
        templates through :data:`~repro.vm.imagecache.IMAGE_CACHE`; the
        device shell and the fan-out tooling display it so operators can
        see which containers are stamped from the same image.
        """
        return self.program.image_hash

    def record_run(self, run: ContainerRun) -> None:
        self.runs += 1
        self.total_cycles += run.cycles
        self.lifetime_stats.merge(run.stats)
        if run.fault is not None:
            self.faults.append(run.fault)
