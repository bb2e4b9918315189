"""The Femto-Container itself: one sandboxed application instance."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.kvstore import KeyValueStore
from repro.core.policy import DEFAULT_CONTRACT, ContainerContract, GrantedPolicy
from repro.vm.certfc import CertFCInterpreter
from repro.vm.interpreter import ExecutionStats, Interpreter, RbpfInterpreter
from repro.vm.jit import CompiledProgram
from repro.vm.memory import Permission
from repro.vm.program import Program

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.hooks import Hook
    from repro.core.tenant import Tenant
    from repro.rtos.board import CostProfile
    from repro.rtos.thread import Thread

#: implementation name -> interpreter class.
VM_CLASSES = {
    "rbpf": RbpfInterpreter,
    "femto-containers": Interpreter,
    "certfc": CertFCInterpreter,
    "jit": CompiledProgram,
}


#: Distinct count vectors a container tallies before it folds them into
#: one running sum.
MAX_COUNT_VECTORS = 64


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


def count_vector(stats: ExecutionStats) -> tuple:
    """A hashable key equal for two runs exactly when their counts are.

    Carries the kind names as well as their counts: the Wasm and script
    runtimes report only the classes a run visited.
    """
    kinds = stats.kind_counts
    return (stats.executed, stats.branches_taken, tuple(kinds),
            *kinds.values(), *stats.helper_calls.items())


@dataclass(frozen=True, slots=True)
class RunFacts:
    """What every run of a container shares, derived once at attach.

    The hosting engine derives them in ``HostingEngine.attach``, so a run
    neither re-derives its context permissions nor re-walks the board's
    cost tables.  ``cost`` reads the live helper registry, so a helper
    registered again with another cost key is priced anew from the next
    run on.
    """

    #: Permissions the hook context is mapped with.
    context_perms: Permission
    #: The runtime's prices on this board (the one cost formula).
    cost: "CostProfile"
    #: The board's per-run VM setup charge.
    setup_cycles: int


def _add_runs(total: ExecutionStats, stats: ExecutionStats,
              runs: int) -> None:
    """Add ``runs`` runs with the counts of ``stats`` into ``total``."""
    total.executed += stats.executed * runs
    total.branches_taken += stats.branches_taken * runs
    kinds = total.kind_counts
    for kind, count in stats.kind_counts.items():
        kinds[kind] = kinds.get(kind, 0) + count * runs
    calls = total.helper_calls
    for helper_id, count in stats.helper_calls.items():
        calls[helper_id] = calls.get(helper_id, 0) + count * runs


@dataclass(eq=False)
class FemtoContainer:
    """One deployable application: bytecode + contract + runtime state.

    Equality is identity: two instances of one image are distinct
    deployments, and hook and tenant lists find a container by ``is``.
    """

    name: str
    program: Program
    tenant: "Tenant | None" = None
    contract: ContainerContract = DEFAULT_CONTRACT
    state: ContainerState = ContainerState.LOADED
    #: Filled at attach time by the hosting engine.
    vm: Interpreter | None = None
    facts: RunFacts | None = None
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
    #: Lifetime accounting.  Per-run counts are tallied as runs per
    #: count vector and summed only when :attr:`lifetime_stats` is read.
    runs: int = 0
    faults: list[FaultRecord] = field(default_factory=list)
    total_cycles: int = 0
    #: count vector -> [runs, the stats of the first such run].
    _tally: dict[tuple, list] = field(default_factory=dict, init=False,
                                      repr=False)
    #: Sum of the runs folded out of a full tally.
    _folded: ExecutionStats | None = field(default=None, init=False,
                                           repr=False)

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

        Instances with equal hashes (and equal limits) share one instance
        prototype through :data:`~repro.vm.imagecache.IMAGE_CACHE`; the
        device shell and the fan-out tooling display it so operators can
        see which containers are stamped from the same image.
        """
        return self.program.image_hash

    @property
    def lifetime_stats(self) -> ExecutionStats:
        """The sum of the stats of every run this container recorded."""
        total = ExecutionStats()
        if self._folded is not None:
            _add_runs(total, self._folded, 1)
        for runs, stats in self._tally.values():
            _add_runs(total, stats, runs)
        return total

    def record_run(self, run: ContainerRun) -> None:
        self.runs += 1
        self.total_cycles += run.cycles
        vector = count_vector(run.stats)
        entry = self._tally.get(vector)
        if entry is not None:
            entry[0] += 1
        else:
            if len(self._tally) >= MAX_COUNT_VECTORS:
                self._folded = self.lifetime_stats
                self._tally.clear()
            self._tally[vector] = [1, run.stats]
        if run.fault is not None:
            self.faults.append(run.fault)
