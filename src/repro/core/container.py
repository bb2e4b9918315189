"""The Femto-Container itself: one sandboxed application instance."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.kvstore import STORE_HEADER_BYTES, KeyValueStore
from repro.core.policy import DEFAULT_CONTRACT, ContainerContract, GrantedPolicy
from repro.vm.certfc import CertFCInterpreter
from repro.vm.interpreter import ExecutionStats, Interpreter, RbpfInterpreter
from repro.vm.jit import CompiledProgram
from repro.vm.memory import MemoryRegion, Permission
from repro.vm.program import Program

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.hooks import Hook
    from repro.core.tenant import Tenant
    from repro.rtos.board import CostProfile
    from repro.rtos.thread import Thread
    from repro.vm.helpers import HelperRegistry

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


@dataclass(slots=True)
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
    """A hashable key equal for two runs of one container exactly when
    their counts are.

    Carries the counts, not the kind names: every runtime reports every
    cost class of its engine or profile, zeros included, in one fixed
    order, so the names are the same for every run of a container.
    Helper calls are ``(id, count)`` pairs, never equal to a count.
    """
    return (stats.executed, stats.branches_taken,
            *stats.kind_counts.values(), *stats.helper_calls.items())


@dataclass(frozen=True, slots=True)
class RunFacts:
    """What every run of a container shares, derived once at attach.

    The hosting engine derives them in ``HostingEngine.attach`` (one
    process-wide memo per slot shape, board and implementation), so a run
    neither re-derives its context permissions nor re-walks the board's
    cost tables.  ``cost`` holds no helper registry: a run is priced with
    it and the engine's live registry, and a tallied price is reused only
    while both are unchanged (:meth:`FemtoContainer.record_run`), so a
    helper registered again with another cost key is priced anew from the
    next run on.
    """

    #: Permissions the hook context is mapped with.
    context_perms: Permission
    #: The runtime's prices on this board (the one cost formula).
    cost: "CostProfile"
    #: The board's per-run VM setup charge.
    setup_cycles: int


class _TallyEntry:
    """The runs of one count vector: how many, the stats of the first,
    and their price with the cost profile and helper ids it was taken
    under."""

    __slots__ = ("runs", "stats", "cycles", "cost", "helper_ids")

    def __init__(self, stats: ExecutionStats) -> None:
        self.runs = 0
        self.stats = stats
        self.cycles = 0
        self.cost: "CostProfile | None" = None
        self.helper_ids: frozenset[int] | None = None


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
    facts: RunFacts | None = None
    #: The :class:`~repro.runtimes.base.ContainerRuntime` that attached
    #: this container (set by the engine; ``None`` before first attach).
    runtime: object = None
    granted: GrantedPolicy | None = None
    hook: "Hook | None" = None
    #: Worker thread for HookMode.THREAD execution.
    worker: "Thread | None" = None
    #: Event queue feeding the worker thread (set by the engine).
    event_queue: object = None
    #: Lifetime accounting.  Per-run counts are tallied as runs per
    #: count vector and summed only when :attr:`lifetime_stats` is read.
    runs: int = 0
    faults: list[FaultRecord] = field(default_factory=list)
    total_cycles: int = 0
    #: count vector -> its :class:`_TallyEntry`.
    _tally: dict[tuple, _TallyEntry] = field(default_factory=dict,
                                            init=False, repr=False)
    #: Sum of the runs folded out of a full tally.
    _folded: ExecutionStats | None = field(default=None, init=False,
                                           repr=False)
    #: The supervisor's :class:`~repro.vm.supervisor.SlotHealth` record
    #: of this container, set by its first supervised run.  Until then
    #: this class default reads ``None`` and the instance stores nothing.
    health = None
    #: The VM instance once built (see :attr:`vm`), and until then the
    #: attach's ``(engine, prototype, vm_config)``, from which the first
    #: use builds it.  Both class defaults read ``None`` on a container
    #: that was never attached.
    _vm = None
    _clone = None
    #: The local store once built (see :attr:`local_store`).
    _local_store = None

    def __post_init__(self) -> None:
        if self.tenant is not None:
            self.tenant.adopt(self)

    @property
    def local_store(self) -> KeyValueStore:
        """This container's private store, built at its first use: most
        containers a fleet update loads are replaced before they run."""
        if self._local_store is None:
            self._local_store = KeyValueStore(name=f"{self.name}-local",
                                              scope="local")
        return self._local_store

    @property
    def local_store_bytes(self) -> int:
        """RAM of the local store; one never used holds its header."""
        store = self._local_store
        return store.ram_bytes if store is not None else STORE_HEADER_BYTES

    # -- the instance ---------------------------------------------------------

    @property
    def vm(self) -> "Interpreter | None":
        """This container's VM instance (``None`` before its first attach).

        An attach keeps the prototype it looked up; the first use — a run,
        or any read of this attribute — clones the instance from it with
        the runtime's ``instantiate`` under the attach's limits and grant
        regions, exactly as an eager attach would have built it.  A later
        attach starts a fresh instance the same way.
        """
        if self._vm is None and self._clone is not None:
            engine, prototype, vm_config = self._clone
            regions = [
                MemoryRegion.zeroed(grant.name, grant.start, grant.size,
                                    grant.perms)
                for grant in self.granted.memory_grants
            ]
            vm = self.runtime.instantiate(
                prototype, self.program, engine.implementation,
                engine.helpers, vm_config, regions)
            vm.services = engine  # how the shared helpers reach the engine
            self._vm = vm
            self._clone = None
        return self._vm

    # -- accounting -----------------------------------------------------------

    @property
    def ram_bytes(self) -> int:
        """RAM this instance pins: VM state + image (stored in RAM after a
        network deployment, per §5) + its local store."""
        vm_bytes = self.vm.ram_bytes if self.vm is not None else 0
        return vm_bytes + self.program.image_size + self.local_store_bytes

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
        for entry in self._tally.values():
            _add_runs(total, entry.stats, entry.runs)
        return total

    def record_run(self, stats: ExecutionStats, fault: FaultRecord | None,
                   helpers: "HelperRegistry") -> int:
        """Tally one run of the attached container and return its
        execution cycles (the price of ``stats``, setup not included).

        One lookup finds the run's tally entry.  Its price is reused only
        if it was taken under this attach's cost profile and the registry
        state ``helpers`` is in now (its id set, which every
        :meth:`~repro.vm.helpers.HelperRegistry.register` replaces);
        otherwise the run is priced anew, so a price always reads the
        live registry.
        """
        facts = self.facts
        vector = count_vector(stats)
        tally = self._tally
        entry = tally.get(vector)
        if entry is None:
            if len(tally) >= MAX_COUNT_VECTORS:
                self._folded = self.lifetime_stats
                tally.clear()
            entry = tally[vector] = _TallyEntry(stats)
        cost = facts.cost
        helper_ids = helpers.ids()
        if entry.cost is not cost or entry.helper_ids is not helper_ids:
            entry.cycles = cost.cycles(stats, helpers)
            entry.cost = cost
            entry.helper_ids = helper_ids
        entry.runs += 1
        self.runs += 1
        self.total_cycles += facts.setup_cycles + entry.cycles
        if fault is not None:
            self.faults.append(fault)
        return entry.cycles
