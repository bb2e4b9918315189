"""Fleet rollout: one :class:`DeploymentSpec` across N simulated devices.

The paper frames the serverless-IoT workload as "a large number of
containers, but across a large number of devices" (§2).  A :class:`Fleet`
instantiates one spec on every device — boards may differ — and is the
first scenario to drive the image cache's *cross-board* sharing path:
the process-wide :data:`~repro.vm.imagecache.IMAGE_CACHE` is keyed by
content hash, not by board, so the first device pays the host-side
verify and JIT compile and every later device attaches through pure
cache hits.  Each
device's **virtual clock is its own** and is always charged the full
modelled verify+install cost — the cache is a wall-clock effect of the
simulator, never a device-semantics change.
``benchmarks/test_image_cache_guard.py`` asserts both halves of that
invariant: the cold device misses once per new image, warm rows never
miss, and cycles are equal.

:meth:`Fleet.apply` and :meth:`Fleet.canary_rollout` return a
:class:`~repro.deploy.results.FleetResult` whose
:class:`~repro.deploy.results.DeviceRow` rows carry per-device accounting
— wall time, modelled cycles charged, image-cache hits/misses — so
benchmarks and ``examples/declarative_fleet.py`` can show devices 2..N
riding the cache device 1 warmed.

The fleet is also the one owner of device membership: an
insertion-ordered name → device map with O(1) lookup and a stable
per-device **wiring index**.  The radio address is derived from that
index, and indices are never reused, so a device added after an
eviction cannot collide with in-flight frames addressed to its
predecessor.  ``fleet.devices`` is a list view cached between
membership changes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.core.engine import HostingEngine
from repro.deploy.plan import apply, plan
from repro.deploy.results import DeviceRow, FleetResult
from repro.deploy.spec import DeploymentSpec, HookSpec
from repro.deploy.staged import HealthGate, StagedRollout
from repro.rtos.board import Board, nrf52840
from repro.rtos.kernel import Kernel
from repro.suit.worker import UpdateResult, UpdateStatus
from repro.vm.imagecache import IMAGE_CACHE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.vm.supervisor import SupervisorConfig


@dataclass
class FleetDevice:
    """One simulated device: its own kernel, clock and hosting engine."""

    name: str
    kernel: Kernel
    engine: HostingEngine
    #: Permanent wiring (radio address) index, never reused in its fleet.
    index: int
    #: Radio rig (interface, CoAP endpoints, spec-update worker) wired by
    #: :class:`~repro.deploy.publish.FleetPublisher`; ``None`` on a fleet
    #: that is only driven directly by the simulator.
    radio: object = None
    #: Persistent flash (:class:`~repro.rtos.nvm.NvmStore`) — owned by
    #: the *device*, not the kernel, so it survives power cycles.
    nvm: object = None
    #: Per-device energy meter; survives reboots like the NVM does.
    meter: object = None
    #: Power cycles this device has been through.
    reboots: int = 0
    #: The spec *this device* last converged on — the per-device
    #: rollback baseline.  A mode-heterogeneous fleet (devices running
    #: different specs) unwinds each device to its own prior state, not
    #: to one fleet-wide guess.
    current_spec: DeploymentSpec | None = None

    @property
    def board(self) -> Board:
        return self.kernel.board


@dataclass
class _DirectTransport:
    """Staged-rollout transport that plans and applies in process."""

    fleet: Fleet

    def converge(self, devices: Sequence[FleetDevice], spec: DeploymentSpec,
                 role: str) -> tuple[list[DeviceRow], str]:
        rows = []
        for device in devices:
            try:
                rows.append(self.fleet._converge(device, spec, role))
            except Exception as exc:
                # apply() already restored this device; the devices after
                # it are never touched.
                verb = ("promotion failed" if role == "control"
                        else "apply failed")
                return rows, f"{verb} on {device.name}: {exc}"
        return rows, ""

    def revert(self, groups) -> tuple[list[DeviceRow], str]:
        rows, failures = [], []
        for baseline, devices in groups:
            for device in devices:
                try:
                    rows.append(self.fleet._converge(device, baseline,
                                                     "rollback"))
                except Exception as exc:
                    failures.append(f"rollback failed on {device.name}: {exc}")
        return rows, "; ".join(failures)


class Fleet:
    """N devices driven as one deployment target.

    ``boards`` is either a device count (homogeneous nRF52840 fleet) or
    an explicit board list (heterogeneous fleet — the cache shares across
    board models because images are content-addressed).
    """

    def __init__(
        self,
        boards: int | Sequence[Board] = 4,
        implementation: str = "jit",
        supervisor: SupervisorConfig | None = None,
    ) -> None:
        if isinstance(boards, int):
            boards = [nrf52840()] * boards
        if not boards:
            raise ValueError("a fleet needs at least one device")
        self.implementation = implementation
        #: Engine supervisor policy, also reused when the publisher
        #: rebuilds an engine after a device reboot.
        self.supervisor_config = supervisor
        #: Device name -> device, in insertion order.
        self._members: dict[str, FleetDevice] = {}
        self._next_index = 0
        self._view: list[FleetDevice] | None = None
        #: The spec the whole fleet last converged on (the canary
        #: rollback target when no explicit baseline is given).
        self.current_spec: DeploymentSpec | None = None
        for board in boards:
            self.add_device(board)

    @property
    def devices(self) -> list[FleetDevice]:
        """Members in insertion order (cached between membership changes)."""
        if self._view is None:
            self._view = list(self._members.values())
        return self._view

    def add_device(self, board: Board | None = None,
                   name: str | None = None) -> FleetDevice:
        """Add one device under the next wiring index.

        This only creates the device; a publisher-driven fleet adds
        wired devices through :meth:`FleetPublisher.add_device`.
        """
        index = self._next_index
        if name is None:
            name = f"dev{index}"
        if name in self._members:
            raise ValueError(f"device {name!r} is already registered")
        kernel = Kernel(board if board is not None else nrf52840())
        device = FleetDevice(
            name=name,
            kernel=kernel,
            engine=HostingEngine(kernel, implementation=self.implementation,
                                 supervisor=self.supervisor_config),
            index=index,
        )
        self._next_index += 1
        self._members[name] = device
        self._view = None
        return device

    def device(self, name: str) -> FleetDevice:
        try:
            return self._members[name]
        except KeyError:
            raise KeyError(f"no fleet device named {name!r}") from None

    def index_of(self, name: str) -> int:
        """The device's permanent wiring (radio address) index."""
        return self.device(name).index

    def evict(self, name: str) -> FleetDevice:
        """Remove one device; its wiring index is retired."""
        device = self.device(name)
        del self._members[name]
        self._view = None
        return device

    def __len__(self) -> int:
        return len(self._members)

    def _converge(self, device: FleetDevice, spec: DeploymentSpec,
                  role: str = "device") -> DeviceRow:
        """Plan+apply ``spec`` on one device, with rollout accounting.

        The row keeps a value record of the apply, not the live
        :class:`~repro.deploy.plan.ApplyResult`, so a kept result never
        pins the containers or timer closures the apply created.
        """
        hits_before = IMAGE_CACHE.hits
        misses_before = IMAGE_CACHE.misses
        cycles_before = device.kernel.clock.cycles
        start = time.perf_counter()
        deployment = apply(device.engine, plan(device.engine, spec)).plan
        wall_s = time.perf_counter() - start
        device.current_spec = spec
        return DeviceRow(
            device=device,
            role=role,
            result=UpdateResult(UpdateStatus.OK, "applied in process",
                                plan=deployment),
            wall_s=wall_s,
            cycles_charged=device.kernel.clock.cycles - cycles_before,
            cache_hits=IMAGE_CACHE.hits - hits_before,
            cache_misses=IMAGE_CACHE.misses - misses_before,
        )

    def apply(self, spec: DeploymentSpec) -> FleetResult:
        """Plan+apply ``spec`` on every device, in fleet order.

        Raises on the first device whose apply fails (that device was
        already restored; the devices after it are never touched).
        """
        rollout = FleetResult(spec=spec)
        for device in self.devices:
            rollout.control.append(self._converge(device, spec))
        self.current_spec = spec
        return rollout

    # -- canary rollout --------------------------------------------------------

    def _rollback_baseline(
        self,
        spec: DeploymentSpec,
        canaries: Sequence[FleetDevice],
    ) -> DeploymentSpec:
        """Synthesize the rollback target when nothing was ever applied.

        Rolling back then means detaching everything the spec owns, so
        the synthesized baseline must claim the same scope as the spec —
        its declared hooks *plus* the firmware hooks its attachments
        target.  Firmware builds may differ across the fleet, so the
        hook lookup is the **union across all canaries**: a pad compiled
        only into a later canary's firmware still enters the baseline
        scope (taking that canary's mode), otherwise tenantless
        containers on it would survive the rollback.
        """
        hooks = {hook.name: hook for hook in spec.hooks}
        for attachment in spec.attachments:
            if attachment.hook in hooks:
                continue
            for canary in canaries:
                live = canary.engine.hooks.get(attachment.hook)
                if live is not None:
                    hooks[attachment.hook] = HookSpec(attachment.hook,
                                                      live.mode)
                    break
        return DeploymentSpec(
            name=f"{spec.name}-rollback",
            tenants=spec.tenants,
            hooks=tuple(hooks.values()),
        )

    def canary_rollout(
        self,
        spec: DeploymentSpec,
        canary_count: int | None = None,
        bake_us: float = 2_000_000.0,
        bake_fires: int = 0,
        bake_context: bytes | None = None,
        baseline: DeploymentSpec | None = None,
        health_gate: HealthGate | None = None,
    ) -> FleetResult:
        """Stage ``spec`` on a canary subset, bake, then promote or revert.

        The first ``canary_count`` devices (default a quarter of the
        fleet, at least one) are the canaries;
        :class:`~repro.deploy.staged.StagedRollout` documents the
        phases, the health gate and the rollback targets.  The first
        canary whose apply fails stops the canary phase (the
        transactional apply already restored it).
        """
        if canary_count is None:
            canary_count = max(1, round(len(self.devices) / 4))
        staged = StagedRollout(
            self, _DirectTransport(self), canary_count,
            health_gate=health_gate, bake_us=bake_us, bake_fires=bake_fires,
            bake_context=bake_context,
            baseline=baseline,
        )
        return staged.run(FleetResult(spec=spec))

    def fire_all(self, hook_name: str, context: bytes = b"") -> int:
        """Fire one hook on every device; returns total container runs.

        Heterogeneous firmware is expected: a device whose build does
        not compile the pad simply does not participate (the fire is a
        no-op there, not an error), and the runs of the devices that do
        have it are still returned.
        """
        runs = 0
        for device in self.devices:
            if hook_name not in device.engine.hooks:
                continue
            runs += len(device.engine.fire_hook(hook_name, context).runs)
        return runs

    # -- aggregate accounting ------------------------------------------------

    def total_ram_bytes(self) -> int:
        """Engine-attributable RAM across the whole fleet (§10.3 view)."""
        return sum(device.engine.total_ram_bytes()
                   for device in self.devices)

    def containers(self):
        """Every attached container on every device, fleet order."""
        return [container
                for device in self.devices
                for container in device.engine.containers()]
