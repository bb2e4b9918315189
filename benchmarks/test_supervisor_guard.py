"""Container-supervisor regression guard.

Two trials:

* **Quarantine-aware fleet publish** — a 3-device publish where one
  device hosts a crash-looping resident container.  The supervisor
  quarantines the sick slot mid-convergence; the publish still
  converges fleet-wide and the device's row is flagged ``QUARANTINED``
  (reported, counted, not failed).
* **Runaway-container waste bound** — a clean but runaway cycle hog
  (every run far over its per-run cycle ceiling) fired repeatedly on an
  engine whose supervisor enforces that ceiling versus one whose
  supervisor has no ceiling (the unsupervised baseline: the hog never
  faults, so nothing else stops it).  The overrun streak quarantines
  the hog after a few runs, so the supervised engine spends a fraction
  of the modelled cycles the unsupervised one burns re-running it
  forever.  The guard holds ``supervised/unsupervised``
  at or below :data:`WASTE_RATIO_BAR`.
"""

from __future__ import annotations

from repro.core import FC_HOOK_FANOUT, HostingEngine
from repro.core.hooks import HookMode
from repro.deploy import (
    AttachmentSpec,
    DeploymentSpec,
    HookSpec,
    ImageSpec,
)
from repro.rtos import Kernel, nrf52840
from repro.scenarios import build_fleet_publisher
from repro.suit import UpdateStatus
from repro.vm import assemble
from repro.vm.imagecache import IMAGE_CACHE
from repro.vm.supervisor import SupervisorConfig

DEVICES = 3
FIRES = 200
#: Supervised crash-loop cycles must stay at or below this fraction of
#: the unsupervised burn.
WASTE_RATIO_BAR = 0.5

GOOD = "mov r0, 7\n    exit"
#: Verifies clean, dereferences an unmapped address at runtime.
POISON = "lddw r1, 0x10\n    ldxb r0, [r1]\n    exit"
#: Clean but runaway: a sensor filter's worth of ALU traffic per run,
#: far over the supervised trial's per-run cycle ceiling.
CYCLE_HOG = "\n    ".join(["mov r0, 0"] + ["add r0, 1"] * 100 + ["exit"])


def _spec() -> DeploymentSpec:
    return DeploymentSpec(
        name="release",
        tenants=("ops",),
        hooks=(HookSpec(FC_HOOK_FANOUT, HookMode.SYNC),),
        images={"app": ImageSpec.from_program(assemble(GOOD, name="app"))},
        attachments=(AttachmentSpec(image="app", hook=FC_HOOK_FANOUT,
                                    tenant="ops", name="worker", count=2),),
    )


def _publish_trial() -> None:
    """A fleet publish converges around a quarantined crash-looper."""
    IMAGE_CACHE.clear()
    publisher = build_fleet_publisher(
        devices=DEVICES, supervisor=SupervisorConfig(fault_streak=4))
    sick = publisher.fleet.devices[1]
    looper = sick.engine.load(assemble(POISON, name="sensor"))
    sick.engine.attach_periodic(looper, 1_000.0)
    result = publisher.publish(_spec())
    assert result.ok, result.reason
    rows = {row.device.name: row for row in result.rows()}
    assert rows["dev1"].result.status is UpdateStatus.QUARANTINED
    assert rows["dev0"].result.status is UpdateStatus.OK
    assert rows["dev1"].quarantined >= 1
    assert rows["dev1"].fault_delta > 0
    assert sick.radio.worker.storage.highest_sequence(
        publisher.slot) == result.sequence_number
    assert sum(row.ok for row in result.rows()) == DEVICES
    assert len(result.quarantined_devices()) == 1


def _runaway_cycles(supervised: bool) -> int:
    """Modelled cycles of ``FIRES`` SYNC-hook fires of a cycle hog."""
    from repro.core.hooks import Hook

    kernel = Kernel(nrf52840())
    config = (SupervisorConfig(cycle_ceiling=1_000, overrun_streak=3)
              if supervised else SupervisorConfig())
    engine = HostingEngine(kernel, supervisor=config)
    engine.register_hook(Hook("bench.runaway", mode=HookMode.SYNC))
    engine.attach(engine.load(assemble(CYCLE_HOG, name="hog")),
                  "bench.runaway")
    before = kernel.clock.cycles
    for _ in range(FIRES):
        engine.fire_hook("bench.runaway")
    return kernel.clock.cycles - before


def test_supervisor_guard():
    _publish_trial()
    supervised = _runaway_cycles(supervised=True)
    unsupervised = _runaway_cycles(supervised=False)
    IMAGE_CACHE.clear()  # leave no benchmark state behind for other tests
    ratio = supervised / unsupervised
    assert ratio <= WASTE_RATIO_BAR, (
        f"supervised runaway container still burned {ratio:.2f} of the "
        f"unsupervised cycles (bar {WASTE_RATIO_BAR})"
    )
