"""Fleet-rollout regression guard for the declarative deployment API.

Applying one K-tenant x M-instance spec across an N-device fleet is the
cross-board payoff of the shared image cache: device 1 pays the host-side
verify and JIT transpile cold, devices 2..N ride the cached artifacts.
This guard rolls a 2x2 fletcher32 spec onto a 4-device fleet and
**fails** if any cache-warm device's rollout is not at least 5x faster
than device 1's cold rollout.

The modelled device cost must be cache-*oblivious*: every device in the
fleet charges bit-identical virtual cycles for the same spec, warm or
cold (asserted on every trial).
"""

from __future__ import annotations

from repro.deploy import Fleet, fanout_spec
from repro.vm.imagecache import IMAGE_CACHE
from repro.workloads.fletcher32 import fletcher32_program

DEVICES = 4
TENANTS = 2
INSTANCES = 2

#: Warm devices skip the dominant JIT transpile+compile entirely.
WARM_SPEEDUP_BAR = 5.0

_TRIALS = 5


def _one_rollout() -> list[float]:
    """Cold-cache rollout of the spec across a fresh fleet."""
    IMAGE_CACHE.clear()
    fleet = Fleet(DEVICES, implementation="jit")
    spec = fanout_spec(tenants=TENANTS, instances_per_tenant=INSTANCES,
                       image=fletcher32_program())
    rollout = fleet.apply(spec)
    cycles = rollout.cycles_per_device()
    # Cache-obliviousness of the device model, checked on every trial.
    assert len(set(cycles)) == 1, cycles
    return [device.wall_s for device in rollout.devices]


def test_deploy_guard():
    per_device: list[list[float]] = [[] for _ in range(DEVICES)]
    for _ in range(_TRIALS):
        for index, wall in enumerate(_one_rollout()):
            per_device[index].append(wall)
    IMAGE_CACHE.clear()  # leave no benchmark state behind for other tests

    best = [min(times) for times in per_device]
    speedups = [best[0] / wall for wall in best[1:]]
    # Every cache-warm device must beat the cold device by the bar.
    for index, speedup in enumerate(speedups, start=1):
        assert speedup >= WARM_SPEEDUP_BAR, (
            f"dev{index} rollout only {speedup:.2f}x faster than dev0 "
            f"(bar {WARM_SPEEDUP_BAR}x): {best}"
        )
