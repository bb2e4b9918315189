"""Fleet scale-out guard: 1,000 devices off one multicast publish.

The fleet-scale profile (:meth:`PublishOptions.scale`) replaces N
unicast trigger POSTs + N block-wise fetches with ONE broadcast
trigger carrying the integrated payload.  This guard
publishes one realistic release (two 4 KiB images) to a 1,000-device
fleet both ways and holds two bars:

* **Throughput bar** — devices converged per wall-second on the scale
  profile must be >= 3x the unicast baseline at N=1000;
* **Airtime bar** — maintainer trigger radio bytes *per device* under
  multicast must be <= 0.5x the unicast baseline (measured: one
  broadcast frame amortized over N vs one signed envelope POST each).
"""

from __future__ import annotations

import time

from repro.core import FC_HOOK_FANOUT
from repro.core.hooks import HookMode
from repro.deploy import (
    AttachmentSpec,
    DeploymentSpec,
    HookSpec,
    ImageSpec,
    PublishOptions,
    plan,
)
from repro.scenarios import build_fleet_publisher
from repro.vm import assemble
from repro.vm.imagecache import IMAGE_CACHE

DEVICES = 1000
IMAGES = 2
RODATA_BYTES = 4096

#: Scale-profile convergence throughput vs the unicast baseline.
SCALE_SPEEDUP_BAR = 3.0
#: Multicast trigger airtime per device vs one unicast POST each.
TRIGGER_BYTES_RATIO_BAR = 0.5

_TRIALS = 2


def _spec() -> DeploymentSpec:
    """One realistic fleet release: two 4 KiB content-addressed images."""
    base = ImageSpec.from_program(
        assemble("mov r0, 7\n    exit", name="app"))
    images = {
        f"app{index}": ImageSpec(name=f"app{index}", text=base.text,
                                 rodata=bytes([index % 256]) * RODATA_BYTES)
        for index in range(IMAGES)
    }
    return DeploymentSpec(
        name="fleet-release",
        tenants=("ops",),
        hooks=(HookSpec(FC_HOOK_FANOUT, HookMode.SYNC),),
        images=images,
        attachments=tuple(
            AttachmentSpec(image=f"app{index}", hook=FC_HOOK_FANOUT,
                           tenant="ops", name=f"fc-{index}", count=1)
            for index in range(IMAGES)
        ),
    )


def _one_trial(options: PublishOptions) -> dict:
    """One cold N-device publish; returns wall/byte accounting."""
    IMAGE_CACHE.clear()
    publisher = build_fleet_publisher(devices=DEVICES)
    spec = _spec()
    start = time.perf_counter()
    result = publisher.publish(spec, options)
    wall_s = time.perf_counter() - start
    assert result.ok, result.reason
    assert len(result.rows()) == DEVICES
    assert plan(publisher.fleet.devices[-1].engine, spec).empty
    return {
        "wall_s": wall_s,
        "multicast": result.multicast,
        "trigger_tx_bytes": result.trigger_tx_bytes,
        "acks": len(result.mcast_acks),
    }


def _best(options: PublishOptions) -> dict:
    trials = [_one_trial(options) for _ in range(_TRIALS)]
    return min(trials, key=lambda trial: trial["wall_s"])


def test_fleet_scale_guard():
    unicast = _best(PublishOptions.legacy())
    scale = _best(PublishOptions.scale())
    IMAGE_CACHE.clear()  # leave no benchmark state behind for other tests

    assert not unicast["multicast"] and scale["multicast"]
    assert 0 < scale["acks"] <= 2 * 8  # bounded suppression sample

    speedup = unicast["wall_s"] / scale["wall_s"]
    unicast_trigger = unicast["trigger_tx_bytes"] / DEVICES
    scale_trigger = scale["trigger_tx_bytes"] / DEVICES
    ratio = scale_trigger / unicast_trigger
    assert speedup >= SCALE_SPEEDUP_BAR, (
        f"scale profile converged only {speedup:.2f}x the unicast baseline "
        f"at N={DEVICES} (bar {SCALE_SPEEDUP_BAR}x): "
        f"unicast={unicast['wall_s']:.2f}s scale={scale['wall_s']:.2f}s"
    )
    assert ratio <= TRIGGER_BYTES_RATIO_BAR, (
        f"multicast trigger spent {scale_trigger:.1f} B/device vs "
        f"{unicast_trigger:.1f} unicast (ratio {ratio:.2f}, "
        f"bar {TRIGGER_BYTES_RATIO_BAR})"
    )
