"""Fleet scale-out guard: 1,000 devices off one multicast publish.

The fleet-scale profile (:meth:`PublishOptions.scale`) replaces N
unicast trigger POSTs + N block-wise fetches with ONE broadcast
trigger carrying the integrated payload.  This guard
publishes one realistic release (two 4 KiB images) to a 1,000-device
fleet both ways and records ``BENCH_fleet_scale.json``:

* **Throughput bar** — devices converged per wall-second on the scale
  profile must be >= 3x the unicast baseline at N=1000;
* **Airtime bar** — maintainer trigger radio bytes *per device* under
  multicast must be <= 0.5x the unicast baseline (measured: one
  broadcast frame amortized over N vs one signed envelope POST each).

Both bars are re-derived and enforced by ``tools/check_bench.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

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

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_fleet_scale.json"

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
    import time

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
        "payload_bytes": result.payload_bytes,
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

    unicast_rate = DEVICES / unicast["wall_s"]
    scale_rate = DEVICES / scale["wall_s"]
    speedup = scale_rate / unicast_rate
    unicast_trigger = unicast["trigger_tx_bytes"] / DEVICES
    scale_trigger = scale["trigger_tx_bytes"] / DEVICES
    ratio = scale_trigger / unicast_trigger

    RESULT_PATH.write_text(json.dumps(
        {
            "workload": (f"{IMAGES} x {RODATA_BYTES} B images, one signed "
                         f"spec release published to {DEVICES} devices over "
                         "the shared link (best of "
                         f"{_TRIALS} cold trials per mode)"),
            "unit": "devices converged per wall-second",
            "python": sys.version.split()[0],
            "devices_total": DEVICES,
            "payload_bytes": scale["payload_bytes"],
            "unicast": {
                "wall_s": round(unicast["wall_s"], 3),
                "devices_per_s": round(unicast_rate, 1),
                "trigger_bytes_per_device": round(unicast_trigger, 1),
            },
            "multicast": {
                "wall_s": round(scale["wall_s"], 3),
                "devices_per_s": round(scale_rate, 1),
                "trigger_bytes_per_device": round(scale_trigger, 1),
                "ack_sample": scale["acks"],
            },
            "scale_speedup": round(speedup, 2),
            "scale_speedup_bar": SCALE_SPEEDUP_BAR,
            "trigger_bytes_ratio": round(ratio, 4),
            "trigger_bytes_ratio_bar": TRIGGER_BYTES_RATIO_BAR,
        },
        indent=2,
    ) + "\n")

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
