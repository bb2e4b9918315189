"""Fleet scale-out guard: 1,000 devices off one multicast publish.

The fleet-scale profile (:meth:`PublishOptions.scale`) replaces N
unicast trigger POSTs + N block-wise fetches with ONE broadcast
trigger carrying the integrated payload.  This guard
publishes one realistic release (two 4 KiB images) to a 1,000-device
fleet both ways and holds two bars:

* **Throughput bar** — devices converged per host CPU second on the
  scale profile must be >= 3x the unicast baseline at N=1000.  Each
  round publishes both profiles back to back, alternating which runs
  first, and times only ``publish()`` on this thread's CPU clock; the
  bar takes the median per-round ratio, so a round caught by a shift
  in host speed cannot decide the outcome;
* **Airtime bar** — maintainer trigger radio bytes *per device* under
  multicast must be <= 0.5x the unicast baseline (measured: one
  broadcast frame amortized over N vs one signed envelope POST each).
  Radio bytes are deterministic, so one round decides it;
* **Memory bar** — the heap one device costs the host, traced by
  ``tracemalloc`` after building the 1,000-device rig and one cold
  scale publish, must stay <= ``HEAP_PER_DEVICE_BAR_KB``.  Board model,
  helper table and hook identities are process-wide firmware, so a
  device owns only its state, and a container that never ran holds no
  instance (it is cloned at first use): ~16 KB on CPython 3.11, against
  ~19 KB when every attach built its instance and ~33 KB when every
  device built its own firmware.
"""

from __future__ import annotations

import gc
import statistics
import time
import tracemalloc

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
#: Traced host heap per device after the rig and one cold publish (KB).
HEAP_PER_DEVICE_BAR_KB = 18.0

_ROUNDS = 3


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
    """One cold N-device publish; returns CPU-time/byte accounting."""
    IMAGE_CACHE.clear()
    publisher = build_fleet_publisher(devices=DEVICES)
    spec = _spec()
    start = time.thread_time()
    result = publisher.publish(spec, options)
    cpu_s = time.thread_time() - start
    assert result.ok, result.reason
    assert len(result.rows()) == DEVICES
    assert plan(publisher.fleet.devices[-1].engine, spec).empty
    return {
        "cpu_s": cpu_s,
        "multicast": result.multicast,
        "trigger_tx_bytes": result.trigger_tx_bytes,
        "acks": len(result.mcast_acks),
    }


def test_fleet_scale_guard():
    """Holds the throughput bar (scale >= 3x unicast, median per-round
    CPU ratio) and the airtime bar (trigger bytes ratio <= 0.5)."""
    profiles = {"unicast": PublishOptions.legacy(),
                "scale": PublishOptions.scale()}
    rounds = []
    for index in range(_ROUNDS):
        order = sorted(profiles, reverse=index % 2 == 1)
        rounds.append({name: _one_trial(profiles[name]) for name in order})
    IMAGE_CACHE.clear()  # leave no benchmark state behind for other tests

    unicast, scale = rounds[0]["unicast"], rounds[0]["scale"]
    assert not unicast["multicast"] and scale["multicast"]
    assert 0 < scale["acks"] <= 2 * 8  # bounded suppression sample

    speedups = [trial["unicast"]["cpu_s"] / trial["scale"]["cpu_s"]
                for trial in rounds]
    speedup = statistics.median(speedups)
    unicast_trigger = unicast["trigger_tx_bytes"] / DEVICES
    scale_trigger = scale["trigger_tx_bytes"] / DEVICES
    ratio = scale_trigger / unicast_trigger
    assert speedup >= SCALE_SPEEDUP_BAR, (
        f"scale profile converged only {speedup:.2f}x the unicast baseline "
        f"at N={DEVICES} (bar {SCALE_SPEEDUP_BAR}x): per-round ratios "
        f"{[round(value, 2) for value in speedups]}"
    )
    assert ratio <= TRIGGER_BYTES_RATIO_BAR, (
        f"multicast trigger spent {scale_trigger:.1f} B/device vs "
        f"{unicast_trigger:.1f} unicast (ratio {ratio:.2f}, "
        f"bar {TRIGGER_BYTES_RATIO_BAR})"
    )


def test_heap_per_device():
    """Holds the memory bar: traced heap per device after
    ``build_fleet_publisher(devices=1000)`` plus one cold publish."""
    IMAGE_CACHE.clear()
    spec = _spec()
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        publisher = build_fleet_publisher(devices=DEVICES)
        result = publisher.publish(spec, PublishOptions.scale())
        gc.collect()
        traced = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
        IMAGE_CACHE.clear()
    assert result.ok, result.reason
    per_device_kb = traced / DEVICES / 1024
    assert per_device_kb <= HEAP_PER_DEVICE_BAR_KB, (
        f"{per_device_kb:.1f} KB of traced heap per device after build "
        f"and a cold publish at N={DEVICES} "
        f"(bar {HEAP_PER_DEVICE_BAR_KB} KB)"
    )
