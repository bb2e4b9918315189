"""Image-cache guard: shared install artifacts never change the device.

The paper charges verification and the §11 transpile on every attach,
and the virtual clock keeps doing so.  The process-wide
:data:`~repro.vm.imagecache.IMAGE_CACHE` only spares the *simulator*
the host-side work: the first device to install an image builds its
artifacts, every later device reuses them.  One parametrized test holds
that contract on the four install paths -- ``engine.attach`` on each
engine, :meth:`Fleet.apply`, :meth:`Fleet.canary_rollout` promotion and
:meth:`FleetPublisher.publish` -- with exact counts, so it cannot flake:

* the cold row misses exactly once per artifact per new image;
* every warm row misses nothing and hits once per lookup per attachment;
* every artifact built during the path was built on a miss, so a warm
  row's zero misses means zero verifier passes and zero transpiles;
* the cold row and every warm row charge identical virtual cycles.

The file's one host-time ratio is the JIT attach bar, cached >= 5x
faster than cold, measured in interleaved rounds on thread CPU time.
"""

from __future__ import annotations

import statistics
import sys
import time
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from repro.core import FC_HOOK_FANOUT, HostingEngine
from repro.core.hooks import HookMode
from repro.deploy import (
    AttachmentSpec,
    DeploymentSpec,
    Fleet,
    HookSpec,
    ImageSpec,
    fanout_spec,
)
from repro.rtos import Kernel, nrf52840
from repro.scenarios import build_fleet_publisher
from repro.vm import Program
from repro.vm.imagecache import IMAGE_CACHE
from repro.vm.jit import _build_template
from repro.vm.predecode import predecode
from repro.vm.verifier import verify
from repro.workloads.fletcher32 import fletcher32_program

DEVICES = 4
TENANTS = 2
INSTANCES = 2
#: Distinct content-addressed images in the published release.
PUBLISH_IMAGES = 6

#: Artifacts one attach builds for a new image.  An interpreter attach
#: builds the verifier report (its slot table is decoded lazily, at the
#: first run); a JIT attach also builds the template, whose codegen
#: decodes the slot table.
BUILDS = {"femto-containers": 1, "certfc": 1, "jit": 3}
#: Image-cache lookups one attach makes: the verifier report, plus the
#: JIT template.
LOOKUPS = {"femto-containers": 1, "certfc": 1, "jit": 2}

#: Cached JIT attach vs cold JIT attach, median of the per-round ratios.
JIT_SPEEDUP_BAR = 5.0
_ROUNDS = 7


@contextmanager
def _counting_builds():
    """Count every artifact build in the process, whoever calls it."""
    codes = {verify.__code__, predecode.__code__, _build_template.__code__}
    builds = [0]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            builds[0] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield builds
    finally:
        sys.setprofile(previous)


def _attach(implementation: str, raw: bytes) -> tuple[SimpleNamespace, float]:
    """Load and attach one fresh image instance on a fresh device.

    Returns the attach's row and its thread CPU seconds.
    """
    engine = HostingEngine(Kernel(nrf52840()), implementation=implementation)
    container = engine.load(Program.from_bytes(raw, name="fletcher32"))
    hits, misses = IMAGE_CACHE.hits, IMAGE_CACHE.misses
    cycles = engine.kernel.clock.cycles
    start = time.thread_time()
    engine.attach(container, "fc.hook.timer")
    seconds = time.thread_time() - start
    row = SimpleNamespace(cache_hits=IMAGE_CACHE.hits - hits,
                          cache_misses=IMAGE_CACHE.misses - misses,
                          cycles_charged=engine.kernel.clock.cycles - cycles)
    return row, seconds


def _spec(name: str, images: dict[str, ImageSpec],
          attachments: tuple[AttachmentSpec, ...]) -> DeploymentSpec:
    return DeploymentSpec(
        name=name,
        tenants=tuple(f"tenant-{index}" for index in range(TENANTS)),
        hooks=(HookSpec(FC_HOOK_FANOUT, HookMode.SYNC),),
        images=images,
        attachments=attachments,
    )


def _canary_spec(name: str, image: ImageSpec) -> DeploymentSpec:
    return _spec(name, {"app": image}, tuple(
        AttachmentSpec(image="app", hook=FC_HOOK_FANOUT,
                       tenant=f"tenant-{index}", name=f"fc-{index}-{{i}}",
                       count=INSTANCES)
        for index in range(TENANTS)
    ))


def _attach_path(implementation: str) -> list:
    raw = fletcher32_program().to_bytes()
    return [_attach(implementation, raw)[0] for _ in range(DEVICES)]


def _apply_path() -> list:
    fleet = Fleet(DEVICES, implementation="jit")
    return fleet.apply(fanout_spec(tenants=TENANTS,
                                   instances_per_tenant=INSTANCES,
                                   image=fletcher32_program())).devices


def _canary_path() -> list:
    """A promoted canary: the canary builds the new image, controls reuse."""
    fleet = Fleet(DEVICES, implementation="jit")
    base = ImageSpec.from_program(fletcher32_program())
    fleet.apply(_canary_spec("base", base))
    # Same program text, new content hash (rodata tag).
    fixed = ImageSpec(name="app", text=base.text, rodata=b"release-v2")
    promoted = fleet.canary_rollout(_canary_spec("v2", fixed),
                                    canary_count=1, bake_us=200_000.0,
                                    bake_fires=2)
    assert promoted.promoted, promoted.reason
    return promoted.canary + promoted.control


def _publish_path() -> list:
    base = ImageSpec.from_program(fletcher32_program())
    spec = _spec(
        "release",
        {f"app{index}": ImageSpec(name=f"app{index}", text=base.text,
                                  rodata=b"release-%d" % index)
         for index in range(PUBLISH_IMAGES)},
        tuple(AttachmentSpec(image=f"app{index}", hook=FC_HOOK_FANOUT,
                             tenant=f"tenant-{index % TENANTS}",
                             name=f"fc-{index}")
              for index in range(PUBLISH_IMAGES)),
    )
    rollout = build_fleet_publisher(devices=DEVICES).publish(spec)
    assert rollout.ok, rollout.reason
    return rollout.rows()


#: path -> (rows in install order, engine, new images, attachments/device)
PATHS = {
    "attach-femto-containers": (lambda: _attach_path("femto-containers"),
                                "femto-containers", 1, 1),
    "attach-certfc": (lambda: _attach_path("certfc"), "certfc", 1, 1),
    "attach-jit": (lambda: _attach_path("jit"), "jit", 1, 1),
    "apply": (_apply_path, "jit", 1, TENANTS * INSTANCES),
    "canary": (_canary_path, "jit", 1, TENANTS * INSTANCES),
    "publish": (_publish_path, "jit", PUBLISH_IMAGES, PUBLISH_IMAGES),
}


@pytest.mark.parametrize("path", PATHS)
def test_image_cache_guard(path):
    """Holds the exact-miss, zero-miss, exact-hit, builds-equal-misses
    and equal-cycles bars on one install path."""
    rows, implementation, images, attachments = PATHS[path]
    IMAGE_CACHE.clear()
    with _counting_builds() as builds:
        cold, *warm = rows()
    misses = IMAGE_CACHE.misses
    IMAGE_CACHE.clear()  # leave no benchmark state behind for other tests

    assert len(warm) == DEVICES - 1
    assert cold.cache_misses == images * BUILDS[implementation], cold
    for row in warm:
        assert row.cache_misses == 0, row
        assert row.cache_hits == attachments * LOOKUPS[implementation], row
        assert row.cycles_charged == cold.cycles_charged, (row, cold)
    # Every build in the whole path came through a cache miss.
    assert builds[0] == misses, (builds[0], misses)


def test_jit_attach_speedup():
    """Holds the JIT attach bar: cached >= 5x faster than cold.

    Each round times a cold attach (cache cleared) and a warm attach of
    the same image back to back on this thread's CPU clock; the bar
    takes the median per-round ratio, so a round caught by a shift in
    host speed cannot decide the outcome.
    """
    raw = fletcher32_program().to_bytes()
    ratios = []
    for _ in range(_ROUNDS):
        IMAGE_CACHE.clear()
        cold = _attach("jit", raw)[1]
        warm = _attach("jit", raw)[1]
        ratios.append(cold / warm)
    IMAGE_CACHE.clear()  # leave no benchmark state behind for other tests

    speedup = statistics.median(ratios)
    assert speedup >= JIT_SPEEDUP_BAR, (
        f"cached JIT attach only {speedup:.2f}x faster than cold "
        f"(bar {JIT_SPEEDUP_BAR}x): per-round ratios {ratios}"
    )
