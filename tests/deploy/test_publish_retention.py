"""Fleet updates keep no replaced container alive.

A SUIT hot replace frees the old instance on the device (§5, §10).
These tests hold the simulator to the same rule across a run of update
publishes: once a publish replaces a container, nothing the device,
its tenant, its update worker or the publisher keeps may still reach
it, so the dead instances (VM, stack, private image copy) are
collectable instead of piling up on the host heap publish after
publish.  The same holds for a device's whole pre-crash incarnation
(engine, kernel, worker) once it rebooted, and for the results of
in-process ``Fleet.apply`` updates a caller keeps.

The crash victim and the publish gap it dies in come from
``CHAOS_SEED`` (CI sweeps several seeds in the chaos job; locally one
fixed default runs).
"""

from __future__ import annotations

import gc
import os
import random
import types
import weakref

import pytest

from repro.core import FC_HOOK_FANOUT, FC_HOOK_TIMER
from repro.core.container import FemtoContainer
from repro.core.hooks import HookMode
from repro.deploy import (
    AttachmentSpec,
    DeploymentSpec,
    Fleet,
    HookSpec,
    ImageSpec,
    PublishOptions,
)
from repro.scenarios import build_fleet_publisher
from repro.suit.worker import UpdateResult
from repro.vm import assemble
from repro.vm.imagecache import IMAGE_CACHE

DEVICES = 4
PUBLISHES = 3
SEED = int(os.environ.get("CHAOS_SEED", "11"))


@pytest.fixture(autouse=True)
def fresh_cache():
    IMAGE_CACHE.clear()
    yield
    IMAGE_CACHE.clear()


class UpdateRig:
    """A 4-device fleet taking one fresh-content update per publish.

    Every release carries new rodata in all three images, so each
    publish after the first replaces every container on every device:
    two on a synchronous hook and one on a thread-mode hook (whose
    worker thread must let go of its container too).
    """

    def __init__(self, options: PublishOptions) -> None:
        self.options = options
        self.publisher = build_fleet_publisher(devices=DEVICES)
        self._rng = random.Random(f"retention-content:{SEED}")
        self._text = ImageSpec.from_program(
            assemble("mov r0, 7\n    exit", name="app")).text

    def release(self) -> DeploymentSpec:
        images = {
            f"app{index}": ImageSpec(name=f"app{index}", text=self._text,
                                     rodata=self._rng.randbytes(256))
            for index in range(3)
        }
        return DeploymentSpec(
            name="retention",
            tenants=("ops",),
            hooks=(HookSpec(FC_HOOK_FANOUT, HookMode.SYNC),),
            images=images,
            attachments=(
                AttachmentSpec(image="app0", hook=FC_HOOK_FANOUT,
                               tenant="ops", name="fc-0"),
                AttachmentSpec(image="app1", hook=FC_HOOK_FANOUT,
                               tenant="ops", name="fc-1"),
                AttachmentSpec(image="app2", hook=FC_HOOK_TIMER,
                               tenant="ops", name="fc-timer"),
            ),
        )

    def publish(self) -> None:
        result = self.publisher.publish(self.release(), self.options)
        assert result.ok, result.reason

    @property
    def devices(self):
        return self.publisher.fleet.devices

    def live_containers(self) -> list[FemtoContainer]:
        return [container for device in self.devices
                for container in device.engine.containers()]


def containers_reachable_from(root: object) -> list[FemtoContainer]:
    """Every container reachable from ``root`` through the object graph.

    Classes and modules are not followed (a module namespace reaches
    everything); functions are followed through their closures and
    defaults only, which is where a stored callback would pin state.
    """
    found: list[FemtoContainer] = []
    seen: set[int] = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, FemtoContainer):
            found.append(obj)
        elif isinstance(obj, types.FunctionType):
            stack.extend(obj.__closure__ or ())
            stack.extend(obj.__defaults__ or ())
        else:
            stack.extend(gc.get_referents(obj))
    return found


@pytest.mark.parametrize("options", [PublishOptions.scale(),
                                     PublishOptions.legacy()],
                         ids=["multicast", "unicast"])
def test_replaced_containers_are_collectable(options):
    rig = UpdateRig(options)
    rig.publish()
    first = [weakref.ref(container) for container in rig.live_containers()]
    assert len(first) == 3 * DEVICES
    for _ in range(PUBLISHES - 1):
        rig.publish()
    gc.collect()
    alive = [ref() for ref in first if ref() is not None]
    assert alive == []
    assert len(rig.live_containers()) == 3 * DEVICES


def test_tenant_membership_is_the_attached_containers():
    rig = UpdateRig(PublishOptions.scale())
    for _ in range(PUBLISHES):
        rig.publish()
    for device in rig.devices:
        engine = device.engine
        for tenant in engine.tenants.values():
            attached = [container for container in engine.containers()
                        if container.tenant is tenant]
            assert len(tenant.containers) == len(attached) == 3
            assert set(tenant.containers) == set(attached)


def test_update_history_holds_no_containers():
    rig = UpdateRig(PublishOptions.scale())
    for _ in range(PUBLISHES):
        rig.publish()
    for device in rig.devices:
        results = device.radio.worker.results
        assert len(results) == PUBLISHES
        assert all(isinstance(result, UpdateResult) for result in results)
        for result in results:
            assert containers_reachable_from(result) == []


def test_rebooted_device_incarnation_is_collectable():
    chooser = random.Random(f"retention:{SEED}")
    victim_index = chooser.randrange(DEVICES)
    crash_after = chooser.choice(range(1, PUBLISHES))
    rig = UpdateRig(PublishOptions.scale())
    publisher = rig.publisher
    victim = rig.devices[victim_index]
    incarnation: dict[str, weakref.ref] = {}
    for published in range(1, PUBLISHES + 1):
        rig.publish()
        if published == crash_after:
            incarnation = {
                "engine": weakref.ref(victim.engine),
                "kernel": weakref.ref(victim.kernel),
                "worker": weakref.ref(victim.radio.worker),
                "containers": [weakref.ref(container) for container
                               in victim.engine.containers()],
            }
            publisher.crash_device(victim)
            publisher.reboot_device(victim)
    gc.collect()
    assert victim.reboots == 1
    assert incarnation["engine"]() is None
    assert incarnation["kernel"]() is None
    assert incarnation["worker"]() is None
    assert all(ref() is None for ref in incarnation["containers"])
    assert len(victim.engine.containers()) == 3


def test_kept_apply_results_hold_no_replaced_containers():
    fleet = Fleet(2)
    text = ImageSpec.from_program(assemble("mov r0, 7\n    exit",
                                           name="app")).text

    def release(tag: bytes) -> DeploymentSpec:
        return DeploymentSpec(
            name="retention",
            tenants=("ops",),
            hooks=(HookSpec(FC_HOOK_FANOUT, HookMode.SYNC),),
            images={"app": ImageSpec(name="app", text=text, rodata=tag)},
            attachments=(AttachmentSpec(image="app", hook=FC_HOOK_FANOUT,
                                        tenant="ops", name="fc-0"),),
        )

    kept = [fleet.apply(release(b"v1"))]
    first = [weakref.ref(container) for container in fleet.containers()]
    assert len(first) == len(fleet)
    kept.append(fleet.apply(release(b"v2")))
    assert all(row.actions == 1 for row in kept[-1].rows())
    gc.collect()
    alive = [ref() for ref in first if ref() is not None]
    assert alive == []
    assert len(fleet.containers()) == len(fleet)
