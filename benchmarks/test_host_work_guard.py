"""Host-work guard: a multicast release is derived once, not per device.

Every device of a fleet publish installs byte-identical inputs: the same
signed payload, the same decoded spec, the same slot and sequence
records, the same tenant ceiling and contract.  The publish shares each
release-invariant step across the fleet, so its host work stays flat in
the fleet size while every device still pays the modelled cycles.  This
guard pins that with exact call counts (never wall clock), so it cannot
flake.  During one multicast update publish to N devices:

* the payload's SHA-256 digest check runs once;
* the decoded spec is validated once;
* each distinct NVM record is framed (copied and CRC'd) once;
* ``grant()`` never runs: the cold publish derived every slot shape.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.core import FC_HOOK_FANOUT
from repro.core import engine as engine_module
from repro.core.hooks import HookMode
from repro.deploy import (
    AttachmentSpec,
    DeploymentSpec,
    HookSpec,
    ImageSpec,
    PublishOptions,
)
from repro.rtos import NvmStore, nvm
from repro.scenarios import build_fleet_publisher
from repro.suit import SuitManifest
from repro.vm import assemble
from repro.vm.imagecache import IMAGE_CACHE

FLEET_SIZES = (4, 12)


def _release(rng: random.Random, base: ImageSpec) -> DeploymentSpec:
    """A fresh release shaped like the fleet benchmark's: two images
    with 4 KiB of new .rodata each, one slot per image."""
    return DeploymentSpec(
        name="release",
        tenants=("ops",),
        hooks=(HookSpec(FC_HOOK_FANOUT, HookMode.SYNC),),
        images={f"app{index}": ImageSpec(name=f"app{index}", text=base.text,
                                          rodata=rng.randbytes(4096))
                for index in range(2)},
        attachments=tuple(
            AttachmentSpec(image=f"app{index}", hook=FC_HOOK_FANOUT,
                           tenant="ops", name=f"fc-{index}")
            for index in range(2)),
    )


@pytest.mark.parametrize("devices", FLEET_SIZES)
def test_update_publish_derives_each_step_once(devices, monkeypatch):
    IMAGE_CACHE.clear()
    publisher = build_fleet_publisher(devices=devices)
    rng = random.Random(devices)
    base = ImageSpec.from_program(assemble("mov r0, 7\n    exit"))
    assert publisher.publish(_release(rng, base), PublishOptions.scale()).ok

    calls: Counter[str] = Counter()
    records: set[bytes] = set()

    def counting(name: str, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    real_write = NvmStore.write

    def recording_write(self, key, value, redundant=False):
        records.add(bytes(value))
        return real_write(self, key, value, redundant)

    monkeypatch.setattr(SuitManifest, "matches_payload",
                        counting("digest", SuitManifest.matches_payload))
    monkeypatch.setattr(DeploymentSpec, "validate",
                        counting("validate", DeploymentSpec.validate))
    # Frames memoized by earlier tests would hide this publish's framing;
    # from an empty memo, each of its misses frames one record.
    nvm._frames.clear()
    monkeypatch.setattr(engine_module, "grant",
                        counting("grant", engine_module.grant))
    monkeypatch.setattr(NvmStore, "write", recording_write)
    result = publisher.publish(_release(rng, base), PublishOptions.scale())
    monkeypatch.undo()
    IMAGE_CACHE.clear()

    assert result.ok, result.reason
    rows = result.rows()
    assert len(rows) == devices
    assert all(row.actions == 2 for row in rows), rows
    assert calls["digest"] == 1
    assert calls["validate"] == 1
    assert records and nvm._frames.misses == len(records)
    assert calls["grant"] == 0
