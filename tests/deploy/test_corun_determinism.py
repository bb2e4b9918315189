"""Co-run invariants: wall-clock-only, bit-identical modelling.

The publisher co-runs every pending device kernel in fleet order and
shares one release cache across the device workers (the group-trigger
body, the decoded envelope and spec, the encoded NVM records), next to
the process-wide COSE verdict memo.  Modelled state must not notice
either: per-device charged cycles, virtual clocks, flash bytes written
and persisted SUIT records are pinned identical to a run whose memos
never store anything, across a cold and an updating publish, on the
unicast and the multicast trigger path, lossless and lossy.  The fleet
seed comes from ``CHAOS_SEED`` (CI sweeps several; locally one fixed
default runs).  Identical runs replay bit for bit — including a fleet
past 64 devices, once split across shards.
The publisher also keeps one "done" rule: a device that reported its
verdict for a sequence is never triggered with that sequence again.
"""

from __future__ import annotations

import os
import random
from collections import OrderedDict
from typing import NamedTuple

import pytest

from repro.core import FC_HOOK_FANOUT
from repro.core.hooks import HookMode
from repro.deploy import (
    AttachmentSpec,
    DeploymentSpec,
    HookSpec,
    ImageSpec,
    PublishOptions,
)
from repro.scenarios import build_fleet_publisher
from repro.suit import SuitEnvelope, UpdateStatus, cose
from repro.vm import assemble
from repro.vm.imagecache import IMAGE_CACHE

GOOD = "mov r0, 7\n    exit"
UPDATED = "mov r0, 8\n    exit"
SEED = int(os.environ.get("CHAOS_SEED", "11"))


@pytest.fixture(autouse=True)
def fresh_cache():
    IMAGE_CACHE.clear()
    yield
    IMAGE_CACHE.clear()


def make_spec(source: str, name: str = "release") -> DeploymentSpec:
    return DeploymentSpec(
        name=name,
        tenants=("ops",),
        hooks=(HookSpec(FC_HOOK_FANOUT, HookMode.SYNC),),
        images={"app": ImageSpec.from_program(assemble(source, name="app"))},
        attachments=(AttachmentSpec(image="app", hook=FC_HOOK_FANOUT,
                                    tenant="ops", name="worker", count=2),),
    )


class NeverStores(OrderedDict):
    """A memo that forgets every entry: each worker decodes, verifies
    and encodes the release afresh, as if nothing were shared."""

    def __setitem__(self, key, value) -> None:
        pass


class Modelled(NamedTuple):
    """What a fleet's devices modelled over a run of publishes."""

    #: Per publish: each device's cycles charged.
    charged: list[dict[str, int]]
    #: Each device's final virtual clock.
    clocks: dict[str, int]
    #: Each device's flash bytes written and persisted SUIT records.
    flash: dict[str, tuple[int, list[tuple[str, bytes]]]]
    ok: bool
    #: Kinds of entry the publisher's release cache holds at the end.
    shared: frozenset[str]


def modelled_state(options: PublishOptions, devices: int = 8,
                   seed: int = SEED, loss: float = 0.0,
                   memo: dict | None = None,
                   sources: tuple[str, ...] = (GOOD,)) -> Modelled:
    """Publish one release per source in turn on a fresh fleet."""
    IMAGE_CACHE.clear()
    publisher = build_fleet_publisher(devices=devices, seed=seed, loss=loss)
    if memo is not None:
        publisher._release_cache = memo
        for device in publisher.fleet.devices:
            device.radio.worker.release_cache = memo
    charged, ok = [], True
    for version, source in enumerate(sources, start=1):
        result = publisher.publish(make_spec(source, f"v{version}"), options)
        charged.append({row.device.name: row.cycles_charged
                        for row in result.rows()})
        ok = ok and result.ok
    fleet = publisher.fleet.devices
    return Modelled(
        charged=charged,
        clocks={device.name: device.kernel.clock.cycles for device in fleet},
        flash={device.name: (device.nvm.bytes_written,
                             list(device.nvm.items("suit/")))
               for device in fleet},
        ok=ok,
        shared=frozenset(key[0] for key in publisher._release_cache),
    )


class TestModelledCyclesInvariant:
    @pytest.mark.parametrize("options,loss", [
        (PublishOptions.legacy(), 0.0),
        (PublishOptions.legacy(), 0.05),
        (PublishOptions.scale(), 0.0),
        (PublishOptions.scale(), 0.05),
    ], ids=["unicast", "unicast-lossy", "multicast", "multicast-lossy"])
    def test_memo_is_wall_clock_only(self, options, loss, monkeypatch):
        """Sharing one release's decode, verify and record encodings
        across workers must not change any device's charged cycles,
        final clock, flash writes or persisted records, over a cold and
        an updating publish: like the image cache, every share is a
        host-side (wall-clock) effect."""
        sources = (GOOD, UPDATED)
        with monkeypatch.context() as patch:
            patch.setattr(cose, "_VERIFY_MEMO", NeverStores())
            fresh = modelled_state(options, loss=loss, memo=NeverStores(),
                                   sources=sources)
        shared = modelled_state(options, loss=loss, sources=sources)
        assert fresh.ok and shared.ok
        assert not fresh.shared
        assert shared.shared >= {"envelope", "spec", "nvm-record"}
        assert ("mcast" in shared.shared) == options.multicast
        assert fresh.charged == shared.charged
        assert fresh.clocks == shared.clocks
        assert fresh.flash == shared.flash

    def test_identical_runs_are_bit_identical(self):
        """Same seed, same options, fresh rigs: the whole modelled
        outcome replays — the property seeded chaos sweeps rely on."""
        first = modelled_state(PublishOptions.scale(), devices=12, seed=23)
        second = modelled_state(PublishOptions.scale(), devices=12, seed=23)
        assert first == second

    def test_65_device_multicast_converges_and_replays(self):
        """65 devices was the smallest fleet the co-run once split in
        two; one fleet-order loop must converge it and replay it."""
        first = modelled_state(PublishOptions.scale(), devices=65, seed=7)
        second = modelled_state(PublishOptions.scale(), devices=65, seed=7)
        assert first.ok and len(first.charged[0]) == 65
        assert first == second


class TestOneDoneRule:
    """Trigger POSTs stop once a device reported the sequence they carry."""

    @staticmethod
    def _release(rng: random.Random, base: ImageSpec) -> DeploymentSpec:
        """A fresh release shaped like the fleet benchmark's."""
        images = {
            f"app{index}": ImageSpec(name=f"app{index}", text=base.text,
                                     rodata=rng.randbytes(4096))
            for index in range(2)
        }
        return DeploymentSpec(
            name="bench-release",
            tenants=("ops",),
            hooks=(HookSpec(FC_HOOK_FANOUT, HookMode.SYNC),),
            images=images,
            attachments=tuple(
                AttachmentSpec(image=f"app{index}", hook=FC_HOOK_FANOUT,
                               tenant="ops", name=f"fc-{index}", count=1)
                for index in range(2)),
        )

    @pytest.mark.parametrize("seed", [4, 7])
    def test_no_trigger_reaches_a_device_that_reported(self, seed):
        """8 devices at 10% loss: a cold full publish, then canary
        publishes of fresh 2x4 KiB releases.  On both seeds a device
        finishes while its last trigger is still unacknowledged; its
        backoff timer must not send that trigger again."""
        publisher = build_fleet_publisher(devices=8, loss=0.10, seed=seed)
        by_addr = {device.radio.addr: device
                   for device in publisher.fleet.devices}
        late: list[tuple[str, int]] = []
        send = publisher.trigger_client.request

        def counting(addr, port, request, **kwargs):
            device = by_addr[addr]
            sequence = SuitEnvelope.decode(
                request.payload).manifest().sequence_number
            if any(result.manifest is not None
                   and result.manifest.sequence_number == sequence
                   and result.status is not UpdateStatus.FETCH_FAILED
                   for result in device.radio.worker.results):
                late.append((device.name, sequence))
            return send(addr, port, request, **kwargs)

        publisher.trigger_client.request = counting
        rng = random.Random(f"release:{seed}")
        base = ImageSpec.from_program(assemble(GOOD, name="app"))
        assert publisher.publish(self._release(rng, base)).ok
        for _ in range(5):
            result = publisher.publish(
                self._release(rng, base),
                PublishOptions(canary_count=2, bake_us=200_000.0))
            assert result.ok, result.reason
        assert late == []
