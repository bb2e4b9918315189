"""The unicast block-wise exchange puts the same bytes on the air.

A unicast publish triggers each device with a CON POST, and each device
fetches the signed payload from the repository one Block2 GET at a
time.  The repository answers every block from a table of reply tails
built once per payload, the devices send GETs whose tail is encoded
once per block, and the codec parses each tail once; none of that may
change a frame.  A small lossy fleet's cold publish and two updates
(each a new payload, so the reply table is rebuilt) are pinned frame by
frame: the SHA-256 of every ``Link.transmit`` payload, in send order,
with its source and destination, and every device row but its host
time.  Loss makes devices retransmit GETs whose reply was lost, and
the repository answers those from its exchange cache; the test checks
that such replays happened.

On the fixed seed the values are pinned.  Under ``CHAOS_SEED`` (CI
sweeps several) a memoized run is compared with a ``memos_disabled()``
run frame by frame and row by row.
"""

from __future__ import annotations

import hashlib
import os
import random

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
from repro.memo import memos_disabled
from repro.net.link import Link
from repro.scenarios import build_fleet_publisher
from repro.vm import assemble
from repro.vm.imagecache import IMAGE_CACHE

DEVICES = 6
LOSS = 0.05
SEED = 5
CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "11"))


@pytest.fixture(autouse=True)
def fresh_cache():
    IMAGE_CACHE.clear()
    yield
    IMAGE_CACHE.clear()


def release(rng: random.Random, base: ImageSpec) -> DeploymentSpec:
    """Two images of fresh seeded bytes: a payload of a few blocks."""
    images = {
        f"app{index}": ImageSpec(name=f"app{index}", text=base.text,
                                 rodata=rng.randbytes(700))
        for index in range(2)
    }
    return DeploymentSpec(
        name="unicast-release",
        tenants=("ops",),
        hooks=(HookSpec(FC_HOOK_FANOUT, HookMode.SYNC),),
        images=images,
        attachments=tuple(
            AttachmentSpec(image=f"app{index}", hook=FC_HOOK_FANOUT,
                           tenant="ops", name=f"fc-{index}", count=1)
            for index in range(2)),
    )


def row_fields(row) -> tuple:
    """Every :class:`~repro.deploy.results.DeviceRow` field but
    ``wall_s`` (host time)."""
    return (row.device.name, row.role, row.result.status.name,
            row.cycles_charged, row.cache_hits, row.cache_misses,
            row.retries, row.reboots, row.fault_delta, row.quarantined,
            row.radio_uj)


class Exchange:
    """What one run put on the air and what its devices reported."""

    def __init__(self) -> None:
        self._digest = hashlib.sha256()
        self.frames = 0
        #: Per publish: the frame count and digest so far, and the rows.
        self.publishes: list[tuple[int, str, tuple]] = []
        #: Repository replies sent as the very object sent before: an
        #: answer replayed from the exchange cache.
        self.replays = 0

    def record(self, src: str, dst: str, payload: bytes) -> None:
        self.frames += 1
        self._digest.update(f"{src}>{dst}:".encode())
        self._digest.update(hashlib.sha256(payload).digest())

    def close_publish(self, rows: tuple) -> None:
        self.publishes.append((self.frames, self._digest.hexdigest(), rows))


def run_exchange(seed: int, monkeypatch) -> Exchange:
    """A cold publish and two updates of a lossy unicast fleet."""
    exchange = Exchange()
    transmit = Link.transmit

    def tapped_transmit(link, src, dst_addr, payload):
        exchange.record(src.addr, dst_addr, payload)
        return transmit(link, src, dst_addr, payload)

    monkeypatch.setattr(Link, "transmit", tapped_transmit)
    IMAGE_CACHE.clear()
    publisher = build_fleet_publisher(devices=DEVICES, loss=LOSS, seed=seed)
    sent: list[bytes] = []
    send_to = publisher.repo.socket.send_to

    def tapped_send_to(dst_addr, dst_port, payload):
        if any(payload is earlier for earlier in sent):
            exchange.replays += 1
        sent.append(payload)
        return send_to(dst_addr, dst_port, payload)

    monkeypatch.setattr(publisher.repo.socket, "send_to", tapped_send_to)
    rng = random.Random(f"unicast:{seed}")
    base = ImageSpec.from_program(assemble("mov r0, 7\n    exit", name="app"))
    for _ in range(3):
        result = publisher.publish(release(rng, base), PublishOptions.legacy())
        assert result.ok, result.reason
        exchange.close_publish(tuple(row_fields(row) for row in result.rows()))
    monkeypatch.undo()
    return exchange


#: Per publish (cold, update, update): frames sent so far, the running
#: digest of every frame so far, and each row's fields in finishing order.
PINNED = (
    (158, "db442296c0264deffd09ded40586773d22dad82b6484df47af37e1151649277d", (
        ("dev4", "device", "OK", 1545708726, 0, 2, 0, 0, 0, 0, 8393.0),
        ("dev0", "device", "OK", 2313708726, 2, 0, 1, 0, 0, 0, 7856.5),
        ("dev3", "device", "OK", 2313708726, 2, 0, 0, 0, 0, 0, 8490.0),
        ("dev1", "device", "OK", 3081708726, 2, 0, 0, 0, 0, 0, 9641.0),
        ("dev2", "device", "OK", 4757309179, 2, 0, 2, 0, 0, 0, 8325.5),
        ("dev5", "device", "OK", 5519513355, 2, 0, 1, 0, 0, 0, 10110.0),
    )),
    (300, "152eeb62951bbf97591f19600800eaadd3b67376cf69a55640d484d38d5ca7d2", (
        ("dev0", "device", "OK", 1551508377, 0, 2, 0, 0, 0, 0, 8813.5),
        ("dev2", "device", "OK", 1545708377, 2, 0, 1, 0, 0, 0, 7759.5),
        ("dev1", "device", "OK", 2575508377, 2, 0, 1, 0, 0, 0, 8862.0),
        ("dev3", "device", "OK", 2313708377, 2, 0, 0, 0, 0, 0, 8490.0),
        ("dev5", "device", "OK", 2313708377, 2, 0, 0, 0, 0, 0, 9544.0),
        ("dev4", "device", "OK", 2313708377, 2, 0, 1, 0, 0, 0, 8490.0),
    )),
    (461, "551d2355a835411a5cdb217f66ff9be0294e74fd00387b2c6af6fcd7b2666b03", (
        ("dev4", "device", "OK", 777708377, 0, 2, 0, 0, 0, 0, 8296.0),
        ("dev1", "device", "OK", 4617708377, 2, 0, 0, 0, 0, 0, 8490.0),
        ("dev5", "device", "OK", 2313708377, 2, 0, 0, 0, 0, 0, 8490.0),
        ("dev0", "device", "OK", 6153708377, 2, 0, 0, 0, 0, 0, 10840.5),
        ("dev2", "device", "OK", 1557308377, 2, 0, 1, 0, 0, 0, 8180.0),
        ("dev3", "device", "OK", 6415508377, 2, 0, 1, 0, 0, 0, 9476.5),
    )),
)


def test_the_air_traffic_is_pinned(monkeypatch):
    exchange = run_exchange(SEED, monkeypatch)
    assert exchange.replays > 0, "no retransmitted GET met the cache"
    assert tuple(exchange.publishes) == PINNED


def test_memos_do_not_move_a_frame(monkeypatch):
    shared = run_exchange(CHAOS_SEED, monkeypatch)
    with memos_disabled():
        fresh = run_exchange(CHAOS_SEED, monkeypatch)
    assert modelled(shared) == modelled(fresh)
    assert shared.replays == fresh.replays


def modelled(exchange: Exchange) -> list[tuple]:
    """Each publish's frames, digest and rows without the image-cache
    hit and miss counts, which count memo traffic by definition."""
    return [(frames, digest, tuple(row[:4] + row[6:] for row in rows))
            for frames, digest, rows in exchange.publishes]
