"""Golden modelled trace of the radio path.

Three short publish sequences: unicast CON triggers with block-wise
fetches at 10% loss, and a group (multicast) trigger at 10% and at 0%
loss.  Every number the
radio path models is pinned to the values the straightforward codec,
timer wheel and link produced before they were made fast: each device's
charged cycles and final clock, the link's frame and byte counters,
every CoAP client's give-ups and every device's flash bytes written.
A change to the order of the loss dice, the order timers are armed in,
or the bytes put on the air moves at least one of them.
"""

from __future__ import annotations

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
from repro.scenarios import build_fleet_publisher
from repro.vm import assemble
from repro.vm.imagecache import IMAGE_CACHE


def release(rng: random.Random, base: ImageSpec) -> DeploymentSpec:
    """Two fresh 1 KiB images: several Block2 blocks per fetch."""
    images = {
        f"app{index}": ImageSpec(name=f"app{index}", text=base.text,
                                 rodata=rng.randbytes(1024))
        for index in range(2)
    }
    return DeploymentSpec(
        name="golden-release",
        tenants=("ops",),
        hooks=(HookSpec(FC_HOOK_FANOUT, HookMode.SYNC),),
        images=images,
        attachments=tuple(
            AttachmentSpec(image=f"app{index}", hook=FC_HOOK_FANOUT,
                           tenant="ops", name=f"fc-{index}", count=1)
            for index in range(2)),
    )


def modelled_trace(options: PublishOptions, loss: float, seed: int,
                   devices: int = 8, publishes: int = 3) -> dict:
    """A cold publish then updates; everything the radio path models."""
    IMAGE_CACHE.clear()
    publisher = build_fleet_publisher(devices=devices, loss=loss, seed=seed)
    rng = random.Random(f"golden:{seed}")
    base = ImageSpec.from_program(assemble("mov r0, 7\n    exit", name="app"))
    charged, ok = [], True
    for _ in range(publishes):
        result = publisher.publish(release(rng, base), options)
        ok = ok and result.ok
        charged.append([row.cycles_charged for row in result.rows()])
    fleet = publisher.fleet.devices
    stats = publisher.link.stats
    return {
        "ok": ok,
        "charged": charged,
        "clocks": [device.kernel.clock.cycles for device in fleet],
        "backhaul": publisher.kernel.clock.cycles,
        "link": (stats.frames_sent, stats.frames_dropped, stats.bytes_sent,
                 stats.datagrams_delivered),
        "timeouts": [publisher.trigger_client.timeouts]
        + [device.radio.client.timeouts for device in fleet],
        "nvm": [device.nvm.bytes_written for device in fleet],
        "radios": [
            (radio.frames_sent, radio.frames_dropped, radio.bytes_sent,
             radio.datagrams_delivered, radio.bytes_received)
            for radio in (publisher.link.interface(device.radio.addr).stats
                          for device in fleet)],
    }


#: Recorded with the reference codec, timer wheel and link.
GOLDEN = {'multicast-lossless': {'backhaul': 53885952,
                        'charged': [[7063725, 7063725, 7063725, 7063725,
                                     7063725, 7063725, 7063725, 7063725],
                                    [7063376, 7063376, 7063725, 7063725,
                                     7063376, 7063725, 7063725, 7063376],
                                    [7063725, 7063725, 7063376, 7063725,
                                     7063725, 7063376, 7063725, 7063725]],
                        'clocks': [27865823, 26595604, 32468583, 30846972,
                                   26040250, 21203338, 30568805, 25792133],
                        'link': (171, 0, 14514, 48),
                        'loss': 0.0,
                        'nvm': [27390, 27390, 27390, 27390, 27390, 27390,
                                27390, 27390],
                        'ok': True,
                        'radios': [(3, 0, 69, 3, 13962),
                                   (3, 0, 69, 3, 13962),
                                   (3, 0, 69, 3, 13962),
                                   (3, 0, 69, 3, 13962),
                                   (3, 0, 69, 3, 13962),
                                   (3, 0, 69, 3, 13962),
                                   (3, 0, 69, 3, 13962),
                                   (3, 0, 69, 3, 13962)],
                        'seed': 2,
                        'timeouts': [0, 0, 0, 0, 0, 0, 0, 0, 0]},
 'multicast-lossy': {'backhaul': 2412931072,
                     'charged': [[6282865898, 8464669483, 11146865898,
                                  9878479332, 15376672615, 17302476200,
                                  10000670527, 11414465898],
                                 [6538865549, 7562865549, 6672667046,
                                  8336665549, 11658865549, 8842865549,
                                  11542469134, 11024666002],
                                 [7063376, 3466865549, 6538865549,
                                  5258865549, 11146865549, 8976668090,
                                  13072668090, 14096671222]],
                     'clocks': [32294403713, 24492196996, 31404206254,
                                27191812971, 23990738735, 24992596996,
                                34615807751, 25638397449],
                     'link': (3635, 311, 279380, 812),
                     'loss': 0.1,
                     'nvm': [54828, 54828, 54828, 54828, 45682, 54828,
                             54828, 54828],
                     'ok': True,
                     'radios': [(78, 7, 1816, 42, 20114),
                                (65, 6, 1448, 41, 18452),
                                (78, 7, 1802, 36, 16624),
                                (73, 7, 1640, 40, 17925),
                                (55, 6, 1249, 26, 15835),
                                (64, 9, 1494, 35, 16753),
                                (84, 9, 1918, 42, 19130),
                                (69, 5, 1586, 40, 18732)],
                     'seed': 5,
                     'timeouts': [0, 1, 0, 2, 3, 3, 0, 3, 1]},
 'unicast-lossy': {'backhaul': 1459709952,
                   'charged': [[3722865898, 4240665898, 8330865898,
                                8464674703, 9866865898, 10256666351,
                                14096672615, 17168670527],
                               [1930865549, 7696673310, 9098865549,
                                9878465549, 8976668090, 12304666002,
                                5270465549, 15894469134],
                               [2704665549, 5264665549, 8330865549,
                                9354865549, 9104665549, 8080665549,
                                11146865549, 11280671222]],
                   'clocks': [21542402669, 26673997449, 25778006254,
                              26918404757, 35372201625, 23607805801,
                              27698000581, 24876197449],
                   'link': (3520, 274, 268177, 833),
                   'loss': 0.1,
                   'nvm': [54828, 54828, 54828, 54828, 54828, 54828, 54828,
                           54828],
                   'ok': True,
                   'radios': [(60, 2, 1384, 35, 16602),
                              (72, 5, 1644, 40, 18404),
                              (71, 5, 1620, 38, 17350),
                              (69, 7, 1600, 37, 17479),
                              (80, 5, 1850, 40, 18909),
                              (73, 10, 1612, 43, 18319),
                              (74, 8, 1664, 41, 18452),
                              (67, 4, 1538, 39, 18205)],
                   'seed': 3,
                   'timeouts': [0, 1, 1, 2, 1, 1, 1, 1, 1]}}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_radio_path_models_the_golden_trace(case):
    options = (PublishOptions.scale() if case.startswith("multicast")
               else PublishOptions.legacy())
    expected = GOLDEN[case]
    trace = modelled_trace(options, loss=expected["loss"],
                           seed=expected["seed"])
    for key in ("ok", "link", "radios", "timeouts", "nvm", "backhaul",
                "clocks", "charged"):
        assert trace[key] == expected[key], key
