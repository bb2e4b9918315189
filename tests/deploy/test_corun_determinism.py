"""Co-run invariants: wall-clock-only, bit-identical modelling.

The publisher co-runs every pending device kernel in fleet order and
shares one release cache across the device workers (the group-trigger
body, the decoded envelope and spec, the payload digest verdict, the
encoded NVM records), next to the process-wide COSE verdict, NVM frame
and plan-view memos and each engine's grant memo.  Modelled state must
not notice any of them: per-device charged cycles, virtual clocks,
flash bytes written and persisted SUIT records are pinned identical to
a run whose memos never store anything, across a cold and an updating
publish, on the unicast and the multicast trigger path, lossless and
lossy.  The fresh side runs under ``memos_disabled()``, which turns off
every memo wherever it lives, so a new memo is covered without being
named here.  Every memo stores successes only, under exact keys.  The fleet
seed comes from ``CHAOS_SEED`` (CI sweeps several; locally one fixed
default runs).  Identical runs replay bit for bit — including a fleet
past 64 devices, once split across shards.
The publisher also keeps one "done" rule: a device that reported its
verdict for a sequence is never triggered with that sequence again.
"""

from __future__ import annotations

import os
import random
from typing import NamedTuple

import pytest

from repro.core import FC_HOOK_FANOUT, AttachError, HostingEngine
from repro.core import engine as engine_module
from repro.core.hooks import Hook, HookMode
from repro.core.policy import ContainerContract, HookPolicy
from repro.deploy import (
    AttachmentSpec,
    DeploymentSpec,
    HookSpec,
    ImageSpec,
    PublishOptions,
    SpecError,
    plan,
)
from repro.memo import memos_disabled
from repro.rtos import Kernel, NvmStore
from repro.scenarios import build_fleet_publisher
from repro.suit import SuitEnvelope, UpdateStatus, sign_spec
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
                   sources: tuple[str, ...] = (GOOD,)) -> Modelled:
    """Publish one release per source in turn on a fresh fleet."""
    IMAGE_CACHE.clear()
    publisher = build_fleet_publisher(devices=devices, seed=seed, loss=loss)
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
    def test_memo_is_wall_clock_only(self, options, loss):
        """Sharing one release's decode, verify, digest check, record
        encodings and frames, plan view, grants and image artifacts
        across devices must not change any device's charged cycles,
        final clock, flash writes or persisted records, over a cold and
        an updating publish: every share is a host-side (wall-clock)
        effect."""
        sources = (GOOD, UPDATED)
        with memos_disabled():
            fresh = modelled_state(options, loss=loss, sources=sources)
        shared = modelled_state(options, loss=loss, sources=sources)
        assert fresh.ok and shared.ok
        assert not fresh.shared
        assert shared.shared >= {"envelope", "spec", "nvm-record", "digest"}
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


class TestMemoSafety:
    """Every share stores successes only, under exact keys: a memo hit
    can never stand in for a check that would fail."""

    def test_invalid_spec_raises_on_every_plan(self):
        spec = DeploymentSpec(attachments=(
            AttachmentSpec(image="missing", hook=FC_HOOK_FANOUT),))
        engine = HostingEngine(Kernel())
        for _ in range(3):
            with pytest.raises(SpecError):
                plan(engine, spec)

    def test_grant_rederived_for_new_ceiling_or_helper(self, monkeypatch):
        engine_module._LIMITS.clear()  # process-wide: start cold
        grants = []
        real_grant = engine_module.grant
        monkeypatch.setattr(engine_module, "grant",
                            lambda *args: grants.append(args)
                            or real_grant(*args))
        engine = HostingEngine(Kernel(), implementation="jit")
        hook = engine.register_hook(Hook(FC_HOOK_FANOUT, mode=HookMode.SYNC))
        tenant = engine.create_tenant("ops")

        def attach(source: str, name: str):
            return engine.attach(
                engine.load(assemble(source), tenant=tenant, name=name),
                FC_HOOK_FANOUT)

        attach(GOOD, "a")
        attach(GOOD, "b")
        assert len(grants) == 1
        hook.tenant_policies["ops"] = HookPolicy(max_instructions=64)
        assert attach(GOOD, "c").granted.max_instructions == 64
        assert len(grants) == 2
        # 0x7f is no registered helper: the verifier refuses the call.
        with pytest.raises(AttachError):
            attach("call 0x7f\n    exit", "d")
        engine.helpers.register(0x7f, lambda vm, *args: 5)
        caller = attach("call 0x7f\n    exit", "e")
        assert len(grants) == 3
        assert engine.execute(caller).value == 5

    def test_plain_set_contract_is_coerced_and_shares_one_grant(self):
        engine_module._LIMITS.clear()  # process-wide: start cold
        engine = HostingEngine(Kernel())
        engine.register_hook(Hook(FC_HOOK_FANOUT, mode=HookMode.SYNC))
        contract = ContainerContract(helpers={0x01})  # a plain set
        assert isinstance(contract.helpers, frozenset)
        for name in ("a", "b"):
            container = engine.attach(
                engine.load(assemble(GOOD), contract=contract, name=name),
                FC_HOOK_FANOUT)
            assert container.granted.allowed_helpers == {0x01}
        limits = engine_module._LIMITS
        assert len(limits) == 1
        assert limits.hits == 1

    def test_wrong_payload_after_cached_match_is_a_mismatch(self):
        publisher = build_fleet_publisher(devices=2)
        honest_device, victim = publisher.fleet.devices
        envelope, payload = sign_spec(make_spec(GOOD), 1, "/specs/v1",
                                      publisher.maintainer_seed)
        wrong = payload[:-1] + bytes([payload[-1] ^ 0x01])

        def process(device, body: bytes):
            device.radio.worker.trigger(envelope, body)
            device.kernel.run(until_us=device.kernel.now_us + 50_000_000)
            return device.radio.worker.results[-1].status

        assert process(honest_device, payload) is UpdateStatus.OK
        assert any(key[0] == "digest" for key in publisher._release_cache)
        assert process(victim, wrong) is UpdateStatus.DIGEST_MISMATCH
        assert not victim.engine.tenants

    def test_worn_primary_keeps_its_shadow_on_a_shared_frame(self):
        value = b"release-record" * 8
        NvmStore().write("suit/slot/x", value)  # frames `value` once
        worn = NvmStore()
        worn.erase_budget = 2
        for _ in range(4):
            worn.write("suit/slot/x", value)
        assert worn.worn_writes > 0
        # The worn primary holds a corrupt frame: only the kept shadow
        # can still serve the record.
        assert worn.read("suit/slot/x") == value
