"""The benchmark's workloads: seeded rigs driven by a closed request loop.

A run is a series of *episodes*.  Each episode builds a fresh rig in
:meth:`setup` (timed as ``setup_s``), then serves ``episode`` requests
one at a time: the next publish or hook fire starts only after the
previous one returned.  Every episode of a run does the same work — the
rig and its inputs come from the seed alone — so what a request costs
does not depend on how many requests fit in ``--seconds``; the program
keeps state across publishes, and a fleet's publishes grow slower as it
accumulates.  The first episode warms the process up and is not timed.
Every input — release image bytes, link-loss dice, PID streams,
checksum buffers — comes from the seed; the program only ever sees the
generated values.

Each request is checked after it returns, outside its timed window, and
each rig once more at the end of its episode:

* fleet workloads: every device row converged with the expected number
  of plan actions, ``plan()`` of the last device is empty, and every
  device ends on the last release;
* ``hook_fanout``: every instance ran clean, and the global store holds
  exactly the per-PID counts the PID stream implies;
* ``hook_compute``: every instance returned ``fletcher32_reference`` of
  its own seeded buffer, and none faulted.

Modelled numbers (device cycles, radio bytes and energy) are taken over
the first timed episode, which every run performs whatever
``--seconds`` says, so they depend on the seed alone and a traced run
reproduces them bit for bit.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
import struct
from bisect import bisect_right
from dataclasses import dataclass, field
from time import perf_counter, thread_time

from repro.core.hooks import FC_HOOK_FANOUT, HookMode
from repro.deploy import (
    AttachmentSpec,
    DeploymentSpec,
    HookSpec,
    ImageSpec,
    PublishOptions,
    plan,
)
from repro.scenarios import build_fanout_device, build_fleet_publisher
from repro.vm import assemble
from repro.vm.imagecache import IMAGE_CACHE
from repro.vm.memory import Permission
from repro.workloads import fletcher32_reference, thread_counter_program
from repro.workloads.fletcher32 import (
    INPUT_BASE,
    fletcher32_program,
    make_context,
)
from repro.workloads.thread_counter import THREAD_START_KEY

from fcbench.spans import Tracer

#: Counters summed over every episode, reported per request.
COUNTERS = ("net.link.frames_sent", "net.link.frames_dropped",
            "net.gcoap.timeouts", "rtos.nvm.bytes_written",
            "vm.imagecache.hits", "vm.imagecache.misses")

#: Modelled per-request values only fleet publishes produce.
FLEET_MODELLED = ("net.trigger_bytes_per_device", "net.radio_uj_per_device",
                  "deploy.converge_cycles")

#: Every metric computed from modelled quantities over the first timed
#: episode: a traced run must reproduce these exactly.
MODELLED = ("device_cycles_per_request", "deploy.device_cycles_p50",
            "deploy.device_cycles_p99", *FLEET_MODELLED)

#: Metrics kept in the run's record but not declared in BENCHMARK.json:
#: the unscaled median request time and the median host speed.
RECORD_ONLY = ("host.request_ms_p50_raw", "host.speed")


@dataclass
class Outcome:
    """What one checked request produced."""

    ok: bool
    #: Modelled cycles each device was charged for this request.
    device_cycles: list[int]
    #: Modelled per-request values (see :data:`FLEET_MODELLED`).
    modelled: dict[str, float] = field(default_factory=dict)


class FleetWorkload:
    """Closed-loop publishes of one signed release to a whole fleet.

    ``update=True`` gives every publish fresh seeded content in both
    4 KiB images, so each device replaces two containers; ``False``
    republishes the set-up release at the next sequence, so each device
    verifies, stores and plans but changes nothing.
    """

    images = 2
    rodata_bytes = 4096
    raw_requests = 3

    def __init__(self, seed: int, devices: int, multicast: bool,
                 loss: float, update: bool, episode: int = 8) -> None:
        self.seed = seed
        self.devices = devices
        self.options = (PublishOptions.scale() if multicast
                        else PublishOptions.legacy())
        self.loss = loss
        self.update = update
        self.episode = episode
        self.publisher = None
        self._base = ImageSpec.from_program(
            assemble("mov r0, 7\n    exit", name="app"))

    def _release(self) -> DeploymentSpec:
        images = {
            f"app{index}": ImageSpec(
                name=f"app{index}", text=self._base.text,
                rodata=self._rng.randbytes(self.rodata_bytes))
            for index in range(self.images)
        }
        return DeploymentSpec(
            name="bench-release",
            tenants=("ops",),
            hooks=(HookSpec(FC_HOOK_FANOUT, HookMode.SYNC),),
            images=images,
            attachments=tuple(
                AttachmentSpec(image=f"app{index}", hook=FC_HOOK_FANOUT,
                               tenant="ops", name=f"fc-{index}", count=1)
                for index in range(self.images)
            ),
        )

    def teardown(self) -> None:
        self.publisher = None

    def setup(self) -> None:
        """Build the fleet and converge it cold onto the first release."""
        self._rng = random.Random(f"release:{self.seed}")
        self.publisher = build_fleet_publisher(
            devices=self.devices, loss=self.loss, seed=self.seed)
        self.spec = self._release()
        result = self.publisher.publish(self.spec, self.options)
        if not result.ok:
            raise RuntimeError(f"cold publish failed: {result.reason}")

    def request(self, index: int):
        if self.update:
            self.spec = self._release()
        backhaul = self.publisher.kernel.clock
        before = backhaul.cycles
        result = self.publisher.publish(self.spec, self.options)
        return result, backhaul.cycles - before

    def check(self, index: int, response) -> Outcome:
        result, converge_cycles = response
        rows = result.rows()
        actions = self.images if self.update else 0
        last = self.publisher.fleet.devices[-1]
        ok = (result.ok and len(rows) == self.devices
              and all(row.actions == actions for row in rows)
              and plan(last.engine, self.spec).empty)
        return Outcome(
            ok=ok,
            device_cycles=[row.cycles_charged for row in rows],
            modelled={
                "net.trigger_bytes_per_device":
                    result.trigger_tx_bytes / self.devices,
                "net.radio_uj_per_device":
                    result.total_radio_uj / self.devices,
                "deploy.converge_cycles": converge_cycles,
            },
        )

    def verify(self) -> bool:
        return all(device.current_spec is self.spec
                   for device in self.publisher.fleet.devices)

    def counters(self) -> dict[str, int]:
        publisher = self.publisher
        devices = publisher.fleet.devices
        return {
            "net.link.frames_sent": publisher.link.stats.frames_sent,
            "net.link.frames_dropped": publisher.link.stats.frames_dropped,
            "net.gcoap.timeouts": publisher.trigger_client.timeouts + sum(
                device.radio.client.timeouts for device in devices),
            "rtos.nvm.bytes_written": sum(device.nvm.bytes_written
                                          for device in devices),
            "vm.imagecache.hits": IMAGE_CACHE.hits,
            "vm.imagecache.misses": IMAGE_CACHE.misses,
        }


class HookWorkload:
    """Closed-loop fires of one SYNC hook carrying many instances."""

    raw_requests = 200

    def __init__(self, seed: int, episode: int = 2000) -> None:
        self.seed = seed
        self.episode = episode
        self.device = None

    def teardown(self) -> None:
        self.device = None

    def request(self, index: int):
        return self.device.engine.fire_hook(FC_HOOK_FANOUT,
                                            self._context(index))

    def counters(self) -> dict[str, int]:
        counters = dict.fromkeys(COUNTERS, 0)
        counters["vm.imagecache.hits"] = IMAGE_CACHE.hits
        counters["vm.imagecache.misses"] = IMAGE_CACHE.misses
        return counters


class FanoutWorkload(HookWorkload):
    """4 tenants x 8 ``thread_counter`` instances, interpreter engine.

    Fires carry a seeded ``(previous, next)`` PID stream; PID 0 takes the
    early-exit path, as on the scheduler hook.
    """

    tenants = 4
    instances = 8
    pids = 32

    def __init__(self, seed: int, episode: int = 2000) -> None:
        super().__init__(seed, episode)
        rng = random.Random(f"pids:{seed}")
        self._pairs = [(rng.randrange(self.pids), rng.randrange(self.pids))
                       for _ in range(episode)]
        self._contexts = [struct.pack("<QQ", *pair) for pair in self._pairs]
        self._fired = 0

    def _context(self, index: int) -> bytes:
        self._fired = index + 1
        return self._contexts[index]

    def setup(self) -> None:
        self.device = build_fanout_device(
            tenants=self.tenants, instances_per_tenant=self.instances,
            implementation="femto-containers",
            program=thread_counter_program())
        self._fired = 0

    def check(self, index: int, firing) -> Outcome:
        runs = firing.runs
        ok = (len(runs) == self.tenants * self.instances
              and all(run.ok for run in runs))
        return Outcome(ok=ok, device_cycles=[firing.total_cycles])

    def verify(self) -> bool:
        expected: dict[int, int] = {}
        per_fire = self.tenants * self.instances
        for _, next_pid in self._pairs[:self._fired]:
            if next_pid:
                key = THREAD_START_KEY + next_pid
                expected[key] = (expected.get(key, 0) + per_fire) & 0xFFFFFFFF
        return self.device.engine.global_store.snapshot() == expected


class ComputeWorkload(HookWorkload):
    """8 JIT fletcher32 instances, each over its own seeded 360 B buffer."""

    instances = 8
    input_bytes = 360

    def __init__(self, seed: int, episode: int = 2000) -> None:
        super().__init__(seed, episode)
        rng = random.Random(f"buffers:{seed}")
        self._buffers = [rng.randbytes(self.input_bytes)
                         for _ in range(self.instances)]
        self._expected = [fletcher32_reference(buffer)
                          for buffer in self._buffers]
        self._ctx = make_context(self.input_bytes)

    def _context(self, index: int) -> bytes:
        return self._ctx

    def setup(self) -> None:
        self.device = build_fanout_device(
            tenants=1, instances_per_tenant=self.instances,
            implementation="jit", program=fletcher32_program())
        for container, buffer in zip(self.device.containers, self._buffers):
            container.vm.access_list.grant_bytes(
                "fletcher-input", INPUT_BASE, buffer, Permission.READ)

    def check(self, index: int, firing) -> Outcome:
        values = [run.value for run in firing.runs]
        ok = values == self._expected and all(run.ok for run in firing.runs)
        return Outcome(ok=ok, device_cycles=[firing.total_cycles])

    def verify(self) -> bool:
        return all(container.fault_count == 0
                   for container in self.device.containers)


#: Workload name -> factory taking the seed plus size overrides.
WORKLOADS = {
    "fleet_mcast_update": lambda seed, devices=1000, **kw: FleetWorkload(
        seed, devices, multicast=True, loss=0.0, update=True, **kw),
    "fleet_mcast_noop": lambda seed, devices=1000, **kw: FleetWorkload(
        seed, devices, multicast=True, loss=0.0, update=False, **kw),
    # Longer episodes: per-device cycles depend on the loss dice, and 15
    # publishes average enough of them to repeat within 1-2% over seeds.
    "fleet_unicast_lossy": lambda seed, devices=64, episode=15, **kw:
        FleetWorkload(seed, devices, multicast=False, loss=0.05,
                      update=True, episode=episode, **kw),
    "hook_fanout": lambda seed, **kw: FanoutWorkload(seed, **kw),
    "hook_compute": lambda seed, **kw: ComputeWorkload(seed, **kw),
}


#: CPU seconds one :func:`reference` pass takes on the host the
#: baselines in ``bench/README.md`` were measured on (a 2-vCPU Intel Xeon
#: Sapphire Rapids KVM guest, CPython 3.11.7) while it was quiet.
REFERENCE_S = 1.15e-3

#: Wall seconds of request loop per :func:`reference` pass: passes are
#: made between requests at this rate, whatever a request takes.
REFERENCE_EVERY_S = 0.05

#: How many passes, made nearest before and after a request, give its
#: host speed.
SPEED_WINDOW = 5


def reference(passes: int = 5000) -> float:
    """CPU seconds one fixed pass of plain interpreter work takes now.

    Host times are CPU seconds of this thread (``thread_time``): the
    loop is single-threaded and does no I/O, so that is its wall-clock
    time minus whatever the OS gave to other processes.  The host is
    also shared with other machines' work, which can slow every Python
    loop by up to 2x, for seconds to minutes at a time.  Every host time
    is therefore multiplied by its *host speed* (:func:`host_speeds`):
    such a phase slows the passes and the requests next to them alike
    and cancels out, while a change to the program moves only the
    requests.
    """
    start = thread_time()
    # Ints and strs only: objects the cyclic GC tracks would move the
    # program's own collections into the passes, by an amount that
    # depends on how many passes happen to run between two requests.
    table: dict[int, int] = {}
    total = 0
    for index in range(passes):
        key = index & 63
        total = ((total + table.get(key, index) * 3) ^ index) & 0xFFFFF
        table[key] = total + len(str(key))
    return thread_time() - start


def host_speeds(passes: list[float], pass_at: list[int],
                requests: int) -> list[float]:
    """Host speed of each request: ``REFERENCE_S`` over the median of the
    ``SPEED_WINDOW`` passes made nearest to it.

    ``pass_at[k]`` is how many requests had been served when pass ``k``
    was made; the window takes up to three passes made before a request
    and the rest after it.
    """
    speeds: list[float] = []
    for index in range(requests):
        high = min(len(passes), bisect_right(pass_at, index) + 2)
        low = max(0, high - SPEED_WINDOW)
        speeds.append(REFERENCE_S / statistics.median(passes[low:high]))
    return speeds


def _peak_rss_mb() -> float:
    """Peak resident memory of this process, from ``/proc``.

    ``getrusage`` would report the peak of whatever process exec'd this
    one, if that was higher.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def measure(workload, seconds: float, tracer: Tracer | None = None) -> dict:
    """A warm-up episode, then timed episodes for ``seconds`` of wall time.

    The warm-up episode is checked but not timed: it pays the process's
    one-off costs (first-touch memory, lazy imports).  At least one timed
    episode runs, and the one under way when time runs out is finished.
    Peak memory is taken after the warm-up, modelled numbers over the
    first timed episode; ``setup_s`` is the median set-up time of the
    timed episodes.

    Returns every metric this run can give, the attempted and failed
    request counts, and whether every episode's final check passed.
    With a ``tracer`` the timed requests are root spans and the
    per-layer numbers are included.  Host times are scaled as
    :func:`reference` explains.
    """
    setup_s: list[float] = []
    latencies: list[float] = []
    setup_at: list[int] = []
    passes: list[float] = []
    pass_at: list[int] = []
    first: list[Outcome] = []
    totals = dict.fromkeys(COUNTERS, 0)
    attempted = failed = episodes = 0
    checks_ok = True
    request = workload.request
    check = workload.check
    start = next_pass = perf_counter()
    while episodes < 2 or perf_counter() - start < seconds:
        timed = episodes > 0
        workload.teardown()
        IMAGE_CACHE.clear()
        gc.collect()
        began = thread_time()
        workload.setup()
        if timed:
            setup_s.append(thread_time() - began)
            setup_at.append(len(latencies))
        gc.collect()
        before = workload.counters()
        for index in range(workload.episode):
            while timed and perf_counter() >= next_pass:
                passes.append(reference())
                pass_at.append(len(latencies))
                next_pass += REFERENCE_EVERY_S
            began = thread_time()
            if tracer is None or not timed:
                response = request(index)
            else:
                with tracer.request():
                    response = request(index)
            if timed:
                latencies.append(thread_time() - began)
            outcome = check(index, response)
            attempted += 1
            failed += not outcome.ok
            if episodes == 1:
                first.append(outcome)
        after = workload.counters()
        for name in COUNTERS:
            totals[name] += after[name] - before[name]
        checks_ok = workload.verify() and checks_ok
        if not timed:
            # Peak memory after one episode: the whole run's peak would
            # grow with however many episodes fit in it.
            peak_rss_mb = _peak_rss_mb()
            start = next_pass = perf_counter()
        episodes += 1

    speeds = host_speeds(passes, pass_at, len(latencies))
    scaled = [latency * speed for latency, speed in zip(latencies, speeds)]
    # A set-up is scaled like the first request after it.
    setups = [took * speeds[at] for took, at in zip(setup_s, setup_at)]
    speed = statistics.median(speeds)
    device_cycles = [cycles for outcome in first
                     for cycles in outcome.device_cycles]
    metrics = {
        "setup_s": statistics.median(setups),
        "requests_per_s": len(scaled) / math.fsum(scaled),
        "request_ms_p50": 1e3 * statistics.median(scaled),
        "peak_rss_mb": peak_rss_mb,
        "device_cycles_per_request": statistics.fmean(device_cycles),
        # Modelled per-layer values over the first timed episode.
        "deploy.device_cycles_p50": statistics.median(device_cycles),
        "deploy.device_cycles_p99":
            statistics.quantiles(device_cycles, n=100)[98],
        "host.request_ms_p50_raw": 1e3 * statistics.median(latencies),
        "host.speed": speed,
    }
    for name in FLEET_MODELLED:
        metrics[name] = statistics.fmean(
            outcome.modelled.get(name, 0) for outcome in first)
    for name in COUNTERS:
        metrics[name] = totals[name] / attempted
    lookups = metrics["vm.imagecache.hits"] + metrics["vm.imagecache.misses"]
    metrics["vm.imagecache.hit_ratio"] = (
        metrics["vm.imagecache.hits"] / lookups if lookups else 0.0)
    if tracer is not None:
        metrics.update(tracer.layer_metrics(speed))
        checks_ok = checks_ok and tracer.self_time_gap() <= 0.01
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "checks_ok": checks_ok,
    }
