"""Command-line interface: ``python -m repro <command>``.

Small developer tools around the library:

* ``asm IN.s [-o OUT.bin]``     — assemble eBPF text to bytecode;
* ``disasm IN.bin``             — disassemble bytecode to text;
* ``verify IN.bin``             — run the pre-flight checker;
* ``run IN.s|IN.bin [--ctx HEX] [--board NAME] [--impl NAME]``
                                — execute a program on a simulated board;
* ``boards``                    — list board models;
* ``demo``                      — run the multi-tenant showcase scenario;
* ``fanout``                    — multi-instance fan-out: K tenants x M
                                  instances of one image on one hook,
                                  reporting attach times and image-cache
                                  hit rates;
* ``deploy SPEC``               — declarative deployment: plan+apply a
                                  spec (JSON file or builtin name) onto a
                                  fresh device, then re-plan to show
                                  convergence;
* ``fleet``                     — apply one spec across N simulated
                                  devices, reporting each device's
                                  shared image-cache hits and misses;
* ``canary``                    — canary fleet rollout: a poisoned spec
                                  rolls back on the canary subset without
                                  touching the rest, the fixed spec bakes
                                  clean and promotes fleet-wide;
* ``publish``                   — fleet-wide OTA publish: one signed spec
                                  manifest fans out over a shared radio
                                  link to every device's SpecUpdateWorker,
                                  with anti-rollback, idempotent
                                  republish, and a health-gated canary
                                  stage for the poisoned/fixed pair;
* ``chaos``                     — chaos-hardened publish: a seeded fault
                                  plan crashes, stalls and loss-bursts
                                  the fleet mid-publish and the rollout
                                  still converges; a permanently dead
                                  device degrades the result to an
                                  UNREACHABLE row instead of raising;
* ``controlplane``              — the maintainer's lifecycle on one
                                  FleetPublisher: sign a release, publish
                                  it with the fleet-scale profile (one
                                  multicast trigger carrying the payload),
                                  add and evict wired devices at runtime,
                                  stream per-device status rows.

The fleet-shaped subcommands (``fleet``, ``canary``, ``publish``,
``chaos``, ``controlplane``) share one parent parser, so ``--devices``,
``--seed``, ``--loss``, ``--board`` and ``--impl`` spell and default
identically everywhere.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from repro.core.container import VM_CLASSES
from repro.rtos.board import BOARDS, board_by_name
from repro.vm import (
    AssemblerError,
    EncodingError,
    Program,
    VerificationError,
    VMFault,
    assemble,
    disassemble,
    verify,
)

#: Bad input to the program tools: a missing file, malformed text or
#: bytecode, a non-hex ``--ctx``, or an image the JIT's verifier rejects.
_INPUT_ERRORS = (OSError, ValueError, AssemblerError, EncodingError,
                 VerificationError)


def _reports_input_errors(command):
    """Turn bad input into one ``<verb> error: ...`` line and exit 1."""
    verb = command.__name__.removeprefix("cmd_")

    @functools.wraps(command)
    def wrapper(args: argparse.Namespace) -> int:
        try:
            return command(args)
        except _INPUT_ERRORS as error:
            print(f"{verb} error: {error}")
            return 1

    return wrapper


def _load_program(path: Path) -> Program:
    data = path.read_bytes()
    if path.suffix in (".s", ".asm", ".txt") or not _looks_binary(data):
        return assemble(data.decode(), name=path.stem)
    return Program.from_bytes(data, name=path.stem)


def _looks_binary(data: bytes) -> bool:
    return any(byte < 9 for byte in data[:64])


@_reports_input_errors
def cmd_asm(args: argparse.Namespace) -> int:
    program = assemble(Path(args.source).read_text(),
                       name=Path(args.source).stem)
    raw = program.to_bytes()
    if args.output:
        Path(args.output).write_bytes(raw)
        print(f"{len(program.slots)} slots, {len(raw)} bytes -> {args.output}")
    else:
        sys.stdout.write(raw.hex() + "\n")
    return 0


def cmd_compile(args: argparse.Namespace) -> int:
    from repro.femtoc import CompileError, compile_source

    try:
        program = compile_source(Path(args.source).read_text(),
                                 name=Path(args.source).stem)
    except CompileError as error:
        print(f"compile error: {error}")
        return 1
    if args.emit_asm:
        sys.stdout.write(disassemble(program))
        return 0
    raw = program.to_bytes()
    if args.output:
        Path(args.output).write_bytes(raw)
        print(f"{len(program.slots)} slots, {len(raw)} bytes -> {args.output}")
    else:
        sys.stdout.write(raw.hex() + "\n")
    return 0


@_reports_input_errors
def cmd_disasm(args: argparse.Namespace) -> int:
    program = _load_program(Path(args.image))
    sys.stdout.write(disassemble(program))
    return 0


@_reports_input_errors
def cmd_verify(args: argparse.Namespace) -> int:
    program = _load_program(Path(args.image))
    try:
        report = verify(program)
    except VerificationError as error:
        print(f"REJECTED: {error}")
        return 1
    print(f"OK: {report.instruction_count} instructions, "
          f"{report.branch_count} branches, "
          f"helpers: {sorted(hex(h) for h in report.helper_ids) or 'none'}")
    return 0


@_reports_input_errors
def cmd_run(args: argparse.Namespace) -> int:
    program = _load_program(Path(args.image))
    board = board_by_name(args.board)
    vm = VM_CLASSES[args.impl](program)
    context = bytes.fromhex(args.ctx) if args.ctx else None
    try:
        result = vm.run(context=context)
    except VMFault as fault:
        print(f"FAULT: {type(fault).__name__}: {fault}")
        return 1
    cycles = board.vm_execution_cycles(result.stats, vm.implementation)
    print(f"r0 = {result.value} (0x{result.value:x})")
    print(f"{result.stats.executed} instructions, "
          f"{result.stats.branches_taken} taken branches")
    print(f"{cycles} cycles on {board.name} = {board.us(cycles):.2f} us "
          f"@ {board.mhz} MHz [{args.impl}]")
    return 0


def cmd_boards(_args: argparse.Namespace) -> int:
    for name in BOARDS:
        board = board_by_name(name)
        print(f"{name:10s} {board.cpu:40s} {board.mhz} MHz  "
              f"{board.ram_kib} KiB RAM  {board.flash_kib} KiB flash")
    return 0


def cmd_shell(args: argparse.Namespace) -> int:
    """Run device-shell commands against the showcase scenario."""
    from repro.rtos.shell import DeviceShell
    from repro.scenarios import build_multi_tenant_device

    device = build_multi_tenant_device(sensor_period_us=500_000)
    device.kernel.run(until_us=2_000_000)
    shell = DeviceShell(device.engine)
    commands = args.commands or ["uptime", "ps", "hooks", "fc list", "ram"]
    for command in commands:
        print(f"> {command}")
        print(shell.execute(command))
        print()
    return 0


def cmd_demo(_args: argparse.Namespace) -> int:
    from repro.net import CoapMessage, coap
    from repro.scenarios import (
        COAP_PORT,
        DEVICE_ADDR,
        build_multi_tenant_device,
    )

    device = build_multi_tenant_device(sensor_period_us=500_000)
    device.kernel.run(until_us=2_000_000)
    replies = []
    request = CoapMessage(mtype=coap.CON, code=coap.GET)
    request.add_uri_path("/sensor/temp")
    device.client.request(DEVICE_ADDR, COAP_PORT, request, replies.append)
    device.kernel.run(until_us=device.kernel.now_us + 2_000_000)
    print(f"containers: {[c.name for c in device.engine.containers()]}")
    print(f"sensor average over CoAP: {replies[0].payload.decode()} "
          "centi-degC")
    print("context switches observed by tenant B: "
          f"{sum(device.engine.global_store.snapshot().values())}")
    print(f"engine RAM: {device.engine.total_ram_bytes()} B")
    return 0


def cmd_fanout(args: argparse.Namespace) -> int:
    """Run the multi-instance fan-out scenario and report cache effect."""
    import time

    from repro.scenarios import build_fanout_device
    from repro.vm.imagecache import IMAGE_CACHE

    IMAGE_CACHE.clear()  # measure from a cold cache, deterministically
    board = board_by_name(args.board)

    start = time.perf_counter()
    device = build_fanout_device(
        tenants=args.tenants,
        instances_per_tenant=args.instances,
        implementation=args.impl,
        board=board,
    )
    attach_s = time.perf_counter() - start

    start = time.perf_counter()
    runs = device.fire(args.fires)
    fire_s = time.perf_counter() - start

    instances = len(device.containers)
    stats = IMAGE_CACHE.stats()
    print(f"image: {device.image.name!r} "
          f"({device.image.image_hash[:12]}..., "
          f"{device.image.code_size} B text)")
    print(f"attached {instances} instances "
          f"({args.tenants} tenants x {args.instances}) "
          f"in {attach_s * 1e3:.2f} ms on {board.name} [{args.impl}]")
    if args.impl == "jit":
        print(f"compiled templates shared: {device.shared_templates()} "
              f"(for {instances} instances)")
    print(f"image cache: {stats['hits']} hits / {stats['misses']} misses "
          f"({stats['template_entries']} templates, "
          f"{stats['report_entries']} verdicts cached)")
    print(f"{args.fires} fires -> {runs} container runs "
          f"in {fire_s * 1e3:.2f} ms "
          f"({runs / fire_s:.0f} runs/s wall)")
    print(f"virtual clock: {device.kernel.clock.cycles} cycles "
          f"= {board.us(device.kernel.clock.cycles):.1f} us modelled")
    return 0


def _resolve_spec(argument: str):
    """A deployment spec: a JSON file path or a builtin spec name."""
    import json

    from repro.deploy import BUILTIN_SPECS, DeploymentSpec, builtin_spec

    path = Path(argument)
    if path.exists():
        return DeploymentSpec.from_json(json.loads(path.read_text()))
    if argument in BUILTIN_SPECS:
        return builtin_spec(argument)
    raise FileNotFoundError(
        f"{argument!r} is neither a spec file nor a builtin spec "
        f"(builtins: {', '.join(sorted(BUILTIN_SPECS))})"
    )


def cmd_deploy(args: argparse.Namespace) -> int:
    """Converge a fresh device onto a declarative deployment spec."""
    from repro.core import HostingEngine
    from repro.deploy import apply, plan
    from repro.rtos import Kernel

    try:
        spec = _resolve_spec(args.spec)
    except Exception as error:
        print(f"deploy error: {error}")
        return 1
    board = board_by_name(args.board)
    engine = HostingEngine(Kernel(board), implementation=args.impl)

    try:
        deployment = plan(engine, spec)
        print(f"spec {spec.name!r} -> {len(deployment.actions)} actions "
              f"on {board.name} [{args.impl}]:")
        print(deployment.describe())
        result = apply(engine, deployment)
    except Exception as error:
        print(f"deploy error: {error}")
        return 1
    print(f"applied: {len(result.attached)} containers attached, "
          f"{len(result.tenants_created)} tenants created, "
          f"{result.cycles_charged} cycles charged "
          f"({board.us(result.cycles_charged):.1f} us modelled)")
    replan = plan(engine, spec)
    print(f"re-plan: {len(replan.actions)} actions "
          f"({'converged' if replan.empty else 'NOT converged'})")
    return 0 if replan.empty else 1


def cmd_fleet(args: argparse.Namespace) -> int:
    """Roll one spec out across N devices; report per-device cache use."""
    from repro.deploy import Fleet, fanout_spec
    from repro.vm.imagecache import IMAGE_CACHE

    IMAGE_CACHE.clear()  # measure from a cold cache, deterministically
    try:
        boards = [board_by_name(args.board) for _ in range(args.devices)]
        fleet = Fleet(boards, implementation=args.impl)
        spec = fanout_spec(tenants=args.tenants,
                           instances_per_tenant=args.instances)
        rollout = fleet.apply(spec)
    except Exception as error:
        print(f"fleet error: {error}")
        return 1

    image = next(iter(spec.images.values()))
    print(f"spec {spec.name!r}: {args.tenants} tenants x {args.instances} "
          f"instances of {image.image_hash[:12]}... per device")
    print(f"{'device':8} {'board':14} {'actions':>7} {'wall ms':>8} "
          f"{'cycles':>8} {'cache':>12}")
    for row in rollout.rows():
        print(f"{row.device.name:8} {row.device.board.name:14} "
              f"{row.actions:>7} {row.wall_s * 1e3:>8.2f} "
              f"{row.cycles_charged:>8} "
              f"{row.cache_hits:>4} hits/{row.cache_misses} miss")
    cycles = rollout.cycles_per_device()
    print("modelled cycles identical across devices: "
          f"{len(set(cycles)) == 1}")
    print(f"fleet cache hit rate: {rollout.cache_hit_rate() * 100:.0f}%  "
          f"fleet RAM: {fleet.total_ram_bytes()} B "
          f"({len(fleet.containers())} containers on {len(fleet)} devices)")
    return 0


def _canary_specs():
    """Baseline, poisoned and fixed specs for the canary demo.

    All three share the periodic sensor slot and a fan-out pad; they
    differ only in the image of the ``worker`` slots.  The poisoned
    image passes the pre-flight verifier (it is well-formed bytecode)
    but dereferences an unmapped address at runtime — exactly the class
    of fault only a canary bake can catch.
    """
    from repro.core.hooks import FC_HOOK_FANOUT, FC_HOOK_TIMER, HookMode
    from repro.deploy import (
        AttachmentSpec,
        DeploymentSpec,
        HookSpec,
        ImageSpec,
    )
    from repro.vm import assemble

    good = ImageSpec.from_program(
        assemble("mov r0, 7\n    exit", name="worker-v1"))
    poisoned = ImageSpec.from_program(assemble(
        "lddw r1, 0x10\n    ldxb r0, [r1]\n    exit", name="worker-v2-bad"))
    fixed = ImageSpec.from_program(
        assemble("mov r0, 8\n    exit", name="worker-v2"))
    sensor = ImageSpec.from_program(
        assemble("mov r0, 21\n    lsh r0, 1\n    exit", name="sensor"))

    def spec(name: str, image: ImageSpec) -> DeploymentSpec:
        return DeploymentSpec(
            name=name,
            tenants=("ops",),
            hooks=(HookSpec(FC_HOOK_FANOUT, HookMode.SYNC),),
            images={"worker": image, "sensor": sensor},
            attachments=(
                AttachmentSpec(image="worker", hook=FC_HOOK_FANOUT,
                               tenant="ops", name="worker", count=2),
                AttachmentSpec(image="sensor", hook=FC_HOOK_TIMER,
                               tenant="ops", name="sensor",
                               period_us=250_000.0),
            ),
        )

    return spec("canary-base", good), spec("canary-bad", poisoned), \
        spec("canary-fix", fixed)


def cmd_canary(args: argparse.Namespace) -> int:
    """Canary fleet rollout: poisoned spec rolls back, clean one promotes."""
    from repro.deploy import Fleet, plan
    from repro.vm.imagecache import IMAGE_CACHE

    IMAGE_CACHE.clear()  # measure from a cold cache, deterministically
    try:
        if not 1 <= args.canaries <= args.devices:
            raise ValueError(
                f"--canaries {args.canaries} outside 1..{args.devices}"
            )
        boards = [board_by_name(args.board) for _ in range(args.devices)]
        fleet = Fleet(boards, implementation=args.impl)
        base, poisoned, fixed = _canary_specs()
        fleet.apply(base)
    except Exception as error:
        print(f"canary error: {error}")
        return 1
    print(f"fleet of {args.devices} x {args.board} converged on "
          f"{base.name!r} [{args.impl}]")

    control = fleet.devices[args.canaries:]
    cycles_before = [device.kernel.clock.cycles for device in control]

    print(f"\nstage 1: roll out {poisoned.name!r} "
          "(verifies clean, faults at runtime)")
    bad = fleet.canary_rollout(poisoned, canary_count=args.canaries,
                               bake_us=args.bake_us, bake_fires=args.fires)
    print(f"  canaries: {', '.join(bad.canary_names)}  "
          f"bake: {bad.bake_us:.0f} us virtual + {args.fires} hook fires")
    print(f"  -> {'ROLLED BACK' if bad.rolled_back else 'PROMOTED'}: "
          f"{bad.reason}")
    untouched = cycles_before == [device.kernel.clock.cycles
                                  for device in control]
    restored = all(plan(rollback.device.engine, base).empty
                   for rollback in bad.rollback)
    print(f"  non-canary devices untouched: {untouched} "
          f"({len(control)} devices, 0 actions applied)")
    print(f"  canaries reconverged on {base.name!r}: {restored}")

    print(f"\nstage 2: roll out {fixed.name!r} (the fix)")
    good = fleet.canary_rollout(fixed, canary_count=args.canaries,
                                bake_us=args.bake_us, bake_fires=args.fires)
    print(f"  -> {'PROMOTED' if good.promoted else 'ROLLED BACK'}: "
          f"{good.reason}")
    converged = all(plan(device.engine, fixed).empty
                    for device in fleet.devices)
    print(f"  fleet converged on {fixed.name!r}: {converged}")
    ok = (bad.rolled_back and untouched and restored
          and good.promoted and converged)
    return 0 if ok else 1


def cmd_publish(args: argparse.Namespace) -> int:
    """Fleet-wide OTA publish demo: radio fan-out, replay, canary gate."""
    from repro.deploy import plan
    from repro.scenarios import build_fleet_publisher
    from repro.vm.imagecache import IMAGE_CACHE

    IMAGE_CACHE.clear()  # measure from a cold cache, deterministically
    try:
        if not 1 <= args.canaries <= args.devices:
            raise ValueError(
                f"--canaries {args.canaries} outside 1..{args.devices}"
            )
        boards = [board_by_name(args.board) for _ in range(args.devices)]
        publisher = build_fleet_publisher(
            boards=boards, implementation=args.impl, loss=args.loss,
            seed=args.seed)
    except Exception as error:
        print(f"publish error: {error}")
        return 1
    from repro.deploy import PublishOptions

    fleet = publisher.fleet
    base, poisoned, fixed = _canary_specs()
    canary_options = PublishOptions(canary_count=args.canaries,
                                    bake_us=args.bake_us,
                                    bake_fires=args.fires)

    def table(result) -> None:
        print(f"{'device':8} {'role':9} {'status':17} {'actions':>7} "
              f"{'wall ms':>8} {'cache':>12}")
        for row in result.rows():
            print(f"{row.device.name:8} {row.role:9} "
                  f"{row.result.status.value:17} {row.actions:>7} "
                  f"{row.wall_s * 1e3:>8.2f} "
                  f"{row.cache_hits:>4} hits/{row.cache_misses} miss")

    print(f"stage 1: publish {base.name!r} to all {args.devices} devices "
          f"(one signed manifest, seq {publisher.sequence + 1})")
    rollout = publisher.publish(base)
    table(rollout)
    converged = all(plan(device.engine, base).empty
                    for device in fleet.devices)
    print(f"  fleet converged off one publish: {converged}")

    print("\nstage 2: replay the same sequence (anti-rollback, per device)")
    replay = publisher.publish(
        base, PublishOptions(sequence_number=rollout.sequence_number))
    refused = all(row.result.status.value == "sequence-replay"
                  for row in replay.rows())
    print(f"  refused fleet-wide: {refused}")

    print("\nstage 3: republish the same spec under a new sequence")
    republish = publisher.publish(base)
    idempotent = (republish.ok
                  and all(row.actions == 0 for row in republish.rows()))
    print(f"  idempotent (zero actions everywhere): {idempotent}")

    print(f"\nstage 4: canary publish of {poisoned.name!r} "
          f"({args.canaries} canaries, health-gated)")
    bad = publisher.publish(poisoned, canary_options)
    print(f"  -> {'ROLLED BACK' if bad.rolled_back else 'PROMOTED'}: "
          f"{bad.reason}")
    controls = fleet.devices[args.canaries:]
    untouched = all(
        device.radio.worker.storage.highest_sequence(publisher.slot)
        < bad.sequence_number
        for device in controls)
    print(f"  control devices never saw the poisoned manifest: {untouched}")

    print(f"\nstage 5: canary publish of {fixed.name!r} (the fix)")
    good = publisher.publish(fixed, canary_options)
    print(f"  -> {'PROMOTED' if good.promoted else 'ROLLED BACK'}: "
          f"{good.reason}")
    fixed_converged = all(plan(device.engine, fixed).empty
                          for device in fleet.devices)
    print(f"  fleet converged on {fixed.name!r}: {fixed_converged}")
    ok = (rollout.ok and refused and idempotent
          and bad.rolled_back and untouched and good.promoted
          and fixed_converged)
    return 0 if ok else 1


def cmd_chaos(args: argparse.Namespace) -> int:
    """Chaos-hardened publish demo: crashes, loss bursts, self-healing."""
    from repro.deploy import CrashAt, FaultInjector, PublishOptions
    from repro.scenarios import build_fleet_publisher
    from repro.vm.imagecache import IMAGE_CACHE

    IMAGE_CACHE.clear()
    try:
        boards = [board_by_name(args.board) for _ in range(args.devices)]
        publisher = build_fleet_publisher(
            boards=boards, implementation=args.impl, loss=args.loss,
            seed=args.seed)
    except Exception as error:
        print(f"chaos error: {error}")
        return 1
    names = [device.name for device in publisher.fleet.devices]
    plan = FaultInjector.random_plan(
        names, seed=args.seed, horizon_us=args.horizon_us,
        crashes=args.crashes, bursts=args.bursts, stalls=args.stalls)
    publisher.chaos = injector = FaultInjector(plan)
    base, _, _ = _canary_specs()

    def table(result) -> None:
        print(f"{'device':8} {'status':17} {'retries':>7} {'reboots':>7} "
              f"{'wall ms':>8}")
        for row in result.rows():
            print(f"{row.device.name:8} {row.result.status.value:17} "
                  f"{row.retries:>7} {row.reboots:>7} "
                  f"{row.wall_s * 1e3:>8.2f}")

    print(f"stage 1: publish {base.name!r} to {args.devices} devices at "
          f"{args.loss:.0%} frame loss under a seeded fault plan "
          f"(seed {args.seed}: {args.crashes} crashes, {args.bursts} loss "
          f"bursts, {args.stalls} stalls)")
    for event in plan:
        print(f"  t={event.at_us / 1e3:8.1f}ms  {event}")
    rollout = publisher.publish(base)
    table(rollout)
    print(f"  converged: {rollout.ok}  "
          f"(reboots {rollout.total_reboots}, "
          f"re-triggers {rollout.total_retries})")
    print(f"  injector: crashes={injector.crashes} "
          f"reboots={injector.reboots} bursts={injector.bursts} "
          f"stalls={injector.stalls} quiescent={injector.quiescent}")

    print("\nstage 2: crash one device for good (it never reboots)")
    publisher.chaos = FaultInjector(
        [CrashAt(names[-1], at_us=1_000.0, down_us=None)])
    partial = publisher.publish(base, PublishOptions(max_windows=300))
    table(partial)
    unreachable = [row.device.name for row in partial.unreachable()]
    print(f"  converged: {partial.ok} "
          f"(unreachable: {', '.join(unreachable) or 'none'})")
    print("  degraded gracefully instead of raising: True")
    ok = (rollout.ok
          and injector.quiescent
          and not partial.ok
          and unreachable == [names[-1]]
          and all(row.ok for row in partial.rows()
                  if row.device.name != names[-1]))
    return 0 if ok else 1


def cmd_controlplane(args: argparse.Namespace) -> int:
    """Maintainer demo: sign → publish → add/evict devices → status."""
    from repro.deploy import PublishOptions
    from repro.scenarios import build_fleet_publisher
    from repro.suit.specworker import sign_spec
    from repro.vm.imagecache import IMAGE_CACHE

    IMAGE_CACHE.clear()  # measure from a cold cache, deterministically
    try:
        boards = [board_by_name(args.board) for _ in range(args.devices)]
        publisher = build_fleet_publisher(
            boards=boards, implementation=args.impl, loss=args.loss,
            seed=args.seed)
    except Exception as error:
        print(f"controlplane error: {error}")
        return 1
    fleet = publisher.fleet
    base, _, fixed = _canary_specs()

    sequence = publisher.sequence + 1
    envelope, payload = sign_spec(base, sequence, publisher.spec_uri,
                                  publisher.maintainer_seed,
                                  slot=publisher.slot)
    print(f"submitted release {base.name}@{sequence} "
          f"({len(envelope)} B envelope, {len(payload)} B payload)")
    result = publisher.publish(
        base, PublishOptions.scale(sequence_number=sequence))
    print(f"published via {'multicast' if result.multicast else 'unicast'} "
          f"trigger ({result.trigger_tx_bytes} B trigger airtime; "
          f"ack sample: {', '.join(result.mcast_acks) or 'none'})")
    print(f"  converged: {result.ok} "
          f"({len(result.rows())} devices, {result.wall_s * 1e3:.1f} ms wall)")

    late = publisher.add_device()
    print(f"\nregistered {late.name} at runtime (fleet size {len(fleet)})")
    update = publisher.publish(fixed, PublishOptions.scale())
    print(f"published {fixed.name!r} (seq {update.sequence_number}) "
          f"-> converged: {update.ok} on {len(update.rows())} devices")
    evicted = publisher.evict_device(late.name)
    print(f"evicted {evicted.name} (fleet size {len(fleet)})")

    print(f"\n{'device':8} {'board':12} {'seq':>4} {'spec':12} "
          f"{'reboots':>7} {'cycles':>12}")
    rows = list(publisher.status())
    for row in rows:
        print(f"{row.name:8} {row.board:12} {row.sequence:>4} "
              f"{str(row.spec):12} {row.reboots:>7} {row.cycles:>12}")
    consistent = all(row.sequence == update.sequence_number for row in rows)
    print(f"status rows consistent with last release: {consistent}")
    ok = result.ok and update.ok and consistent
    return 0 if ok else 1


def _fleet_parent() -> argparse.ArgumentParser:
    """Shared options for the fleet-shaped subcommands.

    ``fleet``, ``canary``, ``publish``, ``chaos`` and ``controlplane``
    all drive N simulated devices; this parent makes ``--devices``,
    ``--seed``, ``--loss``, ``--board`` and ``--impl`` spell and
    default identically across them.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--devices", type=int, default=4,
                        help="fleet size (default 4)")
    parent.add_argument("--seed", type=int, default=1234,
                        help="deterministic seed for radio loss dice, "
                             "suppression lotteries and fault plans")
    parent.add_argument("--loss", type=float, default=0.0,
                        help="radio frame-loss probability")
    parent.add_argument("--board", default="cortex-m4",
                        choices=sorted(BOARDS))
    parent.add_argument("--impl", default="jit",
                        choices=sorted(VM_CLASSES))
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Femto-Containers reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    fleet_parent = _fleet_parent()

    p_asm = sub.add_parser("asm", help="assemble eBPF text")
    p_asm.add_argument("source")
    p_asm.add_argument("-o", "--output")
    p_asm.set_defaults(fn=cmd_asm)

    p_cc = sub.add_parser("compile", help="compile femtoC source to eBPF")
    p_cc.add_argument("source")
    p_cc.add_argument("-o", "--output")
    p_cc.add_argument("-S", "--emit-asm", action="store_true",
                      help="emit assembly text instead of bytecode")
    p_cc.set_defaults(fn=cmd_compile)

    p_dis = sub.add_parser("disasm", help="disassemble bytecode")
    p_dis.add_argument("image")
    p_dis.set_defaults(fn=cmd_disasm)

    p_ver = sub.add_parser("verify", help="pre-flight check a program")
    p_ver.add_argument("image")
    p_ver.set_defaults(fn=cmd_verify)

    p_run = sub.add_parser("run", help="execute a program on a board model")
    p_run.add_argument("image")
    p_run.add_argument("--ctx", help="context struct as hex bytes")
    p_run.add_argument("--board", default="cortex-m4", choices=sorted(BOARDS))
    p_run.add_argument("--impl", default="femto-containers",
                       choices=sorted(VM_CLASSES))
    p_run.set_defaults(fn=cmd_run)

    p_boards = sub.add_parser("boards", help="list board models")
    p_boards.set_defaults(fn=cmd_boards)

    p_demo = sub.add_parser("demo", help="run the multi-tenant showcase")
    p_demo.set_defaults(fn=cmd_demo)

    p_fan = sub.add_parser(
        "fanout",
        help="multi-instance fan-out: K tenants x M instances of one image")
    p_fan.add_argument("--tenants", type=int, default=2)
    p_fan.add_argument("--instances", type=int, default=4,
                       help="instances per tenant")
    p_fan.add_argument("--fires", type=int, default=100,
                       help="hook firings to drive through the fan-out")
    p_fan.add_argument("--board", default="cortex-m4", choices=sorted(BOARDS))
    p_fan.add_argument("--impl", default="jit",
                       choices=sorted(VM_CLASSES))
    p_fan.set_defaults(fn=cmd_fanout)

    p_deploy = sub.add_parser(
        "deploy",
        help="plan+apply a declarative deployment spec on a fresh device")
    p_deploy.add_argument("spec",
                          help="spec JSON file or builtin name "
                               "(multi-tenant, fanout, wasm-checksum, "
                               "script-checksum, runtime-matrix)")
    p_deploy.add_argument("--board", default="cortex-m4",
                          choices=sorted(BOARDS))
    p_deploy.add_argument("--impl", default="femto-containers",
                          choices=sorted(VM_CLASSES))
    p_deploy.set_defaults(fn=cmd_deploy)

    p_fleet = sub.add_parser(
        "fleet", parents=[fleet_parent],
        help="apply one spec across N devices through the shared cache")
    p_fleet.add_argument("--tenants", type=int, default=2)
    p_fleet.add_argument("--instances", type=int, default=4,
                         help="instances per tenant")
    p_fleet.set_defaults(fn=cmd_fleet)

    p_canary = sub.add_parser(
        "canary", parents=[fleet_parent],
        help="canary fleet rollout: poisoned spec rolls back on the "
             "canary subset, the fixed spec promotes fleet-wide")
    p_canary.add_argument("--canaries", type=int, default=2,
                          help="devices in the canary subset")
    p_canary.add_argument("--bake-us", type=float, default=2_000_000.0,
                          help="virtual bake duration per canary (us)")
    p_canary.add_argument("--fires", type=int, default=5,
                          help="extra hook firings during the bake")
    p_canary.set_defaults(fn=cmd_canary)

    p_publish = sub.add_parser(
        "publish", parents=[fleet_parent],
        help="fleet-wide OTA publish over a shared radio link: fan-out, "
             "anti-rollback replay, idempotent republish, health-gated "
             "canary stage")
    p_publish.add_argument("--canaries", type=int, default=1,
                           help="devices in the canary subset")
    p_publish.add_argument("--bake-us", type=float, default=1_000_000.0,
                           help="virtual bake duration per canary (us)")
    p_publish.add_argument("--fires", type=int, default=3,
                           help="extra hook firings during the bake")
    p_publish.set_defaults(fn=cmd_publish)

    p_chaos = sub.add_parser(
        "chaos", parents=[fleet_parent],
        help="chaos-hardened publish: seeded crashes, loss bursts and "
             "stalls during a fleet OTA publish, plus a permanently dead "
             "device that degrades the result instead of raising")
    p_chaos.add_argument("--crashes", type=int, default=2)
    p_chaos.add_argument("--bursts", type=int, default=1,
                         help="link loss bursts in the plan")
    p_chaos.add_argument("--stalls", type=int, default=1)
    p_chaos.add_argument("--horizon-us", type=float, default=400_000.0,
                         help="virtual window the faults land in (us)")
    p_chaos.set_defaults(fn=cmd_chaos)

    p_plane = sub.add_parser(
        "controlplane", parents=[fleet_parent],
        help="maintainer lifecycle: sign a release, publish it with the "
             "fleet-scale profile (multicast trigger carrying the "
             "payload), add/evict wired devices at runtime, stream "
             "per-device status rows")
    p_plane.set_defaults(fn=cmd_controlplane)

    p_shell = sub.add_parser(
        "shell", help="run device-shell commands on the showcase device")
    p_shell.add_argument("commands", nargs="*",
                         help="commands to run (default: a status tour)")
    p_shell.set_defaults(fn=cmd_shell)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - module CLI entry
    sys.exit(main())
