"""Command-line interface: ``python -m repro <command>``.

Small developer tools around the library:

* ``asm IN.s [-o OUT.bin]``     — assemble eBPF text to bytecode;
* ``compile IN.fc [-o OUT.bin]`` — compile femtoC source to eBPF;
* ``disasm IN.bin``             — disassemble bytecode to text;
* ``verify IN.bin``             — run the pre-flight checker;
* ``run IN.s|IN.bin [--ctx HEX] [--board NAME] [--impl NAME]``
                                — execute a program on a simulated board;
* ``boards``                    — list board models;
* ``shell [CMD...]``            — run device-shell commands (``fc list``,
                                  ``ps``, ...) on the showcase device;
* ``fanout``                    — multi-instance fan-out: K tenants x M
                                  instances of one image on one hook,
                                  reporting attach times and image-cache
                                  hit rates;
* ``deploy SPEC``               — declarative deployment: plan+apply a
                                  spec (JSON file or builtin name) onto a
                                  fresh device, then re-plan to show
                                  convergence;
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

Each demo story has one home.  ``publish``, ``chaos`` and
``controlplane`` are the CI gates for the radio stories; the
multi-tenant CoAP sensor, one spec across a fleet and the in-process
canary rollout are told by ``examples/networked_sensor.py``,
``examples/declarative_fleet.py`` and ``examples/canary_rollout.py``.

The fleet-shaped subcommands (``publish``, ``chaos``, ``controlplane``)
share one parent parser, so ``--devices``, ``--seed``, ``--loss``,
``--board`` and ``--impl`` spell and default identically everywhere.
Every verb that reads user input reports bad input as one
``<verb> error: ...`` line and exits 1.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from repro.core.container import VM_CLASSES
from repro.core.errors import EngineError
from repro.deploy.spec import SpecError
from repro.femtoc import CompileError
from repro.rtos.board import BOARDS, board_by_name
from repro.runtimes.script import ScriptSyntaxError
from repro.runtimes.wasm import WasmError
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

#: Bad input: a missing file, malformed text or bytecode, femtoC that
#: does not compile, a non-hex ``--ctx``, an image the JIT's verifier
#: rejects, an undecodable or inconsistent deployment spec, a Wasm or
#: script image that does not parse, a container the device refuses to
#: attach, or an out-of-range size such as ``--devices 0``.
_INPUT_ERRORS = (OSError, ValueError, AssemblerError, EncodingError,
                 VerificationError, CompileError, SpecError, EngineError,
                 WasmError, ScriptSyntaxError)


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


@_reports_input_errors
def cmd_compile(args: argparse.Namespace) -> int:
    from repro.femtoc import compile_source

    program = compile_source(Path(args.source).read_text(),
                             name=Path(args.source).stem)
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


@_reports_input_errors
def cmd_fanout(args: argparse.Namespace) -> int:
    """Run the multi-instance fan-out scenario and report cache effect."""
    import time

    from repro.scenarios import build_fanout_device
    from repro.vm.imagecache import IMAGE_CACHE

    if args.tenants < 1 or args.instances < 1:
        raise ValueError(
            f"--tenants {args.tenants} and --instances {args.instances} "
            "must both be at least 1")
    if args.fires < 0:
        raise ValueError(f"--fires {args.fires} must not be negative")
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
    print(f"image: {device.image.name!r} "
          f"({device.image.image_hash[:12]}..., "
          f"{device.image.code_size} B text)")
    print(f"attached {instances} instances "
          f"({args.tenants} tenants x {args.instances}) "
          f"in {attach_s * 1e3:.2f} ms on {board.name} [{args.impl}]")
    if args.impl == "jit":
        print(f"compiled templates shared: {device.shared_templates()} "
              f"(for {instances} instances)")
    print(f"image cache: {IMAGE_CACHE.hits} hits / {IMAGE_CACHE.misses} "
          f"misses ({len(IMAGE_CACHE)} prototypes cached)")
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
        try:
            return DeploymentSpec.from_json(json.loads(path.read_text()))
        except Exception as error:  # any undecodable document is bad input
            raise SpecError(str(error)) from error
    if argument in BUILTIN_SPECS:
        return builtin_spec(argument)
    raise FileNotFoundError(
        f"{argument!r} is neither a spec file nor a builtin spec "
        f"(builtins: {', '.join(sorted(BUILTIN_SPECS))})"
    )


@_reports_input_errors
def cmd_deploy(args: argparse.Namespace) -> int:
    """Converge a fresh device onto a declarative deployment spec."""
    from repro.core import HostingEngine
    from repro.deploy import apply, plan
    from repro.rtos import Kernel

    spec = _resolve_spec(args.spec)
    board = board_by_name(args.board)
    engine = HostingEngine(Kernel(board), implementation=args.impl)
    deployment = plan(engine, spec)
    print(f"spec {spec.name!r} -> {len(deployment.actions)} actions "
          f"on {board.name} [{args.impl}]:")
    print(deployment.describe())
    result = apply(engine, deployment)
    print(f"applied: {len(result.attached)} containers attached, "
          f"{len(result.tenants_created)} tenants created, "
          f"{result.cycles_charged} cycles charged "
          f"({board.us(result.cycles_charged):.1f} us modelled)")
    replan = plan(engine, spec)
    print(f"re-plan: {len(replan.actions)} actions "
          f"({'converged' if replan.empty else 'NOT converged'})")
    return 0 if replan.empty else 1


def _fleet_publisher(args: argparse.Namespace):
    """A radio-wired fleet from the shared fleet options, cold cache."""
    from repro.scenarios import build_fleet_publisher
    from repro.vm.imagecache import IMAGE_CACHE

    IMAGE_CACHE.clear()  # measure from a cold cache, deterministically
    boards = [board_by_name(args.board) for _ in range(args.devices)]
    return build_fleet_publisher(boards=boards, implementation=args.impl,
                                 loss=args.loss, seed=args.seed)


def _canary_specs():
    """Baseline, poisoned and fixed specs for the fleet demos.

    ``publish`` uses all three, ``chaos`` the baseline, and
    ``controlplane`` the baseline and the fix.

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


@_reports_input_errors
def cmd_publish(args: argparse.Namespace) -> int:
    """Fleet-wide OTA publish demo: radio fan-out, replay, canary gate."""
    from repro.deploy import PublishOptions, plan

    if not 1 <= args.canaries <= args.devices:
        raise ValueError(
            f"--canaries {args.canaries} outside 1..{args.devices}")
    publisher = _fleet_publisher(args)
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


@_reports_input_errors
def cmd_chaos(args: argparse.Namespace) -> int:
    """Chaos-hardened publish demo: crashes, loss bursts, self-healing."""
    from repro.deploy import CrashAt, FaultInjector, PublishOptions

    publisher = _fleet_publisher(args)
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


@_reports_input_errors
def cmd_controlplane(args: argparse.Namespace) -> int:
    """Maintainer demo: sign → publish → add/evict devices → status."""
    from repro.deploy import PublishOptions
    from repro.suit.specworker import sign_spec

    publisher = _fleet_publisher(args)
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

    ``publish``, ``chaos`` and ``controlplane`` all drive N simulated
    devices; this parent makes ``--devices``, ``--seed``, ``--loss``,
    ``--board`` and ``--impl`` spell and default identically across
    them.
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
