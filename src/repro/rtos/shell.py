"""RIOT-style device shell for inspection and management.

RIOT firmwares ship a serial shell (``ps``, ``saul``, ``suit`` commands);
operators use it to inspect fleets in the lab.  This shell exposes the
reproduction's equivalents over a scriptable interface: feed a command
line, get the output text.  The CLI's interactive mode and the tests both
drive it.

Commands::

    help                      list commands
    ps                        thread table (pid, name, prio, state, runs)
    uptime                    virtual clock
    hooks                     launchpads and their containers
    fc list                   containers with image hash and accounting
    fc detach <name>          remove a container from its hook
    fc faults <name>          show a container's contained faults
    kv global [key]           dump / read the global store
    kv tenant <tenant> [key]  dump / read a tenant store
    saul                      registered devices and read their values
    ram                       engine RAM accounting (§10.3 view)
    trace                     drained bpf_printf output
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import HostingEngine


class DeviceShell:
    """One device's management shell."""

    def __init__(self, engine: "HostingEngine"):
        self.engine = engine
        self.kernel = engine.kernel
        self._commands: dict[str, Callable[[list[str]], str]] = {
            "help": self._cmd_help,
            "ps": self._cmd_ps,
            "uptime": self._cmd_uptime,
            "hooks": self._cmd_hooks,
            "fc": self._cmd_fc,
            "kv": self._cmd_kv,
            "saul": self._cmd_saul,
            "ram": self._cmd_ram,
            "trace": self._cmd_trace,
        }

    def execute(self, line: str) -> str:
        """Run one command line; always returns text, never raises."""
        parts = line.split()
        if not parts:
            return ""
        command = self._commands.get(parts[0])
        if command is None:
            return f"shell: unknown command {parts[0]!r} (try 'help')"
        try:
            return command(parts[1:])
        except Exception as exc:  # the shell must never crash the device
            return f"shell: error: {exc}"

    # -- commands ------------------------------------------------------------

    def _cmd_help(self, _args: list[str]) -> str:
        return "commands: " + " ".join(sorted(self._commands))

    def _cmd_ps(self, _args: list[str]) -> str:
        lines = [f"{'pid':>4} {'name':20} {'prio':>4} {'state':10} {'runs':>6}"]
        for pid, thread in sorted(self.kernel.threads.items()):
            lines.append(
                f"{pid:>4} {thread.name:20} {thread.priority:>4} "
                f"{thread.state.value:10} {thread.activations:>6}"
            )
        return "\n".join(lines)

    def _cmd_uptime(self, _args: list[str]) -> str:
        clock = self.kernel.clock
        return (f"up {clock.time_ms:.3f} ms "
                f"({clock.cycles} cycles @ {clock.mhz} MHz)")

    def _cmd_hooks(self, _args: list[str]) -> str:
        lines = []
        for hook in self.engine.hooks.values():
            names = ", ".join(c.name for c in hook.containers) or "-"
            lines.append(
                f"{hook.name:24} mode={hook.mode.value:6} "
                f"fires={hook.fires:<6} containers: {names}"
            )
        return "\n".join(lines)

    def _cmd_fc(self, args: list[str]) -> str:
        if not args or args[0] == "list":
            # The image column shows the content-hash prefix: instances
            # stamped from one image share it (and, through the image
            # cache, share one verify report and one JIT template).
            # The strikes/state columns surface the supervisor's verdict
            # per slot; quarantined slots are *detached*, so they get
            # their own rows below the live containers.
            supervisor = self.engine.supervisor
            lines = [f"{'name':20} {'tenant':10} {'hook':24} "
                     f"{'runtime':8} "
                     f"{'image':12} {'runs':>6} {'faults':>6} {'ram B':>6} "
                     f"{'strikes':>7} {'state':>11}"]
            for container in self.engine.containers():
                tenant = container.tenant.name if container.tenant else "-"
                hook = container.hook.name if container.hook else "-"
                runtime = container.program.runtime
                health = (supervisor.health(hook, container.name)
                          if container.hook else None)
                lines.append(
                    f"{container.name:20} {tenant:10} {hook:24} "
                    f"{runtime:8} "
                    f"{container.image_hash[:12]} "
                    f"{container.runs:>6} {container.fault_count:>6} "
                    f"{container.ram_bytes:>6} "
                    f"{health.strikes if health else 0:>7} "
                    f"{health.state if health else 'ok':>11}"
                )
            listed = {(c.hook.name, c.name)
                      for c in self.engine.containers() if c.hook}
            for (hook_name, name), record in sorted(
                    supervisor.counters().items()):
                if not record.quarantined or (hook_name, name) in listed:
                    continue
                detained = record.container
                tenant = (detained.tenant.name if detained.tenant
                          else "-")
                runtime = detained.program.runtime
                lines.append(
                    f"{name:20} {tenant:10} {hook_name:24} "
                    f"{runtime:8} "
                    f"{detained.image_hash[:12]} "
                    f"{detained.runs:>6} {detained.fault_count:>6} "
                    f"{detained.ram_bytes:>6} "
                    f"{record.strikes:>7} {record.state:>11}"
                )
            return "\n".join(lines)
        if args[0] == "detach" and len(args) == 2:
            for container in self.engine.containers():
                if container.name == args[1]:
                    self.engine.detach(container)
                    return f"detached {args[1]}"
            return f"no container named {args[1]!r}"
        if args[0] == "faults" and len(args) == 2:
            for container in self.engine.containers():
                if container.name == args[1]:
                    if not container.faults:
                        return "no faults"
                    return "\n".join(
                        f"[{f.at_cycles}] {f.kind}: {f.message}"
                        for f in container.faults
                    )
            return f"no container named {args[1]!r}"
        return "usage: fc [list|detach <name>|faults <name>]"

    def _cmd_kv(self, args: list[str]) -> str:
        if not args:
            return "usage: kv global [key] | kv tenant <name> [key]"
        if args[0] == "global":
            store = self.engine.global_store
            rest = args[1:]
        elif args[0] == "tenant" and len(args) >= 2:
            tenant = self.engine.tenants.get(args[1])
            if tenant is None:
                return f"no tenant {args[1]!r}"
            store = tenant.store
            rest = args[2:]
        else:
            return "usage: kv global [key] | kv tenant <name> [key]"
        if rest:
            key = int(rest[0], 0)
            return f"{key} = {store.fetch(key)}"
        if not len(store):
            return "(empty)"
        return "\n".join(
            f"0x{key:08x} = {value}"
            for key, value in sorted(store.snapshot().items())
        )

    def _cmd_saul(self, _args: list[str]) -> str:
        registry = self.engine.saul
        if not len(registry):
            return "(no devices)"
        lines = []
        for index in range(len(registry)):
            device = registry.find_nth(index)
            data = device.read()
            lines.append(
                f"#{index} {device.name:12} class=0x{device.device_class:02x} "
                f"value={data.value} scale={data.scale} {data.unit}"
            )
        return "\n".join(lines)

    def _cmd_ram(self, _args: list[str]) -> str:
        engine = self.engine
        lines = [f"stores + housekeeping: {engine.store_ram_bytes()} B"]
        for container in engine.containers():
            vm_bytes = container.vm.ram_bytes if container.vm else 0
            lines.append(
                f"  {container.name:20} instance={vm_bytes} B "
                f"image={container.program.image_size} B"
            )
        lines.append(f"total: {engine.total_ram_bytes()} B")
        return "\n".join(lines)

    def _cmd_trace(self, _args: list[str]) -> str:
        if not self.engine.trace_log:
            return "(no trace output)"
        drained = "\n".join(self.engine.trace_log)
        self.engine.trace_log.clear()
        return drained
