"""Device-shell tests."""

from __future__ import annotations

import pytest

from repro.core import (
    FC_HOOK_SCHED,
    FC_HOOK_TIMER,
    ContainerState,
    HostingEngine,
)
from repro.rtos import Kernel, Sleep, synthetic_temperature
from repro.rtos.shell import DeviceShell
from repro.vm import assemble
from repro.vm.supervisor import SupervisorConfig


@pytest.fixture
def shell(engine, kernel):
    return DeviceShell(engine)


def populate(engine, kernel):
    tenant = engine.create_tenant("alice")
    container = engine.load(
        assemble("mov r0, 7\n    exit"), tenant=tenant, name="sevener")
    engine.attach(container, FC_HOOK_TIMER)
    engine.execute(container)
    engine.global_store.store(3, 99)
    tenant.store.store(1, 11)
    return container


def quarantined(board):
    """An engine whose supervisor has just quarantined ``bad``."""
    engine = HostingEngine(Kernel(board),
                           supervisor=SupervisorConfig(fault_streak=1))
    bad = engine.attach(engine.load(assemble(
        "lddw r1, 0x1\n    ldxb r0, [r1]\n    exit"), name="bad"),
        FC_HOOK_TIMER)
    engine.execute(bad)
    assert bad.state is ContainerState.DETACHED
    return engine, bad


class TestShell:
    def test_help_lists_commands(self, shell):
        text = shell.execute("help")
        for command in ("ps", "fc", "kv", "saul", "ram", "trace"):
            assert command in text

    def test_unknown_command(self, shell):
        assert "unknown command" in shell.execute("reboot")

    def test_empty_line(self, shell):
        assert shell.execute("   ") == ""

    def test_ps_lists_threads(self, shell, kernel):
        def idle(thread):
            yield Sleep(10)

        kernel.create_thread("worker", idle, priority=3)
        text = shell.execute("ps")
        assert "worker" in text and "ready" in text

    def test_uptime(self, shell, kernel):
        kernel.clock.charge_us(1500)
        assert "1.500 ms" in shell.execute("uptime")

    def test_hooks_listing(self, shell, engine, kernel):
        populate(engine, kernel)
        text = shell.execute("hooks")
        assert FC_HOOK_SCHED in text
        assert "sevener" in text

    def test_fc_list_and_detach(self, shell, engine, kernel):
        populate(engine, kernel)
        text = shell.execute("fc list")
        assert "sevener" in text and "alice" in text
        assert shell.execute("fc detach sevener") == "detached sevener"
        assert "sevener" not in shell.execute("hooks").split("containers")[0] \
            or not engine.hook(FC_HOOK_TIMER).containers

    def test_fc_detach_unknown(self, shell):
        assert "no container" in shell.execute("fc detach ghost")

    def test_fc_list_shows_image_hash_prefix(self, shell, engine, kernel):
        """Operators can see instance/image sharing on-device: containers
        stamped from one image show the same content-hash prefix."""
        container = populate(engine, kernel)
        twin = engine.load(
            assemble("mov r0, 7\n    exit"), name="sevener-twin")
        engine.attach(twin, FC_HOOK_TIMER)
        other = engine.load(assemble("mov r0, 8\n    exit"), name="eighter")
        engine.attach(other, FC_HOOK_TIMER)

        text = shell.execute("fc list")
        assert "image" in text.splitlines()[0]
        rows = {line.split()[0]: line for line in text.splitlines()[1:]}
        prefix = container.image_hash[:12]
        assert prefix in rows["sevener"]
        assert prefix in rows["sevener-twin"]  # same image, same prefix
        assert other.image_hash[:12] in rows["eighter"]
        assert other.image_hash[:12] != prefix

    def test_fc_list_shows_supervisor_state(self, shell, engine, kernel):
        """Quarantined slots stay visible: the supervisor detached them,
        but operators still see the row with its strikes and state."""
        populate(engine, kernel)
        header = shell.execute("fc list").splitlines()[0]
        assert "strikes" in header and "state" in header
        bad = engine.load(assemble(
            "lddw r1, 0x1\n    ldxb r0, [r1]\n    exit"), name="crasher")
        engine.attach(bad, FC_HOOK_TIMER)
        for _ in range(engine.supervisor.config.fault_streak):
            engine.execute(bad)
        text = shell.execute("fc list")
        rows = {line.split()[0]: line for line in text.splitlines()[1:]}
        assert "quarantined" in rows["crasher"]
        assert rows["sevener"].rstrip().endswith("ok")

    def test_fc_faults(self, shell, engine, kernel):
        bad = engine.load(assemble(
            "lddw r1, 0x1\n    ldxb r0, [r1]\n    exit"), name="crasher")
        engine.attach(bad, FC_HOOK_TIMER)
        engine.execute(bad)
        text = shell.execute("fc faults crasher")
        assert "MemoryFault" in text
        assert shell.execute("fc faults sevener") != ""

    def test_fc_faults_reaches_a_quarantined_container(self, board_m4):
        engine, _bad = quarantined(board_m4)
        shell = DeviceShell(engine)
        assert "quarantined" in shell.execute("fc list")
        assert "MemoryFault" in shell.execute("fc faults bad")

    def test_fc_detach_keeps_a_quarantined_container_out(self, board_m4):
        """Detaching a quarantined container cancels its probation: it
        leaves the listing and no timer attaches it again."""
        engine, bad = quarantined(board_m4)
        shell = DeviceShell(engine)
        assert shell.execute("fc detach bad") == "detached bad"
        assert "bad" not in shell.execute("fc list")
        engine.kernel.run(until_us=engine.kernel.now_us + 60_000_000.0)
        assert bad.state is ContainerState.DETACHED
        assert engine.hook(FC_HOOK_TIMER).containers == []
        assert engine.supervisor.quarantined_slots() == []
        assert "bad" not in shell.execute("fc list")

    def test_fc_reaches_each_of_two_same_named_containers(self, shell,
                                                          engine):
        """``fc list`` numbers its rows and ``#N`` picks one; a shared
        name answers with the matching rows and acts on nothing."""
        clean = engine.attach(engine.load(assemble("mov r0, 7\n    exit"),
                                          name="app"), FC_HOOK_SCHED)
        crasher = engine.attach(engine.load(assemble(
            "lddw r1, 0x1\n    ldxb r0, [r1]\n    exit"), name="app"),
            FC_HOOK_SCHED)
        for _ in range(2):
            engine.fire_hook(FC_HOOK_SCHED, bytes(16))
        rows = shell.execute("fc list").splitlines()[1:]
        assert [row.split()[:2] for row in rows] == [["app", "#1"],
                                                     ["app", "#2"]]
        assert rows[1].split()[7] == "2"  # the crasher's faults column

        for verb in ("faults", "detach"):
            answer = shell.execute(f"fc {verb} app")
            assert answer.startswith("2 containers named 'app'")
            assert [line.split()[1] for line in answer.splitlines()[2:]] \
                == ["#1", "#2"]
        assert engine.hook(FC_HOOK_SCHED).containers == [clean, crasher]

        assert shell.execute("fc faults #1") == "no faults"
        assert "MemoryFault" in shell.execute("fc faults #2")
        assert shell.execute("fc detach #2") == "detached app"
        assert engine.hook(FC_HOOK_SCHED).containers == [clean]
        assert crasher.state is ContainerState.DETACHED
        assert shell.execute("fc faults app") == "no faults"
        assert shell.execute("fc detach #2") == "no container #2"

    def test_kv_dump_and_read(self, shell, engine, kernel):
        populate(engine, kernel)
        assert "0x00000003 = 99" in shell.execute("kv global")
        assert shell.execute("kv global 3") == "3 = 99"
        assert "0x00000001 = 11" in shell.execute("kv tenant alice")
        assert "no tenant" in shell.execute("kv tenant bob")

    def test_kv_empty(self, shell):
        assert shell.execute("kv global") == "(empty)"

    def test_saul(self, shell, engine, kernel):
        assert shell.execute("saul") == "(no devices)"
        engine.saul.register(synthetic_temperature(kernel))
        text = shell.execute("saul")
        assert "nrf_temp" in text and "class=0x82" in text

    def test_ram_accounting(self, shell, engine, kernel):
        populate(engine, kernel)
        text = shell.execute("ram")
        assert "sevener" in text and "total:" in text

    def test_trace_drains(self, shell, engine, kernel):
        engine.trace_log.append("hello from a container")
        assert "hello" in shell.execute("trace")
        assert shell.execute("trace") == "(no trace output)"

    def test_shell_never_raises(self, shell):
        for line in ("kv", "kv tenant", "fc bogus", "kv global notanint"):
            text = shell.execute(line)
            assert isinstance(text, str)
