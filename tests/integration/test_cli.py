"""CLI toolchain tests (``python -m repro``)."""

from __future__ import annotations

import argparse
import io
from contextlib import redirect_stdout

import pytest

from repro.cli import build_parser, main
from repro.core.container import VM_CLASSES

SOURCE = """
    mov r0, 40
    add r0, 2
    exit
"""

BAD_SOURCE = "mov r10, 1\n    exit\n"


@pytest.fixture
def asm_file(tmp_path):
    path = tmp_path / "prog.s"
    path.write_text(SOURCE)
    return path


def run_cli(*argv: str) -> tuple[int, str]:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(list(argv))
    return code, buffer.getvalue()


class TestCli:
    def test_asm_to_file_and_run(self, asm_file, tmp_path):
        out = tmp_path / "prog.bin"
        code, text = run_cli("asm", str(asm_file), "-o", str(out))
        assert code == 0 and out.exists()
        code, text = run_cli("run", str(out))
        assert code == 0
        assert "r0 = 42" in text

    def test_asm_hex_output(self, asm_file):
        code, text = run_cli("asm", str(asm_file))
        assert code == 0
        assert text.strip().startswith("b700000028000000")

    def test_run_directly_from_source(self, asm_file):
        code, text = run_cli("run", str(asm_file), "--board", "risc-v",
                             "--impl", "certfc")
        assert code == 0
        assert "r0 = 42" in text and "gd32vf103" in text

    def test_run_jit(self, asm_file):
        code, text = run_cli("run", str(asm_file), "--impl", "jit")
        assert code == 0 and "r0 = 42" in text

    def test_run_with_context(self, tmp_path):
        path = tmp_path / "ctx.s"
        path.write_text("ldxw r0, [r1+0]\n    exit\n")
        code, text = run_cli("run", str(path), "--ctx", "2a000000deadbeef")
        assert code == 0 and "r0 = 42" in text

    def test_run_reports_fault(self, tmp_path):
        path = tmp_path / "bad.s"
        path.write_text("lddw r1, 0x1\n    ldxb r0, [r1]\n    exit\n")
        code, text = run_cli("run", str(path))
        assert code == 1 and "FAULT" in text

    def test_verify_accepts_and_rejects(self, asm_file, tmp_path):
        code, text = run_cli("verify", str(asm_file))
        assert code == 0 and text.startswith("OK")
        bad = tmp_path / "bad.s"
        bad.write_text(BAD_SOURCE)
        code, text = run_cli("verify", str(bad))
        assert code == 1 and "REJECTED" in text

    def test_disasm_roundtrip(self, asm_file, tmp_path):
        out = tmp_path / "prog.bin"
        run_cli("asm", str(asm_file), "-o", str(out))
        code, text = run_cli("disasm", str(out))
        assert code == 0
        assert "mov r0, 40" in text and "exit" in text

    def test_boards_listing(self):
        code, text = run_cli("boards")
        assert code == 0
        for name in ("cortex-m4", "esp32", "risc-v"):
            assert name in text

    def test_demo_runs(self):
        code, text = run_cli("demo")
        assert code == 0
        assert "sensor average over CoAP" in text

    def test_fanout_scenario(self):
        code, text = run_cli("fanout", "--tenants", "2", "--instances", "3",
                             "--fires", "10")
        assert code == 0
        assert "attached 6 instances (2 tenants x 3)" in text
        assert "compiled templates shared: 1 (for 6 instances)" in text
        assert "-> 60 container runs" in text

    def test_fanout_interpreter_impl(self):
        code, text = run_cli("fanout", "--tenants", "1", "--instances", "2",
                             "--fires", "1", "--impl", "femto-containers")
        assert code == 0
        assert "attached 2 instances" in text
        assert "image cache:" in text

    def test_deploy_builtin_spec(self):
        code, text = run_cli("deploy", "multi-tenant")
        assert code == 0
        assert "create-tenant tenant-a" in text
        assert "install" in text and "sensor" in text
        assert "re-plan: 0 actions (converged)" in text

    def test_deploy_spec_file(self, tmp_path):
        import json

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "name": "file-spec",
            "tenants": ["alice"],
            "images": {"seven": {"asm": "mov r0, 7\n    exit"}},
            "attachments": [{"image": "seven", "hook": "fc.hook.timer",
                             "tenant": "alice", "name": "sevener"}],
        }))
        code, text = run_cli("deploy", str(spec_path), "--impl", "jit")
        assert code == 0
        assert "spec 'file-spec' -> 2 actions" in text
        assert "sevener" in text and "converged" in text

    def test_deploy_unknown_spec(self):
        code, text = run_cli("deploy", "no-such-spec")
        assert code == 1 and "deploy error" in text

    def test_fleet_rejects_bad_sizes(self):
        code, text = run_cli("fleet", "--devices", "0")
        assert code == 1 and "fleet error" in text
        code, text = run_cli("fleet", "--instances", "0")
        assert code == 1 and "fleet error" in text

    def test_fleet_rollout(self):
        code, text = run_cli("fleet", "--devices", "3", "--tenants", "2",
                             "--instances", "2")
        assert code == 0
        assert "dev0" in text and "dev2" in text
        warm = [line for line in text.splitlines()
                if line.startswith(("dev1 ", "dev2 "))]
        assert len(warm) == 2
        assert all(line.endswith("/0 miss") for line in warm)
        assert "modelled cycles identical across devices: True" in text
        assert "12 containers on 3 devices" in text

    def test_canary_demo(self):
        code, text = run_cli("canary", "--devices", "4", "--canaries", "1",
                             "--bake-us", "600000", "--fires", "2")
        assert code == 0
        assert "ROLLED BACK" in text and "faults during bake" in text
        assert "non-canary devices untouched: True" in text
        assert "canaries reconverged on 'canary-base': True" in text

    def test_publish_demo(self):
        code, text = run_cli("publish", "--devices", "3", "--canaries", "1",
                             "--bake-us", "400000", "--fires", "2")
        assert code == 0
        assert "fleet converged off one publish: True" in text
        assert "refused fleet-wide: True" in text
        assert "idempotent (zero actions everywhere): True" in text
        assert "ROLLED BACK" in text
        assert "control devices never saw the poisoned manifest: True" in text
        assert "fleet converged on 'canary-fix': True" in text

    def test_chaos_demo(self):
        code, text = run_cli("chaos", "--devices", "3", "--seed", "11",
                             "--loss", "0.10", "--crashes", "1",
                             "--bursts", "1", "--stalls", "0")
        assert code == 0
        assert "seeded fault plan" in text
        assert "converged: True" in text
        assert "quiescent=True" in text
        assert "converged: False (unreachable: dev2)" in text
        assert "degraded gracefully instead of raising: True" in text

    def test_chaos_rejects_bad_device_count(self):
        code, text = run_cli("chaos", "--devices", "0")
        assert code == 1 and "chaos error" in text

    def test_publish_rejects_bad_canary_count(self):
        code, text = run_cli("publish", "--devices", "2", "--canaries", "3")
        assert code == 1 and "publish error" in text

    def test_canary_rejects_bad_sizes(self):
        code, text = run_cli("canary", "--devices", "2", "--canaries", "5")
        assert code == 1 and "canary error" in text

    def test_compile_and_run_femtoc(self, tmp_path):
        source = tmp_path / "app.fc"
        source.write_text("var a = 6;\nreturn a * 7;\n")
        out = tmp_path / "app.bin"
        code, text = run_cli("compile", str(source), "-o", str(out))
        assert code == 0 and out.exists()
        code, text = run_cli("run", str(out))
        assert code == 0 and "r0 = 42" in text

    def test_compile_emit_asm(self, tmp_path):
        source = tmp_path / "app.fc"
        source.write_text("return 1 + 2;\n")
        code, text = run_cli("compile", str(source), "-S")
        assert code == 0
        assert "exit" in text

    def test_compile_error_reported(self, tmp_path):
        source = tmp_path / "bad.fc"
        source.write_text("return ghost;\n")
        code, text = run_cli("compile", str(source))
        assert code == 1 and "compile error" in text

    def test_shell_default_tour(self):
        code, text = run_cli("shell")
        assert code == 0
        for marker in ("> uptime", "> ps", "> fc list", "total:"):
            assert marker in text

    def test_shell_custom_commands(self):
        code, text = run_cli("shell", "hooks", "kv tenant tenant-a")
        assert code == 0
        assert "fc.hook.sched" in text
        assert "0x00000010" in text


def _impl_choices(command: str) -> list[str]:
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    parser = subparsers.choices[command]
    return next(action.choices for action in parser._actions
                if "--impl" in action.option_strings)


class TestImplChoices:
    """Every ``--impl`` list is the engine's own VM table."""

    @pytest.mark.parametrize("command", [
        "run", "fanout", "deploy", "fleet", "canary", "publish", "chaos",
        "controlplane",
    ])
    def test_impl_choices_are_the_engine_vm_classes(self, command):
        assert _impl_choices(command) == sorted(VM_CLASSES)

    @pytest.mark.parametrize("impl", sorted(VM_CLASSES))
    def test_run_every_impl(self, asm_file, impl):
        code, text = run_cli("run", str(asm_file), "--impl", impl)
        assert code == 0
        assert "r0 = 42" in text
        assert "3 instructions, 0 taken branches" in text
        assert f"[{impl}]" in text

    @pytest.mark.parametrize("impl", sorted(VM_CLASSES))
    def test_deploy_every_impl(self, impl):
        code, text = run_cli("deploy", "multi-tenant", "--impl", impl)
        assert code == 0
        assert f"5 actions on nrf52840 [{impl}]" in text
        assert "applied: 3 containers attached" in text
        assert "re-plan: 0 actions (converged)" in text
