"""The ContainerRuntime registry: one engine hosting three runtimes.

The tentpole contract of the multi-runtime deploy plane:

* the registry resolves runtime tags to :class:`ContainerRuntime`
  implementations (and refuses unknown tags);
* runtime-tagged content addressing — the same bytes under two runtimes
  are two *distinct* images, while rBPF keeps its historical untagged
  hash so seed-era content addresses are unchanged;
* modelled cycles for Wasm and script containers come from their §6
  profiles, so they are identical across engine implementations (the
  engine implementation choice only governs the rBPF cost model);
* attach charges each runtime's startup cost (JIT/verify for rBPF,
  module instantiation for Wasm, parsing for script);
* broken payloads are refused at decode/attach, exactly like an rBPF
  image that fails pre-flight verification.
"""

from __future__ import annotations

import pytest

from repro.core import FC_HOOK_FANOUT, HostingEngine
from repro.core.hooks import Hook, HookMode
from repro.deploy import ImageSpec
from repro.rtos import Kernel
from repro.runtimes import (
    RUNTIME_RBPF,
    RUNTIME_SCRIPT,
    RUNTIME_WASM,
    MICROPYTHON_PROFILE,
    WASM3_PROFILE,
    UnknownRuntimeError,
    container_runtime,
    runtime_names,
)
from repro.runtimes.script import tokenize
from repro.runtimes.sources import SCRIPT_FLETCHER32_PY, WASM_FLETCHER32
from repro.vm import assemble
from repro.vm.imagecache import IMAGE_CACHE
from repro.workloads import FLETCHER32_INPUT, fletcher32_reference

IMPLEMENTATIONS = ("rbpf", "femto-containers", "certfc", "jit")


@pytest.fixture(autouse=True)
def fresh_cache():
    IMAGE_CACHE.clear()
    yield
    IMAGE_CACHE.clear()


def engine_with(spec: ImageSpec, implementation: str = "jit",
                name: str = "app") -> tuple[HostingEngine, object]:
    engine = HostingEngine(Kernel(), implementation=implementation)
    engine.register_hook(Hook(FC_HOOK_FANOUT, mode=HookMode.SYNC))
    container = engine.load(spec.instantiate(name), name=name)
    engine.attach(container, FC_HOOK_FANOUT)
    return engine, container


class TestRegistry:
    def test_builtin_runtimes_resolve(self):
        assert container_runtime(RUNTIME_RBPF).name == "rbpf"
        assert container_runtime(RUNTIME_WASM).name == "wasm"
        assert container_runtime(RUNTIME_SCRIPT).name == "script"

    def test_resolution_is_cached(self):
        assert container_runtime("wasm") is container_runtime("wasm")

    def test_unknown_tag_refused(self):
        with pytest.raises(UnknownRuntimeError, match="lua"):
            container_runtime("lua")

    def test_runtime_names_lists_builtins(self):
        assert {"rbpf", "wasm", "script"} <= runtime_names()

    def test_rom_footprints_follow_profiles(self):
        from repro.runtimes.profiles import WASM3_ROM

        assert container_runtime("wasm").rom_bytes == WASM3_ROM
        assert (container_runtime("script").rom_bytes
                == MICROPYTHON_PROFILE.rom_bytes)


class TestContentAddressing:
    def test_same_bytes_two_runtimes_two_images(self):
        payload = SCRIPT_FLETCHER32_PY.encode()
        script = ImageSpec(name="x", text=payload, runtime="script")
        wasm = ImageSpec(name="x", text=payload, runtime="wasm")
        assert script.image_hash != wasm.image_hash

    def test_rbpf_hash_is_the_historical_untagged_hash(self):
        program = assemble("mov r0, 7\n    exit")
        spec = ImageSpec.from_program(program)
        assert spec.image_hash == program.image_hash

    def test_instance_hash_matches_spec_hash(self):
        for spec in (ImageSpec.from_wasm(WASM_FLETCHER32),
                     ImageSpec.from_script(SCRIPT_FLETCHER32_PY)):
            assert spec.instantiate().image_hash == spec.image_hash


class TestProfileCycles:
    """Wasm/script cost models are engine-implementation-independent."""

    @pytest.mark.parametrize("spec", [
        ImageSpec.from_wasm(WASM_FLETCHER32, name="wasm-sum"),
        ImageSpec.from_script(SCRIPT_FLETCHER32_PY, name="script-sum"),
    ], ids=["wasm", "script"])
    def test_cycles_identical_across_implementations(self, spec):
        ref = fletcher32_reference(FLETCHER32_INPUT)
        observed = set()
        for implementation in IMPLEMENTATIONS:
            engine, container = engine_with(spec, implementation)
            run = engine.execute(container,
                                 context=bytearray(FLETCHER32_INPUT))
            assert run.ok and run.value == ref
            observed.add(run.cycles)
        assert len(observed) == 1

    def test_wasm_attach_charges_instantiation(self):
        spec = ImageSpec.from_wasm(WASM_FLETCHER32)
        engine = HostingEngine(Kernel())
        engine.register_hook(Hook(FC_HOOK_FANOUT, mode=HookMode.SYNC))
        container = engine.load(spec.instantiate(), name="w")
        before = engine.kernel.clock.cycles
        engine.attach(container, FC_HOOK_FANOUT)
        charged = engine.kernel.clock.cycles - before
        expected = (WASM3_PROFILE.startup_base_cycles
                    + WASM3_PROFILE.startup_cycles_per_byte
                    * len(spec.text))
        assert charged == expected

    def test_script_attach_charges_parsing(self):
        spec = ImageSpec.from_script(SCRIPT_FLETCHER32_PY)
        image = spec.instantiate()
        engine = HostingEngine(Kernel())
        engine.register_hook(Hook(FC_HOOK_FANOUT, mode=HookMode.SYNC))
        container = engine.load(image, name="s")
        before = engine.kernel.clock.cycles
        engine.attach(container, FC_HOOK_FANOUT)
        charged = engine.kernel.clock.cycles - before
        expected = (MICROPYTHON_PROFILE.parse_base_cycles
                    + MICROPYTHON_PROFILE.parse_cycles_per_token
                    * len(tokenize(SCRIPT_FLETCHER32_PY)))
        assert charged == expected

    def test_script_dominates_wasm_dominates_rbpf_per_run(self):
        """The §6 ordering: script >> wasm > rBPF modelled cycles."""
        from repro.vm.memory import Permission
        from repro.workloads import fletcher32_program
        from repro.workloads.fletcher32 import INPUT_BASE, make_context

        cycles = {}
        for key, spec in (
            ("rbpf", ImageSpec.from_program(fletcher32_program())),
            ("wasm", ImageSpec.from_wasm(WASM_FLETCHER32)),
            ("script", ImageSpec.from_script(SCRIPT_FLETCHER32_PY)),
        ):
            engine, container = engine_with(spec, "jit")
            if key == "rbpf":
                # The eBPF program takes a {data_ptr, len} context and
                # reads the buffer through a granted region.
                container.vm.access_list.grant_bytes(
                    "in", INPUT_BASE, FLETCHER32_INPUT, Permission.READ)
                context = bytearray(make_context())
            else:
                context = bytearray(FLETCHER32_INPUT)
            run = engine.execute(container, context=context)
            assert run.ok, run.fault
            assert run.value == fletcher32_reference(FLETCHER32_INPUT)
            cycles[key] = run.cycles
        assert cycles["script"] > cycles["wasm"] > cycles["rbpf"]


class TestDecodeRefusal:
    def test_wasm_garbage_payload_refused(self):
        spec = ImageSpec(name="bad", text=b"\x00garbage", runtime="wasm")
        with pytest.raises(Exception):
            spec.instantiate()

    def test_script_syntax_error_refused(self):
        spec = ImageSpec(name="bad", text=b"func {{{", runtime="script")
        with pytest.raises(Exception):
            spec.instantiate()

    def test_wasm_rejects_data_sections(self):
        runtime = container_runtime("wasm")
        with pytest.raises(Exception):
            runtime.decode(b"\x00", rodata=b"x")

    def test_script_rejects_data_sections(self):
        runtime = container_runtime("script")
        with pytest.raises(Exception):
            runtime.decode(b"return 1;", data=b"x")


class TestEngineIntegration:
    def test_container_records_its_runtime(self):
        engine, container = engine_with(ImageSpec.from_wasm(WASM_FLETCHER32))
        assert container.runtime is container_runtime("wasm")
        assert container.program.runtime == "wasm"

    def test_ram_accounting_spans_runtimes(self):
        engine, container = engine_with(
            ImageSpec.from_script(SCRIPT_FLETCHER32_PY))
        assert container.ram_bytes >= MICROPYTHON_PROFILE.ram_bytes
        assert engine.total_ram_bytes() > 0

    def test_shell_lists_runtime_column(self):
        from repro.rtos.shell import DeviceShell

        engine, container = engine_with(ImageSpec.from_wasm(WASM_FLETCHER32))
        text = DeviceShell(engine).execute("fc list")
        header, row = text.splitlines()[0], text.splitlines()[1]
        assert "runtime" in header
        assert "wasm" in row

    def test_replace_swaps_wasm_image_in_place(self):
        spec = ImageSpec.from_wasm(WASM_FLETCHER32, name="sum")
        engine, container = engine_with(spec)
        other = ImageSpec.from_wasm(
            "module pages=1\nfunc main params=1 locals=0\n"
            "    i32.const 42\n    return\nend\n", name="sum")
        replacement = engine.replace(container, other.instantiate("sum"))
        run = engine.execute(replacement, context=b"\x00" * 16)
        assert run.ok and run.value == 42
