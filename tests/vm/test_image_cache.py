"""The shared program-image cache: hashing, sharing, isolation, accounting.

Its bound and its store rule are :class:`~repro.memo.Memo`'s
(``tests/test_memo.py``).
"""

from __future__ import annotations

import pytest

from repro.core import HostingEngine
from repro.rtos import Kernel, nrf52840
from repro.vm import (
    Interpreter,
    Program,
    VerificationError,
    VerifierConfig,
    VMConfig,
    assemble,
    compile_program,
)
from repro.vm.imagecache import IMAGE_CACHE

LOOPY = """
    mov r0, 0
    mov r1, 0
loop:
    add r0, 3
    add r1, 1
    jlt r1, 10, loop
    exit
"""

CALLER = """
    mov r1, 1
    mov r2, 2
    call 0x01
    exit
"""


@pytest.fixture(autouse=True)
def fresh_cache():
    """Every test starts and ends with a cold process-wide cache."""
    IMAGE_CACHE.clear()
    yield
    IMAGE_CACHE.clear()


class TestImageHash:
    def test_same_bytes_same_hash(self):
        a = assemble(LOOPY)
        b = Program.from_bytes(a.to_bytes(), name="different-name")
        assert a.image_hash == b.image_hash  # name excluded: content only

    def test_different_text_different_hash(self):
        assert assemble(LOOPY).image_hash != assemble(CALLER).image_hash

    def test_data_sections_are_hashed_unambiguously(self):
        raw = assemble(LOOPY).to_bytes()
        a = Program.from_bytes(raw, rodata=b"ab", data=b"")
        b = Program.from_bytes(raw, rodata=b"a", data=b"b")
        c = Program.from_bytes(raw, rodata=b"ab", data=b"")
        assert a.image_hash != b.image_hash  # section boundary matters
        assert a.image_hash == c.image_hash

    def test_hash_cache_invalidated_on_slot_replacement(self):
        program = assemble(LOOPY)
        first = program.image_hash
        program.slots = assemble(CALLER).slots
        assert program.image_hash != first

    def test_hash_cache_invalidated_on_data_section_reassignment(self):
        program = assemble(LOOPY)
        first = program.image_hash
        program.data = b"\x01\x02"
        second = program.image_hash
        assert second != first
        program.rodata = b"ro"
        assert program.image_hash != second


class TestSharedArtifacts:
    def test_decoded_shared_across_program_objects(self):
        raw = assemble(LOOPY).to_bytes()
        a, b = Program.from_bytes(raw), Program.from_bytes(raw)
        assert a.decoded is b.decoded

    def test_jit_template_shared_across_instances(self):
        raw = assemble(LOOPY).to_bytes()
        one = compile_program(Program.from_bytes(raw))
        two = compile_program(Program.from_bytes(raw))
        assert one._entry is two._entry
        assert one.jit_source == two.jit_source
        # ...but all run state is private: both execute independently
        # with bit-identical observable results.
        r1, r2 = one.run(), two.run()
        assert (r1.value, r1.stats.kind_counts) == (r2.value,
                                                    r2.stats.kind_counts)

    def test_total_limit_keys_separate_templates(self):
        raw = assemble(LOOPY).to_bytes()
        plain = compile_program(Program.from_bytes(raw))
        budgeted = compile_program(Program.from_bytes(raw),
                                   config=VMConfig(total_limit=1000))
        assert plain._entry is not budgeted._entry

    def test_verify_cache_respects_helper_grants(self):
        """A cached permissive verdict must never leak to a stricter
        contract: the VerifierConfig is part of the cache key."""
        program = assemble(CALLER)
        IMAGE_CACHE.verify(program, VerifierConfig())  # permissive, cached
        with pytest.raises(VerificationError):
            IMAGE_CACHE.verify(
                program, VerifierConfig(allowed_helpers=frozenset())
            )

    def test_rejections_are_not_cached(self):
        program = assemble(CALLER)
        strict = VerifierConfig(allowed_helpers=frozenset())
        for _ in range(2):  # both attempts re-verify and re-raise
            with pytest.raises(VerificationError):
                IMAGE_CACHE.verify(program, strict)
        assert IMAGE_CACHE.stats()["report_entries"] == 0

    def test_mutable_helper_set_is_coerced_hashable(self):
        config = VerifierConfig(allowed_helpers={1, 2, 3})
        assert isinstance(config.allowed_helpers, frozenset)
        hash(config)  # must be usable as a cache key


class TestAccounting:
    def test_hit_miss_accounting(self):
        raw = assemble(LOOPY).to_bytes()
        compile_program(Program.from_bytes(raw))
        baseline = IMAGE_CACHE.stats()
        compile_program(Program.from_bytes(raw))
        after = IMAGE_CACHE.stats()
        assert after["misses"] == baseline["misses"]  # no new misses
        assert after["hits"] > baseline["hits"]


class TestVirtualClockOblivious:
    def test_attach_charges_same_cycles_cold_and_cached(self):
        """The cache is a wall-clock optimization only: every attach of
        the same image charges the identical modelled verify+install
        cost, cold or cached."""
        raw = assemble(LOOPY).to_bytes()
        for implementation in ("femto-containers", "jit"):
            IMAGE_CACHE.clear()
            engine = HostingEngine(Kernel(nrf52840()),
                                   implementation=implementation)
            charges = []
            for index in range(3):
                container = engine.load(Program.from_bytes(raw),
                                        name=f"i{index}")
                before = engine.kernel.clock.cycles
                engine.attach(container, "fc.hook.timer")
                charges.append(engine.kernel.clock.cycles - before)
            assert len(set(charges)) == 1, (implementation, charges)

    def test_shared_instances_keep_private_state(self):
        raw = assemble(LOOPY).to_bytes()
        one = compile_program(Program.from_bytes(raw))
        two = compile_program(Program.from_bytes(raw))
        assert one.access_list is not two.access_list
        assert one._regs is not two._regs
        assert one.stack is not two.stack
        reference = Interpreter(Program.from_bytes(raw)).run()
        for vm in (one, two):
            result = vm.run()
            assert result.value == reference.value
            assert result.stats.kind_counts == reference.stats.kind_counts
