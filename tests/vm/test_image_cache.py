"""The shared program-image cache: hashing, sharing, isolation, accounting.

:data:`~repro.vm.imagecache.IMAGE_CACHE` is one :class:`~repro.memo.Memo`
of instance prototypes; its bound and its store rule are the memo's
(``tests/test_memo.py``).  Sharing and isolation are checked through the
attach path (:func:`~repro.runtimes.base.build_vm`) and prototype
identity, and one property holds, on every eBPF engine, that a warm
cache never changes an attach's verdict or an instance's behaviour.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import FC_HOOK_TIMER, AttachError, HostingEngine
from repro.core.container import count_vector
from repro.core.policy import ContainerContract
from repro.memo import memos_disabled
from repro.rtos import Kernel, nrf52840
from repro.runtimes.base import build_vm, container_runtime
from repro.vm import (
    BranchLimitFault,
    Interpreter,
    Program,
    VerificationError,
    VerifierConfig,
    VMConfig,
    assemble,
    compile_program,
)
from repro.vm import helpers as h
from repro.vm.imagecache import IMAGE_CACHE
from repro.vm.verifier import verify

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


IMPLEMENTATIONS = ("rbpf", "femto-containers", "certfc", "jit")


def _attach(engine: HostingEngine, raw: bytes, name: str,
            contract: ContainerContract | None = None):
    return engine.attach(engine.load(Program.from_bytes(raw), name=name,
                                     contract=contract), FC_HOOK_TIMER)


class TestSharedPrototypes:
    @pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
    def test_decoded_table_shared_across_program_objects(self,
                                                         implementation):
        raw = assemble(LOOPY).to_bytes()
        engine = HostingEngine(Kernel(nrf52840()),
                               implementation=implementation)
        one, two = (_attach(engine, raw, f"fc-{index}") for index in range(2))
        assert one.program is not two.program
        assert one.vm.prototype is two.vm.prototype
        assert len(IMAGE_CACHE) == 1

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

    def test_branch_limit_keys_separate_prototypes(self):
        """``VMConfig`` is part of the prototype key: a warm attach under
        another N_b gets its own prototype and runs to its own bound."""
        raw = assemble(LOOPY).to_bytes()
        rbpf = container_runtime("rbpf")

        def vm(config: VMConfig):
            return build_vm(rbpf, Program.from_bytes(raw), "jit", None,
                            config, VerifierConfig())

        plain, budgeted = vm(VMConfig()), vm(VMConfig(branch_limit=3))
        assert plain.prototype is not budgeted.prototype
        assert vm(VMConfig(branch_limit=3)).prototype is budgeted.prototype
        assert len(IMAGE_CACHE) == 2
        assert plain.run().value == 30
        with pytest.raises(BranchLimitFault) as excinfo:
            budgeted.run()
        assert excinfo.value.stats.branches_taken == 4

    @pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
    def test_helper_grants_key_separate_verdicts(self, implementation):
        """A stored permissive prototype never leaks to a stricter
        contract: the VerifierConfig is part of the key."""
        raw = assemble(CALLER).to_bytes()
        engine = HostingEngine(Kernel(nrf52840()),
                               implementation=implementation)
        _attach(engine, raw, "wide")  # permissive, stored
        with pytest.raises(AttachError):
            _attach(engine, raw, "strict",
                    ContainerContract(helpers=frozenset()))
        assert len(IMAGE_CACHE) == 1

    @pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
    def test_rejections_are_not_cached(self, implementation):
        raw = assemble(CALLER).to_bytes()
        engine = HostingEngine(Kernel(nrf52840()),
                               implementation=implementation)
        strict = ContainerContract(helpers=frozenset())
        for attempt in range(2):  # both attempts re-verify and re-raise
            with pytest.raises(AttachError):
                _attach(engine, raw, f"fc-{attempt}", strict)
        assert (IMAGE_CACHE.hits, IMAGE_CACHE.misses) == (0, 2)
        assert len(IMAGE_CACHE) == 0

    def test_mutable_helper_set_is_coerced_hashable(self):
        config = VerifierConfig(allowed_helpers={1, 2, 3})
        assert isinstance(config.allowed_helpers, frozenset)
        hash(config)  # must be usable as a cache key


class TestAccounting:
    def test_hit_miss_accounting(self):
        raw = assemble(LOOPY).to_bytes()
        compile_program(Program.from_bytes(raw))
        assert (IMAGE_CACHE.hits, IMAGE_CACHE.misses) == (0, 1)
        compile_program(Program.from_bytes(raw))
        assert (IMAGE_CACHE.hits, IMAGE_CACHE.misses) == (1, 1)
        assert len(IMAGE_CACHE) == 1


#: Helpers a generated program may call; each returns a value and
#: needs no pointer argument.
_HELPERS = (h.BPF_STORE_GLOBAL, h.BPF_NOW_MS, h.BPF_ZTIMER_NOW)


@st.composite
def _program(draw) -> bytes:
    """A program that calls some helpers, loops, and writes its stack
    at an offset that may lie past a 512 B stack."""
    lines = ["mov r0, 0"]
    for helper in draw(st.lists(st.sampled_from(_HELPERS), max_size=3)):
        lines += ["mov r1, 3", "mov r2, r0", f"call {helper:#x}",
                  "add r0, 1"]
    lines += [f"mov r8, {draw(st.integers(1, 20))}", "loop:", "add r0, r8",
              "sub r8, 1", "jne r8, 0, loop",
              f"stxdw [r10+{draw(st.sampled_from([8, 504, 600]))}], r0",
              "exit"]
    return assemble("\n".join(f"    {line}" for line in lines)).to_bytes()


_contracts = st.builds(
    ContainerContract,
    helpers=st.none() | st.frozensets(st.sampled_from(_HELPERS)),
    max_instructions=st.sampled_from([12, 4096]),
    branch_limit=st.sampled_from([5, 10_000]),
    stack_size=st.sampled_from([512, 1024]),
)


def _accepts(engine: HostingEngine, raw: bytes,
             contract: ContainerContract) -> bool:
    """A cold pre-flight check of ``raw`` under ``contract``'s grant."""
    verifier_config = engine._limits(
        engine.hook(FC_HOOK_TIMER).policy_for(None), contract,
        container_runtime("rbpf"))[1]
    try:
        verify(Program.from_bytes(raw), verifier_config)
    except VerificationError:
        return False
    return True


def _observe(implementation: str, raw: bytes,
             contracts: list[ContainerContract]) -> tuple[list, list]:
    """Attach two instances of ``raw`` under each contract in turn on one
    fresh engine and run each twice.  Returns everything modelled, in
    order, and each pair's count of distinct prototypes."""
    engine = HostingEngine(Kernel(nrf52840()), implementation=implementation)
    clock = engine.kernel.clock
    observed, distinct = [], []
    for index, contract in enumerate(contracts):
        accepted = _accepts(engine, raw, contract)
        pair = set()
        for copy in range(2):
            before = clock.cycles
            try:
                container = _attach(engine, raw, f"fc-{index}-{copy}",
                                    contract)
            except AttachError:
                assert not accepted, (implementation, contract)
                observed.append("rejected")
                continue
            assert accepted, (implementation, contract)
            vm = container.vm
            pair.add(id(vm.prototype))
            observed.append((
                clock.cycles - before, vm.config, vm.ram_bytes,
                vm.prototype.install_instruction_count,
                getattr(vm, "jit_source", None)))
            for _ in range(2):
                run = engine.execute(container)
                observed.append((
                    run.value,
                    None if run.fault is None
                    else (run.fault.kind, run.fault.pc),
                    count_vector(run.stats), run.cycles))
        distinct.append(len(pair))
    return observed, distinct


@settings(max_examples=25, deadline=None)
@given(raw=_program(), contracts=st.lists(_contracts, min_size=1,
                                          max_size=3))
def test_warm_attach_matches_a_cold_one(raw, contracts):
    """On every eBPF engine, under a sequence of generated helper grants
    and VM limits sharing one image: an attach succeeds exactly when a
    cold verify under its contract accepts, and every instance — a
    clone of a stored prototype or not — behaves as one built with
    every memo off."""
    IMAGE_CACHE.clear()
    for implementation in IMPLEMENTATIONS:
        warm, shared = _observe(implementation, raw, contracts)
        with memos_disabled():
            cold, derived = _observe(implementation, raw, contracts)
        assert warm == cold, implementation
        # Memos on, an accepted pair's second instance is the first's
        # clone; off, each instance derived its own prototype.
        assert shared == [min(count, 1) for count in derived]


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
