"""Differential execution: every workload on every engine build.

The cycle models are engine-independent by construction — the same
program must yield identical return values, identical context bytes and
identical per-kind instruction counts whether it runs on the optimized
interpreter, the defensive CertFC build, or the template JIT.  This test
runs **every** program shipped in :mod:`repro.workloads` (including the
twelve Fig. 8 microbenchmark pairs) through all three engines and
compares the full observable surface.
"""

from __future__ import annotations

import struct

import pytest

from repro.core import FC_HOOK_COAP, FC_HOOK_SCHED, FC_HOOK_TIMER, HostingEngine
from repro.core.syscalls import CoapResponseContext
from repro.rtos import Kernel, nrf52840, synthetic_temperature
from repro.vm import CertFCInterpreter, Interpreter, compile_program
from repro.vm.memory import Permission
from repro.workloads import (
    FLETCHER32_INPUT,
    coap_handler_program,
    fletcher32_program,
    sensor_program,
    thread_counter_program,
)
from repro.workloads.fletcher32 import INPUT_BASE, make_context
from repro.workloads.microbench import all_pairs

ENGINE_FACTORIES = (
    ("interpreter", Interpreter),
    ("certfc", CertFCInterpreter),
    ("jit", compile_program),
)

#: Engine implementation names accepted by HostingEngine, for workloads
#: that need helpers and therefore run under the full middleware.
IMPLEMENTATIONS = ("femto-containers", "certfc", "jit")


def _bare_outcomes(program, context=None, grants=()):
    """Run ``program`` on all three bare engines; return observables."""
    outcomes = {}
    for name, factory in ENGINE_FACTORIES:
        vm = factory(program)
        for grant in grants:
            vm.access_list.grant_bytes(*grant)
        result = vm.run(context=context)
        outcomes[name] = (
            result.value,
            vm.context_bytes(),
            result.stats.kind_counts,
            result.stats.branches_taken,
            result.stats.helper_calls,
        )
    return outcomes


def _assert_identical(outcomes):
    reference = outcomes["interpreter"]
    for name, observed in outcomes.items():
        assert observed == reference, (
            f"engine {name!r} diverged: {observed} != {reference}"
        )


class TestBareWorkloads:
    def test_fletcher32_differential(self):
        outcomes = _bare_outcomes(
            fletcher32_program(),
            context=make_context(),
            grants=[("in", INPUT_BASE, FLETCHER32_INPUT, Permission.READ)],
        )
        _assert_identical(outcomes)
        assert outcomes["interpreter"][0] != 0  # actually computed something

    def test_fletcher32_null_context_differential(self):
        _assert_identical(_bare_outcomes(fletcher32_program()))

    @pytest.mark.parametrize(
        "pair", all_pairs(iterations=6, unroll=3), ids=lambda p: p.key
    )
    def test_microbench_differential(self, pair):
        """All twelve Fig. 8 instruction programs, measured and baseline."""
        _assert_identical(_bare_outcomes(pair.measured))
        _assert_identical(_bare_outcomes(pair.baseline))

    def test_branch_limit_abort_differential(self):
        """A run aborted at N_b must carry identical accounting on every
        engine (the engine charges modelled cycles for aborted runs too),
        also when the JIT's versioned inner loop refuses its fast copy
        because the trip count exceeds the remaining budget."""
        from repro.vm import BranchLimitFault, VMConfig

        config = VMConfig(branch_limit=5)
        outcomes = {}
        for name, factory in ENGINE_FACTORIES:
            vm = factory(fletcher32_program(), config=config)
            vm.access_list.grant_bytes(
                "in", INPUT_BASE, FLETCHER32_INPUT, Permission.READ
            )
            with pytest.raises(BranchLimitFault) as excinfo:
                vm.run(context=make_context())
            fault = excinfo.value
            outcomes[name] = (str(fault), fault.pc, fault.stats)
        assert outcomes["interpreter"][2].branches_taken == 6
        reference = outcomes["interpreter"]
        for name, observed in outcomes.items():
            assert observed == reference, name


def _engine(implementation):
    return HostingEngine(Kernel(nrf52840()), implementation=implementation)


def _run_outcome(run, container):
    vm = container.vm
    return (
        run.value,
        run.fault is None,
        vm.context_bytes(),
        run.stats.kind_counts,
        run.stats.branches_taken,
        run.stats.helper_calls,
    )


class TestHostedWorkloads:
    """Helper-using workloads, run under the full hosting engine."""

    def test_thread_counter_differential(self):
        outcomes = {}
        for implementation in IMPLEMENTATIONS:
            engine = _engine(implementation)
            container = engine.load(thread_counter_program())
            engine.attach(container, FC_HOOK_SCHED)
            runs = []
            for previous, nxt in ((0, 3), (3, 3), (1, 0)):
                run = engine.execute(
                    container, struct.pack("<QQ", previous, nxt)
                )
                runs.append(_run_outcome(run, container))
            outcomes[implementation] = (
                runs, dict(engine.global_store.snapshot())
            )
        reference = outcomes["femto-containers"]
        for implementation, observed in outcomes.items():
            assert observed == reference, implementation

    def test_sensor_differential(self):
        outcomes = {}
        for implementation in IMPLEMENTATIONS:
            kernel = Kernel(nrf52840())
            engine = HostingEngine(kernel, implementation=implementation)
            engine.saul.register(synthetic_temperature(
                kernel, seed=7, swing_centi_c=0, noise_centi_c=0,
                base_centi_c=2150,
            ))
            tenant = engine.create_tenant("A")
            container = engine.load(sensor_program(), tenant=tenant)
            engine.attach(container, FC_HOOK_TIMER)
            runs = [
                _run_outcome(
                    engine.execute(container, struct.pack("<QQ", 0, 0)),
                    container,
                )
                for _ in range(3)
            ]
            outcomes[implementation] = (runs, dict(tenant.store.snapshot()))
        reference = outcomes["femto-containers"]
        for implementation, observed in outcomes.items():
            assert observed == reference, implementation

    def test_shared_template_instances_differential(self):
        """Two JIT instances stamped from one cached template must stay
        bit-identical to each other *and* to the interpreter build —
        per-instance state (registers, stack, access list, stats) is
        fully separated from the shared immutable template."""
        from repro.vm import Program

        raw = thread_counter_program().to_bytes()
        contexts = [struct.pack("<QQ", 0, pid) for pid in (3, 3, 5, 0, 3)]

        def engine_outcomes(implementation, instances):
            engine = _engine(implementation)
            containers = [
                engine.load(Program.from_bytes(raw), name=f"i{index}")
                for index in range(instances)
            ]
            for container in containers:
                engine.attach(container, FC_HOOK_SCHED)
            runs = [
                [_run_outcome(engine.execute(c, ctx), c) for ctx in contexts]
                for c in containers
            ]
            return engine, containers, runs

        engine, containers, jit_runs = engine_outcomes("jit", 2)
        assert containers[0].vm._entry is containers[1].vm._entry
        # Both instances of the shared template behave identically...
        assert jit_runs[0] == jit_runs[1]
        # ...and identically to a cold interpreter engine.
        _, _, interp_runs = engine_outcomes("femto-containers", 1)
        assert jit_runs[0] == interp_runs[0]

    def test_coap_handler_differential(self):
        outcomes = {}
        for implementation in IMPLEMENTATIONS:
            engine = _engine(implementation)
            tenant = engine.create_tenant("A")
            tenant.store.store(0x10, 777)
            container = engine.load(coap_handler_program(), tenant=tenant)
            engine.attach(container, FC_HOOK_COAP)
            pdu = CoapResponseContext(token_length=2)
            run = engine.execute(container, struct.pack("<Q", 1), pdu=pdu)
            outcomes[implementation] = (
                _run_outcome(run, container),
                pdu.code,
                pdu.content_format,
                pdu.payload_bytes(),
            )
        reference = outcomes["femto-containers"]
        for implementation, observed in outcomes.items():
            assert observed == reference, implementation
