"""Container dataclass accounting and lifecycle bookkeeping."""

from __future__ import annotations

from repro.core import ContainerState, FC_HOOK_TIMER, Tenant
from repro.core.container import VM_CLASSES, FemtoContainer
from repro.core.kvstore import STORE_HEADER_BYTES
from repro.vm import assemble


class TestContainerModel:
    def test_vm_classes_cover_all_implementations(self):
        from repro.rtos.board import IMPLEMENTATIONS

        assert set(VM_CLASSES) == set(IMPLEMENTATIONS)

    def test_initial_state(self):
        container = FemtoContainer(name="c", program=assemble("exit"))
        assert container.state is ContainerState.LOADED
        assert container.vm is None
        assert container.local_store.name == "c-local"

    def test_tenant_adoption(self):
        tenant = Tenant(name="t")
        container = FemtoContainer(name="c", program=assemble("exit"),
                                   tenant=tenant)
        assert container in tenant.containers
        # Adopting twice is idempotent.
        tenant.adopt(container)
        assert tenant.containers.count(container) == 1

    def test_local_store_is_built_at_first_use(self):
        container = FemtoContainer(name="c", program=assemble("exit"))
        assert container._local_store is None
        # A never-used store still counts its header.
        assert container.local_store_bytes == STORE_HEADER_BYTES
        store = container.local_store
        assert container.local_store is store
        assert (store.name, store.ram_bytes) == ("c-local",
                                                 STORE_HEADER_BYTES)
        store.store(1, 2)
        assert container.local_store_bytes == store.ram_bytes

    def test_ram_without_vm_counts_image_and_store(self):
        program = assemble("mov r0, 1\n    exit")
        container = FemtoContainer(name="c", program=program)
        assert container.ram_bytes == (
            program.image_size + container.local_store.ram_bytes
        )

    def test_lifetime_accounting_accumulates(self, engine):
        container = engine.load(assemble("""
    mov r1, 3
loop:
    sub r1, 1
    jne r1, 0, loop
    mov r0, 0
    exit
"""))
        engine.attach(container, FC_HOOK_TIMER)
        first = engine.execute(container)
        second = engine.execute(container)
        assert container.runs == 2
        assert container.total_cycles == first.cycles + second.cycles
        assert container.lifetime_stats.executed == \
            first.stats.executed + second.stats.executed
        assert container.lifetime_stats.branches_taken == 4

    def test_helper_call_accounting_merged(self, engine):
        container = engine.load(assemble(
            "mov r1, 1\n    mov r2, 2\n    call bpf_store_global\n    exit"))
        engine.attach(container, FC_HOOK_TIMER)
        engine.execute(container)
        engine.execute(container)
        from repro.vm.helpers import BPF_STORE_GLOBAL

        assert container.lifetime_stats.helper_calls[BPF_STORE_GLOBAL] == 2
