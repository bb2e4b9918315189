"""Pre-wired end-to-end scenarios from the paper, reused by examples,
integration tests and benchmarks.

Since PR 3 both scenarios are thin wrappers over the declarative
deployment API (:mod:`repro.deploy`): each builds a
:class:`~repro.deploy.DeploymentSpec` and converges the device through
``plan``/``apply``, then wires the non-deployable plumbing (network
endpoints, SAUL devices) around the result.  The produced systems are
cycle-identical to the historical hand-wired attach sequences.

:func:`build_multi_tenant_device` constructs the §8.3 / Fig 5 system: one
device hosting three containers from two tenants —

* **Tenant A**: a timer-triggered sensor container (read temperature via
  SAUL, keep a moving average in the tenant store) and a CoAP-triggered
  response formatter exposing the average at ``/sensor/temp``;
* **Tenant B**: the Listing 2 thread-counter attached to the scheduler
  hook, counting every context switch in the global store.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.core import (
    FC_HOOK_COAP,
    FC_HOOK_FANOUT,
    FC_HOOK_SCHED,
    FC_HOOK_TIMER,
    FemtoContainer,
    HostingEngine,
    Tenant,
)
from repro.deploy import apply_spec, fanout_spec, multi_tenant_spec
from repro.net import CoapClient, CoapServer, Interface, Link, UdpStack
from repro.rtos import Board, Kernel, nrf52840, synthetic_temperature
from repro.vm import Program, SupervisorConfig
from repro.workloads import thread_counter_program

DEVICE_ADDR = "2001:db8::dev"
HOST_ADDR = "2001:db8::host"
COAP_PORT = 5683


@dataclass
class MultiTenantDevice:
    """The assembled Fig 5 system plus a host-side client to poke it."""

    kernel: Kernel
    engine: HostingEngine
    link: Link
    server: CoapServer
    client: CoapClient
    tenant_a: Tenant
    tenant_b: Tenant
    sensor: FemtoContainer
    coap_responder: FemtoContainer
    thread_counter: FemtoContainer
    cancel_sensor_timer: object

    def container_count(self) -> int:
        return len(self.engine.containers())


def build_multi_tenant_device(
    board: Board | None = None,
    sensor_period_us: float = 1_000_000.0,
    link_loss: float = 0.0,
    seed: int = 1234,
    implementation: str = "femto-containers",
) -> MultiTenantDevice:
    """Build the complete two-tenant, three-container device of §8.3."""
    kernel = Kernel(board or nrf52840())
    engine = HostingEngine(kernel, implementation=implementation)
    engine.saul.register(synthetic_temperature(kernel, seed=seed))

    # Network plumbing: device plus a host-side endpoint.
    link = Link(kernel, loss=link_loss, seed=seed)
    device_if = link.attach(Interface(DEVICE_ADDR))
    host_if = link.attach(Interface(HOST_ADDR))
    device_udp = UdpStack(device_if)
    host_udp = UdpStack(host_if)
    server = CoapServer(kernel, device_udp.socket(COAP_PORT))
    client = CoapClient(kernel, host_udp.socket(49000))

    # The whole Fig 5 deployment — two tenants, three containers, the
    # sensor's periodic firing — is one declarative spec converged in a
    # single transactional apply.
    result = apply_spec(engine, multi_tenant_spec(sensor_period_us))
    sensor = result.containers[(FC_HOOK_TIMER, "sensor")]
    responder = result.containers[(FC_HOOK_COAP, "coap-responder")]
    counter = result.containers[(FC_HOOK_SCHED, "thread-counter")]
    server.register_container("/sensor/temp", engine, responder)

    return MultiTenantDevice(
        kernel=kernel,
        engine=engine,
        link=link,
        server=server,
        client=client,
        tenant_a=engine.tenants["tenant-a"],
        tenant_b=engine.tenants["tenant-b"],
        sensor=sensor,
        coap_responder=responder,
        thread_counter=counter,
        cancel_sensor_timer=result.timers[(FC_HOOK_TIMER, "sensor")],
    )


@dataclass
class FanoutDevice:
    """The multi-instance fan-out system: one image, many instances.

    This is the "N instances of one image" scenario class the shared
    image cache exists for: K tenants each attach M instances of the
    *same* application image to one synchronous launchpad, and every
    fire runs all K x M containers back to back.
    """

    kernel: Kernel
    engine: HostingEngine
    hook_name: str
    image: Program
    tenants: list[Tenant] = field(default_factory=list)
    containers: list[FemtoContainer] = field(default_factory=list)

    def fire(self, fires: int = 1, next_pid: int = 1) -> int:
        """Fire the hook ``fires`` times; returns the number of runs."""
        engine = self.engine
        hook_name = self.hook_name
        context = struct.pack("<QQ", 0, next_pid)
        total_runs = 0
        for _ in range(fires):
            total_runs += len(engine.fire_hook(hook_name, context).runs)
        return total_runs

    def shared_templates(self) -> int:
        """Distinct compiled templates across all instances (JIT only)."""
        return len({
            id(container.vm.template)
            for container in self.containers
            if hasattr(container.vm, "template")
        })


def build_fleet_publisher(
    devices: int = 4,
    boards: list[Board] | None = None,
    implementation: str = "jit",
    loss: float = 0.0,
    seed: int = 1234,
    maintainer_seed: bytes = bytes(range(32)),
    supervisor: SupervisorConfig | None = None,
):
    """Fleet + maintainer wired for over-the-air fleet publishes.

    Every device of a fresh :class:`~repro.deploy.Fleet` gets a radio
    rig on one shared link and a :class:`~repro.suit.SpecUpdateWorker`,
    and the returned :class:`~repro.deploy.FleetPublisher` signs one
    manifest per publish and fans it out to all of them
    (``publisher.fleet`` is the fleet).
    """
    from repro.deploy import Fleet, FleetPublisher

    fleet = Fleet(boards if boards is not None else devices,
                  implementation=implementation, supervisor=supervisor)
    return FleetPublisher(
        fleet,
        maintainer_seed=maintainer_seed,
        loss=loss,
        seed=seed,
    )


def build_fanout_device(
    tenants: int = 2,
    instances_per_tenant: int = 4,
    implementation: str = "jit",
    board: Board | None = None,
    program: Program | None = None,
) -> FanoutDevice:
    """Build K tenants x M instances of one image on one SYNC hook.

    The whole system is one :func:`~repro.deploy.fanout_spec` applied
    through the deployment reconciler.  Every instance is decoded from
    the spec image's *bytes* into a fresh :class:`Program` — exactly
    what a SUIT deployment does — so the scenario exercises the
    content-hash path of the image cache, not Python object identity.
    """
    kernel = Kernel(board or nrf52840())
    engine = HostingEngine(kernel, implementation=implementation)
    image = program if program is not None else thread_counter_program()
    result = apply_spec(engine, fanout_spec(tenants, instances_per_tenant,
                                            image))
    return FanoutDevice(
        kernel=kernel,
        engine=engine,
        hook_name=FC_HOOK_FANOUT,
        image=image,
        tenants=[engine.tenants[f"tenant-{index}"]
                 for index in range(tenants)],
        containers=result.attached,
    )
