#!/usr/bin/env python3
"""Use-cases 1 & 3 (§8.3, Fig 5): multi-tenant networked sensor node.

One simulated device hosts three containers from two mutually-distrusting
tenants:

* tenant A: a timer-driven sensor container (SAUL temperature read +
  moving average into the tenant store) and a CoAP response formatter
  serving the average at ``GET /sensor/temp``;
* tenant B: the kernel-debug thread counter on the scheduler hook.

A host-side CoAP client polls the device over a lossy 802.15.4-class
link.  Watch the tenants stay isolated while sharing the device.

Run with:  python examples/networked_sensor.py
"""

from repro.net import CoapMessage, coap
from repro.scenarios import COAP_PORT, DEVICE_ADDR, build_multi_tenant_device
from repro.workloads import KEY_SENSOR_AVG, KEY_SENSOR_RAW


def main() -> None:
    device = build_multi_tenant_device(sensor_period_us=500_000,
                                       link_loss=0.05)
    kernel = device.kernel
    print("device up:", ", ".join(
        f"{c.name} ({c.tenant.name})" for c in device.engine.containers()))

    # Let the sensor container take a few samples.
    kernel.run(until_us=3_000_000)
    store_a = device.tenant_a.store
    print("\nafter 3 s: tenant A store holds "
          f"avg={store_a.fetch(KEY_SENSOR_AVG)} "
          f"raw={store_a.fetch(KEY_SENSOR_RAW)} (centi-degC)")
    print(f"tenant B store holds {len(device.tenant_b.store)} entries "
          "(isolated: the sensor average is not visible here)")
    assert KEY_SENSOR_AVG in store_a
    assert KEY_SENSOR_AVG not in device.tenant_b.store

    # Query the device over CoAP, as a cloud service would.
    replies = []
    for poll in range(3):
        request = CoapMessage(mtype=coap.CON, code=coap.GET)
        request.add_uri_path("/sensor/temp")
        device.client.request(DEVICE_ADDR, COAP_PORT, request, replies.append)
        kernel.run(until_us=kernel.now_us + 2_000_000)

    print("\nCoAP polls over the lossy link "
          f"({device.link.stats.frames_dropped} frames dropped, "
          "CON retransmission recovered):")
    for index, reply in enumerate(replies):
        print(f"  poll {index}: {coap.code_string(reply.code)} "
              f"payload={reply.payload.decode()!r} centi-degC")

    # The thread counter (tenant B) observed all of this activity.
    counters = device.engine.global_store.snapshot()
    print("\ntenant B's scheduler counters (pid -> activations):")
    for pid, count in sorted(counters.items()):
        name = kernel.threads[pid].name if pid in kernel.threads else "?"
        print(f"  pid {pid} ({name}): {count}")

    runs = {c.name: c.runs for c in device.engine.containers()}
    print(f"\ncontainer activations: {runs}")
    print(f"total engine RAM: {device.engine.total_ram_bytes()} B "
          "(3 containers + stores; §10.3 measures ~3.2 KiB)")
    assert replies, "no CoAP replies received"
    assert all(r.code == coap.CONTENT for r in replies)


if __name__ == "__main__":
    main()
