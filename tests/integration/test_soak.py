"""Soak test: the multi-tenant device stays consistent over a long run."""

from __future__ import annotations

from repro.net import CoapMessage, coap
from repro.scenarios import COAP_PORT, DEVICE_ADDR, build_multi_tenant_device


class TestSoak:
    def test_thirty_virtual_seconds(self):
        device = build_multi_tenant_device(sensor_period_us=200_000,
                                           link_loss=0.05, seed=31)
        kernel = device.kernel

        ram_samples = []
        reply_count = 0
        for second in range(1, 31):
            kernel.run(until_us=second * 1_000_000)
            ram_samples.append(device.engine.total_ram_bytes())
            if second % 5 == 0:
                replies = []
                request = CoapMessage(mtype=coap.CON, code=coap.GET)
                request.add_uri_path("/sensor/temp")
                device.client.request(DEVICE_ADDR, COAP_PORT, request,
                                      replies.append)
                kernel.run(until_us=kernel.now_us + 500_000)
                reply_count += len(replies)

        # The sensor ran roughly five times per second the whole time.
        assert 130 <= device.sensor.runs <= 160

        # No faults accumulated anywhere.
        for container in device.engine.containers():
            assert container.fault_count == 0, container.name

        # RAM accounting is stable: stores reach steady state and the
        # spread stays within one store entry growth per tenant counter.
        assert max(ram_samples) - min(ram_samples) < 200

        # The thread counter still matches the scheduler exactly after
        # thousands of context switches.
        counters = device.engine.global_store.snapshot()
        for pid, thread in kernel.threads.items():
            assert counters.get(pid, 0) == thread.activations
        assert kernel.scheduler.switch_count > 300

        # CoAP stayed responsive throughout.
        assert reply_count >= 5

    def test_sustained_hostile_load_contained(self):
        """A malicious container hammered for minutes never destabilizes
        the device (resource-exhaustion containment, §3)."""
        from repro.core import FC_HOOK_TIMER
        from repro.vm import assemble

        device = build_multi_tenant_device(sensor_period_us=500_000)
        engine = device.engine
        hostile = engine.load(assemble("""
burn:
    add r1, 1
    ja burn
"""), tenant=device.tenant_b, name="burner")
        engine.attach(hostile, FC_HOOK_TIMER)
        cancel = engine.attach_periodic(hostile, period_us=100_000)

        device.kernel.run(until_us=3_000_000)
        cancel()

        assert hostile.fault_count > 0            # it kept faulting...
        assert hostile.runs <= engine.supervisor.config.fault_streak
        # ...until the engine cut it off, well before 3 s of spam.
        assert hostile.hook is None
        # The honest sensor pipeline never noticed.
        assert device.sensor.fault_count == 0
        assert device.sensor.runs >= 4
