"""Canned workloads: the paper's example applications and benchmarks.

* :mod:`repro.workloads.fletcher32` — the §6/Table 2/Fig 9 checksum;
* :mod:`repro.workloads.thread_counter` — Listing 2 (kernel debug);
* :mod:`repro.workloads.sensor` — §8.3 sensor read + moving average;
* :mod:`repro.workloads.coap_handler` — §8.3 CoAP response formatter;
* :mod:`repro.workloads.microbench` — Fig 8 per-instruction programs.
"""

from repro.workloads.fletcher32 import (
    FLETCHER32_EBPF,
    FLETCHER32_INPUT,
    fletcher32_program,
    fletcher32_reference,
)
from repro.workloads.thread_counter import (
    THREAD_COUNTER_EBPF,
    THREAD_START_KEY,
    thread_counter_program,
)
from repro.workloads.sensor import (
    KEY_SENSOR_AVG,
    KEY_SENSOR_RAW,
    SENSOR_EBPF,
    sensor_program,
)
from repro.workloads.coap_handler import COAP_HANDLER_EBPF, coap_handler_program

__all__ = [
    "COAP_HANDLER_EBPF",
    "FLETCHER32_EBPF",
    "FLETCHER32_INPUT",
    "KEY_SENSOR_AVG",
    "KEY_SENSOR_RAW",
    "SENSOR_EBPF",
    "THREAD_COUNTER_EBPF",
    "THREAD_START_KEY",
    "coap_handler_program",
    "fletcher32_program",
    "fletcher32_reference",
    "sensor_program",
    "thread_counter_program",
]
