"""Pins the exact code femtoC generates, byte for byte.

The other femtoC tests check results and code-size bars; these catch
any change to the emitted instructions, the rodata, the program name or
the label table.  A deliberate codegen change updates the digests here.
"""

from __future__ import annotations

import hashlib
import importlib.util
from pathlib import Path

import pytest

from repro.femtoc import compile_source
from tests.femtoc.test_cross_validation import COUNTER_FEMTOC, SENSOR_FEMTOC

_PIPELINE = Path(__file__).resolve().parents[2] / "examples/femtoc_pipeline.py"


def _pipeline_source() -> str:
    spec = importlib.util.spec_from_file_location("femtoc_pipeline",
                                                  _PIPELINE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SENSOR_SOURCE


PIPELINE_SOURCE = _pipeline_source()


#: Every lowering path the two workloads above do not take: wide
#: literals, trace, computed context offsets, !, unary -, && and ||.
EVERY_CONSTRUCT = """
var x = ctx_u32(0);
var y = ctx_u8(x & 7);
var big = 0x123456789;
var flags = !x || (y && -x < 3);
if (x >= y) { trace(x); } else { x = x % 5 ^ y; }
while (x != 0 && y <= 9) { x = x >> 1; y = y + (x << 2) - 1; }
return now_ms() + big + flags;
"""

#: case -> (source, program name, slot count, SHA-256 of the code, the
#: rodata and the (name, labels) pair).
CASES = {
    "sensor": (SENSOR_FEMTOC, "femtoc", 66,
               "4a446419cee7411368dfccec85ea9995"
               "49705b38d5671f4f7203118be63f0a7d"),
    "counter": (COUNTER_FEMTOC, "femtoc", 35,
                "6b7eb0bceeae9f0cd76d282d7d1900af"
                "a24a10bc488f13829d0d4d69e60e07c2"),
    "pipeline": (PIPELINE_SOURCE, "sensor", 66,
                 "773c3d83e99fbce483af1353a7d6f9af"
                 "c8b4c0b2410bd5e63e6a57a8d0254b47"),
    "every-construct": (EVERY_CONSTRUCT, "femtoc", 105,
                        "f34de738cd6cbb29f0074290cdd58fbe"
                        "4c9f054048ba8b491c5adba356688b3d"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_generated_code_is_pinned(case):
    source, name, slot_count, digest = CASES[case]
    program = compile_source(source, name=name)
    assert len(program.slots) == slot_count
    image = (program.to_bytes() + program.rodata
             + repr((program.name, program.symbols)).encode())
    assert hashlib.sha256(image).hexdigest() == digest
