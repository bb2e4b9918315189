"""Fletcher32 over a 360 B input — the paper's computational benchmark.

"Each implementation is loaded with a VM hosting logic performing a
Fletcher32 checksum on a 360 B input string.  We reason that this computing
load roughly mimics the instruction complexity of intensive sensor data
(pre-)processing on-board." (§6)

The eBPF version below is written the way LLVM lowers the C reference for
the eBPF target at moderate optimisation: guarded entry, byte loads
assembled into 16-bit words (the target has no alignment guarantees on the
input buffer), and the modulo-reduction step after each 359-word block.
"""

from __future__ import annotations

import struct

from repro.vm.asm import assemble
from repro.vm.interpreter import Interpreter
from repro.vm.memory import Permission
from repro.vm.program import Program

#: Virtual address at which the input buffer is granted to the VM.
INPUT_BASE = 0x7000_0000

_LOREM = (
    b"Lorem ipsum dolor sit amet, consectetur adipiscing elit, sed do "
    b"eiusmod tempor incididunt ut labore et dolore magna aliqua. Ut enim "
    b"ad minim veniam, quis nostrud exercitation ullamco laboris nisi ut "
    b"aliquip ex ea commodo consequat. Duis aute irure dolor in "
    b"reprehenderit in voluptate velit esse cillum dolore eu fugiat nulla "
    b"pariatur. Excepteur sint occaecat."
)

#: The canonical 360-byte input string (§6's "360 B input string").
FLETCHER32_INPUT: bytes = (_LOREM + b" " * 360)[:360]

FLETCHER32_EBPF = """
; fletcher32 -- context: { u64 data_ptr, u64 n_bytes }
; returns the 32-bit checksum in r0
    jne   r1, 0, init
    mov   r0, 0
    exit
init:
    ldxdw r2, [r1+0]      ; r2 = data pointer
    ldxdw r3, [r1+8]      ; r3 = byte count
    rsh   r3, 1           ; r3 = 16-bit word count
    mov   r4, 0xffff      ; sum1
    mov   r5, 0xffff      ; sum2
outer:
    jeq   r3, 0, finish
    mov   r6, 359         ; tlen = min(words, 359)
    jge   r3, r6, block
    mov   r6, r3
block:
    sub   r3, r6
loop:
    ldxb  r0, [r2+0]      ; assemble one little-endian 16-bit word
    ldxb  r7, [r2+1]
    lsh   r7, 8
    or    r0, r7
    add   r4, r0          ; sum1 += word
    add   r5, r4          ; sum2 += sum1
    add   r2, 2
    sub   r6, 1
    jne   r6, 0, loop
    mov   r7, r4          ; sum1 = (sum1 & 0xffff) + (sum1 >> 16)
    rsh   r7, 16
    and   r4, 0xffff
    add   r4, r7
    mov   r7, r5          ; sum2 = (sum2 & 0xffff) + (sum2 >> 16)
    rsh   r7, 16
    and   r5, 0xffff
    add   r5, r7
    ja    outer
finish:
    mov   r7, r4          ; final reductions
    rsh   r7, 16
    and   r4, 0xffff
    add   r4, r7
    mov   r7, r5
    rsh   r7, 16
    and   r5, 0xffff
    add   r5, r7
    lsh   r5, 16
    mov   r0, r5
    or    r0, r4          ; (sum2 << 16) | sum1
    exit
"""


def fletcher32_reference(data: bytes) -> int:
    """Reference implementation (the paper's "Native C" semantics)."""
    if len(data) % 2:
        data = data + b"\x00"
    sum1, sum2 = 0xFFFF, 0xFFFF
    words = len(data) // 2
    index = 0
    while words:
        block = min(words, 359)
        words -= block
        for _ in range(block):
            sum1 += data[index] | (data[index + 1] << 8)
            sum2 += sum1
            index += 2
        sum1 = (sum1 & 0xFFFF) + (sum1 >> 16)
        sum2 = (sum2 & 0xFFFF) + (sum2 >> 16)
    sum1 = (sum1 & 0xFFFF) + (sum1 >> 16)
    sum2 = (sum2 & 0xFFFF) + (sum2 >> 16)
    return (sum2 << 16) | sum1


#: Estimated native machine-instruction count for the Table 2 model:
#: ~9 instructions per 16-bit word plus setup, at the board's native CPI.
def native_instruction_estimate(data_len: int = len(FLETCHER32_INPUT)) -> int:
    return 9 * (data_len // 2) + 60


def fletcher32_program() -> Program:
    """Assemble the canonical eBPF fletcher32 application."""
    return assemble(FLETCHER32_EBPF, name="fletcher32")


def make_context(data_len: int = len(FLETCHER32_INPUT)) -> bytes:
    """Pack the {data_ptr, n_bytes} context struct."""
    return struct.pack("<QQ", INPUT_BASE, data_len)


def prepare_vm(vm: Interpreter, data: bytes = FLETCHER32_INPUT) -> Interpreter:
    """Grant the input buffer read-only to ``vm`` (the firewall pattern:
    the container may inspect the data but not modify it)."""
    vm.access_list.grant_bytes("fletcher-input", INPUT_BASE, data,
                               Permission.READ)
    return vm
