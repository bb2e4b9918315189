"""Listing 2 — the kernel-debug thread counter, in eBPF assembly.

The container is attached to the scheduler hook (a hot code path).  On
every context switch it receives ``{u64 previous, u64 next}`` and bumps a
per-thread activation counter in the *global* key-value store, exactly as
the paper's C source does::

    int pid_log(sched_ctx_t *ctx) {
        if (ctx->next != 0) {
            uint32_t counter;
            uint32_t thread_key = THREAD_START_KEY + ctx->next;
            bpf_fetch_global(thread_key, &counter);
            counter++;
            bpf_store_global(thread_key, counter);
        }
        return 0;
    }
"""

from __future__ import annotations

from repro.vm.asm import assemble
from repro.vm.program import Program

#: Key base for per-thread counters (Listing 2's THREAD_START_KEY).
THREAD_START_KEY = 0x0

THREAD_COUNTER_EBPF = """
; pid_log -- context: { u64 previous, u64 next }
    ldxdw r6, [r1+8]          ; r6 = ctx->next
    jne   r6, 0, work         ; zero pid means no next thread
    mov   r0, 0
    exit
work:
    mov   r7, 0x0             ; THREAD_START_KEY
    add   r7, r6              ; thread_key = base + next pid
    mov   r1, r7
    mov   r2, r10
    add   r2, 4               ; &counter (stack slot)
    call  bpf_fetch_global
    ldxw  r3, [r10+4]
    add   r3, 1               ; counter++
    stxw  [r10+4], r3
    mov   r1, r7
    ldxw  r2, [r10+4]
    call  bpf_store_global
    mov   r0, 0
    exit
"""


def thread_counter_program() -> Program:
    """Assemble the Listing 2 application."""
    return assemble(THREAD_COUNTER_EBPF, name="thread-counter")
