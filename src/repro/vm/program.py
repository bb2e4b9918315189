"""Container application images: bytecode plus data sections and metadata."""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

from repro.vm import isa
from repro.vm.instruction import SLOT_SIZE, Instruction, decode_program, encode_program


@dataclass
class Program:
    """A loadable Femto-Container application.

    ``slots`` is the raw slot list (wide instructions occupy two entries,
    exactly as in the binary format), ``rodata`` and ``data`` are the
    read-only and mutable data sections referenced through the rBPF
    ``lddwr``/``lddwd`` extension opcodes.
    """

    #: Runtime tag: every ``Program`` is an rBPF image (Wasm and script
    #: images are separate classes behind the same duck-typed surface).
    runtime = "rbpf"

    slots: list[Instruction]
    rodata: bytes = b""
    data: bytes = b""
    name: str = "app"
    #: Optional symbol table: label -> slot index (filled by the assembler).
    symbols: dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_bytes(
        cls,
        raw: bytes,
        rodata: bytes = b"",
        data: bytes = b"",
        name: str = "app",
    ) -> "Program":
        return cls(slots=decode_program(raw), rodata=rodata, data=data, name=name)

    def to_bytes(self) -> bytes:
        """Flat bytecode image (what travels inside a SUIT payload)."""
        return encode_program(self.slots)

    @property
    def image_hash(self) -> str:
        """Stable content hash of the image (text + data sections).

        Two :class:`Program` objects decoded from the same SUIT payload
        hash identically, which is what lets the process-wide
        :data:`~repro.vm.imagecache.IMAGE_CACHE` share one instance
        prototype (verdict, pre-decoded slot table or JIT template) across
        container instances.  The name is deliberately excluded — the
        image is content-addressed, like the flash slot it models.

        Cached per object, invalidated when ``slots`` is replaced or
        resized or when either data section is reassigned.  Images are
        immutable once installed (as in flash): a VM keeps what its
        prototype was derived from.
        """
        slots, rodata, data = self.slots, self.rodata, self.data
        cache = getattr(self, "_hash_cache", None)
        if (cache is not None and cache[0] is slots
                and cache[1] == len(slots)
                and cache[2] is rodata and cache[3] is data):
            return cache[4]
        digest = hashlib.sha256()
        digest.update(self.to_bytes())
        # Length-prefix the data sections so (rodata, data) boundaries
        # cannot alias between images with identical concatenations.
        digest.update(struct.pack("<II", len(rodata), len(data)))
        digest.update(rodata)
        digest.update(data)
        value = digest.hexdigest()
        self._hash_cache = (slots, len(slots), rodata, data, value)
        return value

    def seed_hash_cache(self, image_hash: str) -> None:
        """Prime :attr:`image_hash` with a hash already computed from the
        same content (an installer decoding many instances of one image
        hashes it once).  The caller owns the equality guarantee; the
        cache layout stays private to this module."""
        self._hash_cache = (self.slots, len(self.slots), self.rodata,
                            self.data, image_hash)

    @property
    def code_size(self) -> int:
        """Size of the executable text in bytes (Table 2's 'code size')."""
        return len(self.slots) * SLOT_SIZE

    @property
    def image_size(self) -> int:
        """Total size stored on the device: text plus data sections."""
        return self.code_size + len(self.rodata) + len(self.data)

    def iter_logical(self):
        """Yield ``(pc, instruction)`` skipping wide continuation slots."""
        pc = 0
        while pc < len(self.slots):
            ins = self.slots[pc]
            yield pc, ins
            pc += 2 if ins.opcode in isa.WIDE_OPCODES else 1
