"""Program image construction: templates + iteration blocks + data segment.

The image is what gets committed to the DUT's (and REF's) memory for one
fuzzing iteration: prologue at the reset vector, trap handler, done loop,
the assembled instruction blocks, and the LFSR-randomized data segment with
an *interesting-values table* at the data base (zeros, infinities, NaNs,
an improperly NaN-boxed single — the special operands that make the FP
corner cases of Table II reachable at all).
"""

import struct
from dataclasses import dataclass, field

from repro.fuzzer.context import MemoryLayout
from repro.fuzzer.lfsr import Lfsr
from repro.fuzzer.templates import build_done_loop, build_prologue, build_trap_handler

# The interesting-values table, laid out at the data base register (so the
# generator's small positive fld displacements reach it).  Doubles first,
# then NaN-boxed singles, then deliberately *mis-boxed* singles (upper bits
# not all-ones) for the C3/C6 NaN-boxing bugs.
_D = lambda value: struct.unpack("<Q", struct.pack("<d", value))[0]  # noqa: E731

INTERESTING_F64 = (
    _D(0.0),
    _D(-0.0),
    _D(float("inf")),
    _D(float("-inf")),
    0x7FF8_0000_0000_0000,  # qNaN
    0x7FF0_0000_0000_0001,  # sNaN
    _D(1.0),
    _D(-1.0),
    _D(1.5),
    _D(2.0 ** -1060),  # subnormal territory after ops
    _D(1.7976931348623157e308),  # DBL_MAX
    _D(5e-324),  # smallest subnormal
)

_BOX = 0xFFFFFFFF_00000000
_S = lambda value: struct.unpack("<I", struct.pack("<f", value))[0]  # noqa: E731

INTERESTING_BOXED_F32 = (
    _BOX | _S(0.0),
    _BOX | 0x8000_0000,  # -0.0f
    _BOX | _S(float("inf")),
    _BOX | _S(float("-inf")),
    _BOX | 0x7FC0_0000,  # qNaNf
    _BOX | 0x7F80_0001,  # sNaNf
    _BOX | _S(1.0),
    _BOX | _S(3.5),
)

MISBOXED_F32 = (
    0x0000_0000_3F80_0000,  # 1.0f with a zero box (invalid)
    0xDEADBEEF_7F80_0000,   # +inf-f with a garbage box (invalid)
)

INTERESTING_TABLE = INTERESTING_F64 + INTERESTING_BOXED_F32 + MISBOXED_F32


@dataclass
class ProgramImage:
    """Everything needed to install one iteration into a memory."""

    layout: MemoryLayout
    prologue: list
    handler: list
    done: list
    block_words: list
    data_bytes: bytes
    block_bases: list = field(default_factory=list)

    @property
    def total_template_instructions(self):
        return len(self.prologue) + len(self.handler) + len(self.done)

    def install(self, memory):
        """Write all segments and whitelist the legal address windows."""
        layout = self.layout
        for base, size in layout.memory_ranges():
            memory.add_range(base, size)
        memory.write_program(layout.reset, self.prologue)
        memory.write_program(layout.handler, self.handler)
        memory.write_program(layout.done, self.done)
        memory.write_program(layout.blocks, self.block_words)
        memory.store_bytes(layout.data, self.data_bytes, check=False)


def build_data_segment(layout, data_seed, patches=()):
    """LFSR-randomized data segment with the interesting-values table at
    the data base register's window.  ``patches`` are (offset, bytes)
    pairs applied last (deepExplore uses them to plant interval
    initialization contexts)."""
    lfsr = Lfsr(data_seed or 1)
    data = bytearray(lfsr.fill_bytes(layout.data_size))
    table_offset = layout.data_base_reg_value - layout.data
    cursor = table_offset
    for value in INTERESTING_TABLE:
        data[cursor : cursor + 8] = value.to_bytes(8, "little")
        cursor += 8
    for offset, blob in patches:
        data[offset : offset + len(blob)] = blob
    return bytes(data)


def build_image(iteration, fp_init_count=8):
    """Assemble a :class:`ProgramImage` from an assembled iteration."""
    layout = iteration.layout
    if not iteration.words:
        iteration.assemble()
    return ProgramImage(
        layout=layout,
        prologue=build_prologue(layout, fp_init_count),
        handler=build_trap_handler(layout),
        done=build_done_loop(),
        block_words=list(iteration.words),
        data_bytes=build_data_segment(
            layout, iteration.data_seed,
            patches=getattr(iteration, "data_patches", ()),
        ),
        block_bases=list(iteration.block_bases),
    )
