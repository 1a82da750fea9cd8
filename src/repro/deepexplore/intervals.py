"""Rebuilding a profiled interval as an executable corpus seed.

Each representative interval needs its execution context — the paper
constructs initialization instructions for the GRF, FRF and CSRs from the
interval-entry architectural state.  The register values are planted in a
context area of the data segment (a data patch) and the init block loads
them; the interval's code span follows verbatim.
"""

from repro.fuzzer.blocks import InstructionBlock
from repro.fuzzer.context import (
    REG_DATA_BASE,
    REG_HANDLER_T0,
    REG_HANDLER_T1,
    REG_INSTR_BASE,
    REG_JALR_TEMP,
)
from repro.isa import csr as CSR
from repro.isa.encoder import encode

# Registers the init block must NOT restore (harness conventions).
_PRESERVED_XREGS = frozenset(
    {0, REG_DATA_BASE, REG_INSTR_BASE, REG_HANDLER_T0, REG_HANDLER_T1}
)

# Context area: 8 KiB below the end of the data segment.
CONTEXT_AREA_OFFSET = (1 << 16) - 8192


def build_init_words(snapshot, layout, context_offset=CONTEXT_AREA_OFFSET):
    """Initialization instructions + the context-area data patch.

    Loads every restorable integer and FP register from the context area
    at ``context_offset`` (each interval seed gets its own slot), then
    restores fcsr.  Returns ``(words, patch)`` where ``patch`` is the
    ``(offset, bytes)`` pair for the iteration's data segment.
    """
    blob = bytearray()
    words = []
    # Point the scratch register at the context area (lui+addi from the
    # data base would overflow the 12-bit range, so materialize directly).
    context_address = layout.data + context_offset
    upper = (context_address + 0x800) & 0xFFFFF000
    words.append(encode("lui", rd=REG_JALR_TEMP, imm=upper))
    words.append(
        encode("addi", rd=REG_JALR_TEMP, rs1=REG_JALR_TEMP,
               imm=context_address - upper)
    )
    slot = 0
    for index in range(32):
        if index in _PRESERVED_XREGS:
            continue
        blob += snapshot["xregs"][index].to_bytes(8, "little")
        words.append(
            encode("ld", rd=index, rs1=REG_JALR_TEMP, imm=slot * 8)
        )
        slot += 1
    for index in range(32):
        blob += snapshot["fregs"][index].to_bytes(8, "little")
        words.append(
            encode("fld", rd=index, rs1=REG_JALR_TEMP, imm=slot * 8)
        )
        slot += 1
    # Restore fcsr via an integer load + csrrw (clobbers REG_HANDLER_T1,
    # which the conventions reserve for exactly this kind of plumbing).
    fcsr = snapshot["csrs"].get(CSR.FCSR, 0) & 0xFF
    words.append(encode("addi", rd=REG_HANDLER_T1, rs1=0, imm=fcsr))
    words.append(encode("csrrw", rd=0, csr=CSR.FCSR, rs1=REG_HANDLER_T1))
    return words, (context_offset, bytes(blob))


def build_interval_seed(interval, code_words, code_base, layout,
                        max_span_words=4096,
                        context_offset=CONTEXT_AREA_OFFSET):
    """Blocks for one interval seed: init block + the interval's code span.

    ``code_words``/``code_base`` describe the profiled program so the
    interval's executed span can be sliced out.  Returns
    ``(blocks, data_patch)``.
    """
    init_words, patch = build_init_words(interval.start_snapshot, layout,
                                         context_offset)
    blocks = [InstructionBlock("addi", tuple(init_words), generated=False)]
    first = max(0, (interval.min_pc - code_base) // 4)
    last = min(len(code_words), (interval.max_pc - code_base) // 4 + 1)
    if last - first > max_span_words:
        last = first + max_span_words
    for word in code_words[first:last]:
        blocks.append(InstructionBlock("addi", (word,), generated=False))
    return blocks, patch
