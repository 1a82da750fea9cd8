"""Fuzzing context: memory layout, register conventions, operand pools.

This is the paper's *fuzzing context module*: it manages symbol values to
enforce memory-address requirements (3/4 data segment vs 1/4 instruction
segment for reads; writes confined to the data region to prevent
self-modifying code) and supplies operand values to the unified operand
assignment stage.  Registers, CSRs and rounding modes are drawn from the
constant pools below: the per-spec block emitters
(:mod:`repro.fuzzer.blocks`) place each pool's values into their
instruction field once, when they are bound, and assign such an operand
with one LFSR draw and one tuple index.
"""

from dataclasses import dataclass

from repro.isa.csr import FCSR, FFLAGS, FRM, MCAUSE, MEPC, MSCRATCH, MTVAL, STVAL


@dataclass(frozen=True)
class MemoryLayout:
    """Address-space layout of one fuzzing iteration.

    Segments sit below 2**31 so LUI-built addresses need no sign-extension
    fixups.  The data base registers point 2 KiB into their segments so any
    12-bit signed displacement stays in range.
    """

    reset: int = 0x4000_0000
    handler: int = 0x4000_0200
    done: int = 0x4000_0400
    blocks: int = 0x4000_1000
    data: int = 0x4004_0000
    data_size: int = 1 << 16
    code_size: int = 1 << 18

    @property
    def data_base_reg_value(self):
        return self.data + 0x800

    @property
    def instr_base_reg_value(self):
        return self.blocks + 0x800

    def memory_ranges(self):
        """Legal windows for the iteration's SparseMemory."""
        return [
            (self.reset, self.code_size),
            (self.data, self.data_size),
        ]


# Register conventions (shared by generator, templates, and checker):
REG_DATA_BASE = 5    # t0 -> data segment base (+2 KiB)
REG_INSTR_BASE = 6   # t1 -> instruction segment base (+2 KiB)
REG_JALR_TEMP = 29   # t4 -> jalr target materialization
REG_HANDLER_T0 = 30  # t5 -> clobbered by the trap handler
REG_HANDLER_T1 = 31  # t6 -> clobbered by the trap handler

# Destination pool: avoid zero/ra/sp plus the reserved registers above.
RD_POOL = tuple(range(7, 29))
# Source pool: anything readable including x0 and the base registers.
RS_POOL = tuple(range(0, 30))
# FP registers carry no convention: any of the 32.
FREG_POOL = tuple(range(32))

# CSRs the generator may touch.  mtvec is excluded (it would tear down the
# exception template); everything else is fair game — including stval,
# which bug C7 needs to be read.
GENERATABLE_CSRS = (
    FFLAGS, FRM, FCSR, MSCRATCH, MEPC, MCAUSE, MTVAL, STVAL,
)
# Writes are restricted to harmless CSRs.
WRITABLE_CSRS = (FFLAGS, FRM, FCSR, MSCRATCH)

# Rounding modes: usually valid, occasionally invalid (exercises the
# illegal-instruction path and bug B2; see draw_odds).
VALID_RMS = (0, 1, 2, 3, 4, 7)
INVALID_RMS = (5, 6)


def _odds(probability):
    """``(numerator, mask)`` of a Bernoulli draw over a power-of-two
    denominator: true when ``state & mask < numerator``."""
    numerator, denominator = probability
    if denominator & (denominator - 1):
        raise ValueError("denominator must be a power of two")
    return numerator, denominator - 1


def draw_odds(invalid_rm_prob, data_segment_prob):
    """The two operand Bernoulli draws of a generator, as
    ``(invalid-rm numerator, mask, data-segment numerator, mask)``: an FP
    rounding mode from :data:`INVALID_RMS`, and a load based on the data
    segment rather than the instruction segment (3/4 by default,
    user-configurable, paper Section IV-C).  Each probability is a
    ``(numerator, power-of-two denominator)`` pair; generators draw the
    odds once per iteration."""
    return _odds(invalid_rm_prob) + _odds(data_segment_prob)
