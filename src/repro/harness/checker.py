"""ENCORE-style fine-grained differential checking (paper Section III).

The DUT and the REF execute in instruction-level lockstep; after every
instruction their commit records are compared.  Any divergence — register
writeback, memory write, CSR effect, accrued fflags, control flow, or trap
cause — halts both sides immediately, which is the paper's "hardware and
software pausing immediately on mismatches".
"""

from dataclasses import dataclass

from repro.isa.disasm import disassemble


@dataclass
class Mismatch:
    """One detected DUT/REF divergence."""

    instruction_index: int
    pc: int
    word: int
    field: str
    dut_value: object
    ref_value: object

    def describe(self):
        """Human-readable mismatch report (for snapshots and logs)."""
        return (
            f"mismatch at #{self.instruction_index} pc={self.pc:#010x} "
            f"[{disassemble(self.word)}]: {self.field}: "
            f"dut={self.dut_value!r} ref={self.ref_value!r}"
        )


_FIELD_NAMES = (
    "pc",
    "next_pc",
    "trap_cause",
    "rd",
    "rd_value",
    "frd",
    "frd_value",
    "mem_addr",
    "mem_value",
    "csr_addr",
    "csr_value",
    "fflags_set",
)


class DifferentialChecker:
    """Compares per-instruction commit records from DUT and REF."""

    def __init__(self):
        self.instructions_checked = 0
        self.mismatches = []

    def check(self, dut_record, ref_record):
        """Compare one instruction; returns a Mismatch or None.

        The fields are compared in place (the traps by cause), so an
        agreeing instruction builds nothing; only a disagreement builds
        both records' :meth:`key_fields` to name its first differing
        field."""
        self.instructions_checked += 1
        dut_trap, ref_trap = dut_record.trap, ref_record.trap
        if (dut_record.pc == ref_record.pc
                and dut_record.next_pc == ref_record.next_pc
                and dut_record.rd == ref_record.rd
                and dut_record.rd_value == ref_record.rd_value
                and dut_record.frd == ref_record.frd
                and dut_record.frd_value == ref_record.frd_value
                and dut_record.mem_addr == ref_record.mem_addr
                and dut_record.mem_value == ref_record.mem_value
                and dut_record.csr_addr == ref_record.csr_addr
                and dut_record.csr_value == ref_record.csr_value
                and dut_record.fflags_set == ref_record.fflags_set
                and (dut_trap is ref_trap
                     or (dut_trap is not None and ref_trap is not None
                         and dut_trap.cause == ref_trap.cause))):
            return None
        for name, dut_value, ref_value in zip(
                _FIELD_NAMES, dut_record.key_fields(), ref_record.key_fields()):
            if dut_value != ref_value:
                mismatch = Mismatch(
                    instruction_index=self.instructions_checked - 1,
                    pc=dut_record.pc,
                    word=dut_record.word,
                    field=name,
                    dut_value=dut_value,
                    ref_value=ref_value,
                )
                self.mismatches.append(mismatch)
                return mismatch
        return None  # pragma: no cover - fields differ iff a compare failed

    @property
    def clean(self):
        return not self.mismatches
