"""Instruction-accurate RV64 executor shared by REF and DUT models.

The executor implements full architectural semantics; the DUT cores reuse it
with an :class:`ExecHooks` subclass that injects the Table II bugs at the
architecturally-visible points (FPU results, rounding-mode resolution,
NaN unboxing, CSR reads, AMO legality, minstret retirement).

Every :meth:`Executor.step` returns a :class:`CommitRecord`; the ENCORE-style
checker (:mod:`repro.harness.checker`) compares DUT and REF records
instruction by instruction, which is the paper's fine-grained self-checking.

The step is the inner loop of both sides, so it avoids call chains: it
fetches with one check against the memory's fetch window and one page
read (the fault path and its trap are the memory's own), dispatches
through the handler attached to the spec at import, and hands its
:class:`~repro.isa.decoder.DecodedInstr` to the DUT on the record.  The
FP and AMO handlers are made per spec at import by their family's
factory and do the family's work inline: the FS check, the rounding
mode, the register reads and writes, FS dirty and the fflags accrual.
They still call every :class:`ExecHooks` method, in the same order.
"""

from dataclasses import dataclass, field

from repro.analyze.markers import hot_path
from repro.isa import csr as CSR
from repro.isa.decoder import _CACHE as _DECODE_CACHE
from repro.isa.decoder import IllegalInstruction, decode
from repro.isa.encoding import MASK32, MASK64, sext, to_signed, to_unsigned
from repro.isa.instructions import Extension
from repro.ref.memory import PAGE_MASK, PAGE_SHIFT, UNPACK_WORD, MemoryAccessError
from repro.ref.state import PRV_M
from repro.softfloat import (
    F32,
    F64,
    fp_add,
    fp_classify,
    fp_div,
    fp_eq,
    fp_fma,
    fp_le,
    fp_lt,
    fp_max,
    fp_min,
    fp_mul,
    fp_sqrt,
    fp_sub,
    fp_to_fp,
    fp_to_int,
    int_to_fp,
)
from repro.softfloat import formats as fp_formats

_ILLEGAL = CSR.CAUSE_ILLEGAL_INSTRUCTION
_MSTATUS = CSR.MSTATUS
_FCSR = CSR.FCSR
_FS_MASK = CSR.MSTATUS_FS_MASK  # FS off is 0
_FS_DIRTY = CSR.MSTATUS_FS_DIRTY
_FRM_SHIFT = CSR.FRM_SHIFT
_FRM_MASK = CSR.FRM_MASK
_FFLAGS_MASK = CSR.FFLAGS_MASK
_BOX = MASK64 ^ MASK32  # NaN-box of a binary32 value; sign extension of a word
_SIGN32 = 1 << 31


@dataclass(slots=True)
class Trap:
    """An architectural trap taken while executing one instruction."""

    cause: int
    tval: int = 0

    @property
    def name(self):
        return CSR.CAUSE_NAMES.get(self.cause, f"cause {self.cause}")


class _TrapSignal(Exception):
    """Internal control-flow signal; converted to a Trap in step()."""

    def __init__(self, cause, tval=0):
        super().__init__()
        self.trap = Trap(cause, tval)


@dataclass(slots=True)
class CommitRecord:
    """What one instruction did, for differential checking and tracing."""

    pc: int
    word: int
    name: str
    next_pc: int
    # The instruction the word decoded to (None when it did not decode),
    # handed to the DUT model; not an architectural effect.
    decoded: object = field(default=None, compare=False, repr=False)
    trap: Trap = None
    rd: int = None
    rd_value: int = None
    frd: int = None
    frd_value: int = None
    mem_addr: int = None
    mem_size: int = None
    mem_value: int = None
    csr_addr: int = None
    csr_value: int = None
    fflags_set: int = 0

    def key_fields(self):
        """The tuple compared by the instruction-level checker."""
        trap_cause = self.trap.cause if self.trap else None
        return (
            self.pc,
            self.next_pc,
            trap_cause,
            self.rd,
            self.rd_value,
            self.frd,
            self.frd_value,
            self.mem_addr,
            self.mem_value,
            self.csr_addr,
            self.csr_value,
            self.fflags_set,
        )


@dataclass
class ExecConfig:
    """Static configuration of one hart (which extensions are wired up)."""

    xlen: int = 64
    extensions: frozenset = field(
        default_factory=lambda: frozenset(
            {
                Extension.I,
                Extension.M,
                Extension.A,
                Extension.F,
                Extension.D,
                Extension.ZICSR,
                Extension.SYSTEM,
            }
        )
    )


class ExecHooks:
    """Override points where DUT cores inject Table II bugs.

    The default implementations are architecturally correct; the REF model
    always uses this base class directly.
    """

    def resolve_rm(self, instr_rm, frm):
        """Resolve the effective rounding mode; ``None`` means illegal."""
        rm = frm if instr_rm == CSR.RM_DYN else instr_rm
        if rm not in CSR.VALID_RMS:
            return None
        return rm

    def nan_unbox(self, bits64):
        """Extract a binary32 operand from a 64-bit FP register."""
        return fp_formats.nan_unbox(bits64)

    def fp_post(self, name, fmt, operands, result, flags, rm):
        """Intercept an FP arithmetic result (bug injection point)."""
        return result, flags

    def csr_read(self, address, value):
        """Intercept a CSR read (bug injection point, e.g. stval C7)."""
        return value

    def amo_legal(self, spec):
        """Whether an AMO encoding is accepted (bug C8 point)."""
        return True

    def counts_minstret(self, decoded, trapped):
        """Whether this instruction bumps minstret (bug R1 point)."""
        return True


DEFAULT_HOOKS = ExecHooks()


class Executor:
    """Steps one hart: fetch, decode, execute, trap handling, retire."""

    def __init__(self, state, memory, config=None, hooks=None):
        self.state = state
        self.memory = memory
        self.config = config or ExecConfig()
        self.hooks = hooks or DEFAULT_HOOKS
        # Hot-path aliases resolved once (config and hooks are static per
        # hart; a fresh Executor is built on every DUT reset).
        self._extensions = self.config.extensions
        self._minstret_always = (
            type(self.hooks).counts_minstret is ExecHooks.counts_minstret
        )

    # ------------------------------------------------------------------ fetch
    @hot_path
    def step(self):
        """Execute one instruction and return its :class:`CommitRecord`."""
        state = self.state
        pc = state.pc
        word = 0
        decoded = None
        # analyze: ignore[HOT005] trap dispatch: raises only on the cold (trap) branch
        try:
            if pc & 3:
                raise _TrapSignal(CSR.CAUSE_MISALIGNED_FETCH, pc)
            # Fetch: one check against the last legal window a fetch hit
            # and one page read; anything else takes the memory's path.
            memory = self.memory
            base, end = memory.fetch_window
            if base <= pc and pc + 4 <= end:
                page = memory.pages.get(pc >> PAGE_SHIFT)
                if page is not None:
                    word = UNPACK_WORD(page, pc & PAGE_MASK)[0]
            else:
                try:  # analyze: ignore[HOT005] fetch fault is the cold branch
                    word = memory.load_word(pc)
                except MemoryAccessError:
                    raise _TrapSignal(CSR.CAUSE_FETCH_ACCESS, pc) from None
            decoded = _DECODE_CACHE.get(word)
            if decoded is None:
                try:  # analyze: ignore[HOT005] decode-cache miss is the cold branch
                    decoded = decode(word)
                except IllegalInstruction:
                    raise _TrapSignal(_ILLEGAL, word) from None
            spec = decoded.spec
            if spec.extension not in self._extensions:
                raise _TrapSignal(_ILLEGAL, word)
            record = CommitRecord(pc, word, spec.name, pc + 4, decoded)
            # Handlers are pre-attached to the spec objects at import (see
            # _attach_handlers); one attribute load replaces the
            # name-keyed dict dispatch.
            spec.exec_handler(self, decoded, record)
        except _TrapSignal as signal:
            name = decoded.spec.name if decoded is not None else "?"
            record = CommitRecord(pc, word, name, 0, decoded)
            record.trap = signal.trap
            record.next_pc = self._take_trap(signal.trap, pc)
        state.pc = record.next_pc
        csrs = state.csrs
        if self._minstret_always or self.hooks.counts_minstret(
                decoded, record.trap is not None):
            csrs[CSR.MINSTRET] = (csrs[CSR.MINSTRET] + 1) & MASK64
        csrs[CSR.MCYCLE] = (csrs[CSR.MCYCLE] + 1) & MASK64
        return record

    def _take_trap(self, trap, pc):
        state = self.state
        state.csrs[CSR.MEPC] = pc
        state.csrs[CSR.MCAUSE] = trap.cause
        state.csrs[CSR.MTVAL] = trap.tval & MASK64
        # The cores keep a shared tval latch that also backs stval (no
        # S-mode delegation in this model); bug C7 intercepts its readout.
        state.csrs[CSR.STVAL] = trap.tval & MASK64
        status = state.csrs[CSR.MSTATUS]
        mie = (status >> 3) & 1
        status = (status & ~CSR.MSTATUS_MPIE) | (mie << 7)
        status &= ~CSR.MSTATUS_MIE
        state.csrs[CSR.MSTATUS] = status
        state.privilege = PRV_M
        return state.csrs[CSR.MTVEC] & ~3

    # --- helpers --------------------------------------------------------
    @hot_path
    def _wx(self, record, index, value):
        value &= MASK64
        if index:
            self.state.xregs[index] = value
            record.rd = index
            record.rd_value = value
        else:
            record.rd = 0
            record.rd_value = 0

    def _load(self, address, size):
        try:
            return self.memory.load(address, size)
        except MemoryAccessError:
            raise _TrapSignal(CSR.CAUSE_LOAD_ACCESS, address) from None

    def _store(self, record, address, size, value):
        try:
            self.memory.store(address, size, value)
        except MemoryAccessError:
            raise _TrapSignal(CSR.CAUSE_STORE_ACCESS, address) from None
        record.mem_addr = address
        record.mem_size = size
        record.mem_value = value & ((1 << (size * 8)) - 1)

    def _branch_to(self, record, target):
        target &= MASK64
        if target & 3:
            raise _TrapSignal(CSR.CAUSE_MISALIGNED_FETCH, target)
        record.next_pc = target

    # --- integer computational -------------------------------------------
    def _op_lui(self, d, record):
        self._wx(record, d.rd, to_unsigned(d.imm))

    def _op_auipc(self, d, record):
        self._wx(record, d.rd, record.pc + to_unsigned(d.imm))

    def _op_addi(self, d, record):
        self._wx(record, d.rd, self.state.xregs[d.rs1] + d.imm)

    def _op_slti(self, d, record):
        self._wx(record, d.rd, 1 if to_signed(self.state.xregs[d.rs1]) < d.imm else 0)

    def _op_sltiu(self, d, record):
        self._wx(record, d.rd, 1 if self.state.xregs[d.rs1] < to_unsigned(d.imm) else 0)

    def _op_xori(self, d, record):
        self._wx(record, d.rd, self.state.xregs[d.rs1] ^ to_unsigned(d.imm))

    def _op_ori(self, d, record):
        self._wx(record, d.rd, self.state.xregs[d.rs1] | to_unsigned(d.imm))

    def _op_andi(self, d, record):
        self._wx(record, d.rd, self.state.xregs[d.rs1] & to_unsigned(d.imm))

    def _op_slli(self, d, record):
        self._wx(record, d.rd, self.state.xregs[d.rs1] << d.shamt)

    def _op_srli(self, d, record):
        self._wx(record, d.rd, self.state.xregs[d.rs1] >> d.shamt)

    def _op_srai(self, d, record):
        self._wx(record, d.rd, to_signed(self.state.xregs[d.rs1]) >> d.shamt)

    def _op_addiw(self, d, record):
        self._wx(record, d.rd, sext((self.state.xregs[d.rs1] + d.imm) & MASK32, 32))

    def _op_slliw(self, d, record):
        self._wx(record, d.rd, sext((self.state.xregs[d.rs1] << d.shamt) & MASK32, 32))

    def _op_srliw(self, d, record):
        self._wx(record, d.rd, sext((self.state.xregs[d.rs1] & MASK32) >> d.shamt, 32))

    def _op_sraiw(self, d, record):
        self._wx(record, d.rd, sext(self.state.xregs[d.rs1] & MASK32, 32) >> d.shamt)

    def _op_add(self, d, record):
        x = self.state.xregs
        self._wx(record, d.rd, x[d.rs1] + x[d.rs2])

    def _op_sub(self, d, record):
        x = self.state.xregs
        self._wx(record, d.rd, x[d.rs1] - x[d.rs2])

    def _op_sll(self, d, record):
        x = self.state.xregs
        self._wx(record, d.rd, x[d.rs1] << (x[d.rs2] & 63))

    def _op_slt(self, d, record):
        x = self.state.xregs
        self._wx(record, d.rd, 1 if to_signed(x[d.rs1]) < to_signed(x[d.rs2]) else 0)

    def _op_sltu(self, d, record):
        x = self.state.xregs
        self._wx(record, d.rd, 1 if x[d.rs1] < x[d.rs2] else 0)

    def _op_xor(self, d, record):
        x = self.state.xregs
        self._wx(record, d.rd, x[d.rs1] ^ x[d.rs2])

    def _op_srl(self, d, record):
        x = self.state.xregs
        self._wx(record, d.rd, x[d.rs1] >> (x[d.rs2] & 63))

    def _op_sra(self, d, record):
        x = self.state.xregs
        self._wx(record, d.rd, to_signed(x[d.rs1]) >> (x[d.rs2] & 63))

    def _op_or(self, d, record):
        x = self.state.xregs
        self._wx(record, d.rd, x[d.rs1] | x[d.rs2])

    def _op_and(self, d, record):
        x = self.state.xregs
        self._wx(record, d.rd, x[d.rs1] & x[d.rs2])

    def _op_addw(self, d, record):
        x = self.state.xregs
        self._wx(record, d.rd, sext((x[d.rs1] + x[d.rs2]) & MASK32, 32))

    def _op_subw(self, d, record):
        x = self.state.xregs
        self._wx(record, d.rd, sext((x[d.rs1] - x[d.rs2]) & MASK32, 32))

    def _op_sllw(self, d, record):
        x = self.state.xregs
        self._wx(record, d.rd, sext((x[d.rs1] << (x[d.rs2] & 31)) & MASK32, 32))

    def _op_srlw(self, d, record):
        x = self.state.xregs
        self._wx(record, d.rd, sext((x[d.rs1] & MASK32) >> (x[d.rs2] & 31), 32))

    def _op_sraw(self, d, record):
        x = self.state.xregs
        self._wx(record, d.rd, sext(x[d.rs1] & MASK32, 32) >> (x[d.rs2] & 31))

    # --- control flow -----------------------------------------------------
    def _op_jal(self, d, record):
        target = record.pc + d.imm
        self._wx(record, d.rd, record.pc + 4)
        self._branch_to(record, target)

    def _op_jalr(self, d, record):
        target = (self.state.xregs[d.rs1] + d.imm) & ~1
        self._wx(record, d.rd, record.pc + 4)
        self._branch_to(record, target)

    def _branch(self, d, record, taken):
        if taken:
            self._branch_to(record, record.pc + d.imm)

    def _op_beq(self, d, record):
        x = self.state.xregs
        self._branch(d, record, x[d.rs1] == x[d.rs2])

    def _op_bne(self, d, record):
        x = self.state.xregs
        self._branch(d, record, x[d.rs1] != x[d.rs2])

    def _op_blt(self, d, record):
        x = self.state.xregs
        self._branch(d, record, to_signed(x[d.rs1]) < to_signed(x[d.rs2]))

    def _op_bge(self, d, record):
        x = self.state.xregs
        self._branch(d, record, to_signed(x[d.rs1]) >= to_signed(x[d.rs2]))

    def _op_bltu(self, d, record):
        x = self.state.xregs
        self._branch(d, record, x[d.rs1] < x[d.rs2])

    def _op_bgeu(self, d, record):
        x = self.state.xregs
        self._branch(d, record, x[d.rs1] >= x[d.rs2])

    # --- memory -------------------------------------------------------------
    def _op_lb(self, d, record):
        value = self._load(self.state.xregs[d.rs1] + d.imm & MASK64, 1)
        self._wx(record, d.rd, sext(value, 8))

    def _op_lh(self, d, record):
        value = self._load(self.state.xregs[d.rs1] + d.imm & MASK64, 2)
        self._wx(record, d.rd, sext(value, 16))

    def _op_lw(self, d, record):
        value = self._load(self.state.xregs[d.rs1] + d.imm & MASK64, 4)
        self._wx(record, d.rd, sext(value, 32))

    def _op_ld(self, d, record):
        self._wx(record, d.rd, self._load(self.state.xregs[d.rs1] + d.imm & MASK64, 8))

    def _op_lbu(self, d, record):
        self._wx(record, d.rd, self._load(self.state.xregs[d.rs1] + d.imm & MASK64, 1))

    def _op_lhu(self, d, record):
        self._wx(record, d.rd, self._load(self.state.xregs[d.rs1] + d.imm & MASK64, 2))

    def _op_lwu(self, d, record):
        self._wx(record, d.rd, self._load(self.state.xregs[d.rs1] + d.imm & MASK64, 4))

    def _op_sb(self, d, record):
        x = self.state.xregs
        self._store(record, x[d.rs1] + d.imm & MASK64, 1, x[d.rs2])

    def _op_sh(self, d, record):
        x = self.state.xregs
        self._store(record, x[d.rs1] + d.imm & MASK64, 2, x[d.rs2])

    def _op_sw(self, d, record):
        x = self.state.xregs
        self._store(record, x[d.rs1] + d.imm & MASK64, 4, x[d.rs2])

    def _op_sd(self, d, record):
        x = self.state.xregs
        self._store(record, x[d.rs1] + d.imm & MASK64, 8, x[d.rs2])

    # --- M extension ----------------------------------------------------------
    def _op_mul(self, d, record):
        x = self.state.xregs
        self._wx(record, d.rd, x[d.rs1] * x[d.rs2])

    def _op_mulh(self, d, record):
        x = self.state.xregs
        product = to_signed(x[d.rs1]) * to_signed(x[d.rs2])
        self._wx(record, d.rd, (product >> 64))

    def _op_mulhsu(self, d, record):
        x = self.state.xregs
        product = to_signed(x[d.rs1]) * x[d.rs2]
        self._wx(record, d.rd, (product >> 64))

    def _op_mulhu(self, d, record):
        x = self.state.xregs
        self._wx(record, d.rd, (x[d.rs1] * x[d.rs2]) >> 64)

    @staticmethod
    def _div_signed(a, b, width):
        if b == 0:
            return -1
        min_int = -(1 << (width - 1))
        if a == min_int and b == -1:
            return min_int
        quotient = abs(a) // abs(b)
        return -quotient if (a < 0) != (b < 0) else quotient

    @staticmethod
    def _rem_signed(a, b, width):
        if b == 0:
            return a
        min_int = -(1 << (width - 1))
        if a == min_int and b == -1:
            return 0
        remainder = abs(a) % abs(b)
        return -remainder if a < 0 else remainder

    def _op_div(self, d, record):
        x = self.state.xregs
        self._wx(record, d.rd, self._div_signed(to_signed(x[d.rs1]), to_signed(x[d.rs2]), 64))

    def _op_divu(self, d, record):
        x = self.state.xregs
        self._wx(record, d.rd, MASK64 if x[d.rs2] == 0 else x[d.rs1] // x[d.rs2])

    def _op_rem(self, d, record):
        x = self.state.xregs
        self._wx(record, d.rd, self._rem_signed(to_signed(x[d.rs1]), to_signed(x[d.rs2]), 64))

    def _op_remu(self, d, record):
        x = self.state.xregs
        self._wx(record, d.rd, x[d.rs1] if x[d.rs2] == 0 else x[d.rs1] % x[d.rs2])

    def _op_mulw(self, d, record):
        x = self.state.xregs
        self._wx(record, d.rd, sext((x[d.rs1] * x[d.rs2]) & MASK32, 32))

    def _op_divw(self, d, record):
        x = self.state.xregs
        a, b = sext(x[d.rs1] & MASK32, 32), sext(x[d.rs2] & MASK32, 32)
        self._wx(record, d.rd, sext(self._div_signed(a, b, 32) & MASK32, 32))

    def _op_divuw(self, d, record):
        x = self.state.xregs
        a, b = x[d.rs1] & MASK32, x[d.rs2] & MASK32
        value = MASK32 if b == 0 else a // b
        self._wx(record, d.rd, sext(value, 32))

    def _op_remw(self, d, record):
        x = self.state.xregs
        a, b = sext(x[d.rs1] & MASK32, 32), sext(x[d.rs2] & MASK32, 32)
        self._wx(record, d.rd, sext(self._rem_signed(a, b, 32) & MASK32, 32))

    def _op_remuw(self, d, record):
        x = self.state.xregs
        a, b = x[d.rs1] & MASK32, x[d.rs2] & MASK32
        value = a if b == 0 else a % b
        self._wx(record, d.rd, sext(value, 32))

    # --- FP loads/stores and moves ------------------------------------------
    # The FP handlers check mstatus.FS, read and write the FP registers,
    # mark FS dirty and accrue fflags inline; the hooks they call are the
    # bug injection points and change no architectural state.
    def _op_flw(self, d, record):
        csrs = self.state.csrs
        status = csrs[_MSTATUS]
        if not status & _FS_MASK:
            raise _TrapSignal(_ILLEGAL, d.word)
        value = _BOX | self._load(self.state.xregs[d.rs1] + d.imm & MASK64, 4)
        self.state.fregs[d.rd] = value
        csrs[_MSTATUS] = (status & ~_FS_MASK) | _FS_DIRTY
        record.frd = d.rd
        record.frd_value = value

    def _op_fld(self, d, record):
        csrs = self.state.csrs
        status = csrs[_MSTATUS]
        if not status & _FS_MASK:
            raise _TrapSignal(_ILLEGAL, d.word)
        value = self._load(self.state.xregs[d.rs1] + d.imm & MASK64, 8)
        self.state.fregs[d.rd] = value
        csrs[_MSTATUS] = (status & ~_FS_MASK) | _FS_DIRTY
        record.frd = d.rd
        record.frd_value = value

    def _op_fsw(self, d, record):
        state = self.state
        if not state.csrs[_MSTATUS] & _FS_MASK:
            raise _TrapSignal(_ILLEGAL, d.word)
        address = state.xregs[d.rs1] + d.imm & MASK64
        self._store(record, address, 4, state.fregs[d.rs2] & MASK32)

    def _op_fsd(self, d, record):
        state = self.state
        if not state.csrs[_MSTATUS] & _FS_MASK:
            raise _TrapSignal(_ILLEGAL, d.word)
        address = state.xregs[d.rs1] + d.imm & MASK64
        self._store(record, address, 8, state.fregs[d.rs2])

    def _op_fmv_x_w(self, d, record):
        state = self.state
        if not state.csrs[_MSTATUS] & _FS_MASK:
            raise _TrapSignal(_ILLEGAL, d.word)
        value = state.fregs[d.rs1] & MASK32
        self._wx(record, d.rd, value | _BOX if value & _SIGN32 else value)

    def _op_fmv_w_x(self, d, record):
        state = self.state
        csrs = state.csrs
        status = csrs[_MSTATUS]
        if not status & _FS_MASK:
            raise _TrapSignal(_ILLEGAL, d.word)
        value = _BOX | (state.xregs[d.rs1] & MASK32)
        state.fregs[d.rd] = value
        csrs[_MSTATUS] = (status & ~_FS_MASK) | _FS_DIRTY
        record.frd = d.rd
        record.frd_value = value

    def _op_fmv_x_d(self, d, record):
        state = self.state
        if not state.csrs[_MSTATUS] & _FS_MASK:
            raise _TrapSignal(_ILLEGAL, d.word)
        self._wx(record, d.rd, state.fregs[d.rs1])

    def _op_fmv_d_x(self, d, record):
        state = self.state
        csrs = state.csrs
        status = csrs[_MSTATUS]
        if not status & _FS_MASK:
            raise _TrapSignal(_ILLEGAL, d.word)
        value = state.xregs[d.rs1]
        state.fregs[d.rd] = value
        csrs[_MSTATUS] = (status & ~_FS_MASK) | _FS_DIRTY
        record.frd = d.rd
        record.frd_value = value

    # --- CSR / system -------------------------------------------------------
    def _csr_read(self, d, address):
        state = self.state
        if address == CSR.FFLAGS:
            value = state.fflags
        elif address == CSR.FRM:
            value = state.frm
        elif address in (CSR.CYCLE, CSR.MCYCLE):
            value = state.csrs[CSR.MCYCLE]
        elif address in (CSR.INSTRET,):
            value = state.csrs[CSR.MINSTRET]
        elif address == CSR.TIME:
            value = state.csrs[CSR.MCYCLE]
        elif address in CSR.KNOWN_CSRS:
            value = state.csrs.get(address, 0)
        else:
            raise _TrapSignal(_ILLEGAL, d.word)
        return self.hooks.csr_read(address, value) & MASK64

    def _csr_write(self, d, address, value):
        state = self.state
        if address in CSR.READ_ONLY_CSRS:
            raise _TrapSignal(_ILLEGAL, d.word)
        value &= MASK64
        if address == CSR.FFLAGS:
            state.fflags = value
            state.set_fs_dirty()
        elif address == CSR.FRM:
            state.frm = value
            state.set_fs_dirty()
        elif address == CSR.FCSR:
            state.csrs[CSR.FCSR] = value & 0xFF
            state.set_fs_dirty()
        elif address == CSR.MISA:
            pass  # WARL: writes ignored
        elif address in CSR.KNOWN_CSRS:
            state.csrs[address] = value
        else:
            raise _TrapSignal(_ILLEGAL, d.word)

    def _csr_op(self, d, record, source, write_kind):
        address = d.csr
        old = self._csr_read(d, address)
        if write_kind == "w":
            do_write = True
            new = source
        elif write_kind == "s":
            do_write = source != 0 if d.spec.fmt == "CSRI" else d.rs1 != 0
            new = old | source
        else:  # "c"
            do_write = source != 0 if d.spec.fmt == "CSRI" else d.rs1 != 0
            new = old & ~source
        if do_write:
            self._csr_write(d, address, new)
            record.csr_addr = address
            record.csr_value = new & MASK64
        self._wx(record, d.rd, old)

    def _op_csrrw(self, d, record):
        self._csr_op(d, record, self.state.xregs[d.rs1], "w")

    def _op_csrrs(self, d, record):
        self._csr_op(d, record, self.state.xregs[d.rs1], "s")

    def _op_csrrc(self, d, record):
        self._csr_op(d, record, self.state.xregs[d.rs1], "c")

    def _op_csrrwi(self, d, record):
        self._csr_op(d, record, d.zimm, "w")

    def _op_csrrsi(self, d, record):
        self._csr_op(d, record, d.zimm, "s")

    def _op_csrrci(self, d, record):
        self._csr_op(d, record, d.zimm, "c")

    def _op_ecall(self, d, record):
        cause = {0: CSR.CAUSE_ECALL_U, 1: CSR.CAUSE_ECALL_S, 3: CSR.CAUSE_ECALL_M}[
            self.state.privilege
        ]
        raise _TrapSignal(cause, 0)

    def _op_ebreak(self, d, record):
        raise _TrapSignal(CSR.CAUSE_BREAKPOINT, record.pc)

    def _op_mret(self, d, record):
        state = self.state
        status = state.csrs[CSR.MSTATUS]
        mpie = (status >> 7) & 1
        status = (status & ~CSR.MSTATUS_MIE) | (mpie << 3)
        status |= CSR.MSTATUS_MPIE
        state.csrs[CSR.MSTATUS] = status
        record.next_pc = state.csrs[CSR.MEPC] & ~3

    def _op_nop(self, d, record):
        pass


# --- A extension and FP handler families -----------------------------------
# One handler per spec, made once at import from its family's factory: the
# factory's arguments (size, format, operation, hook name) are the
# handler's closure, and the body does the family's work inline.  Every
# ExecHooks method a Table II bug is injected through is still called, in
# the same order.

def _make_lr(size):
    sign = 1 << (size * 8 - 1)
    extend = MASK64 ^ ((sign << 1) - 1)

    def handler(executor, d, record):
        if not executor.hooks.amo_legal(d.spec):
            raise _TrapSignal(_ILLEGAL, d.word)
        state = executor.state
        address = state.xregs[d.rs1]
        if address % size:
            raise _TrapSignal(CSR.CAUSE_MISALIGNED_STORE, address)
        value = executor._load(address, size)
        state.reservation = address
        executor._wx(record, d.rd, value | extend if value & sign else value)
    return handler


def _make_sc(size):
    def handler(executor, d, record):
        if not executor.hooks.amo_legal(d.spec):
            raise _TrapSignal(_ILLEGAL, d.word)
        state = executor.state
        address = state.xregs[d.rs1]
        if address % size:
            raise _TrapSignal(CSR.CAUSE_MISALIGNED_STORE, address)
        if state.reservation == address:
            executor._store(record, address, size, state.xregs[d.rs2])
            executor._wx(record, d.rd, 0)
        else:
            executor._wx(record, d.rd, 1)
        state.reservation = None
    return handler


def _make_amo(size, combine):
    bits = size * 8
    mask = (1 << bits) - 1
    sign = 1 << (bits - 1)
    extend = MASK64 ^ mask

    def handler(executor, d, record):
        if not executor.hooks.amo_legal(d.spec):
            raise _TrapSignal(_ILLEGAL, d.word)
        state = executor.state
        address = state.xregs[d.rs1]
        if address % size:
            raise _TrapSignal(CSR.CAUSE_MISALIGNED_STORE, address)
        loaded = executor._load(address, size)
        old = loaded - (1 << bits) if loaded & sign else loaded
        operand = state.xregs[d.rs2] & mask
        if operand & sign:
            operand -= 1 << bits
        executor._store(record, address, size, combine(old, operand) & mask)
        executor._wx(record, d.rd, loaded | extend if loaded & sign else loaded)
    return handler


_AMO_COMBINES = {
    "amoswap": lambda old, new: new,
    "amoadd": lambda old, new: old + new,
    "amoxor": lambda old, new: old ^ new,
    "amoand": lambda old, new: old & new,
    "amoor": lambda old, new: old | new,
    "amomin": lambda old, new: min(old, new),
    "amomax": lambda old, new: max(old, new),
    "amominu": lambda old, new: old if (old & MASK64) < (new & MASK64) else new,
    "amomaxu": lambda old, new: old if (old & MASK64) > (new & MASK64) else new,
}


def _make_fp_op(fmt, name, op, sources, rounded=True):
    """An FP result through ``hooks.fp_post``: fadd/fsub/fmul/fdiv (two
    sources) and fmin/fmax (two, not rounded), fsqrt (one) and the fused
    multiply-adds (three; ``op`` is then ``(negate_product, negate_c)``)."""
    single = fmt is F32
    negate_product, negate_c = op if sources == 3 else (False, False)

    def handler(executor, d, record):
        state = executor.state
        csrs = state.csrs
        status = csrs[_MSTATUS]
        if not status & _FS_MASK:
            raise _TrapSignal(_ILLEGAL, d.word)
        hooks = executor.hooks
        rm = None
        if rounded:
            rm = hooks.resolve_rm(d.rm, (csrs[_FCSR] >> _FRM_SHIFT) & _FRM_MASK)
            if rm is None:
                raise _TrapSignal(_ILLEGAL, d.word)
        fregs = state.fregs
        a = fregs[d.rs1]
        if single:
            a = hooks.nan_unbox(a)
        if sources == 1:
            operands = (a,)
            result, flags = fp_sqrt(a, fmt, rm)
        else:
            b = fregs[d.rs2]
            if single:
                b = hooks.nan_unbox(b)
            if sources == 3:
                c = fregs[d.rs3]
                if single:
                    c = hooks.nan_unbox(c)
                operands = (a, b, c)
                result, flags = fp_fma(a, b, c, fmt, rm, negate_product, negate_c)
            else:
                operands = (a, b)
                result, flags = op(a, b, fmt, rm) if rounded else op(a, b, fmt)
        result, flags = hooks.fp_post(name, fmt, operands, result, flags, rm)
        result = (_BOX | (result & MASK32)) if single else result & MASK64
        fregs[d.rd] = result
        csrs[_MSTATUS] = (status & ~_FS_MASK) | _FS_DIRTY
        record.frd = d.rd
        record.frd_value = result
        flags &= _FFLAGS_MASK
        record.fflags_set = flags
        if flags:
            csrs[_FCSR] |= flags
    return handler


def _make_fp_sign_inject(fmt, mode):
    single = fmt is F32
    sign_bit = fmt.sign_bit

    def handler(executor, d, record):
        state = executor.state
        csrs = state.csrs
        status = csrs[_MSTATUS]
        if not status & _FS_MASK:
            raise _TrapSignal(_ILLEGAL, d.word)
        fregs = state.fregs
        a = fregs[d.rs1]
        b = fregs[d.rs2]
        if single:
            unbox = executor.hooks.nan_unbox
            a = unbox(a)
            b = unbox(b)
        if mode == "j":
            result = (a & ~sign_bit) | (b & sign_bit)
        elif mode == "jn":
            result = (a & ~sign_bit) | ((b & sign_bit) ^ sign_bit)
        else:  # jx
            result = a ^ (b & sign_bit)
        result = (_BOX | (result & MASK32)) if single else result & MASK64
        fregs[d.rd] = result
        csrs[_MSTATUS] = (status & ~_FS_MASK) | _FS_DIRTY
        record.frd = d.rd
        record.frd_value = result
    return handler


def _make_fp_to_x(fmt, op):
    """feq/flt/fle (``op`` a comparison) and fclass (``op`` is None):
    FP sources, an integer destination."""
    single = fmt is F32

    def handler(executor, d, record):
        state = executor.state
        csrs = state.csrs
        if not csrs[_MSTATUS] & _FS_MASK:
            raise _TrapSignal(_ILLEGAL, d.word)
        fregs = state.fregs
        a = fregs[d.rs1]
        if single:
            a = executor.hooks.nan_unbox(a)
        if op is None:
            executor._wx(record, d.rd, fp_classify(a, fmt))
            return
        b = fregs[d.rs2]
        if single:
            b = executor.hooks.nan_unbox(b)
        result, flags = op(a, b, fmt)
        executor._wx(record, d.rd, result)
        flags &= _FFLAGS_MASK
        record.fflags_set = flags
        if flags:
            csrs[_FCSR] |= flags
    return handler


def _make_fp_cvt_to_int(fmt, width, signed):
    single = fmt is F32
    narrow = width == 32

    def handler(executor, d, record):
        state = executor.state
        csrs = state.csrs
        if not csrs[_MSTATUS] & _FS_MASK:
            raise _TrapSignal(_ILLEGAL, d.word)
        hooks = executor.hooks
        rm = hooks.resolve_rm(d.rm, (csrs[_FCSR] >> _FRM_SHIFT) & _FRM_MASK)
        if rm is None:
            raise _TrapSignal(_ILLEGAL, d.word)
        a = state.fregs[d.rs1]
        if single:
            a = hooks.nan_unbox(a)
        value, flags = fp_to_int(a, fmt, rm, width, signed)
        if narrow:
            value &= MASK32
            if value & _SIGN32:
                value |= _BOX
        executor._wx(record, d.rd, value)
        flags &= _FFLAGS_MASK
        record.fflags_set = flags
        if flags:
            csrs[_FCSR] |= flags
    return handler


def _make_fp_convert(source, target, width, signed):
    """fcvt into an FP register: from an integer register of ``width``
    bits (``source`` is None) or from the other FP format."""
    single = target is F32
    unboxed = source is F32
    mask = (1 << width) - 1 if source is None else 0

    def handler(executor, d, record):
        state = executor.state
        csrs = state.csrs
        status = csrs[_MSTATUS]
        if not status & _FS_MASK:
            raise _TrapSignal(_ILLEGAL, d.word)
        hooks = executor.hooks
        rm = hooks.resolve_rm(d.rm, (csrs[_FCSR] >> _FRM_SHIFT) & _FRM_MASK)
        if rm is None:
            raise _TrapSignal(_ILLEGAL, d.word)
        fregs = state.fregs
        if source is None:
            result, flags = int_to_fp(state.xregs[d.rs1] & mask, width, signed,
                                      target, rm)
        elif unboxed:
            result, flags = fp_to_fp(hooks.nan_unbox(fregs[d.rs1]), source,
                                     target, rm)
        else:
            result, flags = fp_to_fp(fregs[d.rs1], source, target, rm)
        result = (_BOX | (result & MASK32)) if single else result & MASK64
        fregs[d.rd] = result
        csrs[_MSTATUS] = (status & ~_FS_MASK) | _FS_DIRTY
        record.frd = d.rd
        record.frd_value = result
        flags &= _FFLAGS_MASK
        record.fflags_set = flags
        if flags:
            csrs[_FCSR] |= flags
    return handler


def _build_dispatch():
    """Build the mnemonic -> handler table once at import time."""
    E = Executor
    table = {
        "lui": E._op_lui, "auipc": E._op_auipc,
        "jal": E._op_jal, "jalr": E._op_jalr,
        "beq": E._op_beq, "bne": E._op_bne, "blt": E._op_blt,
        "bge": E._op_bge, "bltu": E._op_bltu, "bgeu": E._op_bgeu,
        "lb": E._op_lb, "lh": E._op_lh, "lw": E._op_lw, "ld": E._op_ld,
        "lbu": E._op_lbu, "lhu": E._op_lhu, "lwu": E._op_lwu,
        "sb": E._op_sb, "sh": E._op_sh, "sw": E._op_sw, "sd": E._op_sd,
        "addi": E._op_addi, "slti": E._op_slti, "sltiu": E._op_sltiu,
        "xori": E._op_xori, "ori": E._op_ori, "andi": E._op_andi,
        "slli": E._op_slli, "srli": E._op_srli, "srai": E._op_srai,
        "addiw": E._op_addiw, "slliw": E._op_slliw, "srliw": E._op_srliw,
        "sraiw": E._op_sraiw,
        "add": E._op_add, "sub": E._op_sub, "sll": E._op_sll,
        "slt": E._op_slt, "sltu": E._op_sltu, "xor": E._op_xor,
        "srl": E._op_srl, "sra": E._op_sra, "or": E._op_or, "and": E._op_and,
        "addw": E._op_addw, "subw": E._op_subw, "sllw": E._op_sllw,
        "srlw": E._op_srlw, "sraw": E._op_sraw,
        "mul": E._op_mul, "mulh": E._op_mulh, "mulhsu": E._op_mulhsu,
        "mulhu": E._op_mulhu, "div": E._op_div, "divu": E._op_divu,
        "rem": E._op_rem, "remu": E._op_remu,
        "mulw": E._op_mulw, "divw": E._op_divw, "divuw": E._op_divuw,
        "remw": E._op_remw, "remuw": E._op_remuw,
        "csrrw": E._op_csrrw, "csrrs": E._op_csrrs, "csrrc": E._op_csrrc,
        "csrrwi": E._op_csrrwi, "csrrsi": E._op_csrrsi, "csrrci": E._op_csrrci,
        "ecall": E._op_ecall, "ebreak": E._op_ebreak, "mret": E._op_mret,
        "wfi": E._op_nop, "fence": E._op_nop, "fence.i": E._op_nop,
        "flw": E._op_flw, "fld": E._op_fld, "fsw": E._op_fsw, "fsd": E._op_fsd,
        "fmv.x.w": E._op_fmv_x_w, "fmv.w.x": E._op_fmv_w_x,
        "fmv.x.d": E._op_fmv_x_d, "fmv.d.x": E._op_fmv_d_x,
        "fcvt.s.d": _make_fp_convert(F64, F32, 0, False),
        "fcvt.d.s": _make_fp_convert(F32, F64, 0, False),
    }
    for suffix, size in ((".w", 4), (".d", 8)):
        table["lr" + suffix] = _make_lr(size)
        table["sc" + suffix] = _make_sc(size)
        for base, combine in _AMO_COMBINES.items():
            table[base + suffix] = _make_amo(size, combine)

    for prec, fmt in (("s", F32), ("d", F64)):
        for name, op in (("fadd", fp_add), ("fsub", fp_sub), ("fmul", fp_mul),
                         ("fdiv", fp_div)):
            table[f"{name}.{prec}"] = _make_fp_op(fmt, name, op, 2)
        table[f"fsqrt.{prec}"] = _make_fp_op(fmt, "fsqrt", None, 1)
        for name, negate in (("fmadd", (False, False)), ("fmsub", (False, True)),
                             ("fnmsub", (True, False)), ("fnmadd", (True, True))):
            table[f"{name}.{prec}"] = _make_fp_op(fmt, name, negate, 3)
        table[f"fmin.{prec}"] = _make_fp_op(fmt, "fmin", fp_min, 2, rounded=False)
        table[f"fmax.{prec}"] = _make_fp_op(fmt, "fmax", fp_max, 2, rounded=False)
        for mode in ("j", "jn", "jx"):
            table[f"fsgnj{mode[1:]}.{prec}"] = _make_fp_sign_inject(fmt, mode)
        table[f"feq.{prec}"] = _make_fp_to_x(fmt, fp_eq)
        table[f"flt.{prec}"] = _make_fp_to_x(fmt, fp_lt)
        table[f"fle.{prec}"] = _make_fp_to_x(fmt, fp_le)
        table[f"fclass.{prec}"] = _make_fp_to_x(fmt, None)
        for iname, width, signed in (
            ("w", 32, True), ("wu", 32, False), ("l", 64, True), ("lu", 64, False),
        ):
            table[f"fcvt.{iname}.{prec}"] = _make_fp_cvt_to_int(fmt, width, signed)
            table[f"fcvt.{prec}.{iname}"] = _make_fp_convert(None, fmt, width, signed)
    return table


_DISPATCH = _build_dispatch()


def _illegal_handler(executor, d, record):
    raise _TrapSignal(_ILLEGAL, d.word)


def _attach_handlers():
    """Pre-bind each spec's executor handler onto the (frozen) spec object
    so the per-step dispatch is a single attribute load instead of a
    name-keyed dict lookup."""
    from repro.isa.instructions import SPECS

    for spec in SPECS:
        handler = _DISPATCH.get(spec.name, _illegal_handler)
        object.__setattr__(spec, "exec_handler", handler)


_attach_handlers()
