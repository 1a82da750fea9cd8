"""Shared DUT core machinery.

A :class:`DutCore` couples three things:

1. an architectural executor with (optionally buggy) hooks,
2. a structural RTL-IR netlist whose *control registers* mirror the
   micro-architectural state updated behaviourally every instruction, and
3. a latency model that converts the committed instruction stream into
   cycles, which the harness's :class:`~repro.harness.clock.VirtualClock`
   turns into the paper's 100 MHz wall-clock time axis.

Runtime coverage sampling is performance-critical: it runs for every
instruction of every fuzzing iteration.  The hardware instrumentation
computes each module's coverage index combinationally, for free, as the
register values change; :meth:`DutCore._update_microarch` does the
software equivalent and produces every index where it produces the
values.

* The micro-architectural state is positional: a short list of small
  integer *keys*, each standing for a group of control registers whose
  values it determines (:class:`RegisterGroup`) — the instruction's spec (with a
  CSR instruction's CSR class), its register fields ``(rd, rs1, rs2) & 7``,
  its immediate sign and shift amount, pc bits 2-9, the counters, the
  result, the branch state, the operands, and each conditional module's
  inputs.
* :meth:`DutCore.attach_coverage` turns the layout's per-register
  contribution tables into one table per group: entry *k* is the XOR of
  the group's register contributions while its key is *k*.  No table is
  keyed by instruction word: most fuzzing words are fresh.  The
  always-observed modules' indices are concatenated into one *combined*
  integer, each module in its own bit field with the tables pre-shifted
  into it, so one lookup per group yields every always-observed index.
  Each combined index is split into the modules' coverage maps at once,
  so the maps are exact after every instruction.
* A conditional module (MulDiv, FPU, LSU, CSRFile, PTW) is observed on the
  instruction that activates it and on the next one (to capture its return
  to idle); a multi-cycle operation also records a few sampled
  busy-counter states.
* :attr:`DutCore.vals` materializes the register name -> value mapping
  from the keys on read.  :class:`~repro.harness.HardwareSnapshot`, the
  tests and the reference observer read it; ``use_reference_observer()``
  routes observation through
  :meth:`~repro.coverage.ModuleCoverage.observe_state_reference`, which
  reads no contribution table and is the oracle
  ``tests/test_hotpath_equiv.py`` checks the tables against.

Subclasses build the netlist (:meth:`DutCore._build_netlist`), set their
timing table, and may add always-observed register groups
(:meth:`DutCore._groups`) whose keys their :meth:`_update_microarch`
override sets before calling the base (e.g. BOOM's ROB occupancy).
"""

from dataclasses import dataclass, field
from operator import xor
from types import MappingProxyType

from repro.analyze.markers import hot_path
from repro.dut.bugs import BuggyHooks, CorrectHooks
from repro.dut.caches import DirectMappedCache
from repro.isa import csr as CSR
from repro.isa.decoder import _CACHE as _DECODE_CACHE
from repro.isa.decoder import try_decode
from repro.isa.instructions import (
    SPECS as _SPECS,
    Category,
    FP_CATEGORIES as _FP_CATEGORIES,
    MEMORY_CATEGORIES as _MEMORY_CATEGORIES,
)
from repro.ref.executor import ExecConfig, Executor
from repro.ref.memory import SparseMemory
from repro.ref.state import ArchState
from repro.rtl.module import Module

# Stable small hashes for instruction identities.
_CATEGORY_INDEX = {category: index for index, category in enumerate(Category)}
_CATEGORY_DOMAIN = tuple(range(len(Category)))

_BRANCH = Category.BRANCH


def _name_hash(name):
    return sum(ord(ch) * (i + 1) for i, ch in enumerate(name)) & 0xF


_TRAP_CAUSE_DOMAIN = tuple(range(12))

# -- per-spec kind bits -----------------------------------------------------------
# The low five bits name the conditional modules an instruction activates
# (an "active" mask); the rest steer the per-instruction update.
_MULDIV = 1
_FPU = 2
_LSU = 4
_CSRFILE = 8
_PTW = 16
_MODULE_BITS = 31
_BRANCH_KIND = 32
_JUMP_KIND = 64
_DIV_KIND = 128
_FDIV_KIND = 256
_CSR_KIND = 512

_CONDITIONAL_BITS = {"MulDiv": _MULDIV, "FPU": _FPU, "LSU": _LSU,
                     "CSRFile": _CSRFILE, "PTW": _PTW}

_FPU_STATE = {
    Category.FP_ARITH: 1,
    Category.FP_DIV: 2,
    Category.FP_FMA: 3,
    Category.FP_CVT: 4,
    Category.FP_CMP: 5,
    Category.FP_MOVE: 5,
    Category.FP_LOAD: 1,
    Category.FP_STORE: 1,
}

_MEM_OP = {
    Category.LOAD: 1,
    Category.FP_LOAD: 1,
    Category.STORE: 2,
    Category.FP_STORE: 2,
    Category.AMO: 3,
}

# CSR address -> csr_cls (any other address is class 5).
_CSR_CLASS = {
    **dict.fromkeys((CSR.FFLAGS, CSR.FRM, CSR.FCSR), 1),
    **dict.fromkeys((CSR.MSTATUS, CSR.MISA, CSR.SSTATUS), 2),
    **dict.fromkeys((CSR.MCYCLE, CSR.MINSTRET, CSR.CYCLE, CSR.INSTRET,
                     CSR.TIME), 3),
    **dict.fromkeys((CSR.MEPC, CSR.MCAUSE, CSR.MTVAL, CSR.MTVEC, CSR.SEPC,
                     CSR.SCAUSE, CSR.STVAL, CSR.STVEC), 4),
}

# fpu_rm keeps a legal rounding mode and shows the reserved ones as 7.
_RM_VALUE = (0, 1, 2, 3, 4, 7, 7, 7)


def _spec_kind(spec):
    category = spec.category
    kind = 0
    if category is Category.MUL:
        kind |= _MULDIV
    elif category is Category.DIV:
        kind |= _MULDIV | _DIV_KIND
    if category in _FP_CATEGORIES:
        kind |= _FPU
        if category is Category.FP_DIV:
            kind |= _FDIV_KIND
    if category in _MEMORY_CATEGORIES:
        kind |= _LSU
    if category is Category.CSR:
        kind |= _CSRFILE | _CSR_KIND
    elif category is Category.SYSTEM:
        kind |= _CSRFILE
    elif category is Category.FENCE:
        kind |= _PTW
    elif category is _BRANCH:
        kind |= _BRANCH_KIND
    elif category is Category.JUMP:
        kind |= _JUMP_KIND
    return kind


def _attach_spec_keys():
    """Attach each spec's state key (``dut_key``) and kind bits
    (``dut_kind``) to the (frozen) spec object once, as the executor
    attaches its handlers.  Key 0 is the reset state; a CSR instruction
    owns one key per CSR class (key + class).  Returns the spec and the
    csr_cls value of every key."""
    key_specs = [None]
    key_csr_class = [0]
    for spec in _SPECS:
        kind = _spec_kind(spec)
        object.__setattr__(spec, "dut_key", len(key_specs))
        object.__setattr__(spec, "dut_kind", kind)
        if kind & _CSR_KIND:
            key_specs.extend([spec] * 6)
            key_csr_class.extend(range(6))
        else:
            key_specs.append(spec)
            key_csr_class.append(5 if spec.category is Category.SYSTEM else 0)
    return tuple(key_specs), tuple(key_csr_class)


KEY_SPECS, _KEY_CSR_CLASS = _attach_spec_keys()
_SPEC_KEYS = len(KEY_SPECS)

# -- positional state slots -------------------------------------------------------
_PC = 0             # pc bits 2-9
_CNT = 1            # fq_count | dec_buf_cnt << 3 | dec_illegal << 5
#                     | misfetch << 6 | trap_valid << 7
_SPEC = 2           # spec key of the last decoded, untrapped instruction
_OPS = 3            # (rd & 7) << 6 | (rs1 & 7) << 3 | rs2 & 7
_IMM = 4            # imm_sign << 4 | shamt & 15
_WB = 5             # raw_hazard | wb_sel << 1
_RES = 6            # result_zero | result_sign << 1 | alu_res_lo << 2
_CTL = 7            # br_taken | br_hist << 1 | pred_cnt << 3 | ras_ptr << 5
_OPND = 8           # operand_a_lo | operand_b_lo << 4
_PREV_RD = 9        # last destination register (RAW hazard detection)
_ACTIVE = 10        # conditional modules the last instruction activated
_LAST_MSTATUS = 11  # mstatus and privilege last seen (change detection)
_LAST_PRIV = 12
_MD_SPEC = 13       # spec key of the last MulDiv instruction
_MD_SZ = 14         # md_sign | md_zero << 2
_MD_QR = 15         # md_quot_lo | md_rem_lo << 4
_FPU_SPEC = 16      # spec key of the last FP instruction
_FPU_OPS = 17       # fpu_rm | fpu_flags << 3 | fp_nv_sticky << 8
_FPU_SE = 18        # fp_sign | fp_exp_lo << 2
_FPU_MAN = 19       # fp_man_lo
_LSU_ADDR = 20      # address bits 0-9 (addr_lo, line_off, set_lo)
_LSU_MISC = 21      # mem_size | dcache_hit << 2 | wb_dirty << 3 | wdata_lo << 4
_CSR_TRAP = 22      # trap_cause
_CSR_OP = 23        # csr_addr_lo | csr_wdata_lo << 4
_CSR_STAT = 24      # fs_status | mie_bit << 2 | priv << 3
_PTW_KEY = 25       # ptw_state | ptw_level << 2
BASE_STATE_SLOTS = 26

_LSU_KEPT = 0x1F8       # wb_dirty, wdata_lo
_CSR_KEPT = 0x1F0       # csr_wdata_lo

_MSTATUS = CSR.MSTATUS
_FS_SHIFT = CSR.MSTATUS_FS_SHIFT


class RegisterGroup:
    """Control registers whose values one state key determines.

    ``decode(key)`` gives the registers' values, in ``names`` order, for
    every key in ``range(size)``; key 0 is the reset state (all zero).
    The key is the positional state's ``slot``, or ``key_of(state)``.
    """

    __slots__ = ("names", "size", "decode", "slot", "key_of", "_columns")

    def __init__(self, names, size, decode, slot=None, key_of=None):
        self.names = names
        self.size = size
        self.decode = decode
        self.slot = slot
        self.key_of = key_of
        self._columns = None

    def values(self, state):
        """The registers' current values, in ``names`` order."""
        key = state[self.slot] if self.key_of is None else self.key_of(state)
        return self.decode(key)

    def columns(self):
        """Each register's value for every key (built once)."""
        if self._columns is None:
            self._columns = tuple(zip(*map(self.decode, range(self.size))))
        return self._columns


def _key_category(key):
    spec = KEY_SPECS[key]
    return None if spec is None else spec.category


def _spec_values(key):
    spec = KEY_SPECS[key]
    if spec is None:
        return (0, 0, 0)
    return (_CATEGORY_INDEX[spec.category], _name_hash(spec.name),
            (spec.match >> 2) & 31)


def _writeback_values(key):
    raw = key & 1
    wb_sel = key >> 1
    return (raw, wb_sel, raw * 2 + (1 if wb_sel else 0))


def _result_values(key):
    zero = key & 1
    sign = (key >> 1) & 1
    return (zero, sign, key >> 2, (zero << 1) | sign)


def _muldiv_mode(key):
    category = _key_category(key)
    if category is Category.MUL:
        return (1, 1)
    if category is Category.DIV:
        return (2, 2)
    return (0, 0)


def _fpu_mode(key):
    return (_FPU_STATE.get(_key_category(key), 0),)


def _fpu_spec_values(key):
    spec = KEY_SPECS[key]
    return (1 if spec is not None and spec.name.endswith(".d") else 0, 0)


def _lsu_mode(key):
    category = _key_category(key)
    op = _MEM_OP.get(category, 0)
    return (4 if category is Category.AMO else op, op)


# Core class -> its register groups (shared: a group's values per key are
# a function of the class alone).
_GROUPS = {}


def _csr_trap_key(state):
    return (state[_CSR_TRAP] << 1) | (state[_CNT] >> 7)


def _busy_samples(total):
    """The busy-counter values a multi-cycle operation of ``total``
    cycles exposes to coverage (a few samples, not one per cycle)."""
    return tuple(min(sample, 24) for sample in (total & 31, (total // 2) & 31, 1))


@dataclass
class CoreTiming:
    """Per-instruction latency table, in cycles (floats allow sub-cycle
    effective CPI on superscalar cores)."""

    base: float = 1.0
    branch_taken: float = 3.0
    jump: float = 2.0
    load_hit: float = 2.0
    store_hit: float = 1.0
    cache_miss: float = 20.0
    icache_miss: float = 12.0
    mul: float = 4.0
    div: float = 33.0
    fp_arith: float = 4.0
    fp_div: float = 24.0
    fp_fma: float = 5.0
    csr: float = 3.0
    amo: float = 10.0
    trap: float = 5.0
    extra: dict = field(default_factory=dict)


class DutCore:
    """Base class for the Rocket/CVA6/BOOM DUT models."""

    name = "generic"
    timing = CoreTiming()
    default_frequency_hz = 100e6  # the paper's FPGA clock
    # Positional state slots; subclasses with their own groups extend it.
    STATE_SLOTS = BASE_STATE_SLOTS

    # Cross-iteration checkpoints carry only what core_state_dict()
    # returns: architectural/memory state travels through the session's
    # own snapshot machinery, per-iteration state is rebuilt by reset(),
    # and everything here is observation plumbing (re-derived by
    # attach_coverage / use_reference_observer on the restored design)
    # or netlist structure identical in any same-spec process.
    _checkpoint_transient = frozenset({
        "coverage", "regs", "_homes", "_always", "_extra", "_decomp", "_split",
        "_muldiv", "_fpu", "_lsu", "_csrfile", "_ptw",
        "_ref_bindings", "_reference_observer",
    })

    def __init__(self, bugs=(), rv32a_only=False, reset_pc=0x8000_0000):
        self.reset_pc = reset_pc
        self.rv32a_only = rv32a_only
        if bugs:
            self.hooks = BuggyHooks(bugs, rv32a_only=rv32a_only)
        else:
            self.hooks = CorrectHooks(rv32a_only=rv32a_only)
        self.memory = SparseMemory()
        self.state = ArchState(pc=reset_pc)
        self.executor = Executor(
            self.state, self.memory, config=ExecConfig(), hooks=self.hooks
        )
        self.icache = DirectMappedCache(sets=256)
        self.dcache = DirectMappedCache(sets=256)
        self.coverage = None
        self._reference_observer = False
        self._split = None  # _decomp while observing by table, else None
        self.cycles = 0.0
        self.retired = 0
        self.top = Module(self.top_name)
        self.regs = {}
        self._homes = {}  # dynamic register name -> owning module name
        self._fixed_latency = self._build_fixed_latency()
        self._build_netlist()
        groups = _GROUPS.get(type(self))
        if groups is None:
            groups = _GROUPS[type(self)] = self._groups()
        self._register_groups = groups
        self._state = self._reset_state(0)

    # -- to be provided by subclasses ------------------------------------------
    top_name = "Core"

    def _build_netlist(self):
        raise NotImplementedError

    # -- netlist helpers --------------------------------------------------------
    def _reg(self, module, name, width, domain=None):
        register = module.register(name, width, domain=domain)
        self.regs[name] = register
        self._homes[name] = module.name
        return register

    def _static_bank(self, module, prefix, widths):
        """Structural-only control registers (replay flags, beat counters,
        fill buffers...).  They participate in instrumentation layout and
        reachability analysis like any control register, but this
        abstraction level does not model their dynamics, so at runtime
        they hold their reset value.  Real modules carry far more control
        bits than the handful we animate; these banks restore realistic
        per-module control-register totals."""
        bank = []
        for position, width in enumerate(widths):
            register = module.register(f"{prefix}{position}", width)
            self.regs[register.name] = register
            bank.append(register)
        return bank

    def _common_modules(self):
        """Build the micro-architectural modules every core shares.

        Each module gets its control registers plus muxes whose selects
        trace back to them, so the instrumentation pass discovers exactly
        these registers.  Register bit budgets are sized like RocketChip's
        modules: the big datapath-adjacent modules carry well over
        ``maxStateSize`` control bits, PTW carries almost none (the paper
        calls out FPU/CSRFile/PTW as poorly reachable under the legacy
        layout, which emerges here from their restricted-value domains).
        """
        top = self.top
        frontend = top.submodule("Frontend")
        regs = [
            self._reg(frontend, "pc_lo", 3),
            self._reg(frontend, "br_hist", 2),
            self._reg(frontend, "icache_state", 2, domain=(0, 1, 2)),
            self._reg(frontend, "ras_ptr", 2),
            self._reg(frontend, "fq_count", 3),
            self._reg(frontend, "btb_tag_lo", 5),
            self._reg(frontend, "pred_cnt", 2),
            self._reg(frontend, "fetch_addr_lo", 4),
            self._reg(frontend, "misfetch", 1),
        ]
        regs += self._static_bank(frontend, "if_ctrl", (6, 6, 6, 6))
        sel = frontend.logic("npc_sel", 2, sources=regs)
        frontend.mux("next_pc_mux", select=sel, width=64)
        frontend.mux("fetch_buf_mux", select=regs[4], width=32)
        frontend.memory("icache_data", depth=2048, width=64)
        frontend.memory("icache_tags", depth=256, width=20)
        frontend.memory("btb", depth=512, width=40)

        decode = top.submodule("Decode")
        regs = [
            self._reg(decode, "dec_class", 5, domain=_CATEGORY_DOMAIN),
            self._reg(decode, "dec_illegal", 1),
            self._reg(decode, "raw_hazard", 1),
            self._reg(decode, "rd_lo", 3),
            self._reg(decode, "rs1_lo", 3),
            self._reg(decode, "rs2_lo", 3),
            self._reg(decode, "opcode_lo", 5),
            self._reg(decode, "imm_sign", 1),
            self._reg(decode, "dec_buf_cnt", 2),
        ]
        regs += self._static_bank(decode, "id_ctrl", (6, 6, 6))
        sel = decode.logic("dec_sel", 2, sources=regs)
        decode.mux("decode_mux", select=sel, width=32)

        execute = top.submodule("Execute")
        regs = [
            self._reg(execute, "ex_subop", 4),
            self._reg(execute, "br_taken", 1),
            self._reg(execute, "wb_sel", 2, domain=(0, 1, 2)),
            self._reg(execute, "fwd_sel", 2),
            self._reg(execute, "operand_a_lo", 4),
            self._reg(execute, "operand_b_lo", 4),
            self._reg(execute, "alu_res_lo", 6),
            self._reg(execute, "result_zero", 1),
            self._reg(execute, "result_sign", 1),
            self._reg(execute, "cmp_flags", 2),
            self._reg(execute, "shamt_reg", 4),
        ]
        regs += self._static_bank(execute, "ex_ctrl", (6, 6, 6, 6))
        sel = execute.logic("ex_sel", 2, sources=regs)
        execute.mux("alu_out_mux", select=sel, width=64)
        execute.mux("bypass_mux", select=regs[3], width=64)

        muldiv = top.submodule("MulDiv")
        regs = [
            self._reg(muldiv, "md_state", 2, domain=(0, 1, 2, 3)),
            self._reg(muldiv, "md_counter", 5),
            self._reg(muldiv, "md_op", 2, domain=(0, 1, 2)),
            self._reg(muldiv, "md_sign", 2),
            self._reg(muldiv, "md_zero", 1),
            self._reg(muldiv, "md_word", 1),
            self._reg(muldiv, "md_quot_lo", 4),
            self._reg(muldiv, "md_rem_lo", 4),
        ]
        regs += self._static_bank(muldiv, "md_ctrl", (6, 6, 6))
        sel = muldiv.logic("md_sel", 2, sources=regs)
        muldiv.mux("md_out_mux", select=sel, width=64)

        fpu = top.submodule("FPU")
        regs = [
            self._reg(fpu, "fpu_state", 3, domain=(0, 1, 2, 3, 4, 5)),
            self._reg(fpu, "fpu_fmt", 1),
            self._reg(fpu, "fpu_rm", 3, domain=(0, 1, 2, 3, 4, 7)),
            self._reg(fpu, "fpu_flags", 5),
            self._reg(fpu, "fdiv_cnt", 5, domain=tuple(range(25))),
            self._reg(fpu, "fp_sign", 2),
            self._reg(fpu, "fp_exp_lo", 5),
            self._reg(fpu, "fp_man_lo", 6),
            self._reg(fpu, "fp_nv_sticky", 1),
        ]
        regs += self._static_bank(fpu, "fp_ctrl", (5, 4))
        sel = fpu.logic("fpu_sel", 3, sources=regs)
        fpu.mux("fpu_out_mux", select=sel, width=64)
        fpu.memory("fp_regfile", depth=32, width=64)

        lsu = top.submodule("LSU")
        regs = [
            self._reg(lsu, "lsu_state", 3, domain=(0, 1, 2, 3, 4)),
            self._reg(lsu, "mem_size", 2),
            self._reg(lsu, "mem_op", 2, domain=(0, 1, 2, 3)),
            self._reg(lsu, "dcache_hit", 1),
            self._reg(lsu, "addr_lo", 3),
            self._reg(lsu, "line_off", 3),
            self._reg(lsu, "set_lo", 4),
            self._reg(lsu, "wdata_lo", 5),
            self._reg(lsu, "wb_dirty", 1),
        ]
        regs += self._static_bank(lsu, "ls_ctrl", (6, 6, 6, 6))
        sel = lsu.logic("lsu_sel", 3, sources=regs)
        lsu.mux("lsu_resp_mux", select=sel, width=64)
        lsu.memory("dcache_data", depth=2048, width=64)
        lsu.memory("dcache_tags", depth=256, width=22)

        csr_file = top.submodule("CSRFile")
        regs = [
            self._reg(csr_file, "csr_cls", 3, domain=(0, 1, 2, 3, 4, 5)),
            self._reg(csr_file, "priv", 2, domain=(0, 1, 3)),
            self._reg(csr_file, "trap_cause", 4, domain=_TRAP_CAUSE_DOMAIN),
            self._reg(csr_file, "trap_valid", 1),
            self._reg(csr_file, "fs_status", 2),
            self._reg(csr_file, "csr_addr_lo", 4),
            self._reg(csr_file, "csr_wdata_lo", 5),
            self._reg(csr_file, "mie_bit", 1),
        ]
        regs += self._static_bank(csr_file, "csr_ctrl", (6, 6))
        sel = csr_file.logic("csr_sel", 3, sources=regs)
        csr_file.mux("csr_rdata_mux", select=sel, width=64)

        ptw = top.submodule("PTW")
        regs = [
            self._reg(ptw, "ptw_state", 2, domain=(0, 1, 2, 3)),
            self._reg(ptw, "ptw_level", 2, domain=(0, 1, 2)),
        ]
        sel = ptw.logic("ptw_sel", 2, sources=regs)
        ptw.mux("ptw_resp_mux", select=sel, width=64)
        ptw.memory("tlb", depth=32, width=64)

    # -- positional state ------------------------------------------------------------
    def _groups(self):
        """Register groups by name, each keyed by positional state.

        The ``muldiv_*``, ``fpu_*``, ``lsu_*``, ``csrfile_*`` and ``ptw``
        groups belong to the conditional module their prefix names; every
        other group feeds the always-observed modules.  Subclasses add
        their own always-observed groups and ``_update_microarch`` keys.
        """
        mul_counter = int(self.timing.mul) & 31

        def muldiv_spec(key):
            spec = KEY_SPECS[key]
            if spec is None:
                return (0, 0)
            counter = mul_counter if spec.category is Category.MUL else 0
            return (counter, 1 if spec.name.endswith("w") else 0)

        return {
            "pc": RegisterGroup(
                ("pc_lo", "fetch_addr_lo", "btb_tag_lo", "icache_state"), 256,
                lambda k: (k & 7, k & 15, k >> 3, 0), _PC),
            "count": RegisterGroup(
                ("fq_count", "dec_buf_cnt", "dec_illegal", "misfetch"), 256,
                lambda k: (k & 7, (k >> 3) & 3, (k >> 5) & 1, (k >> 6) & 1), _CNT),
            "spec": RegisterGroup(
                ("dec_class", "ex_subop", "opcode_lo"), _SPEC_KEYS,
                _spec_values, _SPEC),
            "operands": RegisterGroup(
                ("rd_lo", "rs1_lo", "rs2_lo"), 512,
                lambda k: (k >> 6, (k >> 3) & 7, k & 7), _OPS),
            "immediate": RegisterGroup(
                ("imm_sign", "shamt_reg"), 32, lambda k: (k >> 4, k & 15), _IMM),
            "writeback": RegisterGroup(
                ("raw_hazard", "wb_sel", "fwd_sel"), 8, _writeback_values, _WB),
            "result": RegisterGroup(
                ("result_zero", "result_sign", "alu_res_lo", "cmp_flags"), 256,
                _result_values, _RES),
            "control": RegisterGroup(
                ("br_taken", "br_hist", "pred_cnt", "ras_ptr"), 128,
                lambda k: (k & 1, (k >> 1) & 3, (k >> 3) & 3, k >> 5), _CTL),
            "operand_values": RegisterGroup(
                ("operand_a_lo", "operand_b_lo"), 256,
                lambda k: (k & 15, k >> 4), _OPND),
            "muldiv_mode": RegisterGroup(
                ("md_state", "md_op"), _SPEC_KEYS, _muldiv_mode, _SPEC),
            "muldiv_spec": RegisterGroup(
                ("md_counter", "md_word"), _SPEC_KEYS, muldiv_spec, _MD_SPEC),
            "muldiv_sign": RegisterGroup(
                ("md_sign", "md_zero"), 8, lambda k: (k & 3, k >> 2), _MD_SZ),
            "muldiv_result": RegisterGroup(
                ("md_quot_lo", "md_rem_lo"), 256, lambda k: (k & 15, k >> 4), _MD_QR),
            "fpu_mode": RegisterGroup(
                ("fpu_state",), _SPEC_KEYS, _fpu_mode, _SPEC),
            "fpu_spec": RegisterGroup(
                ("fpu_fmt", "fdiv_cnt"), _SPEC_KEYS, _fpu_spec_values, _FPU_SPEC),
            "fpu_ops": RegisterGroup(
                ("fpu_rm", "fpu_flags", "fp_nv_sticky"), 512,
                lambda k: (k & 7, (k >> 3) & 31, k >> 8), _FPU_OPS),
            "fpu_sign_exp": RegisterGroup(
                ("fp_sign", "fp_exp_lo"), 128, lambda k: (k & 3, k >> 2), _FPU_SE),
            "fpu_mantissa": RegisterGroup(
                ("fp_man_lo",), 64, lambda k: (k,), _FPU_MAN),
            "lsu_mode": RegisterGroup(
                ("lsu_state", "mem_op"), _SPEC_KEYS, _lsu_mode, _SPEC),
            "lsu_address": RegisterGroup(
                ("addr_lo", "line_off", "set_lo"), 1024,
                lambda k: (k & 7, (k >> 3) & 7, k >> 6), _LSU_ADDR),
            "lsu_access": RegisterGroup(
                ("mem_size", "dcache_hit", "wb_dirty", "wdata_lo"), 512,
                lambda k: (k & 3, (k >> 2) & 1, (k >> 3) & 1, k >> 4), _LSU_MISC),
            "csrfile_class": RegisterGroup(
                ("csr_cls",), _SPEC_KEYS, lambda k: (_KEY_CSR_CLASS[k],), _SPEC),
            "csrfile_trap": RegisterGroup(
                ("trap_valid", "trap_cause"), 32, lambda k: (k & 1, k >> 1),
                key_of=_csr_trap_key),
            "csrfile_access": RegisterGroup(
                ("csr_addr_lo", "csr_wdata_lo"), 512, lambda k: (k & 15, k >> 4),
                _CSR_OP),
            "csrfile_status": RegisterGroup(
                ("fs_status", "mie_bit", "priv"), 32,
                lambda k: (k & 3, (k >> 2) & 1, k >> 3), _CSR_STAT),
            "ptw": RegisterGroup(
                ("ptw_state", "ptw_level"), 16, lambda k: (k & 3, k >> 2), _PTW_KEY),
        }

    # Always-observed groups the base hot path reads, in its order.
    _ALWAYS_GROUPS = ("pc", "count", "spec", "operands", "immediate",
                      "writeback", "result", "control", "operand_values")
    # Conditional groups in each module's hot-path order.
    _CONDITIONAL_GROUPS = {
        "MulDiv": ("muldiv_mode", "muldiv_spec", "muldiv_sign", "muldiv_result"),
        "FPU": ("fpu_mode", "fpu_spec", "fpu_ops", "fpu_sign_exp", "fpu_mantissa"),
        "LSU": ("lsu_mode", "lsu_address", "lsu_access"),
        "CSRFile": ("csrfile_class", "csrfile_trap", "csrfile_access",
                    "csrfile_status"),
        "PTW": ("ptw",),
    }

    def _reset_state(self, active):
        state = [0] * self.STATE_SLOTS
        state[_ACTIVE] = active
        state[_LAST_MSTATUS] = state[_LAST_PRIV] = None
        return state

    @property
    def vals(self):
        """Every dynamic control register's current value by name: a
        read-only mapping materialized from the positional state (restore
        state through :meth:`restore_microarch`)."""
        state = self._state
        values = dict.fromkeys(self._homes, 0)
        for group in self._register_groups.values():
            values.update(zip(group.names, group.values(state)))
        return MappingProxyType(values)

    def capture_microarch(self):
        """Everything :meth:`restore_microarch` needs to resume the model
        exactly: the positional state, both caches, and the cross-iteration
        core state (BOOM's branch predictor).  Plain, picklable data."""
        return {"state": list(self._state),
                "icache": self.icache.snapshot(),
                "dcache": self.dcache.snapshot(),
                "core": self.core_state_dict()}

    def restore_microarch(self, captured):
        """Load a :meth:`capture_microarch` result (any core of this class)."""
        if len(captured["state"]) != self.STATE_SLOTS:
            raise ValueError("micro-architectural state of another core class")
        apply_core = self.prepare_core_state(captured["core"])
        self._state = list(captured["state"])
        self.icache.restore(captured["icache"])
        self.dcache.restore(captured["dcache"])
        apply_core()

    # -- coverage wiring -----------------------------------------------------------
    def attach_coverage(self, design_coverage):
        """Install a :class:`~repro.coverage.DesignCoverage` built over
        :attr:`top`; micro-architectural samples start flowing into it.

        Only the *dynamic* control registers (those this abstraction level
        animates) enter the observations; static structural registers hold
        zero and contribute nothing to the index.  The group tables the
        per-instruction path reads are built here, once.
        """
        placements = {}  # register name -> (contribution table, mask, shift)
        decomp = []
        ref_bindings = []
        offset = 0
        for module_cov in design_coverage.modules:
            names = []
            positions = []
            conditional = _CONDITIONAL_BITS.get(module_cov.name, 0)
            shift = 0 if conditional else offset
            for position, register in enumerate(module_cov.layout.registers):
                home = self._homes.get(register.name)
                if home is None:
                    continue
                if home != module_cov.name:
                    raise ValueError(
                        f"register {register.name!r} of {home} is instrumented "
                        f"in {module_cov.name}; {self.name} observes each "
                        "register in its own module")
                names.append(register.name)
                positions.append(position)
                placements[register.name] = (module_cov.tables[position],
                                             module_cov.value_masks[position],
                                             shift)
            ref_bindings.append((module_cov, tuple(names), tuple(positions),
                                 conditional))
            if not conditional:
                field_bits = module_cov.layout.max_state_size
                decomp.append((offset, (1 << field_bits) - 1, module_cov.map._seen))
                offset += field_bits

        tables = {name: self._group_table(group, placements)
                  for name, group in self._register_groups.items()}
        self.coverage = design_coverage
        self._always = tuple(tables[name] for name in self._ALWAYS_GROUPS)
        base_groups = set(self._ALWAYS_GROUPS).union(*self._CONDITIONAL_GROUPS.values())
        self._extra = tuple((tables[name], group.slot)
                            for name, group in self._register_groups.items()
                            if name not in base_groups)
        self._decomp = tuple(decomp)
        self._ref_bindings = tuple(ref_bindings)
        # A conditional module the design leaves out gets all-zero tables
        # and a throwaway seen-set (it only ever holds index 0).
        by_name = {module_cov.name: module_cov
                   for module_cov in design_coverage.modules}
        busy = {"MulDiv": ("md_counter", self.timing.div),
                "FPU": ("fdiv_cnt", self.timing.fp_div)}
        conditional = {}
        for module_name, group_names in self._CONDITIONAL_GROUPS.items():
            module_tables = tuple(tables[name] for name in group_names)
            if module_name in busy:
                counter, total = busy[module_name]
                module_tables += (
                    self._sample_deltas(counter, int(total), placements),)
            module_cov = by_name.get(module_name)
            conditional[module_name] = module_tables + (
                set() if module_cov is None else module_cov.map._seen,)
        self._muldiv = conditional["MulDiv"]
        self._fpu = conditional["FPU"]
        self._lsu = conditional["LSU"]
        self._csrfile = conditional["CSRFile"]
        self._ptw = conditional["PTW"]
        self._state[_ACTIVE] = 0
        self.use_reference_observer(self._reference_observer)

    @staticmethod
    def _group_table(group, placements):
        """Entry k: XOR of the group's register contributions at key k."""
        table = [0] * group.size
        for name, column in zip(group.names, group.columns()):
            placement = placements.get(name)
            if placement is None:
                continue
            contributions, mask, shift = placement
            shifted = [contribution << shift for contribution in contributions]
            table = list(map(xor, table, map(shifted.__getitem__,
                                             map(mask.__and__, column))))
        return table

    @staticmethod
    def _sample_deltas(counter_name, total, placements):
        """XOR deltas from a finished multi-cycle operation's index (its
        counter back at 0) to each busy-counter sample's index."""
        placement = placements.get(counter_name)
        if placement is None:
            return (0,) * len(_busy_samples(total))
        contributions, mask, _ = placement
        return tuple(contributions[0] ^ contributions[sample & mask]
                     for sample in _busy_samples(total))

    def use_reference_observer(self, enabled=True):
        """Route observation through the table-independent oracle
        (:meth:`ModuleCoverage.observe_state_reference` over :attr:`vals`).
        The equivalence suite runs both paths and asserts bit-identical
        coverage."""
        self._reference_observer = enabled
        self._split = (None if enabled or self.coverage is None
                       else self._decomp)

    def _observe_reference(self, observed, kind):
        """Observe this instruction through the oracle: every
        always-observed module plus the ``observed`` conditional ones, and
        the busy-counter samples of a multi-cycle operation."""
        values = dict(self.vals)
        for module_cov, names, positions, bit in self._ref_bindings:
            if bit and not observed & bit:
                continue
            module_cov.observe_state_reference(
                tuple([values[name] for name in names]), positions)
        for busy, module_name, counter, total in (
                (_DIV_KIND, "MulDiv", "md_counter", self.timing.div),
                (_FDIV_KIND, "FPU", "fdiv_cnt", self.timing.fp_div)):
            if not kind & busy:
                continue
            for module_cov, names, positions, _ in self._ref_bindings:
                if module_cov.name != module_name:
                    continue
                for sample in _busy_samples(int(total)):
                    values[counter] = sample
                    module_cov.observe_state_reference(
                        tuple([values[name] for name in names]), positions)
                values[counter] = 0

    # -- program control ----------------------------------------------------------------
    def reset(self, keep_memory=False):
        """Reset architectural and micro-architectural state.

        The conditional modules the last instruction activated stay
        recorded: the next instruction observes their return to idle.
        """
        if not keep_memory:
            self.memory = SparseMemory()
        self.state = ArchState(pc=self.reset_pc)
        self.executor = Executor(
            self.state, self.memory, config=self.executor.config, hooks=self.hooks
        )
        self.icache.flush()
        self.dcache.flush()
        self.cycles = 0.0
        self.retired = 0
        self._state = self._reset_state(self._state[_ACTIVE])

    def load_program(self, address, words):
        self.memory.write_program(address, words)

    # -- execution ------------------------------------------------------------------------
    @hot_path
    def step(self):
        """Execute one instruction; update microarch state and cycles."""
        record = self.executor.step()
        # Inline decode-cache hit (the overwhelmingly common case); the
        # try_decode call is only paid on a cache miss.
        word = record.word
        decoded = _DECODE_CACHE.get(word) if word else None
        if decoded is None and word:
            decoded = try_decode(word)
        self.cycles += self._latency(record, decoded)
        self.retired += 1
        self._update_microarch(record, decoded)
        return record

    def run(self, max_instructions, stop_on=None):
        """Step up to ``max_instructions``; ``stop_on(record)`` can halt."""
        records = []
        for _ in range(max_instructions):
            record = self.step()
            records.append(record)
            if stop_on is not None and stop_on(record):
                break
        return records

    # -- latency model -----------------------------------------------------------------------
    def _build_fixed_latency(self):
        """Per-category constant extra cycles, resolved once per core.

        Every category whose latency does not depend on the individual
        instruction (i.e. everything except branches and memory ops, which
        consult direction / the D-cache) collapses to one dict lookup on
        the hot path; categories with no extra cost map to 0.0 so the
        lookup also covers plain ALU traffic.
        """
        timing = self.timing
        extras = {
            Category.JUMP: timing.jump,
            Category.MUL: timing.mul,
            Category.DIV: timing.div,
            Category.AMO: timing.amo,
            Category.FP_DIV: timing.fp_div,
            Category.FP_FMA: timing.fp_fma,
            Category.FP_ARITH: timing.fp_arith,
            Category.FP_CVT: timing.fp_arith,
            Category.FP_CMP: timing.fp_arith,
            Category.FP_MOVE: timing.fp_arith,
            Category.CSR: timing.csr,
        }
        dynamic = {Category.BRANCH, Category.LOAD, Category.FP_LOAD,
                   Category.STORE, Category.FP_STORE}
        return {category: extras.get(category, 0.0)
                for category in Category if category not in dynamic}

    @hot_path
    def _latency(self, record, decoded):
        timing = self.timing
        cycles = timing.base
        if not self.icache.access(record.pc):
            cycles += timing.icache_miss
        if record.trap is not None:
            return cycles + timing.trap
        if decoded is None:
            return cycles
        category = decoded.spec.category
        extra = self._fixed_latency.get(category)
        if extra is not None:
            return cycles + extra
        if category is _BRANCH:
            if record.next_pc != record.pc + 4:
                cycles += timing.branch_taken
            return cycles
        if category is Category.STORE or category is Category.FP_STORE:
            if record.mem_addr is not None:
                hit = self.dcache.access(record.mem_addr)
                cycles += timing.store_hit if hit else timing.cache_miss
            return cycles
        # LOAD / FP_LOAD
        address = record.pc if record.mem_addr is None else record.mem_addr
        hit = self.dcache.access(address)
        cycles += timing.load_hit if hit else timing.cache_miss
        return cycles

    # -- microarch state update and observation ----------------------------------------------
    @hot_path
    def _update_microarch(self, record, decoded):
        """Drive the control-register state from this instruction and
        observe the coverage indices it produces."""
        st = self._state
        kpc = (record.pc >> 2) & 255
        st[_PC] = kpc
        cnt = st[_CNT]
        trap = record.trap
        if trap is None and decoded is not None:
            # fq_count and dec_buf_cnt advance; the trap bits clear.
            cnt = ((cnt + 1) & 7) | ((cnt + 8) & 24)
            spec = decoded.spec
            kind = spec.dut_kind
            key = spec.dut_key
            if kind & _CSR_KIND:
                key += _CSR_CLASS.get(decoded.csr, 5)
            rs1 = decoded.rs1
            rs2 = decoded.rs2
            kops = ((decoded.rd & 7) << 6) | ((rs1 & 7) << 3) | (rs2 & 7)
            kimm = ((decoded.imm < 0) << 4) | (decoded.shamt & 15)
            prev_rd = st[_PREV_RD]
            raw = 1 if prev_rd and (prev_rd == rs1 or prev_rd == rs2) else 0
            rd = record.rd
            if rd is not None:
                st[_PREV_RD] = rd
                value = record.rd_value
                kwb = raw | 2
                kres = (value == 0) | ((value >> 63) << 1) | ((value & 63) << 2)
                st[_RES] = kres
            else:
                st[_PREV_RD] = 0
                kwb = raw | 4 if record.frd is not None else raw
                kres = st[_RES]
            xregs = self.state.xregs
            rs1_value = xregs[rs1]
            rs2_value = xregs[rs2]
            kopnd = (rs1_value & 15) | ((rs2_value & 15) << 4)
            ctl = st[_CTL] & 126  # br_taken clears
            active = kind & _MODULE_BITS
            if kind:
                if kind & _BRANCH_KIND:
                    hist = (ctl >> 1) & 3
                    pred = (ctl >> 3) & 3
                    if record.next_pc != record.pc + 4:
                        ctl = (1 | ((((hist << 1) | 1) & 3) << 1)
                               | (((pred + 1) & 3) << 3) | (ctl & 96))
                    else:
                        ctl = (((hist << 1) & 3) << 1) | (((pred - 1) & 3) << 3) | (ctl & 96)
                elif kind & _JUMP_KIND:
                    ctl = (ctl & 31) | ((ctl + 32) & 96)
                if kind & _MULDIV:
                    st[_MD_SPEC] = key
                    st[_MD_SZ] = (((rs1_value >> 63) << 1) | (rs2_value >> 63)
                                  | ((rs2_value == 0) << 2))
                    value = record.rd_value
                    if value is not None:
                        st[_MD_QR] = value & 255
                if kind & _FPU:
                    st[_FPU_SPEC] = key
                    flags = record.fflags_set & 31
                    # fp_nv_sticky (bit 8) keeps any NV flag (bit 4 of flags).
                    st[_FPU_OPS] = (_RM_VALUE[decoded.rm] | (flags << 3)
                                    | ((st[_FPU_OPS] | (flags << 4)) & 256))
                    value = record.frd_value
                    if value is not None:
                        st[_FPU_SE] = (((value >> 63) << 1) | ((value >> 31) & 1)
                                       | (((value >> 52) & 31) << 2))
                        st[_FPU_MAN] = value & 63
                if kind & _LSU:
                    address = record.mem_addr
                    if address is not None:
                        st[_LSU_ADDR] = address & 1023
                        stored = record.mem_value
                        if stored is not None:
                            misc = 8 | ((stored & 31) << 4)
                        else:
                            misc = st[_LSU_MISC] & _LSU_KEPT
                        st[_LSU_MISC] = (misc | ((record.mem_size or 1).bit_length() - 1)
                                         | (4 if self.dcache.hits else 0))
                if kind & _CSR_KIND:
                    value = record.csr_value
                    if value is not None:
                        st[_CSR_OP] = (decoded.csr & 15) | ((value & 31) << 4)
                    else:
                        st[_CSR_OP] = (decoded.csr & 15) | (st[_CSR_OP] & _CSR_KEPT)
                if kind & _PTW:
                    ptw = st[_PTW_KEY]
                    ptw_state = ((ptw & 3) + 1) & 3
                    st[_PTW_KEY] = (ptw_state or 1) | ((((ptw >> 2) + 1) % 3) << 2)
            st[_SPEC] = key
            st[_OPS] = kops
            st[_IMM] = kimm
            st[_WB] = kwb
            st[_CTL] = ctl
            st[_OPND] = kopnd
            # mstatus/privilege change detection: the fs/mie/priv key is
            # recomputed only when either moved since the last look.
            arch = self.state
            status = arch.csrs[_MSTATUS]
            privilege = arch.privilege
            if status != st[_LAST_MSTATUS] or privilege != st[_LAST_PRIV]:
                kstat = (((status >> _FS_SHIFT) & 3) | (((status >> 3) & 1) << 2)
                         | (privilege << 3))
                if kstat != st[_CSR_STAT]:
                    active |= _CSRFILE
                    st[_CSR_STAT] = kstat
                st[_LAST_MSTATUS] = status
                st[_LAST_PRIV] = privilege
        else:
            if trap is not None:
                cause = trap.cause
                cnt = (((cnt + 1) & 7) | (cnt & 24) | ((cause == 2) << 5)
                       | ((cause <= 1) << 6) | 128)
                st[_CSR_TRAP] = cause if cause < 11 else 11
                st[_PREV_RD] = 0
                active = _CSRFILE
            else:
                cnt = ((cnt + 1) & 7) | (cnt & 24)
                active = 0
            kind = 0
            key = st[_SPEC]
            kops = st[_OPS]
            kimm = st[_IMM]
            kwb = st[_WB]
            kres = st[_RES]
            ctl = st[_CTL]
            kopnd = st[_OPND]
        st[_CNT] = cnt
        observed = active | st[_ACTIVE]
        st[_ACTIVE] = active

        split = self._split
        if split is None:
            if self._reference_observer:
                self._observe_reference(observed, kind)
            return
        t_pc, t_cnt, t_spec, t_ops, t_imm, t_wb, t_res, t_ctl, t_opnd = self._always
        combined = (t_pc[kpc] ^ t_cnt[cnt] ^ t_spec[key] ^ t_ops[kops] ^ t_imm[kimm]
                    ^ t_wb[kwb] ^ t_res[kres] ^ t_ctl[ctl] ^ t_opnd[kopnd])
        for table, slot in self._extra:
            combined ^= table[st[slot]]
        for offset, mask, module_seen in split:
            module_seen.add((combined >> offset) & mask)
        if not observed:
            return
        if observed & _MULDIV:
            t_mode, t_spec, t_sign, t_result, samples, seen = self._muldiv
            index = (t_mode[key] ^ t_spec[st[_MD_SPEC]] ^ t_sign[st[_MD_SZ]]
                     ^ t_result[st[_MD_QR]])
            seen.add(index)
            if kind & _DIV_KIND:
                for delta in samples:
                    seen.add(index ^ delta)
        if observed & _FPU:
            t_mode, t_spec, t_ops, t_sign_exp, t_mantissa, samples, seen = self._fpu
            index = (t_mode[key] ^ t_spec[st[_FPU_SPEC]] ^ t_ops[st[_FPU_OPS]]
                     ^ t_sign_exp[st[_FPU_SE]] ^ t_mantissa[st[_FPU_MAN]])
            seen.add(index)
            if kind & _FDIV_KIND:
                for delta in samples:
                    seen.add(index ^ delta)
        if observed & _LSU:
            t_mode, t_address, t_access, seen = self._lsu
            seen.add(t_mode[key] ^ t_address[st[_LSU_ADDR]] ^ t_access[st[_LSU_MISC]])
        if observed & _CSRFILE:
            t_class, t_trap, t_access, t_status, seen = self._csrfile
            seen.add(t_class[key] ^ t_trap[(st[_CSR_TRAP] << 1) | (cnt >> 7)]
                     ^ t_access[st[_CSR_OP]] ^ t_status[st[_CSR_STAT]])
        if observed & _PTW:
            t_ptw, seen = self._ptw
            seen.add(t_ptw[st[_PTW_KEY]])

    # -- checkpoint protocol ---------------------------------------------------
    def core_state_dict(self):
        """Micro-architectural state that survives ACROSS iterations.

        Almost everything in a core is rebuilt by the per-iteration
        ``reset()``, so the base class has nothing to record; cores that
        deliberately carry state across iterations (BOOM's branch
        predictor) override this pair so checkpoint resume stays
        bit-identical.  Returns JSON-plain data.
        """
        return {}

    def prepare_core_state(self, state):
        """Check a :meth:`core_state_dict` snapshot; returns the function
        that loads it (checking changes nothing).  Raises ``ValueError``
        or ``TypeError`` on a snapshot this core did not write."""
        if state != {}:
            raise ValueError(f"{self.name} carries no cross-iteration core state")
        return lambda: None

    # -- introspection -----------------------------------------------------------------
    @property
    def coverage_points(self):
        return self.coverage.total_points if self.coverage else 0

    def seconds_elapsed(self, frequency_hz=None):
        """Virtual seconds of FPGA time consumed so far."""
        frequency = frequency_hz or self.default_frequency_hz
        return self.cycles / frequency
