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
register values change; :meth:`DutCore.execute` does the software
equivalent and produces every index where it produces the values.

* :meth:`DutCore.execute` is the one execution loop.  It runs an
  iteration's instructions in one frame: the executor step, the latency,
  the micro-architectural keys, the coverage observation, the runner's
  counters and stop rules and, when a REF is given, its step and check.
  The keys, the group tables, the timing constants and the I/D-cache tags
  live in local variables, and the loop writes the state, ``cycles``,
  ``retired`` and the cache counters back when it returns.
  :meth:`DutCore.step`, :meth:`DutCore.run`, the iteration runner and
  deepExplore's profiler all run it.
* The micro-architectural state is positional: a short list of small
  integer *keys*, each standing for a group of control registers whose
  values it determines (:class:`RegisterGroup`) — the instruction's spec (with a
  CSR instruction's CSR class), its register fields ``(rd, rs1, rs2) & 7``,
  its immediate sign and shift amount, pc bits 2-9, the counters, the
  result, the branch state, the operands, and each conditional module's
  inputs.  A core with groups of its own (BOOM's ROB and load/store
  queues, CVA6's scoreboard) gives their transitions as tables
  (:attr:`DutCore.TRANSITIONS`), and BOOM's branch predictor is a hook the
  loop calls on branches (:attr:`DutCore.predict_branch`).
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
  from the keys on read; :class:`~repro.harness.HardwareSnapshot` and the
  tests read it.  The test suite's reference observer computes each
  module's index from it and the layout's ``contribution()``, reading no
  group table, and checks the tables against it.

Subclasses build the netlist (:meth:`DutCore._build_netlist`), set their
timing table, and may add always-observed register groups
(:meth:`DutCore._groups`) with their transition tables.
"""
from dataclasses import dataclass, field
from operator import xor
from types import MappingProxyType

from repro.analyze.markers import hot_path
from repro.dut.bugs import BuggyHooks, CorrectHooks
from repro.dut.caches import DirectMappedCache
from repro.isa import csr as CSR
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
_LOAD_KIND = 1024
_STORE_KIND = 2048
# Kinds whose latency depends on the execution (direction, D-cache).
_TIMED_KINDS = _BRANCH_KIND | _LOAD_KIND | _STORE_KIND

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
    if category is Category.LOAD or category is Category.FP_LOAD:
        kind |= _LOAD_KIND
    elif category is Category.STORE or category is Category.FP_STORE:
        kind |= _STORE_KIND
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


# The table of a core-own group slot the core does not have (key 0 only).
_NO_GROUP = (0,)


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

    # The transitions of the core's own always-observed groups (the slots
    # after BASE_STATE_SLOTS), which the loop applies to every instruction
    # that decoded, as ``(first, first_trapped, second, map_hash)`` tables
    # over the spec key:
    #   first slot  <- first[key << 3 | slot & 7]  (first_trapped when it trapped)
    #   second slot <- second[key << 6 | slot & 63] | map_hash[rd << 5 | rs1]
    # ``second`` is None for a core with one group of its own;
    # TRANSITIONS is None for a core with none.
    TRANSITIONS = None
    # Called on every branch as predict_branch(pc, taken); returns the
    # extra cycles.  None: the core adds nothing to a branch.
    predict_branch = None

    # Cross-iteration checkpoints carry only what core_state_dict()
    # returns: architectural/memory state travels through the session's
    # own snapshot machinery, per-iteration state is rebuilt by reset(),
    # and everything here is observation plumbing (re-derived by
    # attach_coverage on the restored design) or netlist structure
    # identical in any same-spec process.
    _checkpoint_transient = frozenset({
        "coverage", "regs", "_homes", "_observers",
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
        self.cycles = 0.0
        self.retired = 0
        self.top = Module(self.top_name)
        self.regs = {}
        self._homes = {}  # dynamic register name -> owning module name
        self._timing_data = self._build_timing_data()
        self._build_netlist()
        groups = _GROUPS.get(type(self))
        if groups is None:
            groups = _GROUPS[type(self)] = self._groups()
        self._register_groups = groups
        self._state = self._reset_state(0)
        self._observers = self._build_observers(None)

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
        their own always-observed groups, keyed by the slots after
        ``BASE_STATE_SLOTS``, and give their :attr:`TRANSITIONS`.
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
        self._observers = self._build_observers(design_coverage)
        self.coverage = design_coverage
        self._state[_ACTIVE] = 0

    def _build_observers(self, design_coverage):
        """What :meth:`execute` reads to observe coverage: the
        always-observed groups' tables (pre-shifted into the combined
        index), the tables of the core's own groups, the split of the
        combined index into the modules' seen-sets, and each conditional
        module's tables and seen-set.  Without a design (``None``) every
        table is zero and the seen-sets are throwaway."""
        modules = () if design_coverage is None else design_coverage.modules
        placements = {}  # register name -> (contribution table, mask, shift)
        split = []
        offset = 0
        for module_cov in modules:
            conditional = module_cov.name in _CONDITIONAL_BITS
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
                placements[register.name] = (module_cov.tables[position],
                                             module_cov.value_masks[position],
                                             shift)
            if not conditional:
                field_bits = module_cov.layout.max_state_size
                split.append((offset, (1 << field_bits) - 1, module_cov.map._seen))
                offset += field_bits

        tables = {name: self._group_table(group, placements)
                  for name, group in self._register_groups.items()}
        base_groups = set(self._ALWAYS_GROUPS).union(*self._CONDITIONAL_GROUPS.values())
        own = {group.slot: tables[name]
               for name, group in self._register_groups.items()
               if name not in base_groups}
        # A conditional module the design leaves out gets all-zero tables
        # and a throwaway seen-set (it only ever holds index 0).
        by_name = {module_cov.name: module_cov for module_cov in modules}
        busy = {"MulDiv": ("md_counter", self.timing.div),
                "FPU": ("fdiv_cnt", self.timing.fp_div)}
        conditional = []
        for module_name, group_names in self._CONDITIONAL_GROUPS.items():
            module_tables = tuple(tables[name] for name in group_names)
            if module_name in busy:
                counter, total = busy[module_name]
                module_tables += (
                    self._sample_deltas(counter, int(total), placements),)
            module_cov = by_name.get(module_name)
            conditional.append(module_tables + (
                set() if module_cov is None else module_cov.map._seen,))
        return (tuple(tables[name] for name in self._ALWAYS_GROUPS),
                own.get(BASE_STATE_SLOTS, _NO_GROUP),
                own.get(BASE_STATE_SLOTS + 1, _NO_GROUP),
                tuple(split), *conditional)

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

    # -- program control ----------------------------------------------------------------
    def reset(self):
        """Reset architectural and micro-architectural state.

        The conditional modules the last instruction activated stay
        recorded: the next instruction observes their return to idle.
        """
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
    def step(self):
        """Execute one instruction; update microarch state and cycles."""
        return self.execute(1)[5]

    def run(self, max_instructions, stop_on=None):
        """Step up to ``max_instructions``; ``stop_on(record)`` can halt."""
        records = []
        if stop_on is None:
            keep = records.append
        else:
            def keep(record):
                records.append(record)
                return stop_on(record)
        self.execute(max_instructions, on_record=keep)
        return records

    def _build_timing_data(self):
        """The loop's latency constants: the base cycles without and with
        an I-cache miss, the trap, taken-branch, store-hit, load-hit and
        D-cache-miss cycles, and each spec key's fixed extra cycles.

        Branches, loads and stores have no fixed extra (the loop works
        theirs out from the direction and the D-cache); neither do the
        integer ALU specs, the only ones with no kind bits, and the loop
        adds nothing for those.
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
        fixed = tuple(0.0 if spec is None else extras.get(spec.category, 0.0)
                      for spec in KEY_SPECS)
        return (timing.base, timing.base + timing.icache_miss, timing.trap,
                timing.branch_taken, timing.store_hit, timing.load_hit,
                timing.cache_miss, fixed)

    @hot_path
    def execute(self, cap, done_pc=None, fuzz_base=0, watchdog=None,
                stop_on_trap=False, ref=None, checker=None, on_record=None):
        """Run up to ``cap`` instructions in one frame.

        Per instruction: the executor step, the latency, the
        micro-architectural keys and the coverage observation, then the
        runner's counters and stop rules.  The run stops after the
        instruction whose ``next_pc`` is ``done_pc`` (completed); after a
        trap at a pc at or above ``fuzz_base`` when ``stop_on_trap``; when
        more than ``watchdog`` traps followed the last untrapped
        instruction at or above ``fuzz_base`` (a destroyed trap vector
        spinning in fault loops; ``None``: no watchdog); when the REF
        executor ``ref``, stepped alongside, disagrees by ``checker``; or
        when ``on_record(record)`` returns true.

        Returns ``(executed, fuzzing, traps, completed, mismatch,
        record)``: instructions executed, those at or above
        ``fuzz_base``, traps, whether the done pc was reached, the
        checker's mismatch (or None), and the last commit record.
        """
        if watchdog is None:
            watchdog = cap
        step = self.executor.step
        ref_step = None if ref is None else ref.step
        check = None if checker is None else checker.check
        arch = self.state
        xregs = arch.xregs
        csrs = arch.csrs
        (base_lat, miss_lat, trap_lat, branch_lat, store_lat, load_lat,
         dmiss_lat, fixed) = self._timing_data
        predict = self.predict_branch
        transitions = self.TRANSITIONS
        if transitions is None:
            first_next = first_trapped = second_next = map_hash = None
        else:
            first_next, first_trapped, second_next, map_hash = transitions
        icache = self.icache
        itags = icache.tags
        ishift = icache.line_shift
        isets = icache.sets
        ihits = icache.hits
        imisses = icache.misses
        dcache = self.dcache
        dtags = dcache.tags
        dshift = dcache.line_shift
        dsets = dcache.sets
        dhits = dcache.hits
        dmisses = dcache.misses
        ((t_pc, t_cnt, t_spec, t_ops, t_imm, t_wb, t_res, t_ctl, t_opnd),
         t_first, t_second, split,
         (md_mode, md_spec_t, md_sign_t, md_result_t, md_samples, md_seen),
         (fp_mode, fp_spec_t, fp_ops_t, fp_se_t, fp_man_t, fp_samples, fp_seen),
         (ls_mode, ls_address_t, ls_access_t, ls_seen),
         (cs_class_t, cs_trap_t, cs_access_t, cs_status_t, cs_seen),
         (ptw_t, ptw_seen)) = self._observers
        st = self._state
        (kpc, cnt, key, kops, kimm, kwb, kres, ctl, kopnd, prev_rd, last_active,
         last_mstatus, last_priv, md_spec, md_sz, md_qr, fpu_spec, fpu_ops,
         fpu_se, fpu_man, lsu_addr, lsu_misc, csr_trap, csr_op, csr_stat,
         ptw_key) = st[:BASE_STATE_SLOTS]
        own_slots = len(st) - BASE_STATE_SLOTS
        first_key = st[BASE_STATE_SLOTS] if own_slots else 0
        second_key = st[BASE_STATE_SLOTS + 1] if own_slots > 1 else 0
        own = t_first[first_key] ^ t_second[second_key]
        cycles = self.cycles
        executed = fuzzing = traps = since_fuzz = 0
        completed = False
        mismatch = record = None
        # analyze: ignore[HOT005] try/finally: the finally writes the locals back once per run
        try:
            for executed in range(1, cap + 1):
                record = step()
                pc = record.pc
                line = pc >> ishift
                index = line % isets
                if itags[index] == line:
                    ihits += 1
                    lat = base_lat
                else:
                    itags[index] = line
                    imisses += 1
                    lat = miss_lat
                kpc = (pc >> 2) & 255
                trap = record.trap
                if trap is None:
                    decoded = record.decoded
                    # fq_count and dec_buf_cnt advance; the trap bits clear.
                    cnt = ((cnt + 1) & 7) | ((cnt + 8) & 24)
                    spec = decoded.spec
                    kind = spec.dut_kind
                    key = spec.dut_key
                    rs1 = decoded.rs1
                    rs2 = decoded.rs2
                    kops = ((decoded.rd & 7) << 6) | ((rs1 & 7) << 3) | (rs2 & 7)
                    kimm = ((decoded.imm < 0) << 4) | (decoded.shamt & 15)
                    raw = 1 if prev_rd and (prev_rd == rs1 or prev_rd == rs2) else 0
                    rd = record.rd
                    if rd is not None:
                        prev_rd = rd
                        value = record.rd_value
                        kwb = raw | 2
                        kres = (value == 0) | ((value >> 63) << 1) | ((value & 63) << 2)
                    else:
                        prev_rd = 0
                        kwb = raw | 4 if record.frd is not None else raw
                    rs1_value = xregs[rs1]
                    rs2_value = xregs[rs2]
                    kopnd = (rs1_value & 15) | ((rs2_value & 15) << 4)
                    ctl &= 126  # br_taken clears
                    active = kind & _MODULE_BITS
                    if kind:
                        if kind & _TIMED_KINDS:
                            if kind & _BRANCH_KIND:
                                hist = (ctl >> 1) & 3
                                pred = (ctl >> 3) & 3
                                if record.next_pc != pc + 4:
                                    lat += branch_lat
                                    ctl = (1 | ((((hist << 1) | 1) & 3) << 1)
                                           | (((pred + 1) & 3) << 3) | (ctl & 96))
                                    if predict is not None:
                                        lat += predict(pc, True)
                                else:
                                    ctl = ((((hist << 1) & 3) << 1)
                                           | (((pred - 1) & 3) << 3) | (ctl & 96))
                                    if predict is not None:
                                        lat += predict(pc, False)
                            else:
                                # A store accesses the D-cache at its address;
                                # a load (which records none) at its pc.
                                address = (pc if kind & _LOAD_KIND
                                           else record.mem_addr)
                                line = address >> dshift
                                index = line % dsets
                                if dtags[index] == line:
                                    dhits += 1
                                    lat += load_lat if kind & _LOAD_KIND else store_lat
                                else:
                                    dtags[index] = line
                                    dmisses += 1
                                    lat += dmiss_lat
                        else:
                            lat += fixed[key]
                            if kind & _JUMP_KIND:
                                ctl = (ctl & 31) | ((ctl + 32) & 96)
                        if kind & _MULDIV:
                            md_spec = key
                            md_sz = (((rs1_value >> 63) << 1) | (rs2_value >> 63)
                                     | ((rs2_value == 0) << 2))
                            value = record.rd_value
                            if value is not None:
                                md_qr = value & 255
                        if kind & _FPU:
                            fpu_spec = key
                            flags = record.fflags_set & 31
                            # fp_nv_sticky (bit 8) keeps any NV flag (bit 4 of flags).
                            fpu_ops = (_RM_VALUE[decoded.rm] | (flags << 3)
                                       | ((fpu_ops | (flags << 4)) & 256))
                            value = record.frd_value
                            if value is not None:
                                fpu_se = (((value >> 63) << 1) | ((value >> 31) & 1)
                                          | (((value >> 52) & 31) << 2))
                                fpu_man = value & 63
                        if kind & _LSU:
                            address = record.mem_addr
                            if address is not None:
                                lsu_addr = address & 1023
                                stored = record.mem_value
                                if stored is not None:
                                    misc = 8 | ((stored & 31) << 4)
                                else:
                                    misc = lsu_misc & _LSU_KEPT
                                # dcache_hit reads the D-cache's lifetime hit count.
                                lsu_misc = (misc | ((record.mem_size or 1).bit_length() - 1)
                                            | (4 if dhits else 0))
                        if kind & _CSR_KIND:
                            key += _CSR_CLASS.get(decoded.csr, 5)
                            value = record.csr_value
                            if value is not None:
                                csr_op = (decoded.csr & 15) | ((value & 31) << 4)
                            else:
                                csr_op = (decoded.csr & 15) | (csr_op & _CSR_KEPT)
                        if kind & _PTW:
                            ptw_state = ((ptw_key & 3) + 1) & 3
                            ptw_key = (ptw_state or 1) | ((((ptw_key >> 2) + 1) % 3) << 2)
                    if first_next is not None:
                        first_key = first_next[(key << 3) | (first_key & 7)]
                        if second_next is not None:
                            second_key = (second_next[(key << 6) | (second_key & 63)]
                                          | map_hash[(decoded.rd << 5) | rs1])
                        own = t_first[first_key] ^ t_second[second_key]
                    # mstatus/privilege change detection: the fs/mie/priv key
                    # is recomputed only when either moved since the last look.
                    status = csrs[_MSTATUS]
                    privilege = arch.privilege
                    if status != last_mstatus or privilege != last_priv:
                        kstat = (((status >> _FS_SHIFT) & 3) | (((status >> 3) & 1) << 2)
                                 | (privilege << 3))
                        if kstat != csr_stat:
                            active |= _CSRFILE
                            csr_stat = kstat
                        last_mstatus = status
                        last_priv = privilege
                else:
                    lat += trap_lat
                    cause = trap.cause
                    cnt = (((cnt + 1) & 7) | (cnt & 24) | ((cause == 2) << 5)
                           | ((cause <= 1) << 6) | 128)
                    csr_trap = cause if cause < 11 else 11
                    prev_rd = 0
                    active = _CSRFILE
                    kind = 0
                    decoded = record.decoded
                    if decoded is not None:
                        if first_next is not None:
                            spec_key = decoded.spec.dut_key
                            first_key = first_trapped[(spec_key << 3) | (first_key & 7)]
                            if second_next is not None:
                                second_key = (
                                    second_next[(spec_key << 6) | (second_key & 63)]
                                    | map_hash[(decoded.rd << 5) | decoded.rs1])
                            own = t_first[first_key] ^ t_second[second_key]
                        if predict is not None and decoded.spec.dut_kind & _BRANCH_KIND:
                            lat += predict(pc, record.next_pc != pc + 4)
                cycles += lat
                observed = active | last_active
                last_active = active

                combined = (t_pc[kpc] ^ t_cnt[cnt] ^ t_spec[key] ^ t_ops[kops]
                            ^ t_imm[kimm] ^ t_wb[kwb] ^ t_res[kres] ^ t_ctl[ctl]
                            ^ t_opnd[kopnd] ^ own)
                for offset, mask, module_seen in split:
                    module_seen.add((combined >> offset) & mask)
                if observed:
                    if observed & _MULDIV:
                        index = (md_mode[key] ^ md_spec_t[md_spec] ^ md_sign_t[md_sz]
                                 ^ md_result_t[md_qr])
                        md_seen.add(index)
                        if kind & _DIV_KIND:
                            for delta in md_samples:
                                md_seen.add(index ^ delta)
                    if observed & _FPU:
                        index = (fp_mode[key] ^ fp_spec_t[fpu_spec] ^ fp_ops_t[fpu_ops]
                                 ^ fp_se_t[fpu_se] ^ fp_man_t[fpu_man])
                        fp_seen.add(index)
                        if kind & _FDIV_KIND:
                            for delta in fp_samples:
                                fp_seen.add(index ^ delta)
                    if observed & _LSU:
                        ls_seen.add(ls_mode[key] ^ ls_address_t[lsu_addr]
                                    ^ ls_access_t[lsu_misc])
                    if observed & _CSRFILE:
                        cs_seen.add(cs_class_t[key] ^ cs_trap_t[(csr_trap << 1) | (cnt >> 7)]
                                    ^ cs_access_t[csr_op] ^ cs_status_t[csr_stat])
                    if observed & _PTW:
                        ptw_seen.add(ptw_t[ptw_key])

                if trap is None:
                    if pc >= fuzz_base:
                        fuzzing += 1
                        since_fuzz = 0
                else:
                    traps += 1
                    if pc >= fuzz_base:
                        fuzzing += 1
                        if stop_on_trap:
                            break
                    since_fuzz += 1
                    if since_fuzz > watchdog:
                        break
                if ref_step is not None:
                    mismatch = check(record, ref_step())
                    if mismatch is not None:
                        break
                if on_record is not None and on_record(record):
                    break
                if record.next_pc == done_pc:
                    completed = True
                    break
        finally:
            # analyze: ignore[HOT002] the once-per-run write-back of the loop's locals
            st[:BASE_STATE_SLOTS] = (
                kpc, cnt, key, kops, kimm, kwb, kres, ctl, kopnd, prev_rd, last_active,
                last_mstatus, last_priv, md_spec, md_sz, md_qr, fpu_spec, fpu_ops,
                fpu_se, fpu_man, lsu_addr, lsu_misc, csr_trap, csr_op, csr_stat,
                ptw_key)
            if own_slots:
                st[BASE_STATE_SLOTS] = first_key
                if own_slots > 1:
                    st[BASE_STATE_SLOTS + 1] = second_key
            self.cycles = cycles
            self.retired += executed
            icache.hits = ihits
            icache.misses = imisses
            dcache.hits = dhits
            dcache.misses = dmisses
        # analyze: ignore[HOT002] the once-per-run result
        return executed, fuzzing, traps, completed, mismatch, record

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
