"""Shared DUT core machinery.

A :class:`DutCore` couples three things:

1. an architectural executor with (optionally buggy) hooks,
2. a structural RTL-IR netlist whose *control registers* mirror the
   micro-architectural state updated behaviourally every instruction, and
3. a latency model that converts the committed instruction stream into
   cycles, which the harness's :class:`~repro.harness.clock.VirtualClock`
   turns into the paper's 100 MHz wall-clock time axis.

Runtime coverage sampling is performance-critical (it runs for every
instruction of every fuzzing iteration).  The core keeps all
micro-architectural values in a plain dict (subclasses extend
:meth:`_update_microarch` through the same interface), but observation does
not rebuild name-keyed value tuples per instruction: each instrumented
module gets a :class:`_SlotBinding` resolved once in
:meth:`attach_coverage` — a position-indexed view (itemgetter over the
dynamic register names, per-position contribution tables from the layout)
that maintains a *running XOR index* by diffing against the previously
observed values, so per-instruction cost scales with the number of
registers that changed.  The always-observed modules' bindings are fused
into one :class:`_FusedObserver` with a single combined running index.
These two are the only holders of a running index (the per-module
:class:`~repro.coverage.ModuleCoverage` collectors keep none); they sample
it into the modules' coverage maps ("update-on-write, sample-on-tick" —
the software analogue of the hardware computing the index
combinationally for free).  The pre-overhaul tuple/memo path is preserved
as ``use_reference_observer()`` and is asserted bit-identical by
``tests/test_hotpath_equiv.py``.

Subclasses build the netlist (:meth:`_build_netlist`), set their timing
table, and may extend :meth:`_update_microarch` with core-specific state
(e.g. BOOM's ROB occupancy).
"""

from dataclasses import dataclass, field
from operator import itemgetter

from repro.analyze.markers import hot_path
from repro.dut.bugs import BuggyHooks, CorrectHooks
from repro.dut.caches import DirectMappedCache
from repro.evict import evict_half
from repro.isa import csr as CSR
from repro.isa.decoder import _CACHE as _DECODE_CACHE
from repro.isa.decoder import try_decode
from repro.isa.instructions import (
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

# Per-step enum constants as plain module globals (one LOAD_GLOBAL each on
# the hot path instead of an attribute lookup on the enum class).
_BRANCH = Category.BRANCH
_JUMP = Category.JUMP
_MUL = Category.MUL
_DIV = Category.DIV
_AMO = Category.AMO
_FP_DIV = Category.FP_DIV
_CSR_CAT = Category.CSR
_SYSTEM = Category.SYSTEM
_FENCE = Category.FENCE


def _name_hash(name):
    return sum(ord(ch) * (i + 1) for i, ch in enumerate(name)) & 0xF


# Precomputed per-mnemonic hash (hot path).
from repro.isa.instructions import SPECS as _SPECS  # noqa: E402

_NAME_HASH = {spec.name: _name_hash(spec.name) for spec in _SPECS}


_TRAP_CAUSE_DOMAIN = tuple(range(12))

# Bound for the combined-observation skip cache (idempotent to evict).
_COMBINED_SKIP_LIMIT = 1 << 20


class _SlotBinding:
    """Allocation-free per-module observer, resolved once per attach.

    Holds a position-indexed view of one module's dynamic control
    registers: an :func:`~operator.itemgetter` over their names (one C
    call per observation instead of a Python list-build), the layout's
    per-position contribution tables and width masks, and a running XOR
    index diffed against the previously observed value tuple — so the
    per-instruction cost scales with the number of registers that
    *changed*, and an unchanged module costs one tuple compare.
    """

    __slots__ = ("cov", "names", "seen", "getter", "tables", "masks",
                 "prev", "contribs", "index")

    def __init__(self, module_cov, names, positions, vals):
        self.cov = module_cov
        self.names = tuple(names)
        # Direct reference into the module's CoverageMap; valid for the
        # map's life because a checkpoint load grows the set in place
        # instead of replacing it.
        self.seen = module_cov.map._seen
        layout_tables = module_cov.tables
        layout_masks = module_cov.value_masks
        self.tables = [layout_tables[position] for position in positions]
        self.masks = [layout_masks[position] for position in positions]
        if not names:
            self.getter = lambda values: ()
        elif len(names) == 1:
            name = names[0]
            self.getter = lambda values: (values[name],)
        else:
            self.getter = itemgetter(*names)
        self.prev = ()
        self.contribs = []
        self.index = 0
        self.rebind(vals)

    def rebind(self, vals):
        """Recompute the running index from the current register values."""
        values = self.getter(vals)
        self.prev = values
        contribs = [table[value & mask] for table, mask, value
                    in zip(self.tables, self.masks, values)]
        self.contribs = contribs
        index = 0
        for contribution in contribs:
            index ^= contribution
        self.index = index

    @hot_path
    def observe(self, vals):
        """Sample the module state into the coverage map (hot path)."""
        values = self.getter(vals)
        index = self.index
        if values != self.prev:
            prev = self.prev
            contribs = self.contribs
            tables = self.tables
            masks = self.masks
            for position, value in enumerate(values):
                if value != prev[position]:
                    new_contribution = tables[position][value & masks[position]]
                    index ^= contribs[position] ^ new_contribution
                    contribs[position] = new_contribution
            self.index = index
            self.prev = values
        seen = self.seen
        if index in seen:
            return False
        seen.add(index)
        return True


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


class _FusedObserver:
    """One combined-index observer for all always-observed modules.

    Fuses their slot bindings behind a single itemgetter over the union of
    their dynamic register names and a single previous-values tuple, and
    concatenates the member modules' running XOR indices into ONE integer:
    each module occupies its own bit field and every contribution table is
    pre-shifted into the owning module's field, so a register change is
    two list indexings and two XORs on a single int — no per-module
    routing.  (A value-tuple memo was tried here and measured ~98% misses:
    the group contains free-running counters, so the combined state almost
    never repeats — incremental diffing is the right shape.)

    Observation then needs one membership test: ``seen_combined`` is a
    skip cache whose entries assert "this combined state's per-module
    indices are already recorded in their coverage maps".  On first sight
    the combined index is decomposed immediately and each field added to
    its module's seen-set, so the per-module maps are exact after every
    instruction — bit-identical to observing each module separately.  The
    cache stays valid because maps only grow (a checkpoint load only adds
    points, and nothing removes one), and eviction merely costs a
    redundant, idempotent re-decomposition.
    """

    __slots__ = ("getter", "tables", "masks", "prev", "contribs",
                 "combined", "seen_combined", "decomp")

    def __init__(self, slot_bindings, vals):
        names = []
        tables = []
        masks = []
        decomp = []
        offset = 0
        for slot in slot_bindings:
            field_bits = slot.cov.layout.max_state_size
            for position, name in enumerate(slot.names):
                names.append(name)
                tables.append([contribution << offset
                               for contribution in slot.tables[position]])
                masks.append(slot.masks[position])
            decomp.append((offset, (1 << field_bits) - 1, slot.seen))
            offset += field_bits
        self.tables = tables
        self.masks = masks
        self.decomp = decomp
        if not names:
            self.getter = lambda values: ()
        elif len(names) == 1:
            single = names[0]
            self.getter = lambda values: (values[single],)
        else:
            self.getter = itemgetter(*names)
        self.seen_combined = set()
        self.rebind(vals)

    def rebind(self, vals):
        """Recompute the combined index from the current register values."""
        values = self.getter(vals)
        self.prev = values
        self.contribs = [table[value & mask] for table, mask, value
                         in zip(self.tables, self.masks, values)]
        combined = 0
        for contribution in self.contribs:
            combined ^= contribution
        self.combined = combined

    @hot_path
    def observe(self, vals):
        """Observe every member module for this instruction (hot path)."""
        values = self.getter(vals)
        combined = self.combined
        if values != self.prev:
            prev = self.prev
            contribs = self.contribs
            tables = self.tables
            masks = self.masks
            for position, value in enumerate(values):
                if value != prev[position]:
                    new_contribution = tables[position][value & masks[position]]
                    combined ^= contribs[position] ^ new_contribution
                    contribs[position] = new_contribution
            self.combined = combined
            self.prev = values
        seen = self.seen_combined
        if combined not in seen:
            if len(seen) >= _COMBINED_SKIP_LIMIT:
                evict_half(seen)
            seen.add(combined)
            for offset, mask, module_seen in self.decomp:
                module_seen.add((combined >> offset) & mask)


class DutCore:
    """Base class for the Rocket/CVA6/BOOM DUT models."""

    name = "generic"
    timing = CoreTiming()
    default_frequency_hz = 100e6  # the paper's FPGA clock

    # Cross-iteration checkpoints carry only what core_state_dict()
    # returns: architectural/memory state travels through the session's
    # own snapshot machinery, per-iteration state is rebuilt by reset(),
    # and everything here is observation plumbing (re-derived by
    # attach_coverage / use_reference_observer on the restored design)
    # or netlist structure identical in any same-spec process.
    _checkpoint_transient = frozenset({
        "coverage", "regs",
        "_cov_bindings", "_cov_by_module", "_slot_bindings",
        "_always_bindings", "_cond_bindings", "_slot_by_module",
        "_fused", "_active_modules", "_prev_active", "_reference_observer",
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
        self._cov_bindings = []  # (ModuleCoverage, names, layout positions)
        self._cov_by_module = {}
        self._slot_bindings = []  # _SlotBinding per module, same order
        self._always_bindings = []
        self._cond_bindings = []  # (module name, _SlotBinding)
        self._slot_by_module = {}
        self._fused = None  # _FusedObserver over the always-observed group
        self._reference_observer = False
        self._active_modules = set()
        self._prev_active = set()
        self.cycles = 0.0
        self.retired = 0
        self._prev_rd = 0
        self._br_hist = 0
        self._last_mstatus = None
        self._last_priv = None
        self.top = Module(self.top_name)
        self.regs = {}
        self.vals = {}
        self._fixed_latency = self._build_fixed_latency()
        self._build_netlist()

    # -- to be provided by subclasses ------------------------------------------
    top_name = "Core"

    def _build_netlist(self):
        raise NotImplementedError

    # -- netlist helpers --------------------------------------------------------
    def _reg(self, module, name, width, domain=None):
        register = module.register(name, width, domain=domain)
        self.regs[name] = register
        self.vals[name] = 0
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

    # -- coverage wiring -----------------------------------------------------------
    CONDITIONAL_MODULES = frozenset({"MulDiv", "FPU", "LSU", "CSRFile", "PTW"})

    def attach_coverage(self, design_coverage):
        """Install a :class:`~repro.coverage.DesignCoverage` built over
        :attr:`top`; micro-architectural samples start flowing into it.

        Only the *dynamic* control registers (those this abstraction level
        animates) enter the observations; static structural registers hold
        zero and contribute nothing to the running index.  All per-module
        lookup work (name resolution, contribution tables, width masks) is
        resolved here, once, into :class:`_SlotBinding` objects that the
        per-instruction path reuses allocation-free.
        """
        self.coverage = design_coverage
        self._cov_bindings = []
        self._cov_by_module = {}
        self._slot_bindings = []
        self._always_bindings = []
        self._cond_bindings = []
        self._slot_by_module = {}
        for module_cov in design_coverage.modules:
            names = []
            positions = []
            for position, register in enumerate(module_cov.layout.registers):
                if register.name in self.vals:
                    names.append(register.name)
                    positions.append(position)
            binding = (module_cov, tuple(names), tuple(positions))
            self._cov_bindings.append(binding)
            self._cov_by_module[module_cov.name] = binding
            slot = _SlotBinding(module_cov, names, positions, self.vals)
            self._slot_bindings.append(slot)
            self._slot_by_module[module_cov.name] = slot
            if module_cov.name in self.CONDITIONAL_MODULES:
                self._cond_bindings.append((module_cov.name, slot))
            else:
                self._always_bindings.append(slot)
        self._fused = _FusedObserver(self._always_bindings, self.vals)
        self._active_modules = set()
        self._prev_active = set()

    def use_reference_observer(self, enabled=True):
        """Route observation through the pre-overhaul tuple/memo slow path
        (:meth:`ModuleCoverage.observe_state_reference`).  The equivalence
        suite runs both paths and asserts bit-identical coverage."""
        self._reference_observer = enabled
        if not enabled and self.coverage is not None:
            # Re-sync the incremental bindings with whatever state the
            # reference path left behind.
            for slot in self._slot_bindings:
                slot.rebind(self.vals)
            self._fused.rebind(self.vals)

    @hot_path
    def _observe_active(self):
        """Observe always-active modules plus any module whose state was
        touched this instruction or the last (to capture return-to-idle)."""
        vals = self.vals
        if self._reference_observer:
            observe_set = self._active_modules | self._prev_active
            for module_cov, names, positions in self._cov_bindings:
                if (module_cov.name in self.CONDITIONAL_MODULES
                        and module_cov.name not in observe_set):
                    continue
                module_cov.observe_state_reference(
                    # analyze: ignore[HOT001,HOT002] reference path, the oracle
                    tuple([vals[name] for name in names]), positions
                )
            self._prev_active = self._active_modules
            self._active_modules = set()  # analyze: ignore[HOT002] reference observer path only
            return
        self._fused.observe(vals)
        active = self._active_modules
        prev = self._prev_active
        if active or prev:
            for name, slot in self._cond_bindings:
                if name in active or name in prev:
                    slot.observe(vals)
        # Swap-and-clear instead of allocating a fresh set per instruction.
        self._prev_active = active
        prev.clear()
        self._active_modules = prev

    def _observe_module(self, module_name):
        if self._reference_observer:
            binding = self._cov_by_module.get(module_name)
            if binding is None:
                return
            module_cov, names, positions = binding
            vals = self.vals
            module_cov.observe_state_reference(
                tuple([vals[name] for name in names]), positions
            )
            return
        slot = self._slot_by_module.get(module_name)
        if slot is not None:
            slot.observe(self.vals)

    # -- program control ----------------------------------------------------------------
    def reset(self, keep_memory=False):
        """Reset architectural and micro-architectural state."""
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
        self._prev_rd = 0
        self._br_hist = 0
        self._last_mstatus = None
        self._last_priv = None
        for name in self.vals:
            self.vals[name] = 0
        for slot in self._slot_bindings:
            slot.rebind(self.vals)
        if self._fused is not None:
            self._fused.rebind(self.vals)

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
        if self.coverage is not None:
            self._observe_active()
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

    # -- microarch state update ---------------------------------------------------------------
    @hot_path
    def _update_microarch(self, record, decoded):
        """Drive the control-register values from this instruction."""
        vals = self.vals
        vals["pc_lo"] = (record.pc >> 2) & 7
        vals["fetch_addr_lo"] = (record.pc >> 2) & 15
        vals["btb_tag_lo"] = (record.pc >> 5) & 31
        vals["fq_count"] = (vals["fq_count"] + 1) & 7

        active = self._active_modules
        if record.trap is not None:
            vals["trap_valid"] = 1
            vals["trap_cause"] = min(record.trap.cause, 11)
            vals["dec_illegal"] = 1 if record.trap.cause == 2 else 0
            vals["misfetch"] = 1 if record.trap.cause in (0, 1) else 0
            active.add("CSRFile")
            self._prev_rd = 0
            return

        vals["trap_valid"] = 0
        vals["dec_illegal"] = 0
        vals["misfetch"] = 0
        if decoded is None:
            return
        spec = decoded.spec
        category = spec.category
        name = spec.name
        vals["dec_class"] = _CATEGORY_INDEX[category]
        vals["ex_subop"] = _NAME_HASH[name]
        vals["rd_lo"] = decoded.rd & 7
        vals["rs1_lo"] = decoded.rs1 & 7
        vals["rs2_lo"] = decoded.rs2 & 7
        vals["opcode_lo"] = (record.word >> 2) & 31
        vals["imm_sign"] = 1 if decoded.imm < 0 else 0
        vals["dec_buf_cnt"] = (vals["dec_buf_cnt"] + 1) & 3
        vals["shamt_reg"] = decoded.shamt & 15

        prev_rd = self._prev_rd
        raw = 1 if prev_rd and (prev_rd == decoded.rs1 or prev_rd == decoded.rs2) else 0
        vals["raw_hazard"] = raw
        self._prev_rd = record.rd or 0

        taken = 0
        if category is _BRANCH:
            taken = 1 if record.next_pc != record.pc + 4 else 0
            self._br_hist = ((self._br_hist << 1) | taken) & 3
            vals["br_hist"] = self._br_hist
            vals["pred_cnt"] = (vals["pred_cnt"] + (1 if taken else -1)) & 3
        vals["br_taken"] = taken
        if category is _JUMP:
            vals["ras_ptr"] = (vals["ras_ptr"] + 1) & 3

        state = self.state
        rs1_value = state.xregs[decoded.rs1]
        vals["operand_a_lo"] = rs1_value & 15
        vals["operand_b_lo"] = state.xregs[decoded.rs2] & 15
        if record.rd is not None:
            vals["wb_sel"] = 1
            vals["alu_res_lo"] = record.rd_value & 63
            vals["result_zero"] = 1 if record.rd_value == 0 else 0
            vals["result_sign"] = (record.rd_value >> 63) & 1
        elif record.frd is not None:
            vals["wb_sel"] = 2
        else:
            vals["wb_sel"] = 0
        vals["cmp_flags"] = ((vals["result_zero"] << 1) | vals["result_sign"]) & 3
        vals["fwd_sel"] = raw * 2 + (1 if vals["wb_sel"] else 0)

        # MulDiv
        if category is _MUL or category is _DIV:
            active.add("MulDiv")
            vals["md_op"] = 1 if category is _MUL else 2
            vals["md_sign"] = ((rs1_value >> 63) << 1 | (state.xregs[decoded.rs2] >> 63)) & 3
            vals["md_zero"] = 1 if state.xregs[decoded.rs2] == 0 else 0
            vals["md_word"] = 1 if name.endswith("w") else 0
            if record.rd_value is not None:
                vals["md_quot_lo"] = record.rd_value & 15
                vals["md_rem_lo"] = (record.rd_value >> 4) & 15
            if category is _DIV:
                self._multi_cycle("MulDiv", "md_state", "md_counter",
                                  int(self.timing.div))
            else:
                vals["md_state"] = 1
                vals["md_counter"] = int(self.timing.mul) & 31
        else:
            vals["md_state"] = 0
            vals["md_op"] = 0

        # FPU
        if category in _FP_CATEGORIES:
            active.add("FPU")
            vals["fpu_state"] = _FPU_STATE.get(category, 1)
            vals["fpu_fmt"] = 1 if name.endswith(".d") else 0
            vals["fpu_rm"] = decoded.rm if decoded.rm in (0, 1, 2, 3, 4, 7) else 7
            vals["fpu_flags"] = record.fflags_set & 0x1F
            if record.fflags_set & CSR.FFLAGS_NV:
                vals["fp_nv_sticky"] = 1
            if record.frd_value is not None:
                frd_value = record.frd_value
                vals["fp_sign"] = ((frd_value >> 63) << 1
                                   | ((frd_value >> 31) & 1)) & 3
                vals["fp_exp_lo"] = (record.frd_value >> 52) & 31
                vals["fp_man_lo"] = record.frd_value & 63
            if category is _FP_DIV:
                self._multi_cycle("FPU", "fpu_state", "fdiv_cnt",
                                  int(self.timing.fp_div), busy_value=2)
        else:
            vals["fpu_state"] = 0

        # LSU
        if category in _MEMORY_CATEGORIES:
            active.add("LSU")
            op = _MEM_OP[category]
            vals["mem_op"] = op
            vals["lsu_state"] = 4 if category is _AMO else op
            address = record.mem_addr
            if address is not None:
                vals["addr_lo"] = address & 7
                vals["line_off"] = (address >> 3) & 7
                vals["set_lo"] = (address >> 6) & 15
                vals["mem_size"] = (record.mem_size or 1).bit_length() - 1
                if record.mem_value is not None:
                    vals["wdata_lo"] = record.mem_value & 31
                    vals["wb_dirty"] = 1
                vals["dcache_hit"] = 1 if self.dcache.hits else 0
        else:
            vals["lsu_state"] = 0
            vals["mem_op"] = 0

        # CSRFile
        if category is _CSR_CAT:
            active.add("CSRFile")
            vals["csr_cls"] = self._csr_class(decoded.csr)
            vals["csr_addr_lo"] = decoded.csr & 15
            if record.csr_value is not None:
                vals["csr_wdata_lo"] = record.csr_value & 31
        elif category is _SYSTEM:
            active.add("CSRFile")
            vals["csr_cls"] = 5
        else:
            vals["csr_cls"] = 0
        self._mstatus_sync()

        # PTW activity is tied to fences in this M-mode-only model.
        if category is _FENCE:
            active.add("PTW")
            ptw_state = (vals["ptw_state"] + 1) & 3
            vals["ptw_state"] = ptw_state if ptw_state else 1
            vals["ptw_level"] = (vals["ptw_level"] + 1) % 3

    @hot_path
    def _mstatus_sync(self):
        """MSTATUS/privilege change detection, cached: when neither moved
        since the last non-trap instruction, the fs/mie/priv vals already
        hold the current decoding and the whole block is skipped."""
        state = self.state
        status = state.csrs[CSR.MSTATUS]
        privilege = state.privilege
        if status == self._last_mstatus and privilege == self._last_priv:
            return
        vals = self.vals
        fs_status = (status >> CSR.MSTATUS_FS_SHIFT) & 3
        mie_bit = (status >> 3) & 1
        if (fs_status != vals["fs_status"] or mie_bit != vals["mie_bit"]
                or privilege != vals["priv"]):
            self._active_modules.add("CSRFile")
        vals["fs_status"] = fs_status
        vals["mie_bit"] = mie_bit
        vals["priv"] = privilege
        self._last_mstatus = status
        self._last_priv = privilege

    @staticmethod
    def _csr_class(address):
        if address in (CSR.FFLAGS, CSR.FRM, CSR.FCSR):
            return 1
        if address in (CSR.MSTATUS, CSR.MISA, CSR.SSTATUS):
            return 2
        if address in (CSR.MCYCLE, CSR.MINSTRET, CSR.CYCLE, CSR.INSTRET, CSR.TIME):
            return 3
        if address in (CSR.MEPC, CSR.MCAUSE, CSR.MTVAL, CSR.MTVEC,
                       CSR.SEPC, CSR.SCAUSE, CSR.STVAL, CSR.STVEC):
            return 4
        return 5

    def _multi_cycle(self, module_name, state_name, counter_name, total,
                     busy_value=2):
        """Expose intermediate busy-counter states to coverage (a few
        sampled values rather than one observation per cycle)."""
        vals = self.vals
        vals[state_name] = busy_value
        if self.coverage is None:
            vals[counter_name] = 0
            return
        for sample in (total & 31, (total // 2) & 31, 1):
            vals[counter_name] = min(sample, 24)
            self._observe_module(module_name)
        vals[counter_name] = 0

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

    def load_core_state(self, state):
        """Restore a :meth:`core_state_dict` snapshot (default: no-op)."""

    # -- introspection -----------------------------------------------------------------
    @property
    def coverage_points(self):
        return self.coverage.total_points if self.coverage else 0

    def seconds_elapsed(self, frequency_hz=None):
        """Virtual seconds of FPGA time consumed so far."""
        frequency = frequency_hz or self.default_frequency_hz
        return self.cycles / frequency


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
