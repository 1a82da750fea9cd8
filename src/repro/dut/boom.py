"""BOOM (SonicBOOM): superscalar out-of-order RV64 core.

Adds the out-of-order machinery modules (ROB, rename, issue queues,
load/store queue) on top of the shared micro-architectural modules; the two
BOOM bugs (B1, B2) inject in the FPU rounding-mode path.

The timing model captures the essential OoO behaviour for the paper's
experiments: sub-1.0 effective CPI on independent streams, heavy branch
mispredict penalties, and unpipelined division.
"""

from repro.analyze.markers import hot_path
from repro.dut.core import (
    BASE_STATE_SLOTS,
    KEY_SPECS,
    CoreTiming,
    DutCore,
    RegisterGroup,
)
from repro.isa.instructions import FP_CATEGORIES, Category

_LONG_LATENCY = frozenset({Category.DIV, Category.FP_DIV, Category.AMO})
_LOADS = frozenset({Category.LOAD, Category.FP_LOAD})
_STORES = frozenset({Category.STORE, Category.FP_STORE})
_BRANCH = Category.BRANCH

# Positional state slots after the shared ones.
_ROB = BASE_STATE_SLOTS      # occupancy | flush << 3 | alu << 4 | fp << 5 | 64
_LSQ = BASE_STATE_SLOTS + 1  # ldq_level | stq_level << 3 | map_hash << 6


def _queue_transitions():
    """How an instruction moves the ROB and the load/store queues, per
    spec key, as lookup tables for the hot path:

    * ``rob_next[key << 3 | occupancy]``: the next ROB key.  Occupancy
      rises with long-latency ops and loads in flight and drains by one
      otherwise; the key also records the instruction's ALU/FP class.
    * ``rob_flush[key]``: the ROB key after the instruction trapped (the
      flush empties the ROB).
    * ``lsq_next[lsq_class[key] << 6 | ldq | stq << 3]``: the next queue
      levels; a load fills the load queue, a store the store queue, and
      each queue it does not fill drains by one.
    """
    rob_next, rob_flush, lsq_class = [], [], []
    for spec in KEY_SPECS:
        category = spec.category if spec is not None else None
        kinds = 64 | ((category is Category.ALU) << 4) | ((category in FP_CATEGORIES) << 5)
        for occupancy in range(8):
            if category in _LONG_LATENCY:
                occupancy = min(7, occupancy + 2)
            elif category in _LOADS:
                occupancy = min(7, occupancy + 1)
            else:
                occupancy = max(0, occupancy - 1)
            rob_next.append(kinds | occupancy)
        rob_flush.append(kinds | 8)
        lsq_class.append(1 if category in _LOADS else 2 if category in _STORES else 0)
    lsq_next = []
    for lsq_kind in range(3):
        for levels in range(64):
            loads, stores = levels & 7, levels >> 3
            loads = min(7, loads + 1) if lsq_kind == 1 else max(0, loads - 1)
            stores = min(7, stores + 1) if lsq_kind == 2 else max(0, stores - 1)
            lsq_next.append(loads | (stores << 3))
    return tuple(rob_next), tuple(rob_flush), tuple(lsq_class), tuple(lsq_next)


_ROB_NEXT, _ROB_FLUSH, _LSQ_CLASS, _LSQ_NEXT = _queue_transitions()


def _rob_values(key):
    """ROB, Rename free list and issue-queue levels, all derived from the
    ROB occupancy, the flush and the last instruction's ALU/FP class.
    Bit 6 marks a key written since reset (all registers read 0 before)."""
    if not key & 64:
        return (0,) * 7
    occupancy = key & 7
    flush = (key >> 3) & 1
    half = min(3, occupancy // 2)
    return (occupancy, flush, flush, 7 - occupancy,
            min(7, occupancy + ((key >> 4) & 1)), half,
            half if (key >> 5) & 1 else 0)


class BoomCore(DutCore):
    """2-wide out-of-order BOOM model with ROB/rename/IQ coverage state."""

    name = "boom"
    top_name = "BOOM"
    timing = CoreTiming(
        base=0.55,          # 2-wide issue on independent streams
        branch_taken=1.0,   # predicted-taken branches are cheap...
        jump=1.0,
        load_hit=1.5,
        store_hit=0.7,
        cache_miss=28.0,
        icache_miss=18.0,
        mul=2.0,
        div=26.0,
        fp_arith=2.0,
        fp_div=22.0,
        fp_fma=2.5,
        csr=6.0,            # CSR ops serialize the pipeline
        amo=16.0,
        trap=12.0,          # full pipeline flush
        extra={"mispredict": 9.0},
    )

    def _build_netlist(self):
        self._common_modules()
        top = self.top
        rob = top.submodule("ROB")
        rob_occ = self._reg(rob, "rob_occupancy", 3)
        rob_flush = self._reg(rob, "rob_flush", 1)
        rob_excep = self._reg(rob, "rob_exception", 1)
        sel = rob.logic("rob_sel", 2, sources=[rob_occ, rob_flush, rob_excep])
        rob.mux("rob_commit_mux", select=sel, width=64)
        rob.memory("rob_entries", depth=96, width=80)

        rename = top.submodule("Rename")
        map_hash = self._reg(rename, "map_hash", 4)
        freelist = self._reg(rename, "freelist_level", 3)
        sel = rename.logic("ren_sel", 2, sources=[map_hash, freelist])
        rename.mux("ren_mux", select=sel, width=8)
        rename.memory("map_table", depth=32, width=7)

        issue_queue = top.submodule("IssueQueue")
        iq_int = self._reg(issue_queue, "iq_int_level", 3)
        iq_mem = self._reg(issue_queue, "iq_mem_level", 2)
        iq_fp = self._reg(issue_queue, "iq_fp_level", 2)
        sel = issue_queue.logic("iq_sel", 2, sources=[iq_int, iq_mem, iq_fp])
        issue_queue.mux("iq_grant_mux", select=sel, width=8)

        lsq = top.submodule("LSQ")
        ldq_level = self._reg(lsq, "ldq_level", 3)
        stq_level = self._reg(lsq, "stq_level", 3)
        sel = lsq.logic("lsq_sel", 2, sources=[ldq_level, stq_level])
        lsq.mux("lsq_fwd_mux", select=sel, width=64)
        lsq.memory("ldq_entries", depth=24, width=96)
        lsq.memory("stq_entries", depth=16, width=96)

        execute = top.submodule("Execute")
        execute.logic("int_datapath", width=64, lut_cost=150_000)
        execute.register("pipe_data_regs", width=70_000)
        fpu = top.submodule("FPU")
        fpu.logic("fp_datapath", width=64, lut_cost=100_000)
        fpu.register("fp_pipe_regs", width=50_000)
        top.memory("int_prf", depth=100, width=64)
        top.memory("fp_prf", depth=64, width=64)

    STATE_SLOTS = BASE_STATE_SLOTS + 2

    def __init__(self, *args, **kwargs):
        self._mispredicts = 0
        self._branch_predictor = {}
        super().__init__(*args, **kwargs)

    # -- checkpoint protocol ---------------------------------------------------
    def core_state_dict(self):
        """The branch predictor (and its mispredict counter) deliberately
        survives iteration resets, like the persistent BTB/BIM arrays on
        the FPGA — so it must travel with a checkpoint for resumed
        latency accounting to stay bit-identical."""
        return {
            "branch_predictor": {str(pc): counter for pc, counter
                                 in self._branch_predictor.items()},
            "mispredicts": self._mispredicts,
        }

    def prepare_core_state(self, state):
        """Check a :meth:`core_state_dict` snapshot; returns the function
        that loads it (checking changes nothing)."""
        recorded = state["branch_predictor"]
        if not isinstance(recorded, dict):
            raise TypeError("branch_predictor must be an object")
        predictor = {}
        for pc, counter in recorded.items():
            if type(counter) is not int or not 0 <= counter <= 3:
                raise ValueError(
                    f"branch predictor counter {counter!r} is not in 0..3")
            predictor[int(pc)] = counter
        mispredicts = state["mispredicts"]
        if type(mispredicts) is not int or mispredicts < 0:
            raise ValueError(f"mispredicts {mispredicts!r} is not a count")

        def apply():
            self._branch_predictor = predictor
            self._mispredicts = mispredicts
        return apply

    @hot_path
    def _latency(self, record, decoded):
        # The base method is called directly: cheaper than super() per
        # instruction.
        cycles = DutCore._latency(self, record, decoded)
        if decoded is not None and decoded.spec.category is _BRANCH:
            taken = record.next_pc != record.pc + 4
            counter = self._branch_predictor.get(record.pc, 1)
            predicted_taken = counter >= 2
            if predicted_taken != taken:
                cycles += self.timing.extra["mispredict"]
                self._mispredicts += 1
            counter = min(3, counter + 1) if taken else max(0, counter - 1)
            self._branch_predictor[record.pc] = counter
        return cycles

    def _groups(self):
        groups = super()._groups()
        groups["rob"] = RegisterGroup(
            ("rob_occupancy", "rob_flush", "rob_exception", "freelist_level",
             "iq_int_level", "iq_mem_level", "iq_fp_level"),
            128, _rob_values, _ROB)
        groups["lsq"] = RegisterGroup(
            ("ldq_level", "stq_level", "map_hash"), 1024,
            lambda k: (k & 7, (k >> 3) & 7, k >> 6), _LSQ)
        return groups

    @hot_path
    def _update_microarch(self, record, decoded):
        if decoded is not None:
            st = self._state
            key = decoded.spec.dut_key
            if record.trap is None:
                st[_ROB] = _ROB_NEXT[(key << 3) | (st[_ROB] & 7)]
            else:
                st[_ROB] = _ROB_FLUSH[key]
            st[_LSQ] = (_LSQ_NEXT[(_LSQ_CLASS[key] << 6) | (st[_LSQ] & 63)]
                        | (((decoded.rd * 3 + decoded.rs1) & 0xF) << 6))
        DutCore._update_microarch(self, record, decoded)
