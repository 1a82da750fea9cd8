"""BOOM (SonicBOOM): superscalar out-of-order RV64 core.

Adds the out-of-order machinery modules (ROB, rename, issue queues,
load/store queue) on top of the shared micro-architectural modules; the two
BOOM bugs (B1, B2) inject in the FPU rounding-mode path.

The timing model captures the essential OoO behaviour for the paper's
experiments: sub-1.0 effective CPI on independent streams, heavy branch
mispredict penalties, and unpipelined division.
"""

from repro.analyze.markers import hot_path
from repro.dut.core import CoreTiming, DutCore
from repro.isa.instructions import Category

# Module-level category groups: membership tests against these cost no
# per-call tuple construction in the hot _update_microarch override.
_LONG_LATENCY = frozenset({Category.DIV, Category.FP_DIV, Category.AMO})
_LOADS = frozenset({Category.LOAD, Category.FP_LOAD})
_STORES = frozenset({Category.STORE, Category.FP_STORE})


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

    def load_core_state(self, state):
        self._branch_predictor = {
            int(pc): int(counter)
            for pc, counter in state.get("branch_predictor", {}).items()
        }
        self._mispredicts = int(state.get("mispredicts", 0))

    @hot_path
    def _latency(self, record, decoded):
        cycles = super()._latency(record, decoded)
        if decoded is not None and decoded.spec.category is Category.BRANCH:
            taken = record.next_pc != record.pc + 4
            counter = self._branch_predictor.get(record.pc, 1)
            predicted_taken = counter >= 2
            if predicted_taken != taken:
                cycles += self.timing.extra["mispredict"]
                self._mispredicts += 1
            counter = min(3, counter + 1) if taken else max(0, counter - 1)
            self._branch_predictor[record.pc] = counter
        return cycles

    @hot_path
    def _update_microarch(self, record, decoded):
        super()._update_microarch(record, decoded)
        if decoded is None:
            return
        category = decoded.spec.category
        vals = self.vals
        # ROB occupancy rises with long-latency ops in flight, falls on
        # flushes (mispredicts, traps).
        occupancy = vals["rob_occupancy"]
        if category in _LONG_LATENCY:
            occupancy = min(7, occupancy + 2)
        elif category in _LOADS:
            occupancy = min(7, occupancy + 1)
        else:
            occupancy = max(0, occupancy - 1)
        flush = 1 if record.trap is not None else 0
        if flush:
            occupancy = 0
        vals["rob_occupancy"] = occupancy
        vals["rob_flush"] = flush
        vals["rob_exception"] = flush
        vals["map_hash"] = (decoded.rd * 3 + decoded.rs1) & 0xF
        vals["freelist_level"] = min(7, 7 - occupancy)
        vals["iq_int_level"] = min(7, occupancy + (1 if category is Category.ALU else 0))
        vals["iq_mem_level"] = min(3, occupancy // 2)
        vals["iq_fp_level"] = min(3, occupancy // 2 if decoded.spec.is_fp else 0)
        if category in _LOADS:
            vals["ldq_level"] = min(7, vals["ldq_level"] + 1)
        else:
            vals["ldq_level"] = max(0, vals["ldq_level"] - 1)
        if category in _STORES:
            vals["stq_level"] = min(7, vals["stq_level"] + 1)
        else:
            vals["stq_level"] = max(0, vals["stq_level"] - 1)
