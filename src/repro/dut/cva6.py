"""CVA6 (Ariane): single-issue, 6-stage application-class RV64 core.

Carries the CVA6-specific scoreboard module in addition to the shared
micro-architectural modules; all ten CVA6 bugs (C1-C10) inject here.
"""

from repro.analyze.markers import hot_path
from repro.dut.core import CoreTiming, DutCore
from repro.isa.instructions import Category

# Hoisted so the hot _update_microarch override allocates nothing per call.
_DIVIDES = frozenset({Category.DIV, Category.FP_DIV})


class Cva6Core(DutCore):
    """Single-issue CVA6 model with scoreboard-based issue tracking."""

    name = "cva6"
    top_name = "CVA6"
    timing = CoreTiming(
        base=1.0,
        branch_taken=5.0,   # deeper frontend than Rocket
        jump=2.0,
        load_hit=3.0,
        store_hit=1.0,
        cache_miss=25.0,
        icache_miss=16.0,
        mul=3.0,
        div=21.0,
        fp_arith=5.0,
        fp_div=30.0,        # iterative FPU divider
        fp_fma=6.0,
        csr=4.0,
        amo=14.0,
        trap=6.0,
    )

    def _build_netlist(self):
        self._common_modules()
        top = self.top
        scoreboard = top.submodule("Scoreboard")
        sb_issue = self._reg(scoreboard, "sb_issue_ptr", 3)
        sb_commit = self._reg(scoreboard, "sb_commit_ptr", 3)
        sb_full = self._reg(scoreboard, "sb_full", 1)
        sel = scoreboard.logic("sb_sel", 2, sources=[sb_issue, sb_commit, sb_full])
        scoreboard.mux("sb_fwd_mux", select=sel, width=64)
        scoreboard.memory("sb_entries", depth=8, width=160)

        execute = top.submodule("Execute")
        execute.logic("int_datapath", width=64, lut_cost=70_000)
        execute.register("pipe_data_regs", width=34_000)
        fpu = top.submodule("FPU")
        fpu.logic("fpnew_datapath", width=64, lut_cost=60_000)
        fpu.register("fp_pipe_regs", width=24_000)
        frontend = top.submodule("Frontend")
        frontend.logic("fetch_datapath", width=64, lut_cost=16_000)
        frontend.register("fetch_pipe_regs", width=12_000)
        top.memory("int_regfile", depth=31, width=64)

    @hot_path
    def _update_microarch(self, record, decoded):
        super()._update_microarch(record, decoded)
        if decoded is None:
            return
        # Scoreboard pointers advance with issue/commit; long-latency ops
        # leave the scoreboard partially full.
        vals = self.vals
        issue = (vals["sb_issue_ptr"] + 1) & 7
        vals["sb_issue_ptr"] = issue
        category = decoded.spec.category
        lag = 2 if category in _DIVIDES else 1
        vals["sb_commit_ptr"] = (issue - lag) & 7
        vals["sb_full"] = 1 if lag > 1 else 0
