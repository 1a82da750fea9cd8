"""CVA6 (Ariane): single-issue, 6-stage application-class RV64 core.

Carries the CVA6-specific scoreboard module in addition to the shared
micro-architectural modules; all ten CVA6 bugs (C1-C10) inject here.
"""

from repro.dut.core import (
    BASE_STATE_SLOTS,
    KEY_SPECS,
    CoreTiming,
    DutCore,
    RegisterGroup,
)
from repro.isa.instructions import Category

_DIVIDES = frozenset({Category.DIV, Category.FP_DIV})

# Positional state slot after the shared ones: issue pointer | divide << 3
# | 16 (bit 4 marks a key written since reset; all registers read 0 before).
_SCOREBOARD = BASE_STATE_SLOTS


def _scoreboard_next():
    """``next[key << 3 | issue]``: the scoreboard key after an instruction
    (trapped or not).  The issue pointer advances; a long-latency divide
    leaves the scoreboard partially full."""
    table = []
    for spec in KEY_SPECS:
        divide = 8 if spec is not None and spec.category in _DIVIDES else 0
        table.extend(16 | ((issue + 1) & 7) | divide for issue in range(8))
    return tuple(table)


_SCOREBOARD_NEXT = _scoreboard_next()


def _scoreboard_values(key):
    if not key & 16:
        return (0, 0, 0)
    issue = key & 7
    lag = 2 if key & 8 else 1
    return (issue, (issue - lag) & 7, 1 if lag > 1 else 0)


class Cva6Core(DutCore):
    """Single-issue CVA6 model with scoreboard-based issue tracking."""

    name = "cva6"
    top_name = "CVA6"
    STATE_SLOTS = BASE_STATE_SLOTS + 1
    TRANSITIONS = (_SCOREBOARD_NEXT, _SCOREBOARD_NEXT, None, None)
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

    def _groups(self):
        groups = super()._groups()
        groups["scoreboard"] = RegisterGroup(
            ("sb_issue_ptr", "sb_commit_ptr", "sb_full"), 32,
            _scoreboard_values, _SCOREBOARD)
        return groups
