#!/usr/bin/env python3
"""Bug hunt: inject a Table II bug into CVA6 and catch it two ways.

1. TurboFuzz with instruction-level lockstep checking (ENCORE-style):
   the campaign halts at the exact instruction where DUT and REF diverge
   and captures a hardware snapshot for offline debugging.
2. The DifuzzRTL software baseline on the same DUT, for the Table II
   acceleration-ratio comparison.

Both campaigns are declared as :class:`~repro.campaign.CampaignSpec`
variants of one base spec and share an instrumentation cache.
"""

import math

from repro.campaign import CampaignSpec, InstrumentationCache, build_session
from repro.dut import BUGS_BY_ID

BUG_ID = "C1"  # incorrect DZ flag for 0/0 division
BASE = CampaignSpec(core="cva6", bugs=(BUG_ID,))


def main():
    bug = BUGS_BY_ID[BUG_ID]
    print(f"hunting {BUG_ID}: {bug.description}")
    print(f"(paper: SW {bug.sw_time_s:.1f} s, HW {bug.hw_time_s:.2f} s, "
          f"{bug.sw_time_s / bug.hw_time_s:.1f}x)")
    print()
    cache = InstrumentationCache()

    # --- TurboFuzz with full lockstep checking + snapshots ---------------
    session = build_session(
        BASE.named("turbofuzz")
        .with_checking(with_ref=True, capture_snapshots=True)
        .with_fuzzer("turbofuzz", instructions_per_iteration=1000),
        cache=cache,
    )
    seconds = session.run_for_virtual_time(
        math.inf, max_iterations=300, until_detection=True)
    last = session.history[-1]
    print(f"TurboFuzz: divergence after {session.iterations} iterations, "
          f"{seconds:.3f} virtual s")
    print(f"  {last.mismatch.describe()}")
    print(f"  coverage at detection: {last.coverage_total}")

    # --- DifuzzRTL baseline (coarse end-of-program comparison) ---------
    sw_session = build_session(
        BASE.named("difuzzrtl").with_fuzzer("difuzzrtl"), cache=cache
    )
    sw_seconds = sw_session.run_for_virtual_time(
        math.inf, max_iterations=3000, until_detection=True)
    if sw_seconds is None:
        print("DifuzzRTL: bug not detected within the iteration budget")
    else:
        print(f"DifuzzRTL: detected after {sw_session.iterations} "
              f"iterations, {sw_seconds:.1f} virtual s")
        print(f"  acceleration ratio: {sw_seconds / seconds:.1f}x")


if __name__ == "__main__":
    main()
