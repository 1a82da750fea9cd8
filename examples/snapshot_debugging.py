#!/usr/bin/env python3
"""Hardware-snapshot debugging workflow (paper Section III).

Fuzz a buggy BOOM until the checker halts — observed through the campaign
event bus's ``mismatch`` event — capture the full design state, serialize
it (the FPGA-readback-to-host transfer), restore it into a fresh core, and
replay the run deterministically — the StateMover-style offline analysis
loop TurboFuzz automates.
"""

import math

from repro.campaign import CampaignSpec, build_session
from repro.dut import make_core
from repro.harness import HardwareSnapshot


def main():
    spec = (
        CampaignSpec(core="boom", bugs=("B2",))  # invalid frm accepted
        .with_checking(with_ref=True, capture_snapshots=True)
        .with_fuzzer("turbofuzz", instructions_per_iteration=800)
    )
    session = build_session(spec)

    @session.bus.on_mismatch
    def triage(session, outcome, mismatch, snapshot):
        print(f"  [bus] divergence at iteration {outcome.index}: "
              f"{mismatch.describe()}")

    seconds = session.run_for_virtual_time(
        math.inf, max_iterations=200, until_detection=True)
    mismatch = session.history[-1].mismatch
    print(f"mismatch after {seconds:.3f} virtual s:")
    print(f"  {mismatch.describe()}")

    snapshot = HardwareSnapshot.capture(session.core,
                                        annotation=mismatch.describe())
    blob = snapshot.to_bytes()
    print(f"\nsnapshot captured: {len(blob):,} bytes serialized "
          f"({snapshot.resident_memory_bytes:,} bytes of design memory)")
    print(f"  cycles={snapshot.cycles:.0f} retired={snapshot.retired}")
    print(f"  coverage at capture: {snapshot.coverage_counts}")

    # Host-side restore into a fresh core (the offline simulator stand-in).
    replay_core = make_core("boom", bugs=("B2",))
    HardwareSnapshot.from_bytes(blob).restore(replay_core)
    print("\nreplaying 5 instructions from the snapshot point:")
    for _ in range(5):
        record = replay_core.step()
        from repro.isa.disasm import disassemble

        print(f"  {record.pc:#010x}: {disassemble(record.word)}")


if __name__ == "__main__":
    main()
