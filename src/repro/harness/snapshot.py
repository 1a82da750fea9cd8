"""Hardware snapshots (paper Section III / StateMover lineage).

On the FPGA, TurboFuzz captures the complete design state — logic, FFs,
on-chip memories, DDR — via configuration readback when a mismatch occurs,
for offline replay in a software simulator.  Here a snapshot captures the
complete model state (architectural state, memory pages, the positional
micro-architectural state with both caches and BOOM's branch predictor,
coverage counters, cycle count) and can restore it bit-for-bit, which the
debugging workflow in the examples uses the same way.
"""

import pickle
from dataclasses import dataclass, field


@dataclass
class HardwareSnapshot:
    """A frozen, restorable copy of a DUT core's complete state."""

    core_name: str
    cycles: float
    retired: int
    arch_state: dict
    memory_pages: dict
    microarch_values: dict  # register name -> value, for inspection
    microarch: dict  # DutCore.capture_microarch(), what restore() loads
    coverage_counts: dict = field(default_factory=dict)
    annotation: str = ""

    @classmethod
    def capture(cls, core, annotation=""):
        """Freeze the complete state of a DUT core."""
        return cls(
            core_name=core.name,
            cycles=core.cycles,
            retired=core.retired,
            arch_state=core.state.snapshot(),
            memory_pages=core.memory.snapshot_pages(),
            microarch_values=dict(core.vals),
            microarch=core.capture_microarch(),
            coverage_counts=(
                core.coverage.counts_by_module() if core.coverage else {}
            ),
            annotation=annotation,
        )

    def restore(self, core):
        """Load this snapshot back into a compatible core."""
        if core.name != self.core_name:
            raise ValueError(
                f"snapshot of {self.core_name!r} cannot restore {core.name!r}"
            )
        core.state.restore(self.arch_state)
        core.memory.restore_pages(self.memory_pages)
        core.restore_microarch(self.microarch)
        core.cycles = self.cycles
        core.retired = self.retired

    def to_bytes(self):
        """Serialize (the host-PC transfer of the paper's workflow)."""
        return pickle.dumps(self)

    @classmethod
    def from_bytes(cls, blob):
        snapshot = pickle.loads(blob)
        if not isinstance(snapshot, cls):
            raise TypeError("blob does not contain a HardwareSnapshot")
        return snapshot

    @property
    def resident_memory_bytes(self):
        return sum(len(page) for page in self.memory_pages.values())
