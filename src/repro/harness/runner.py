"""Iteration execution: DUT alone or DUT/REF lockstep with checking."""

from dataclasses import dataclass

from repro.harness.checker import DifferentialChecker
from repro.harness.image import build_image
from repro.harness.snapshot import HardwareSnapshot
from repro.ref.executor import ExecConfig, Executor
from repro.ref.memory import SparseMemory
from repro.ref.state import ArchState
from repro.dut.bugs import CorrectHooks

#: An iteration's instruction cap: this many times its generated
#: instructions, plus 8 per template instruction.
MAX_INSTRUCTION_FACTOR = 4


@dataclass(slots=True)
class RunResult:
    """Outcome of executing one iteration."""

    executed_instructions: int = 0
    executed_fuzzing: int = 0
    executed_template: int = 0
    cycles: float = 0.0
    new_coverage: int = 0
    completed: bool = False
    mismatch: object = None  # harness.checker.Mismatch
    snapshot: object = None  # HardwareSnapshot on mismatch
    traps: int = 0

    @property
    def prevalence(self):
        """Fuzzing instructions / executed instructions (Fig. 8 metric)."""
        if not self.executed_instructions:
            return 0.0
        return self.executed_fuzzing / self.executed_instructions

    def to_dict(self):
        """Plain-data form for JSON export (Fig./Table persistence)."""
        return {
            "executed_instructions": self.executed_instructions,
            "executed_fuzzing": self.executed_fuzzing,
            "executed_template": self.executed_template,
            "cycles": self.cycles,
            "new_coverage": self.new_coverage,
            "completed": self.completed,
            "prevalence": self.prevalence,
            "traps": self.traps,
            "mismatch": (self.mismatch.describe()
                         if self.mismatch is not None else None),
        }


class IterationRunner:
    """Runs assembled iterations on a DUT core (optionally vs a REF)."""

    def __init__(self, core, with_ref=False, capture_snapshots=False,
                 stop_on_trap=False):
        self.core = core
        self.with_ref = with_ref
        self.capture_snapshots = capture_snapshots
        # DifuzzRTL-style harnesses abort the iteration at the first trap
        # instead of repairing and resuming (no execution-guarantee
        # templates); TurboFuzz keeps this False.
        self.stop_on_trap = stop_on_trap

    def _make_ref(self, image):
        """Fresh REF: same ISA semantics, correct hooks, own memory."""
        memory = SparseMemory()
        image.install(memory)
        state = ArchState(pc=image.layout.reset)
        hooks = CorrectHooks(rv32a_only=self.core.rv32a_only)
        return Executor(state, memory, config=ExecConfig(), hooks=hooks)

    def run(self, iteration, instruction_cap=None):
        """Execute one iteration to the done loop (or caps/mismatch)."""
        core = self.core
        image = build_image(iteration)
        core.reset_pc = image.layout.reset
        core.reset()
        image.install(core.memory)
        ref = self._make_ref(image) if self.with_ref else None
        checker = DifferentialChecker() if self.with_ref else None

        cap = instruction_cap or (
            MAX_INSTRUCTION_FACTOR * max(1, iteration.total_instructions)
            + image.total_template_instructions * 8
        )
        result = RunResult()
        start_points = core.coverage.total_points if core.coverage else 0
        start_cycles = core.cycles

        # Iteration watchdog: more than 64 traps since the last untrapped
        # fuzzing instruction means a destroyed trap vector spinning in
        # fault loops; hardware moves to the next iteration.
        executed, fuzzing, traps, completed, mismatch, _ = core.execute(
            cap, done_pc=iteration.layout.done, fuzz_base=iteration.fuzz_base,
            watchdog=64, stop_on_trap=self.stop_on_trap, ref=ref,
            checker=checker)
        if mismatch is not None:
            result.mismatch = mismatch
            if self.capture_snapshots:
                result.snapshot = HardwareSnapshot.capture(
                    core, annotation=mismatch.describe()
                )
        result.completed = completed
        result.executed_instructions = executed
        result.executed_fuzzing = fuzzing
        result.executed_template = executed - fuzzing
        result.traps = traps
        result.cycles = core.cycles - start_cycles
        if core.coverage:
            result.new_coverage = core.coverage.total_points - start_points
        return result
