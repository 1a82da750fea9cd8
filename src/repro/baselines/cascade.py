"""Cascade baseline (Solt et al., USENIX Security 2024) — behavioural model.

Cascade constructs *valid-by-construction* programs with intricate control
and data flow and no runtime feedback loop (it is not coverage-guided).
The properties the paper measures against:

* high prevalence (avg 0.93): programs are almost entirely fuzzing
  instructions with a small init stub,
* intricate but *terminating* control flow: forward jumps with entangled
  data dependencies,
* no corpus / no coverage feedback — each program is independent,
* software-only execution (RTL simulation throughput).

It reuses the TurboFuzz block emitters for architectural validity but
keeps its own program shaping: moderate jump windows, chained register
dependencies, and a deliberate absence of feedback.
"""

from dataclasses import dataclass, field

from repro.fuzzer.blocks import BlockBuilder, Iteration
from repro.fuzzer.config import TurboFuzzConfig
from repro.fuzzer.context import FuzzContext, MemoryLayout
from repro.fuzzer.instrlib import InstructionLibrary
from repro.fuzzer.lfsr import Lfsr
from repro.isa.encoder import encode
from repro.isa.instructions import Category, Extension


@dataclass
class CascadeConfig:
    """Cascade knobs (defaults match the Table I operating point)."""

    instructions_per_iteration: int = 400
    init_instructions: int = 8
    jump_window_blocks: int = 4
    control_flow_weight: int = 3
    extensions: frozenset = field(
        default_factory=lambda: frozenset(
            {Extension.I, Extension.M, Extension.A, Extension.F,
             Extension.D, Extension.ZICSR, Extension.SYSTEM}
        )
    )
    seed: int = 0xCA5CADE


class CascadeFuzzer:
    """Program-generation fuzzer without coverage feedback."""

    name = "cascade"

    def __init__(self, config=None, layout=None):
        self.config = config or CascadeConfig()
        self.layout = layout or MemoryLayout()
        self.lfsr = Lfsr(self.config.seed)
        # Cascade's generation is valid-by-construction: it never emits
        # invalid rounding modes and constrains all memory traffic, which
        # the TurboFuzz context/builder machinery already provides.
        inner = TurboFuzzConfig(
            jump_window_blocks=self.config.jump_window_blocks,
            invalid_rm_prob=(0, 2),
            seed=self.config.seed,
        )
        self.context = FuzzContext(self.lfsr, inner, self.layout)
        self.library = InstructionLibrary(self.config.extensions)
        self.builder = BlockBuilder(self.context)
        self._weights = {
            Category.BRANCH: self.config.control_flow_weight,
            Category.JUMP: 1,
            Category.ALU: 2,
            Category.ALU_IMM: 2,
            Category.LOAD: 2,
            Category.STORE: 2,
            Category.SYSTEM: 0,
        }
        self.iterations = 0

    def _init_stub(self):
        """Small register-init stub (Cascade's ~7% non-fuzzing share)."""
        words = []
        for position in range(self.config.init_instructions):
            register = 7 + (position % 22)
            words.append(
                encode("addi", rd=register, rs1=0,
                       imm=self.lfsr.bits(11))
            )
        return words

    def generate_iteration(self, instruction_budget=None):
        """One independent valid-by-construction program."""
        budget = instruction_budget or self.config.instructions_per_iteration
        window = self.config.jump_window_blocks
        # The list sample_weighted() draws from, fetched once per program.
        specs = self.library.weighted_specs(self._weights)
        build = self.builder.build
        choice = self.lfsr.choice
        blocks = []
        total = 0
        while total < budget:
            block = build(choice(specs), len(blocks), budget, window)
            blocks.append(block)
            total += len(block.entries)
        iteration = Iteration(
            blocks=blocks,
            layout=self.layout,
            data_seed=self.lfsr.next(),
            setup_words=self._init_stub(),
        )
        iteration.assemble()
        self.iterations += 1
        return iteration

    # -- checkpoint protocol -----------------------------------------------------
    def state_dict(self):
        """JSON-round-trippable snapshot (no corpus: LFSR + counter only)."""
        return {
            "lfsr": self.lfsr.state_dict(),
            "iterations": self.iterations,
            "library": self.library.state_dict(),
        }

    def prepare_state(self, state):
        """Decode a :meth:`state_dict` and check all of it; returns the
        function that applies it (decoding changes nothing)."""
        lfsr = Lfsr()
        lfsr.load_state(state["lfsr"])
        iterations = int(state["iterations"])
        apply_library = self.library.prepare_state(state["library"])

        def apply():
            self.lfsr.state = lfsr.state
            self.iterations = iterations
            apply_library()
        return apply

    def feedback(self, iteration, coverage_increment):
        """Cascade is not coverage-guided: feedback is discarded."""
