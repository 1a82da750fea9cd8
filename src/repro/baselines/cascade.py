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
dependencies, and a deliberate absence of feedback.  Its block loop calls
the emitters directly, drawing the spec and the operands from one LFSR
lookahead (:func:`repro.fuzzer.lfsr.lookahead`), as TurboFuzz's
generation loop does.
"""

from dataclasses import dataclass, field

from repro.fuzzer.blocks import MAX_EMIT_DRAWS, Iteration
from repro.fuzzer.context import MemoryLayout, draw_odds
from repro.fuzzer.direct import DirectGenerator
from repro.fuzzer.instrlib import InstructionLibrary
from repro.fuzzer.lfsr import AHEAD, Lfsr, lookahead
from repro.isa.encoder import encode
from repro.isa.instructions import Category, Extension

# The block loop goes on from a fresh lookahead past this position (a
# block draws its spec, then its emitter's states).
_REFILL_AT = AHEAD - 1 - MAX_EMIT_DRAWS


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
        self.library = InstructionLibrary(self.config.extensions)
        self.direct = DirectGenerator(self.library, {
            Category.BRANCH: self.config.control_flow_weight,
            Category.JUMP: 1,
            Category.ALU: 2,
            Category.ALU_IMM: 2,
            Category.LOAD: 2,
            Category.STORE: 2,
            Category.SYSTEM: 0,
        })
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

    def generate_iteration(self):
        """One independent valid-by-construction program."""
        budget = self.config.instructions_per_iteration
        window = self.config.jump_window_blocks
        emitters = self.direct.emitters()
        spec_count = len(emitters)
        # Cascade's generation is valid-by-construction: it never emits
        # invalid rounding modes, and its loads take TurboFuzz's default
        # 3/4 data-segment odds.
        odds = draw_odds((0, 2), (3, 4))
        lfsr = self.lfsr
        blocks = []
        total = 0
        ahead = lookahead(lfsr.state)
        pos = 0
        while total < budget:
            if pos > _REFILL_AT:
                ahead = lookahead(ahead[pos])
                pos = 0
            pos += 1
            pos, block = emitters[ahead[pos] % spec_count](
                ahead, pos, len(blocks), budget, window, odds)
            blocks.append(block)
            total += len(block.words)
        lfsr.state = ahead[pos]
        iteration = Iteration(
            blocks=blocks,
            layout=self.layout,
            data_seed=lfsr.next(),
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
        apply_lfsr = self.lfsr.prepare_state(state["lfsr"])
        iterations = int(state["iterations"])
        apply_library = self.library.prepare_state(state["library"])

        def apply():
            apply_lfsr()
            self.iterations = iterations
            apply_library()
        return apply

    def feedback(self, iteration, coverage_increment):
        """Cascade is not coverage-guided: feedback is discarded."""
