"""DifuzzRTL baseline (Hur et al., S&P 2021) — behavioural model.

Captures the properties the paper measures against:

* coverage-guided mutation over a **FIFO** corpus (the scheduling the
  paper's Section IV-D improves on),
* **unconstrained forward jumps**: a control-flow instruction lands
  uniformly in the remaining iteration (paper eq. 1), so execution skips
  most generated instructions,
* **heavy per-iteration setup routines** (register-file initialization),
  which drag prevalence below 0.2 (Fig. 4 / Fig. 8),
* raw operand randomization: any register (including the harness base
  registers) and unconstrained displacements, so memory operations
  frequently fault.

Instruction generation quality — not the coverage metric — is what
differentiates it from TurboFuzz; it shares the instruction library and
runs on the same DUT + instrumentation.  Its stimulus is the packed block
of :mod:`repro.fuzzer.blocks`, one word per block, drawn from a cached
weighted spec list (:class:`~repro.fuzzer.direct.DirectGenerator`).
Blocks are never changed once built, so the corpus stores an iteration's
blocks as they are, and a mutation replaces only the blocks it flips.
"""

import dataclasses
from dataclasses import dataclass, field

from repro.fuzzer.blocks import JUMP_FLAGS, InstructionBlock, Iteration
from repro.fuzzer.context import MemoryLayout
from repro.fuzzer.direct import DirectGenerator
from repro.fuzzer.instrlib import InstructionLibrary
from repro.fuzzer.lfsr import Lfsr
from repro.isa.encoder import encode
from repro.isa.instructions import Category, Extension


@dataclass
class DifuzzRtlConfig:
    """DifuzzRTL knobs (defaults match the Table I operating point)."""

    instructions_per_iteration: int = 1000
    setup_instructions: int = 140  # per-iteration register init routines
    corpus_capacity: int = 64
    mutation_prob: tuple = (1, 2)  # mutate a stored seed vs generate fresh
    flip_bits: int = 4             # AFL-style bit flips per mutation
    control_flow_weight: int = 6   # yields the >1/6 cf share of Fig. 4
    extensions: frozenset = field(
        default_factory=lambda: frozenset(
            {Extension.I, Extension.M, Extension.A, Extension.F,
             Extension.D, Extension.ZICSR, Extension.SYSTEM}
        )
    )
    seed: int = 0xD1F055


class DifuzzRtlFuzzer:
    """Coverage-guided software fuzzer with FIFO corpus scheduling."""

    name = "difuzzrtl"

    def __init__(self, config=None, layout=None):
        self.config = config or DifuzzRtlConfig()
        self.layout = layout or MemoryLayout()
        self.lfsr = Lfsr(self.config.seed)
        # jalr through a garbage register is an instant wild jump; the real
        # DifuzzRTL generator sticks to direct jumps for the same reason.
        self.library = InstructionLibrary(self.config.extensions,
                                          exclude=("jalr",))
        self.direct = DirectGenerator(self.library, {
            Category.BRANCH: self.config.control_flow_weight,
            Category.JUMP: self.config.control_flow_weight,
            Category.SYSTEM: 0,
        })
        self.corpus = []  # FIFO of block lists
        self.iterations = 0
        self._pending = None

    # -- generation ------------------------------------------------------------
    def _setup_routine(self):
        """Register-file initialization: the non-fuzzing routine code."""
        words = []
        lfsr = self.lfsr
        budget = self.config.setup_instructions
        counter = 0
        while len(words) < budget:
            # Integer pool 7..28 keeps the harness pointer registers
            # (x5/x6) intact, like the real tool's reserved registers.
            register = 7 + (counter % 22)
            if counter % 3 == 2:
                # move an initialized integer pattern into the FP file;
                # every fourth move seeds a zero (fresh register files
                # come up zeroed, which the real tool also relies on).
                source = 0 if counter % 12 == 2 else register
                words.append(encode("fmv.d.x", rd=counter % 32, rs1=source))
            elif counter % 2:
                words.append(
                    encode("addi", rd=register, rs1=register,
                           imm=lfsr.bits(11))
                )
            else:
                words.append(
                    encode("lui", rd=register, imm=lfsr.bits(19) << 12)
                )
            counter += 1
        return words[:budget]

    def _random_word(self, specs, index, total):
        """One raw random instruction (DifuzzRTL's generation quality),
        its spec drawn from ``specs``."""
        lfsr = self.lfsr
        spec = lfsr.choice(specs)
        fmt = spec.fmt
        if fmt == "B":
            word = encode(spec.name, rs1=lfsr.below(30), rs2=lfsr.below(30), imm=4)
            return word, "branch", self._far_target(index, total)
        if spec.name == "jal":
            word = encode("jal", rd=lfsr.below(30), imm=4)
            return word, "jal", self._far_target(index, total)
        # Everything else: mostly-raw operand randomization.  Memory ops
        # use the managed base register most of the time (DifuzzRTL does
        # maintain a memory map) but occasionally a garbage register, and
        # rounding modes are drawn from a pool with a small invalid share —
        # both cause the occasional iteration-killing fault.
        if spec.is_memory and lfsr.chance((7, 8)):
            rs1 = 5  # the managed data base register
        else:
            rs1 = lfsr.below(30)
        try:
            word = encode(
                spec.name,
                rd=lfsr.below(30),
                rs1=rs1,
                rs2=lfsr.below(30),
                rs3=lfsr.below(30),
                imm=lfsr.bits(11) - 1024,
                csr=lfsr.choice((0x001, 0x002, 0x003, 0x300, 0x340, 0x341,
                                 0x342, 0x343, 0xB02)),
                shamt=lfsr.below(32 if fmt == "R_SHW" else 64),
                rm=lfsr.choice((0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 7, 7, 7, 7, 7, 5)),
                zimm=lfsr.bits(5),
            )
        except Exception:
            word = encode("addi", rd=lfsr.below(30), rs1=lfsr.below(30),
                          imm=lfsr.bits(11))
        return word, "", None

    def _far_target(self, index, total):
        """Unbounded forward target (eq. 1's uniform landing)."""
        if index + 1 >= total:
            return None
        return index + 1 + self.lfsr.below(total - index - 1)

    def _generate_words(self):
        blocks = []
        total = self.config.instructions_per_iteration
        specs = self.direct.specs()
        for index in range(total):
            word, cf_kind, target = self._random_word(specs, index, total)
            if cf_kind:
                blocks.append(InstructionBlock(
                    "jal" if cf_kind == "jal" else "beq", (word,),
                    JUMP_FLAGS[cf_kind, target is not None], cf_kind,
                    target))
            else:
                blocks.append(InstructionBlock("addi", (word,)))
        return blocks

    def _mutate_blocks(self, parent_blocks):
        """AFL-style bit flips over the stored stimulus: each flip
        replaces its block with one whose first word is flipped."""
        lfsr = self.lfsr
        blocks = list(parent_blocks)
        for _ in range(self.config.flip_bits):
            index = lfsr.below(len(blocks))
            victim = blocks[index]
            if victim.patched(0):
                continue
            words = victim.words
            blocks[index] = dataclasses.replace(victim, words=(
                words[0] ^ (1 << (7 + lfsr.below(25))),) + words[1:])
        return blocks

    def generate_iteration(self):
        """Next iteration: mutate a stored seed or generate fresh."""
        if self.corpus and self.lfsr.chance(self.config.mutation_prob):
            blocks = self._mutate_blocks(self.lfsr.choice(self.corpus))
        else:
            blocks = self._generate_words()
        iteration = Iteration(
            blocks=blocks,
            layout=self.layout,
            data_seed=self.lfsr.next(),
            setup_words=self._setup_routine(),
        )
        iteration.assemble()
        self.iterations += 1
        self._pending = iteration
        return iteration

    # -- feedback ----------------------------------------------------------------
    def feedback(self, iteration, coverage_increment):
        """Coverage-guided, FIFO-evicted corpus insertion."""
        self._pending = None
        if coverage_increment > 0:
            self.corpus.append(list(iteration.blocks))
            if len(self.corpus) > self.config.corpus_capacity:
                self.corpus.pop(0)  # FIFO: oldest seed goes first

    # -- checkpoint protocol -----------------------------------------------------
    def state_dict(self):
        """JSON-round-trippable snapshot (LFSR + FIFO corpus + counter)."""
        if self._pending is not None:
            raise ValueError(
                "cannot checkpoint mid-iteration: feedback() has not been "
                "called for the last generated iteration"
            )
        return {
            "lfsr": self.lfsr.state_dict(),
            "corpus": [[block.state_dict() for block in blocks]
                       for blocks in self.corpus],
            "iterations": self.iterations,
            "library": self.library.state_dict(),
        }

    def prepare_state(self, state):
        """Decode a :meth:`state_dict` and check all of it; returns the
        function that applies it (decoding changes nothing)."""
        apply_lfsr = self.lfsr.prepare_state(state["lfsr"])
        corpus = [
            [InstructionBlock.from_state(block) for block in blocks]
            for blocks in state["corpus"]
        ]
        iterations = int(state["iterations"])
        apply_library = self.library.prepare_state(state["library"])

        def apply():
            apply_lfsr()
            self.corpus = corpus
            self.iterations = iterations
            apply_library()
            self._pending = None
        return apply
