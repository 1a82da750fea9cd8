"""TurboFuzzer configuration: every paper default in one place.

All probabilities are expressed as ``(numerator, denominator)`` pairs over a
power-of-two denominator, exactly as a hardware implementation would draw
them from LFSR bits.
"""

from dataclasses import dataclass, field

from repro.isa.instructions import Extension


@dataclass
class TurboFuzzConfig:
    """Knobs of the TurboFuzzer (paper Section IV defaults)."""

    # Section IV-B.1: per-block choice between modes.
    mutation_mode_prob: tuple = (7, 16)  # direct mode gets the other 9/16

    # Section IV-B.3: dual-strategy seed selection.
    seed_priority_prob: tuple = (3, 4)  # prioritize high coverage-increment

    # Section IV-B.3: block operations inside mutation mode.
    block_generate_prob: tuple = (3, 16)
    block_delete_prob: tuple = (11, 16)
    block_retain_prob: tuple = (2, 16)

    # Section IV-B.2 / IV-C: memory address generation.
    data_segment_prob: tuple = (3, 4)  # loads: data vs instruction segment

    # Section IV-C: iteration sizing and jump-range limitation.
    instructions_per_iteration: int = 4000
    jump_window_blocks: int = 2  # generated control flow targets within this

    # Operand mutation probability for retained blocks (bit-flip /
    # operand-substitution pass of the mutation engine).
    operand_mutation_prob: tuple = (1, 2)

    # A retain operation streams this many consecutive seed blocks (the
    # hardware reads corpus storage in bursts); contiguous runs preserve
    # the micro-architectural state sequences that made the seed valuable.
    retain_run_blocks: int = 4

    # Instruction library configuration (the VIO-toggled subsets).
    extensions: frozenset = field(
        default_factory=lambda: frozenset(
            {
                Extension.I,
                Extension.M,
                Extension.A,
                Extension.F,
                Extension.D,
                Extension.ZICSR,
                Extension.SYSTEM,
            }
        )
    )

    # Corpus management (Section IV-D).
    corpus_capacity: int = 64
    corpus_policy: str = "coverage"  # "coverage" (TurboFuzz) or "fifo"

    # Probability that an FP instruction carries an *invalid* rounding mode
    # (exercises the illegal-instruction path and bug B2).
    invalid_rm_prob: tuple = (1, 256)

    # Deterministic seeding.
    seed: int = 0xC0FFEE

    def __post_init__(self):
        total = (
            self.block_generate_prob[0] * 16 // self.block_generate_prob[1]
            + self.block_delete_prob[0] * 16 // self.block_delete_prob[1]
            + self.block_retain_prob[0] * 16 // self.block_retain_prob[1]
        )
        if total != 16:
            raise ValueError(
                "block operation probabilities must sum to 1 "
                f"(got {total}/16)"
            )
        if self.corpus_policy not in ("coverage", "fifo"):
            raise ValueError(f"unknown corpus policy {self.corpus_policy!r}")
