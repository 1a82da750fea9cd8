"""Mutation mode: coverage-guided transformation of corpus seeds
(paper Section IV-B.3).

The engine walks the selected seed's blocks; at each position the fuzzer
chooses direct mode (9/16) or mutation mode (7/16).  Mutation-mode block
operations follow the paper's defaults — generate 3/16, delete 11/16,
retain 2/16 — with retained blocks undergoing operand rebinding and
retained control flow preserving its original (unrestricted) jump distance.
"""

from repro.fuzzer.blocks import InstructionBlock, StimulusEntry
from repro.isa.decoder import spec_of


class MutationEngine:
    """Applies block-level and operand-level mutations to seeds."""

    def __init__(self, config, context, direct_generator):
        self.config = config
        self.context = context
        self.direct = direct_generator

    # -- block-level ops ------------------------------------------------------------
    def block_op_cuts(self):
        """``(generate_cut, delete_cut)`` over a 4-bit roll: a roll below
        the first cut generates, below the second deletes, else retains
        (the loop in :meth:`TurboFuzzer.generate_iteration` draws it)."""
        generate_cut = self.config.block_generate_prob[0]
        delete_cut = generate_cut + self.config.block_delete_prob[0] * 16 // (
            self.config.block_delete_prob[1]
        )
        return generate_cut, delete_cut

    def retain_block(self, seed_block, old_index, new_index):
        """Clone a seed block into the new iteration.

        Control-flow blocks keep their original relative jump distance
        (the paper deliberately leaves preserved jumps unrestricted); the
        assembler clamps any target that falls off the iteration end.
        Operands are rebound with the configured probability.

        Copy-on-write: the entry list is copied only when operand
        rebinding will touch it, and only the entries it rebinds are new
        objects; the rest stay shared with the seed (entries are never
        mutated in place).  The rebind chance is drawn up front — the copy
        consumes no randomness, so the LFSR stream is unchanged.
        """
        rebind = self.context.lfsr.chance(self.config.operand_mutation_prob)
        target = seed_block.target_block
        if seed_block.cf_kind and target is not None:
            target = new_index + max(1, target - old_index)
        block = InstructionBlock(
            seed_block.prime_name,
            list(seed_block.entries) if rebind else seed_block.entries,
            seed_block.cf_kind, target, False)
        if rebind:
            self._rebind_operands(block)
        return block

    # -- operand-level ops ----------------------------------------------------------
    def _rebind_operands(self, block):
        """Coverage-sensitive operand rebinding: re-draw register and
        immediate fields while keeping each instruction's identity."""
        if block.is_control_flow:
            # jalr's displacement (and a branch's fallback offset) are part
            # of the control-flow contract; mutating them would create
            # wild jumps outside the block-boundary guarantee.
            return
        for position, entry in enumerate(block.entries):
            if entry.needs_target_patch:
                continue  # control-flow words are patched at assembly
            mutated = self._mutate_word(entry.word)
            if mutated is not None:
                block.entries[position] = StimulusEntry(
                    mutated, entry.is_prime, entry.needs_target_patch,
                    entry.patch_kind,
                )

    def _mutate_word(self, word):
        """Bit-flip within operand fields, validated by re-decode.

        Flips 1-2 random bits in the upper operand field (bits 20..31:
        immediates, rs2, funct7); rd/rs1 stay intact so base-register
        conventions survive mutation.  The result is kept only if it still
        decodes (the hardware-enforced validity check of the paper),
        otherwise a second attempt is made before giving up.  A probe
        needs only the spec it decodes to (:func:`spec_of`), not its
        fields.
        """
        original = spec_of(word)
        if original is None or original.fmt in ("CSR", "CSRI"):
            # Bits 20..31 of a CSR instruction are the CSR *address*;
            # flipping them could retarget mtvec and tear down the
            # exception templates.  Leave CSR ops untouched.
            return None
        lfsr = self.context.lfsr
        for _ in range(2):
            flips = 1 + (lfsr.next() & 1)
            mutated = word
            for _ in range(flips):
                bit = 20 + lfsr.below(12)
                mutated ^= 1 << bit
            spec = spec_of(mutated)
            if (
                spec is not None
                and spec.fmt == original.fmt
                and spec.writes_fp == original.writes_fp
            ):
                # Format-preserving only: a funct7 flip could otherwise
                # morph e.g. fadd.d f5 into fmv.x.d x5, silently turning
                # an FP destination into the integer base register.
                return mutated
        return None
