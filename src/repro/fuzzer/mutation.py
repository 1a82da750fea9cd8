"""Mutation mode: coverage-guided transformation of corpus seeds
(paper Section IV-B.3).

The engine walks the selected seed's blocks; at each position the fuzzer
chooses direct mode (9/16) or mutation mode (7/16).  Mutation-mode block
operations follow the paper's defaults — generate 3/16, delete 11/16,
retain 2/16 — with retained blocks undergoing operand rebinding and
retained control flow preserving its original (unrestricted) jump distance.
"""

from repro.fuzzer.blocks import InstructionBlock, StimulusEntry
from repro.isa.decoder import try_decode


class MutationEngine:
    """Applies block-level and operand-level mutations to seeds."""

    def __init__(self, config, context, direct_generator):
        self.config = config
        self.context = context
        self.direct = direct_generator

    # -- block-level ops ------------------------------------------------------------
    def roll_block_op(self):
        """Draw one of generate/delete/retain with the configured odds."""
        lfsr = self.context.lfsr
        roll = lfsr.next() & 15
        generate_cut = self.config.block_generate_prob[0]
        delete_cut = generate_cut + self.config.block_delete_prob[0] * 16 // (
            self.config.block_delete_prob[1]
        )
        if roll < generate_cut:
            return "generate"
        if roll < delete_cut:
            return "delete"
        return "retain"

    def retain_block(self, seed_block, old_index, new_index):
        """Clone a seed block into the new iteration.

        Control-flow blocks keep their original relative jump distance
        (the paper deliberately leaves preserved jumps unrestricted); the
        assembler clamps any target that falls off the iteration end.
        Operands are rebound with the configured probability.

        Copy-on-write: the entry list is deep-copied only when operand
        rebinding will actually touch it; an unmutated retain shares the
        seed's (never-mutated-in-place) entries.  The rebind chance is
        drawn up front — the clone consumes no randomness, so the LFSR
        stream is unchanged.
        """
        rebind = self.context.lfsr.chance(self.config.operand_mutation_prob)
        if rebind:
            block = seed_block.clone(generated=False)
        else:
            block = InstructionBlock(
                prime_name=seed_block.prime_name,
                entries=seed_block.entries,
                cf_kind=seed_block.cf_kind,
                target_block=seed_block.target_block,
                generated=False,
            )
        if block.is_control_flow and block.target_block is not None:
            delta = max(1, block.target_block - old_index)
            block.target_block = new_index + delta
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
        otherwise a second attempt is made before giving up.
        """
        original = try_decode(word)
        if original is None or original.spec.fmt in ("CSR", "CSRI"):
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
            decoded = try_decode(mutated)
            if (
                decoded is not None
                and decoded.spec.fmt == original.spec.fmt
                and decoded.spec.writes_fp == original.spec.writes_fp
            ):
                # Format-preserving only: a funct7 flip could otherwise
                # morph e.g. fadd.d f5 into fmv.x.d x5, silently turning
                # an FP destination into the integer base register.
                return mutated
        return None
