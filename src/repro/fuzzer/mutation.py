"""Mutation mode: coverage-guided transformation of corpus seeds
(paper Section IV-B.3).

The engine walks the selected seed's blocks; at each position the fuzzer
chooses direct mode (9/16) or mutation mode (7/16).  Mutation-mode block
operations follow the paper's defaults — generate 3/16, delete 11/16,
retain 2/16 — with retained blocks undergoing operand rebinding and
retained control flow preserving its original (unrestricted) jump distance.

The retain path draws from the generation loop's LFSR lookahead
(:func:`repro.fuzzer.lfsr.lookahead`): it takes ``(ahead, pos)`` and
returns them with the new block, going on from a fresh lookahead when a
word's draws could run past the end.  A retained block is a new block;
the seed's blocks are never changed.
"""

from repro.fuzzer.blocks import InstructionBlock
from repro.fuzzer.lfsr import AHEAD, lookahead
from repro.isa.decoder import spec_of

#: The most LFSR states one operand mutation draws: two attempts of a
#: flip count and up to two bit positions.
_MUTATE_DRAWS = 6


class MutationEngine:
    """Applies block-level and operand-level mutations to seeds."""

    def __init__(self, config):
        self.config = config

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

    def retain_block(self, ahead, pos, seed_block, old_index, new_index):
        """``(ahead, pos, block)``: a seed block retained into the new
        iteration.

        Control-flow blocks keep their original relative jump distance
        (the paper deliberately leaves preserved jumps unrestricted); the
        assembler clamps any target that falls off the iteration end.
        Operands are rebound with the configured probability, drawn first
        (as ``Lfsr.chance``).  The new block shares the seed block's words
        unless rebinding changed one.
        """
        numerator, denominator = self.config.operand_mutation_prob
        if denominator & (denominator - 1):
            raise ValueError("denominator must be a power of two")
        if pos >= AHEAD:
            ahead, pos = lookahead(ahead[pos]), 0
        pos += 1
        rebind = (ahead[pos] & (denominator - 1)) < numerator
        cf_kind, target = seed_block.cf_kind, seed_block.target_block
        if cf_kind and target is not None:
            target = new_index + max(1, target - old_index)
        words = seed_block.words
        if rebind and not cf_kind:
            # jalr's displacement (and a branch's fallback offset) are
            # part of the control-flow contract; rebinding control flow
            # would create wild jumps outside the block-boundary guarantee.
            ahead, pos, words = self._rebind_operands(ahead, pos, seed_block)
        return ahead, pos, InstructionBlock(
            seed_block.prime_name, words, seed_block.flags, cf_kind, target,
            False)

    # -- operand-level ops ----------------------------------------------------------
    def _rebind_operands(self, ahead, pos, block):
        """``(ahead, pos, words)``: the block's words after
        coverage-sensitive operand rebinding, which re-draws register and
        immediate fields while keeping each instruction's identity; words
        patched at assembly stay."""
        words = block.words
        rebound = None
        for position, word in enumerate(words):
            if block.patched(position):
                continue
            if pos > AHEAD - _MUTATE_DRAWS:
                ahead, pos = lookahead(ahead[pos]), 0
            pos, mutated = self._mutate_word(ahead, pos, word)
            if mutated is not None:
                if rebound is None:
                    rebound = list(words)
                rebound[position] = mutated
        return ahead, pos, words if rebound is None else tuple(rebound)

    def _mutate_word(self, ahead, pos, word):
        """``(pos, word or None)``: bit-flip within operand fields,
        validated by re-decode.

        Flips 1-2 random bits in the upper operand field (bits 20..31:
        immediates, rs2, funct7); rd/rs1 stay intact so base-register
        conventions survive mutation.  The result is kept only if it still
        decodes (the hardware-enforced validity check of the paper),
        otherwise a second attempt is made before giving up.  A probe
        needs only the spec it decodes to (:func:`spec_of`), not its
        fields.  At most :data:`_MUTATE_DRAWS` states are drawn.
        """
        original = spec_of(word)
        if original is None or original.fmt in ("CSR", "CSRI"):
            # Bits 20..31 of a CSR instruction are the CSR *address*;
            # flipping them could retarget mtvec and tear down the
            # exception templates.  Leave CSR ops untouched.
            return pos, None
        for _ in range(2):
            pos += 1
            mutated = word ^ (1 << (20 + ahead[pos + 1] % 12))
            if ahead[pos] & 1:
                mutated ^= 1 << (20 + ahead[pos + 2] % 12)
                pos += 2
            else:
                pos += 1
            spec = spec_of(mutated)
            if (
                spec is not None
                and spec.fmt == original.fmt
                and spec.writes_fp == original.writes_fp
            ):
                # Format-preserving only: a funct7 flip could otherwise
                # morph e.g. fadd.d f5 into fmv.x.d x5, silently turning
                # an FP destination into the integer base register.
                return pos, mutated
        return pos, None
