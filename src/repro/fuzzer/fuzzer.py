"""The TurboFuzzer top level: iteration generation + coverage feedback.

One :meth:`TurboFuzzer.generate_iteration` call produces a complete,
assembled :class:`~repro.fuzzer.blocks.Iteration`; after the harness runs
it on the DUT, :meth:`TurboFuzzer.feedback` folds the measured coverage
increment back into the corpus (new seeds in generation mode, increment
updates in mutation mode — paper Section IV-D).
"""

from dataclasses import dataclass, field

from repro.fuzzer.blocks import MAX_EMIT_DRAWS, Iteration
from repro.fuzzer.config import TurboFuzzConfig
from repro.fuzzer.context import MemoryLayout, draw_odds
from repro.fuzzer.corpus import Corpus, Seed
from repro.fuzzer.direct import DirectGenerator
from repro.fuzzer.instrlib import InstructionLibrary
from repro.fuzzer.lfsr import AHEAD, Lfsr, lookahead
from repro.fuzzer.mutation import MutationEngine

# The generation loop goes on from a fresh lookahead past this position:
# one block position draws the mode, the block operation and the spec,
# then its emitter's states (a retain run checks its own).
_REFILL_AT = AHEAD - 3 - MAX_EMIT_DRAWS


@dataclass(slots=True)
class FuzzerStats:
    """Counters a campaign accumulates."""

    iterations: int = 0
    instructions_generated: int = 0
    blocks_generated: int = 0
    blocks_retained: int = 0
    blocks_deleted: int = 0
    seeds_added: int = 0
    mode_counts: dict = field(
        default_factory=lambda: {"direct": 0, "mutation": 0}
    )

    def state_dict(self):
        return {
            "iterations": self.iterations,
            "instructions_generated": self.instructions_generated,
            "blocks_generated": self.blocks_generated,
            "blocks_retained": self.blocks_retained,
            "blocks_deleted": self.blocks_deleted,
            "seeds_added": self.seeds_added,
            "mode_counts": dict(self.mode_counts),
        }

    def prepare_state(self, state):
        """Check a :meth:`state_dict`; returns the function that applies
        it (checking changes nothing)."""
        counters = (state["iterations"], state["instructions_generated"],
                    state["blocks_generated"], state["blocks_retained"],
                    state["blocks_deleted"], state["seeds_added"])
        modes = state["mode_counts"]
        if not isinstance(modes, dict):
            raise TypeError("fuzzer mode_counts must be an object")
        modes = dict(modes)
        if not all(type(value) is int
                   for value in counters + tuple(modes.values())):
            raise TypeError("fuzzer stats must be integers")

        def apply():
            (self.iterations, self.instructions_generated,
             self.blocks_generated, self.blocks_retained,
             self.blocks_deleted, self.seeds_added) = counters
            self.mode_counts = modes
        return apply


class TurboFuzzer:
    """The synthesizable fuzzer IP (behavioural model)."""

    def __init__(self, config=None, layout=None):
        self.config = config or TurboFuzzConfig()
        self.layout = layout or MemoryLayout()
        self.lfsr = Lfsr(self.config.seed)
        self.library = InstructionLibrary(self.config.extensions)
        self.direct = DirectGenerator(self.library)
        self.mutation = MutationEngine(self.config)
        self.corpus = Corpus(
            capacity=self.config.corpus_capacity,
            policy=self.config.corpus_policy,
            priority_prob=self.config.seed_priority_prob,
        )
        self.stats = FuzzerStats()
        self._pending = None  # (iteration, parent_seed or None)
        # Data patches applied to every future iteration's data segment
        # (deepExplore plants interval init contexts here).
        self.persistent_data_patches = []

    # -- generation ------------------------------------------------------------------
    def generate_iteration(self):
        """Produce the next assembled iteration.

        A corpus seed is selected once per iteration; then, per block
        position, the engine chooses direct generation (9/16) or a
        mutation-mode operation on the next seed block (7/16).  With an
        empty corpus the iteration is pure direct mode.

        One loop does it all, drawing from an LFSR lookahead
        (:func:`~repro.fuzzer.lfsr.lookahead`) on locals: it draws the
        mode, the block operation and the spec, calls the spec's emitter
        or the retain path with the lookahead, and writes the LFSR state
        back once, before the data seed is drawn, and the counters once,
        at the end.  The draw order is that of one Lfsr call per
        decision, so the stream is a pure function of the seed.
        """
        config = self.config
        budget = config.instructions_per_iteration
        window = config.jump_window_blocks
        lfsr = self.lfsr
        parent = self.corpus.select(lfsr)
        seed_blocks = parent.blocks if parent is not None else ()
        seed_count = len(seed_blocks)
        # The Bernoulli parameters, cuts and spec list are invariant across
        # the block loop: check the power-of-two denominator once and draw
        # with a plain mask below (bit-identical to lfsr.chance()).
        mode_numerator, mode_denominator = config.mutation_mode_prob
        if mode_denominator & (mode_denominator - 1):
            raise ValueError("denominator must be a power of two")
        mode_mask = mode_denominator - 1
        generate_cut, delete_cut = self.mutation.block_op_cuts()
        run_length = max(1, config.retain_run_blocks)
        retain = self.mutation.retain_block
        emitters = self.direct.emitters()
        spec_count = len(emitters)
        odds = draw_odds(config.invalid_rm_prob, config.data_segment_prob)
        blocks = []
        append = blocks.append
        total = 0
        seed_cursor = 0
        direct = mutation = retained = deleted = 0
        ahead = lookahead(lfsr.state)
        pos = 0
        while total < budget:
            if pos > _REFILL_AT:
                ahead = lookahead(ahead[pos])
                pos = 0
            if seed_cursor < seed_count:
                pos += 1
                if (ahead[pos] & mode_mask) < mode_numerator:
                    pos += 1
                    roll = ahead[pos] & 15
                    if roll >= delete_cut:
                        # Retain: stream a contiguous run of seed blocks
                        # (burst read from corpus storage) so the retained
                        # sequence keeps its micro-architectural context.
                        stop = min(seed_count, seed_cursor + run_length)
                        while seed_cursor < stop and total < budget:
                            ahead, pos, block = retain(
                                ahead, pos, seed_blocks[seed_cursor],
                                seed_cursor, len(blocks))
                            seed_cursor += 1
                            retained += 1
                            append(block)
                            total += len(block.words)
                        continue
                    if roll >= generate_cut:
                        seed_cursor += 1
                        deleted += 1
                        continue
                    # Generate: insert a fresh block at this point.
                    mutation += 1
                else:
                    direct += 1
            else:
                direct += 1
            pos += 1
            pos, block = emitters[ahead[pos] % spec_count](
                ahead, pos, len(blocks), budget, window, odds)
            append(block)
            total += len(block.words)
        lfsr.state = ahead[pos]
        stats = self.stats
        stats.blocks_generated += direct + mutation
        stats.blocks_retained += retained
        stats.blocks_deleted += deleted
        stats.mode_counts["direct"] += direct
        stats.mode_counts["mutation"] += mutation + retained
        iteration = Iteration(
            blocks=blocks,
            layout=self.layout,
            data_seed=lfsr.next(),
            data_patches=list(self.persistent_data_patches),
        )
        iteration.assemble()
        stats.iterations += 1
        stats.instructions_generated += iteration.total_instructions
        self._pending = (iteration, parent)
        return iteration

    # -- feedback ---------------------------------------------------------------------
    def feedback(self, iteration, coverage_increment):
        """Fold a run's measured coverage increment into the corpus."""
        parent = None
        if self._pending is not None and self._pending[0] is iteration:
            parent = self._pending[1]
            self._pending = None
        if parent is not None:
            # Mutation mode: refresh the parent seed's recorded increment.
            self.corpus.update_increment(parent, coverage_increment)
        if coverage_increment > 0:
            # Blocks are never changed once built (retention and operand
            # rebinding build new blocks), so the seed references them.
            stored = self.corpus.add(
                Seed(
                    list(iteration.blocks),
                    coverage_increment=coverage_increment,
                    born_iteration=self.stats.iterations,
                    origin="mutation" if parent is not None else "direct",
                )
            )
            if stored:
                self.stats.seeds_added += 1

    # -- checkpoint protocol -----------------------------------------------------
    def delta_mark(self):
        """The corpus seed ids, for :meth:`state_dict`."""
        return self.corpus.delta_mark()

    def state_dict(self, mark=None):
        """JSON-round-trippable snapshot of all schedule-determining state;
        with a :meth:`delta_mark`, the corpus is relative to it (see
        :meth:`Corpus.state_dict`) and everything else, being small,
        travels whole.

        Checkpoints are taken at iteration boundaries (after ``feedback``);
        a generated-but-unfed iteration cannot be serialized faithfully.
        """
        if self._pending is not None:
            raise ValueError(
                "cannot checkpoint mid-iteration: feedback() has not been "
                "called for the last generated iteration"
            )
        return {
            "lfsr": self.lfsr.state_dict(),
            "corpus": self.corpus.state_dict(mark),
            "stats": self.stats.state_dict(),
            "library": self.library.state_dict(),
            "persistent_data_patches": [
                [offset, blob.hex()]
                for offset, blob in self.persistent_data_patches
            ],
        }

    def prepare_state(self, state):
        """Decode a :meth:`state_dict` (one taken with a mark fits only a
        fuzzer equal to this one at the mark); returns the function that
        applies it (decoding changes nothing).  The resumed stream of
        iterations is bit-identical to an uninterrupted run."""
        apply_corpus = self.corpus.prepare_state(state["corpus"])
        patches = [(int(offset), bytes.fromhex(blob))
                   for offset, blob in state["persistent_data_patches"]]
        lfsr, stats = state["lfsr"], state["stats"]
        if not all(isinstance(part, dict) for part in (lfsr, stats)):
            raise TypeError("fuzzer lfsr and stats must be objects")
        apply_lfsr = self.lfsr.prepare_state(lfsr)
        apply_stats = self.stats.prepare_state(stats)
        apply_library = self.library.prepare_state(state["library"])

        def apply():
            apply_lfsr()
            apply_stats()
            apply_library()
            self.persistent_data_patches = patches
            self._pending = None
            apply_corpus()
        return apply

    def add_interval_seed(self, blocks, coverage_increment, data_patch=None):
        """deepExplore stage-1 entry point: archive a benchmark interval.

        ``data_patch`` is the interval's init-context blob; it is applied
        to every subsequent iteration so retained interval blocks find
        their context in place.
        """
        seed = Seed(list(blocks), coverage_increment=coverage_increment,
                    origin="interval")
        self.corpus.add(seed)
        if data_patch is not None:
            self.persistent_data_patches.append(data_patch)
        return seed
