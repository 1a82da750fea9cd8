"""The two-stage deepExplore driver (paper Section V).

Stage 1: profile each benchmark on the DUT (BBV collection + coverage
attribution per interval), select SimPoint representatives, rebuild the
marked (high-coverage-gain) intervals as corpus seeds with init contexts,
then lightly mutate initialization states until improvement plateaus.

Stage 2: hand the enriched corpus to the TurboFuzzer session.
"""

from dataclasses import dataclass

from repro.deepexplore.bbv import BasicBlockVectorCollector
from repro.deepexplore.intervals import CONTEXT_AREA_OFFSET, build_interval_seed
from repro.deepexplore.simpoint import select_simpoints
from repro.fuzzer.blocks import Iteration
from repro.harness.image import build_image
from repro.workloads import raw_iteration


@dataclass
class DeepExploreConfig:
    """deepExplore knobs."""

    interval_length: int = 800
    clusters: int = 6
    mark_fraction: float = 0.5   # share of representatives kept as seeds
    refine_rounds: int = 6
    plateau_patience: int = 2
    profile_cap: int = 120_000   # max profiled instructions per workload
    kmeans_seed: int = 0


@dataclass
class Stage1Report:
    """What stage 1 did, per workload."""

    workload: str
    intervals: int
    simpoints: int
    marked: int
    profiled_instructions: int
    coverage_after: int


class DeepExplore:
    """Drives a :class:`~repro.campaign.session.CampaignSession` through
    the hybrid schedule."""

    def __init__(self, session, config=None):
        self.session = session
        self.config = config or DeepExploreConfig()
        self.reports = []
        self._context_slots = 0

    # -- stage 1 ---------------------------------------------------------------
    def _profile(self, program):
        """Run one benchmark on the DUT, collecting interval records."""
        session = self.session
        core = session.core
        iteration = raw_iteration(program.words, session.fuzzer.layout)
        image = build_image(iteration)
        core.reset_pc = image.layout.reset
        core.reset()
        image.install(core.memory)
        collector = BasicBlockVectorCollector(
            core, interval_length=self.config.interval_length
        )
        start_cycles = core.cycles
        fuzz_base = iteration.fuzz_base

        def observe(record):
            if record.pc >= fuzz_base:
                collector.observe(record)

        executed = core.execute(self.config.profile_cap,
                                done_pc=image.layout.done,
                                on_record=observe)[0]
        session.clock.advance_cycles(core.cycles - start_cycles)
        session.total_executed += executed
        return collector.finish(), iteration, executed

    def run_stage1(self, programs):
        """Profile benchmarks, plant marked interval seeds in the corpus."""
        config = self.config
        session = self.session
        for program in programs:
            intervals, iteration, executed = self._profile(program)
            simpoints = select_simpoints(
                intervals, k=config.clusters, seed=config.kmeans_seed
            )
            # Mark the representatives with the highest coverage gain.
            ranked = sorted(
                simpoints,
                key=lambda point: -intervals[point.interval_index].coverage_increment,
            )
            keep = max(1, int(len(ranked) * config.mark_fraction))
            for point in ranked[:keep]:
                interval = intervals[point.interval_index]
                offset = CONTEXT_AREA_OFFSET + 512 * self._context_slots
                self._context_slots += 1
                blocks, patch = build_interval_seed(
                    interval,
                    iteration.words,
                    iteration.fuzz_base,
                    session.fuzzer.layout,
                    context_offset=offset,
                )
                session.fuzzer.add_interval_seed(
                    blocks, interval.coverage_increment, data_patch=patch
                )
            self.reports.append(
                Stage1Report(
                    workload=program.name,
                    intervals=len(intervals),
                    simpoints=len(simpoints),
                    marked=keep,
                    profiled_instructions=executed,
                    coverage_after=session.coverage_total,
                )
            )
        return self.reports

    # -- stage 1.5: init-state refinement ------------------------------------------
    def refine_marked_seeds(self):
        """Mutate marked intervals' initialization states until coverage
        improvement plateaus (the paper's iterative feedback loop)."""
        session = self.session
        fuzzer = session.fuzzer
        interval_seeds = [
            seed for seed in fuzzer.corpus.seeds if seed.origin == "interval"
        ]
        rounds_without_gain = 0
        rounds = 0
        while (rounds < self.config.refine_rounds
               and rounds_without_gain < self.config.plateau_patience):
            rounds += 1
            gained = 0
            for slot, seed in enumerate(interval_seeds):
                patch = self._perturb_patch(
                    fuzzer.persistent_data_patches, slot, fuzzer.lfsr
                )
                if patch is None:
                    continue
                iteration = Iteration(
                    blocks=list(seed.blocks),
                    layout=fuzzer.layout,
                    data_seed=fuzzer.lfsr.next(),
                    data_patches=list(fuzzer.persistent_data_patches),
                )
                iteration.assemble()
                result = session.runner.run(iteration)
                session.clock.advance_seconds(
                    session.timing.iteration_seconds(
                        generated=iteration.total_instructions,
                        executed=result.executed_instructions,
                        dut_cycles=result.cycles,
                        frequency_hz=session.core.default_frequency_hz,
                    )
                )
                session.total_executed += result.executed_instructions
                if result.new_coverage > 0:
                    gained += result.new_coverage
                    fuzzer.corpus.update_increment(seed, result.new_coverage)
            rounds_without_gain = 0 if gained else rounds_without_gain + 1
        return rounds

    @staticmethod
    def _perturb_patch(patches, slot, lfsr):
        """Lightly mutate one init-context blob (immediates/addresses)."""
        if slot >= len(patches):
            return None
        offset, blob = patches[slot]
        mutated = bytearray(blob)
        for _ in range(4):
            position = lfsr.below(max(1, len(mutated)))
            mutated[position] ^= lfsr.bits(8) or 1
        patches[slot] = (offset, bytes(mutated))
        return patches[slot]

    # -- stage 2 -----------------------------------------------------------------------
    def run_stage2(self, virtual_seconds, max_iterations=None):
        """High-throughput fuzzing over the enriched corpus."""
        self.session.run_for_virtual_time(
            virtual_seconds, max_iterations=max_iterations
        )

    # -- full schedule -------------------------------------------------------------------
    def run(self, programs, total_virtual_seconds, max_iterations=None):
        """Stage 1 + refinement + stage 2 up to the total time budget."""
        self.run_stage1(programs)
        self.refine_marked_seeds()
        self.run_stage2(total_virtual_seconds, max_iterations)
