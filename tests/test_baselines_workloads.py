"""Baseline fuzzers, synthetic workloads, deepExplore, FPGA models."""

import pytest

from repro.baselines import CascadeFuzzer, DifuzzRtlFuzzer
from repro.campaign import CampaignSpec, build_session
from repro.deepexplore import (
    BasicBlockVectorCollector,
    DeepExplore,
    DeepExploreConfig,
    kmeans,
    select_simpoints,
)
from repro.dut import RocketCore
from repro.fpga import (
    ILA_CONFIG1,
    ILA_CONFIG2,
    SidewinderBoard,
    VioInterface,
    estimate_ila,
    framework_area,
    table3_report,
)
from repro.fpga.ila import IlaConfig
from repro.fuzzer import TurboFuzzConfig, TurboFuzzer
from repro.harness import IterationRunner
from repro.isa.decoder import try_decode
from repro.workloads import all_workloads, coremark_like, raw_iteration


class TestDifuzzRtl:
    def test_iteration_structure(self):
        fuzzer = DifuzzRtlFuzzer()
        iteration = fuzzer.generate_iteration()
        assert len(iteration.setup_words) == fuzzer.config.setup_instructions
        assert iteration.total_instructions >= 1000

    def test_feedback_fifo(self):
        fuzzer = DifuzzRtlFuzzer()
        for _ in range(fuzzer.config.corpus_capacity + 5):
            iteration = fuzzer.generate_iteration()
            fuzzer.feedback(iteration, 1)
        assert len(fuzzer.corpus) == fuzzer.config.corpus_capacity

    def test_zero_increment_not_stored(self):
        fuzzer = DifuzzRtlFuzzer()
        fuzzer.feedback(fuzzer.generate_iteration(), 0)
        assert len(fuzzer.corpus) == 0

    def test_low_prevalence_operating_point(self):
        session = build_session(
            CampaignSpec(fuzzer="difuzzrtl", stop_on_trap=True))
        session.run_iterations(10)
        mean_prevalence = sum(
            h.prevalence for h in session.history) / len(session.history)
        assert mean_prevalence < 0.2  # the Fig. 8 bound
        assert session.iteration_rate_hz() == pytest.approx(4.13, rel=0.05)

    def test_setup_preserves_base_registers(self):
        fuzzer = DifuzzRtlFuzzer()
        for word in fuzzer._setup_routine():
            decoded = try_decode(word)
            if (decoded is not None and decoded.rd
                    and not decoded.spec.writes_fp):
                assert decoded.rd not in (5, 6)


class TestCascade:
    def test_high_prevalence_operating_point(self):
        session = build_session(CampaignSpec(fuzzer="cascade"))
        session.run_iterations(10)
        mean_prevalence = sum(
            h.prevalence for h in session.history) / len(session.history)
        assert mean_prevalence > 0.85
        assert session.iteration_rate_hz() == pytest.approx(12.6, rel=0.08)

    def test_feedback_is_ignored(self):
        fuzzer = CascadeFuzzer()
        iteration = fuzzer.generate_iteration()
        fuzzer.feedback(iteration, 1000)  # must not raise or store anything
        assert not hasattr(fuzzer, "corpus") or not fuzzer.corpus

    def test_no_invalid_rounding_modes(self):
        fuzzer = CascadeFuzzer()
        iteration = fuzzer.generate_iteration()
        for word in iteration.words:
            decoded = try_decode(word)
            if decoded is not None and decoded.spec.fmt in ("FR", "R4"):
                assert decoded.rm in (0, 1, 2, 3, 4, 7)


class TestWorkloads:
    def test_programs_terminate(self):
        for program in all_workloads(scale=1):
            iteration = raw_iteration(program.words)
            core = RocketCore()
            runner = IterationRunner(core)
            result = runner.run(
                iteration,
                instruction_cap=program.approx_dynamic_instructions * 2 + 1000,
            )
            assert result.completed, program.name

    def test_dynamic_instruction_estimate(self):
        program = coremark_like(scale=1)
        iteration = raw_iteration(program.words)
        core = RocketCore()
        runner = IterationRunner(core)
        result = runner.run(
            iteration,
            instruction_cap=program.approx_dynamic_instructions * 2 + 1000,
        )
        ratio = result.executed_fuzzing / program.approx_dynamic_instructions
        assert 0.8 < ratio < 1.2

    def test_distinct_names(self):
        names = {program.name for program in all_workloads()}
        assert names == {"coremark", "dhrystone", "microbench"}


class TestSimpoint:
    def test_kmeans_deterministic(self):
        import numpy as np

        matrix = np.array([[1.0, 0], [0.9, 0.1], [0, 1.0], [0.1, 0.9]])
        a = kmeans(matrix, 2, seed=1)
        b = kmeans(matrix, 2, seed=1)
        assert (a[0] == b[0]).all()

    def test_kmeans_separates_clusters(self):
        import numpy as np

        matrix = np.array([[1.0, 0]] * 5 + [[0, 1.0]] * 5)
        assignments, _ = kmeans(matrix, 2, seed=0)
        assert len(set(assignments[:5])) == 1
        assert assignments[0] != assignments[5]

    def test_simpoint_weights_sum_to_one(self):
        from repro.deepexplore.bbv import IntervalRecord

        intervals = [
            IntervalRecord(index=i, bbv={0x1000 + (i % 3) * 4: 10},
                           start_snapshot={})
            for i in range(9)
        ]
        points = select_simpoints(intervals, k=3, seed=0)
        assert sum(point.weight for point in points) == pytest.approx(1.0)
        assert len(points) <= 3

    def test_empty_intervals(self):
        assert select_simpoints([], k=3) == []


class TestBbvCollection:
    def test_collects_intervals_with_snapshots(self):
        program = coremark_like(scale=1)
        iteration = raw_iteration(program.words)
        from repro.harness.image import build_image

        core = RocketCore()
        image = build_image(iteration)
        core.reset_pc = image.layout.reset
        core.reset()
        image.install(core.memory)
        collector = BasicBlockVectorCollector(core, interval_length=500)
        for _ in range(4000):
            record = core.step()
            if record.pc >= iteration.fuzz_base:
                collector.observe(record)
            if record.next_pc == image.layout.done:
                break
        intervals = collector.finish()
        assert len(intervals) >= 3
        for interval in intervals[:-1]:
            assert interval.instructions == 500
            assert interval.bbv and interval.min_pc <= interval.max_pc
            assert "xregs" in interval.start_snapshot

    def test_loopy_program_has_recurring_bbvs(self):
        program = coremark_like(scale=2)
        iteration = raw_iteration(program.words)
        from repro.harness.image import build_image

        core = RocketCore()
        image = build_image(iteration)
        core.reset_pc = image.layout.reset
        core.reset()
        image.install(core.memory)
        collector = BasicBlockVectorCollector(core, interval_length=400)
        for _ in range(20_000):
            record = core.step()
            if record.pc >= iteration.fuzz_base:
                collector.observe(record)
            if record.next_pc == image.layout.done:
                break
        intervals = collector.finish()
        # Loop phases produce many intervals dominated by few leaders.
        assert len(collector.leader_order()) < 80
        assert len(intervals) > 10


class TestDeepExploreEngine:
    def test_stage1_plants_interval_seeds(self):
        session = build_session(CampaignSpec(
            fuzzer_options={"instructions_per_iteration": 300}))
        explorer = DeepExplore(session, DeepExploreConfig(
            profile_cap=15_000, clusters=4))
        reports = explorer.run_stage1(all_workloads(scale=1)[:1])
        assert reports[0].marked >= 1
        interval_seeds = [seed for seed in session.fuzzer.corpus.seeds
                          if seed.origin == "interval"]
        assert interval_seeds
        assert session.fuzzer.persistent_data_patches
        assert session.clock.seconds > 0

    def test_interval_seeds_are_runnable(self):
        session = build_session(CampaignSpec(
            fuzzer_options={"instructions_per_iteration": 300}))
        explorer = DeepExplore(session, DeepExploreConfig(
            profile_cap=10_000, clusters=3))
        explorer.run_stage1(all_workloads(scale=1)[:1])
        # Stage-2 iterations mixing interval blocks must run to completion.
        outcome = session.run_iteration()
        assert outcome.executed_instructions > 0

    def test_refinement_rounds_bounded(self):
        session = build_session(CampaignSpec(
            fuzzer_options={"instructions_per_iteration": 300}))
        explorer = DeepExplore(session, DeepExploreConfig(
            profile_cap=8_000, clusters=3, refine_rounds=3))
        explorer.run_stage1(all_workloads(scale=1)[:1])
        rounds = explorer.refine_marked_seeds()
        assert 1 <= rounds <= 3


class TestFpgaModels:
    def test_vio_controls_fuzzer(self):
        fuzzer = TurboFuzzer(TurboFuzzConfig())
        vio = VioInterface.for_fuzzer(fuzzer)
        assert "enable_f" in vio.controls()
        vio.write("enable_f", False)
        assert not any(
            spec.name == "fadd.s" for spec in fuzzer.library.active_specs)
        vio.write("jump_window_blocks", 6)
        assert fuzzer.config.jump_window_blocks == 6
        assert vio.read("jump_window_blocks") == 6

    def test_vio_unknown_control(self):
        with pytest.raises(KeyError):
            VioInterface().write("nope", 1)

    def test_ila_presets_match_paper(self):
        assert ILA_CONFIG1.estimate.brams == 465
        assert ILA_CONFIG2.estimate.brams == 578
        assert ILA_CONFIG2.config.depth > ILA_CONFIG1.config.depth

    def test_ila_estimator_scales_with_depth(self):
        small = estimate_ila(IlaConfig("s", probes=256, depth=1024))
        large = estimate_ila(IlaConfig("l", probes=256, depth=65536))
        assert large.estimate.brams > small.estimate.brams

    def test_board_budget_enforced(self):
        board = SidewinderBoard()
        fuzzer_area, _, framework = framework_area()
        board.commit("framework", framework)
        usage = board.utilization()
        assert all(0 < value < 1 for value in usage)

    def test_corpus_placement(self):
        board = SidewinderBoard()
        placement = board.place_corpus(64, 4000)
        assert placement.location == "bram"
        spill = board.place_corpus(100_000, 4000)
        assert spill.location == "ddr"
        assert spill.access_latency_cycles > placement.access_latency_cycles

    def test_table3_shape(self):
        report = table3_report(RocketCore())
        assert report["turbofuzz"].brams > report["fuzzer_ip"].brams
        assert report["ila1_bram_ratio"] == pytest.approx(2.05, abs=0.15)
        assert report["ila2_bram_ratio"] == pytest.approx(2.55, abs=0.15)
        # The DUT dominates LUTs; the framework dominates BRAM.
        assert report["dut"].luts > report["turbofuzz"].luts
        assert report["turbofuzz"].brams > report["dut"].brams
