"""Harness: templates, images, runner, checker, snapshot, clock, session."""

import pytest

from repro.campaign import CampaignSpec, build_session
from repro.dut import RocketCore, make_core
from repro.fuzzer import TurboFuzzConfig, TurboFuzzer
from repro.fuzzer.context import MemoryLayout
from repro.fuzzer.templates import (
    build_done_loop,
    build_prologue,
    build_trap_handler,
    template_instruction_count,
)
from repro.harness import (
    DifferentialChecker,
    HardwareSnapshot,
    IterationRunner,
    VirtualClock,
    build_image,
)
from repro.harness.image import INTERESTING_TABLE, build_data_segment
from repro.harness.timing import (
    CASCADE_TIMING,
    DIFUZZRTL_FPGA_TIMING,
    TURBOFUZZ_TIMING,
)
from repro.ref.executor import CommitRecord


class TestVirtualClock:
    def test_cycles_to_seconds(self):
        clock = VirtualClock(100e6)
        clock.advance_cycles(100e6)
        assert clock.seconds == pytest.approx(1.0)

    def test_mixed_advance(self):
        clock = VirtualClock(100e6)
        clock.advance_cycles(50e6)
        clock.advance_seconds(0.5)
        assert clock.seconds == pytest.approx(1.0)
        assert clock.minutes == pytest.approx(1 / 60)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance_seconds(-1)


class TestTemplates:
    def test_prologue_reaches_blocks(self):
        layout = MemoryLayout()
        core = RocketCore(reset_pc=layout.reset)
        core.memory.write_program(layout.reset, build_prologue(layout))
        core.memory.write_program(layout.handler, build_trap_handler(layout))
        records = core.run(40, stop_on=lambda r: r.next_pc == layout.blocks)
        assert records[-1].next_pc == layout.blocks
        # Base registers established:
        assert core.state.xregs[5] == layout.data_base_reg_value
        assert core.state.xregs[6] == layout.instr_base_reg_value
        # FPU enabled and FP registers preloaded from the table:
        assert not core.state.fs_off
        assert core.state.fregs[0] == INTERESTING_TABLE[0]

    def test_handler_skips_faulting_instruction(self):
        fuzzer = TurboFuzzer(TurboFuzzConfig(instructions_per_iteration=4))
        iteration = fuzzer.generate_iteration()
        iteration.words = [0xFFFFFFFF] + iteration.words[1:]  # illegal first
        core = RocketCore()
        runner = IterationRunner(core)
        result = runner.run(iteration)
        assert result.completed
        assert result.traps >= 2  # illegal + final ecall

    def test_handler_repairs_frm(self):
        from repro.isa.encoder import assemble_all, encode

        words = assemble_all(["csrrwi zero, 0x002, 5"]) + [
            encode("fadd.d", rd=2, rs1=0, rs2=1, rm=7),  # traps once
            encode("fadd.d", rd=3, rs1=0, rs2=1, rm=7),  # then runs clean
        ]
        from tests.test_dut_bugs import _iteration_from_words

        core = RocketCore()
        runner = IterationRunner(core, with_ref=True)
        result = runner.run(_iteration_from_words(words))
        assert result.completed and result.mismatch is None

    def test_template_count(self):
        assert template_instruction_count() == (
            len(build_prologue()) + len(build_trap_handler())
            + len(build_done_loop())
        )


class TestImage:
    def test_data_segment_has_interesting_table(self):
        layout = MemoryLayout()
        data = build_data_segment(layout, data_seed=9)
        offset = layout.data_base_reg_value - layout.data
        for index, value in enumerate(INTERESTING_TABLE):
            start = offset + index * 8
            assert data[start:start + 8] == value.to_bytes(8, "little")

    def test_patches_applied(self):
        layout = MemoryLayout()
        data = build_data_segment(layout, 9, patches=[(64, b"\xAA\xBB")])
        assert data[64:66] == b"\xaa\xbb"

    def test_install_sets_ranges(self):
        fuzzer = TurboFuzzer(TurboFuzzConfig(instructions_per_iteration=10))
        image = build_image(fuzzer.generate_iteration())
        from repro.ref.memory import MemoryAccessError, SparseMemory

        memory = SparseMemory()
        image.install(memory)
        with pytest.raises(MemoryAccessError):
            memory.load(0x9000_0000, 4)

    def test_data_seed_changes_content(self):
        layout = MemoryLayout()
        assert build_data_segment(layout, 1) != build_data_segment(layout, 2)


class TestRunner:
    def test_run_completes_and_counts(self):
        fuzzer = TurboFuzzer(TurboFuzzConfig(instructions_per_iteration=100))
        core = RocketCore()
        runner = IterationRunner(core)
        result = runner.run(fuzzer.generate_iteration())
        assert result.completed
        assert result.executed_instructions == (
            result.executed_fuzzing + result.executed_template
        )
        assert 0.5 < result.prevalence <= 1.0
        assert result.cycles > 0

    def test_lockstep_produces_no_mismatch_without_bugs(self):
        fuzzer = TurboFuzzer(TurboFuzzConfig(instructions_per_iteration=200))
        core = RocketCore()
        runner = IterationRunner(core, with_ref=True)
        result = runner.run(fuzzer.generate_iteration())
        assert result.mismatch is None and result.completed

    def test_mismatch_captures_snapshot(self):
        from tests.test_dut_bugs import _fdiv_stimulus, _iteration_from_words

        core = make_core("cva6", bugs=("C1",))
        runner = IterationRunner(core, with_ref=True, capture_snapshots=True)
        result = runner.run(_iteration_from_words(_fdiv_stimulus(0, 0)))
        assert result.mismatch is not None
        assert result.snapshot is not None
        assert "mismatch" in result.snapshot.annotation


class TestChecker:
    def _record(self, **overrides):
        fields = dict(pc=0x1000, word=0x13, name="addi", next_pc=0x1004,
                      rd=1, rd_value=5)
        fields.update(overrides)
        return CommitRecord(**fields)

    def test_identical_records_pass(self):
        checker = DifferentialChecker()
        assert checker.check(self._record(), self._record()) is None
        assert checker.clean

    def test_divergent_rd_value_flagged(self):
        checker = DifferentialChecker()
        mismatch = checker.check(self._record(rd_value=5),
                                 self._record(rd_value=6))
        assert mismatch.field == "rd_value"
        assert mismatch.dut_value == 5 and mismatch.ref_value == 6
        assert "mismatch" in mismatch.describe()

    def test_counts_instructions(self):
        checker = DifferentialChecker()
        for _ in range(5):
            checker.check(self._record(), self._record())
        assert checker.instructions_checked == 5


class TestSnapshot:
    def test_capture_restore_resumes_identically(self):
        from repro.isa.encoder import assemble_all

        program = assemble_all(
            ["addi a0, a0, 1", "add a1, a1, a0", "bne a0, a2, -8"])
        core = RocketCore()
        core.load_program(core.reset_pc, program)
        core.state.xregs[12] = 50
        core.run(30)
        snapshot = HardwareSnapshot.capture(core, annotation="mid-loop")
        continued = [core.step().key_fields() for _ in range(10)]
        snapshot.restore(core)
        replayed = [core.step().key_fields() for _ in range(10)]
        assert continued == replayed

    @pytest.mark.parametrize("core_name", ["rocket", "boom"])
    def test_restore_replays_cycles_and_microarch(self, core_name):
        """The whole model comes back: after a restore, the architectural
        results, the cycle count (caches, branch predictor) and every
        micro-architectural value replay step for step."""
        session = build_session(
            CampaignSpec()
            .with_fuzzer("turbofuzz", instructions_per_iteration=1000)
            .with_core(core_name)
            .with_seed(3))
        session.run_iterations(5)
        core = session.core
        assert core.coverage is not None
        image = build_image(session.fuzzer.generate_iteration())
        core.reset_pc = image.layout.reset
        core.reset()
        image.install(core.memory)
        for _ in range(300):
            core.step()
        snapshot = HardwareSnapshot.capture(core)

        def trace(steps):
            rows = []
            for _ in range(steps):
                record = core.step()
                rows.append((record.key_fields(), core.cycles, dict(core.vals)))
            return rows

        continued = trace(200)
        snapshot.restore(core)
        assert trace(200) == continued

    def test_serialization_roundtrip(self):
        core = RocketCore()
        core.load_program(core.reset_pc, [0x13])
        core.run(1)
        snapshot = HardwareSnapshot.capture(core)
        clone = HardwareSnapshot.from_bytes(snapshot.to_bytes())
        assert clone.arch_state == snapshot.arch_state
        assert clone.cycles == snapshot.cycles

    def test_wrong_core_rejected(self):
        snapshot = HardwareSnapshot.capture(RocketCore())
        with pytest.raises(ValueError):
            snapshot.restore(make_core("boom"))


class TestSession:
    def test_iteration_advances_clock_and_coverage(self):
        session = build_session(CampaignSpec(
            fuzzer_options={"instructions_per_iteration": 200}))
        outcome = session.run_iteration()
        assert outcome.virtual_seconds > 0
        assert outcome.coverage_total > 0
        assert session.iterations == 1

    def test_run_for_virtual_time(self):
        session = build_session(CampaignSpec(
            fuzzer_options={"instructions_per_iteration": 200}))
        session.run_for_virtual_time(0.02)
        assert session.clock.seconds >= 0.02

    def test_run_until_coverage(self):
        session = build_session(CampaignSpec(
            fuzzer_options={"instructions_per_iteration": 200}))
        when = session.run_until_coverage(100, max_iterations=20)
        assert when is not None and session.coverage_total >= 100

    def test_coverage_series_is_monotonic(self):
        session = build_session(CampaignSpec(
            fuzzer_options={"instructions_per_iteration": 200}))
        session.run_iterations(5)
        series = session.coverage_series()
        assert all(b[1] >= a[1] for a, b in zip(series, series[1:]))
        assert all(b[0] > a[0] for a, b in zip(series, series[1:]))

    def test_run_until_mismatch_with_bug(self):
        session = build_session(CampaignSpec(
            core="cva6", bugs=("C1",), with_ref=True,
            fuzzer_options={"instructions_per_iteration": 500}))
        seconds, mismatch = session.run_until_mismatch(max_iterations=50)
        assert seconds is not None and mismatch is not None

    def test_run_until_bug_triggered(self):
        session = build_session(CampaignSpec(
            core="cva6", bugs=("C1",),
            fuzzer_options={"instructions_per_iteration": 500}))
        seconds = session.run_until_bug_triggered("C1", max_iterations=50)
        assert seconds is not None


class TestTimingModels:
    def test_turbofuzz_per_iteration(self):
        seconds = TURBOFUZZ_TIMING.iteration_seconds(
            generated=4000, executed=4100, dut_cycles=9000)
        assert 0.010 < seconds < 0.016  # ~75 Hz

    def test_difuzzrtl_dominated_by_host(self):
        seconds = DIFUZZRTL_FPGA_TIMING.iteration_seconds(
            generated=1000, executed=176, dut_cycles=500)
        assert 0.22 < seconds < 0.27  # ~4.13 Hz

    def test_cascade(self):
        seconds = CASCADE_TIMING.iteration_seconds(
            generated=400, executed=410, dut_cycles=0)
        assert 0.07 < seconds < 0.09  # ~12.5 Hz
