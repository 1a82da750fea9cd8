"""Every Table II bug: targeted stimulus triggers the bug and the
instruction-level checker flags the divergence; without the bug the same
stimulus runs clean."""

import pytest

from repro.dut import BUGS, BUGS_BY_ID, bugs_for_core, make_core
from repro.dut.bugs import BuggyHooks, CorrectHooks
from repro.fuzzer.blocks import InstructionBlock, Iteration
from repro.fuzzer.context import MemoryLayout
from repro.harness.runner import IterationRunner
from repro.isa.encoder import assemble_all, encode


LAYOUT = MemoryLayout()


def _iteration_from_words(words):
    blocks = [InstructionBlock("addi", (word,)) for word in words]
    iteration = Iteration(blocks=blocks, layout=LAYOUT, data_seed=7)
    iteration.assemble()
    return iteration


def _run(core_name, bug_ids, words, rv32a_only=False):
    """Run stimulus on a DUT (with bugs) against the REF; returns
    (mismatch, triggered_set)."""
    core = make_core(core_name, bugs=bug_ids, rv32a_only=rv32a_only)
    runner = IterationRunner(core, with_ref=True)
    result = runner.run(_iteration_from_words(words))
    triggered = getattr(core.hooks, "triggered", set())
    return result.mismatch, triggered


# Stimuli: each loads operands from the data segment's interesting-value
# table (offset 0 = +0.0, 16 = +inf, 40 = sNaN, 48 = 1.0, see image.py)
# via the t0 data base register set up by the prologue.
def _fdiv_stimulus(dividend_offset, divisor_offset, precision="d"):
    return assemble_all([
        f"fld ft0, {dividend_offset}(t0)",
        f"fld ft1, {divisor_offset}(t0)",
        f"fdiv.{precision} ft2, ft0, ft1",
        "csrrs a0, 0x001, zero",  # read fflags (architecturally visible)
    ])


class TestCva6FpuBugs:
    def test_c1_dz_on_zero_div_zero(self):
        words = _fdiv_stimulus(0, 0)
        mismatch, triggered = _run("cva6", ("C1",), words)
        assert "C1" in triggered
        assert mismatch is not None and mismatch.field == "fflags_set"

    def test_c1_not_triggered_by_normal_division(self):
        words = _fdiv_stimulus(48, 64)  # 1.0 / 1.5
        mismatch, triggered = _run("cva6", ("C1",), words)
        assert "C1" not in triggered and mismatch is None

    def test_c2_fflags_on_single_div_by_inf(self):
        words = assemble_all([
            "flw ft0, 48(t0)",   # boxed 0.0f table region starts at 96; use fcvt instead
        ])
        # Build directly: ft0 = 1.0f, ft1 = +inf f32 (from boxed table
        # offsets 96..: 96=+0.0f, 112=+inf-f32).
        words = assemble_all([
            "flw ft0, 144(t0)",  # boxed 1.0f
            "flw ft1, 112(t0)",  # boxed +inf (f32)
            "fdiv.s ft2, ft0, ft1",
            "csrrs a0, 0x001, zero",
        ])
        mismatch, triggered = _run("cva6", ("C2",), words)
        assert "C2" in triggered
        assert mismatch is not None

    def test_c3_invalid_nan_boxing(self):
        # Mis-boxed single (upper bits not all ones) at offset 160.
        words = assemble_all([
            "fld ft0, 160(t0)",   # loads the raw mis-boxed pattern
            "flw ft1, 144(t0)",   # properly boxed 1.0f
            "fdiv.s ft2, ft0, ft1",
            "fmv.x.w a0, ft2",
        ])
        mismatch, triggered = _run("cva6", ("C3",), words)
        assert "C3" in triggered
        assert mismatch is not None

    def test_c4_double_div_by_inf(self):
        words = _fdiv_stimulus(48, 16)  # 1.0 / +inf
        mismatch, triggered = _run("cva6", ("C4",), words)
        assert "C4" in triggered
        assert mismatch is not None and mismatch.field == "fflags_set"

    def test_c5_fmul_sign_under_rdn(self):
        words = assemble_all([
            "fld ft0, 48(t0)",   # 1.0
            "fld ft1, 56(t0)",   # -1.0
            "fmul.d ft2, ft0, ft1, rdn",
            "fmv.x.d a0, ft2",
        ])
        mismatch, triggered = _run("cva6", ("C5",), words)
        assert "C5" in triggered
        assert mismatch is not None

    def test_c5_silent_under_rne(self):
        words = assemble_all([
            "fld ft0, 48(t0)", "fld ft1, 56(t0)",
            "fmul.d ft2, ft0, ft1, rne",
        ])
        mismatch, triggered = _run("cva6", ("C5",), words)
        assert "C5" not in triggered and mismatch is None

    def test_c6_duplicate_of_c3_other_stimulus(self):
        words = assemble_all([
            "fld ft0, 168(t0)",   # second mis-boxed pattern
            "fadd.s ft2, ft0, ft0",
            "fmv.x.w a0, ft2",
        ])
        mismatch, triggered = _run("cva6", ("C6",), words)
        assert "C6" in triggered
        assert mismatch is not None

    def test_c9_div_zero_by_zero_returns_inf(self):
        words = _fdiv_stimulus(0, 0)
        mismatch, triggered = _run("cva6", ("C9",), words)
        assert "C9" in triggered
        assert mismatch is not None and mismatch.field in ("frd_value",
                                                           "fflags_set")

    def test_c10_positive_zero_div_normal_gives_negative_zero(self):
        words = _fdiv_stimulus(0, 48)  # +0.0 / 1.0
        mismatch, triggered = _run("cva6", ("C10",), words)
        assert "C10" in triggered
        assert mismatch is not None and mismatch.field == "frd_value"


class TestCva6SystemBugs:
    def test_c7_stval_read_mismatch(self):
        words = assemble_all([
            "lw a0, 1(t0)",            # misaligned-ish but legal: use fault
        ])
        # Generate a trap first so stval latches a nonzero value, then
        # read stval.
        words = [0xFFFFFFFF] + assemble_all(["csrrs a0, 0x143, zero"])
        mismatch, triggered = _run("cva6", ("C7",), words)
        assert "C7" in triggered
        assert mismatch is not None and mismatch.field == "rd_value"

    def test_c8_rv64_amo_accepted_on_rv32a_config(self):
        words = assemble_all([
            "addi t4, t0, 0",
            "amoadd.d a0, a1, (t4)",
        ])
        mismatch, triggered = _run("cva6", ("C8",), words, rv32a_only=True)
        assert "C8" in triggered
        assert mismatch is not None  # DUT executes, REF traps

    def test_c8_clean_without_bug(self):
        words = assemble_all([
            "addi t4, t0, 0",
            "amoadd.d a0, a1, (t4)",
        ])
        mismatch, triggered = _run("cva6", (), words, rv32a_only=True)
        assert mismatch is None  # both trap identically


class TestBoomBugs:
    def test_b1_rounding_mode_ignored(self):
        words = assemble_all([
            "fld ft0, 48(t0)",   # 1.0
            "fld ft1, 88(t0)",   # DBL_MAX region value
            "fdiv.d ft2, ft0, ft1, rdn",  # inexact: RDN != RNE result
            "fmv.x.d a0, ft2",
        ])
        mismatch, triggered = _run("boom", ("B1",), words)
        assert "B1" in triggered
        assert mismatch is not None

    def test_b2_invalid_frm_does_not_trap(self):
        words = assemble_all([
            "csrrwi zero, 0x002, 5",  # invalid frm
        ]) + [encode("fadd.d", rd=2, rs1=0, rs2=1, rm=7)]
        mismatch, triggered = _run("boom", ("B2",), words)
        assert "B2" in triggered
        assert mismatch is not None  # REF traps, DUT computes


class TestRocketBugs:
    def test_r1_ebreak_skips_minstret(self):
        words = assemble_all([
            "ebreak",
            "csrrs a0, 0xb02, zero",  # minstret read diverges
        ])
        mismatch, triggered = _run("rocket", ("R1",), words)
        assert "R1" in triggered
        assert mismatch is not None and mismatch.field == "rd_value"

    def test_r1_clean_without_bug(self):
        words = assemble_all(["ebreak", "csrrs a0, 0xb02, zero"])
        mismatch, triggered = _run("rocket", (), words)
        assert mismatch is None


class TestBugRegistry:
    def test_all_thirteen_bugs_present(self):
        assert len(BUGS) == 13
        assert {bug.bug_id for bug in BUGS} == {
            "C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C10",
            "B1", "B2", "R1",
        }

    def test_bugs_for_core(self):
        assert len(bugs_for_core("cva6")) == 10
        assert len(bugs_for_core("boom")) == 2
        assert len(bugs_for_core("rocket")) == 1

    def test_unknown_bug_rejected(self):
        with pytest.raises(ValueError):
            BuggyHooks(("C99",))

    def test_paper_times_recorded(self):
        bug = BUGS_BY_ID["C3"]
        assert bug.sw_time_s == pytest.approx(931.30)
        assert bug.hw_time_s == pytest.approx(1.63)

    def test_clean_hooks_have_no_bugs(self):
        core = make_core("rocket")
        assert not isinstance(core.hooks, BuggyHooks)
        assert isinstance(core.hooks, CorrectHooks)


class TestNoFalsePositives:
    """A bug-free DUT must run long random-ish programs with zero
    mismatches (the lockstep equivalence property)."""

    @pytest.mark.parametrize("core_name", ["rocket", "cva6", "boom"])
    def test_lockstep_clean(self, core_name):
        from repro.fuzzer import TurboFuzzer, TurboFuzzConfig

        fuzzer = TurboFuzzer(TurboFuzzConfig(
            instructions_per_iteration=300, seed=42))
        core = make_core(core_name)
        runner = IterationRunner(core, with_ref=True)
        for _ in range(3):
            iteration = fuzzer.generate_iteration()
            result = runner.run(iteration)
            assert result.mismatch is None, result.mismatch.describe()
