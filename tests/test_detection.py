"""The session's one stop loop: ``run_for_virtual_time(until_detection=True)``.

The references below are the dedicated loops the session had before the
detection stop joined ``run_for_virtual_time``, transcribed over
``run_iteration()``: the bug wait (with and without a coarse-detection
draw) and the lockstep-mismatch wait.  The one loop must end where they
end, with the same campaign state, returned time and milestone.
"""

import json
import math

import pytest

from repro.campaign import (
    CampaignCheckpoint,
    CampaignSpec,
    build_session,
    resume_session,
)


def reference_bug_wait(session, bug_id, max_iterations,
                       coarse_detection=None):
    """The former ``run_until_bug_triggered`` loop."""
    triggered = session.core.hooks.triggered
    detection_lfsr = session.detection_lfsr
    for _ in range(max_iterations):
        session.run_iteration()
        if bug_id in triggered:
            if (coarse_detection is not None
                    and not detection_lfsr.chance(coarse_detection)):
                triggered.discard(bug_id)
                continue
            session.clock.advance_seconds(session.timing.detection_s)
            session.bus.milestone("bug_triggered", session=session,
                                  bug_id=bug_id,
                                  seconds=session.clock.seconds)
            return session.clock.seconds
    return None


def reference_mismatch_wait(session, max_iterations):
    """The former ``run_until_mismatch`` loop (its time)."""
    for _ in range(max_iterations):
        outcome = session.run_iteration()
        if outcome.mismatch is not None:
            session.clock.advance_seconds(session.timing.detection_s)
            session.bus.milestone("mismatch_confirmed", session=session,
                                  outcome=outcome,
                                  seconds=session.clock.seconds)
            return session.clock.seconds
    return None


def milestones_after_start(session):
    """Record every milestone but ``campaign_start`` as plain data."""
    seen = []

    def record(kind, session, **payload):
        if "outcome" in payload:
            payload["outcome"] = payload["outcome"].to_dict()
        seen.append((kind, payload))

    session.bus.on_milestone(record)
    return seen


def c1_spec(fuzzer, **options):
    return CampaignSpec(core="cva6", bugs=("C1",)).with_fuzzer(
        fuzzer, **options)


CASES = {
    # TurboFuzz without a REF: every firing of the bug is a detection.
    "c1-turbofuzz": (
        c1_spec("turbofuzz", seed=1, instructions_per_iteration=500),
        lambda session, cap: reference_bug_wait(session, "C1", cap)),
    # DifuzzRTL: misses at iterations 11, 36 and 38 draw from the
    # detection LFSR before the draw at iteration 125 sees the bug.
    "c1-difuzzrtl": (
        c1_spec("difuzzrtl", seed=7),
        lambda session, cap: reference_bug_wait(
            session, "C1", cap, coarse_detection=(1, 2))),
    # Lockstep against a REF: the first mismatch is the detection.
    "b2-boom-ref": (
        CampaignSpec(core="boom", bugs=("B2",), with_ref=True).with_fuzzer(
            "turbofuzz", seed=3, instructions_per_iteration=300),
        reference_mismatch_wait),
}


class TestUntilDetection:
    @pytest.mark.parametrize("case,cap", [
        ("c1-turbofuzz", 400),
        ("c1-difuzzrtl", 3000),
        ("c1-difuzzrtl", 40),  # the budget ends before the detection
        ("b2-boom-ref", 200),
    ])
    def test_matches_the_former_loops(self, case, cap):
        spec, reference = CASES[case]
        expected_session = build_session(spec)
        expected_milestones = milestones_after_start(expected_session)
        expected = reference(expected_session, cap)

        session = build_session(spec)
        milestones = milestones_after_start(session)
        seconds = session.run_for_virtual_time(
            math.inf, max_iterations=cap, until_detection=True)

        assert seconds == expected
        assert (seconds is None) == (case == "c1-difuzzrtl" and cap == 40)
        assert session.iterations == expected_session.iterations
        assert session.clock.seconds == expected_session.clock.seconds
        assert (session.detection_lfsr.state_dict()
                == expected_session.detection_lfsr.state_dict())
        assert milestones == expected_milestones
        assert session.state_dict() == expected_session.state_dict()

    def test_resumed_coarse_wait_detects_like_an_uninterrupted_one(self):
        spec = c1_spec("difuzzrtl", seed=7)
        whole = build_session(spec)
        expected = whole.run_for_virtual_time(
            math.inf, max_iterations=3000, until_detection=True)
        assert expected is not None

        first = build_session(spec)
        fresh_lfsr = first.detection_lfsr.state_dict()
        # Iterations 11 and 36 fired the bug and the comparison missed it.
        assert first.run_for_virtual_time(
            math.inf, max_iterations=37, until_detection=True) is None
        assert first.detection_lfsr.state_dict() != fresh_lfsr
        assert not first.core.hooks.triggered

        resumed = resume_session(json.loads(json.dumps(
            CampaignCheckpoint.capture(first).to_dict())))
        seconds = resumed.run_for_virtual_time(
            math.inf, max_iterations=3000, until_detection=True)
        assert seconds == expected
        assert resumed.iterations == whole.iterations
        assert resumed.state_dict() == whole.state_dict()
