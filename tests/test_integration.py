"""End-to-end integration: full campaigns with detection equivalence."""

import math

import pytest

from repro.campaign import CampaignSpec, build_session
from repro.deepexplore import DeepExplore, DeepExploreConfig
from repro.workloads import all_workloads


class TestTriggerImpliesMismatch:
    """The Table II fast path (bug condition fires) must agree with the
    ground truth (instruction-level lockstep flags a divergence)."""

    @pytest.mark.parametrize("bug_id,core_name", [
        ("C1", "cva6"), ("C5", "cva6"), ("C9", "cva6"), ("C10", "cva6"),
        ("B2", "boom"),
    ])
    def test_lockstep_catches_what_trigger_reports(self, bug_id, core_name):
        spec = CampaignSpec(
            core=core_name, bugs=(bug_id,), with_ref=True,
            fuzzer_options={"instructions_per_iteration": 800, "seed": 7},
        )
        session = build_session(spec)
        seconds = session.run_for_virtual_time(
            math.inf, max_iterations=80, until_detection=True)
        assert seconds is not None, f"{bug_id} never detected"
        assert session.history[-1].mismatch is not None
        assert bug_id in session.core.hooks.triggered


class TestCampaignDynamics:
    def test_coverage_growth_has_diminishing_returns(self):
        session = build_session(CampaignSpec(
            fuzzer_options={"instructions_per_iteration": 500}))
        session.run_iterations(30)
        gains = [h.new_coverage for h in session.history]
        early = sum(gains[:10])
        late = sum(gains[-10:])
        assert late < early  # saturation

    def test_corpus_grows_and_schedules(self):
        session = build_session(CampaignSpec(
            fuzzer_options={"instructions_per_iteration": 500,
                            "corpus_capacity": 4}))
        session.run_iterations(15)
        corpus = session.fuzzer.corpus
        assert len(corpus) == 4
        assert corpus.evictions + corpus.rejected > 0

    def test_deepexplore_full_schedule(self):
        session = build_session(CampaignSpec(
            fuzzer_options={"instructions_per_iteration": 400}))
        explorer = DeepExplore(session, DeepExploreConfig(
            profile_cap=10_000, clusters=3, refine_rounds=2))
        explorer.run(all_workloads(scale=1)[:2],
                     total_virtual_seconds=session.clock.seconds + 0.05)
        assert session.coverage_total > 1000
        assert any(seed.origin == "interval"
                   for seed in session.fuzzer.corpus.seeds)


class TestDeterminism:
    def test_identical_configs_produce_identical_campaigns(self):
        def run():
            session = build_session(CampaignSpec(
                fuzzer_options={"instructions_per_iteration": 300,
                                "seed": 99}))
            session.run_iterations(5)
            return (session.coverage_total, session.clock.seconds,
                    [h.executed_instructions for h in session.history])

        assert run() == run()
