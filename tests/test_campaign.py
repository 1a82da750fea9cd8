"""Campaign API: specs, registries, event bus, orchestrator, cache."""

import math

import pytest

from repro.campaign import (
    CampaignOrchestrator,
    CampaignSpec,
    EventBus,
    FUZZERS,
    InstrumentationCache,
    build_session,
    campaign_report,
    derive_seed,
    register_fuzzer,
    to_jsonable,
)
from repro.campaign import cache as cache_module
from repro.fuzzer import TurboFuzzConfig, TurboFuzzer

SMALL = {"instructions_per_iteration": 150}


def small_spec(**options):
    merged = dict(SMALL)
    merged.update(options)
    return CampaignSpec().with_fuzzer("turbofuzz", **merged)


class TestCampaignSpec:
    def test_json_round_trip(self):
        spec = (
            CampaignSpec(core="cva6", bugs=("C1",))
            .named("probe")
            .with_fuzzer("difuzzrtl", seed=7)
            .with_instrumentation(style="legacy", max_state_size=13, seed=3)
            .with_timing("cascade")
            .with_tweak("allow_ebreak")
        )
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown CampaignSpec keys"):
            CampaignSpec.from_dict({"fuzzzer": "turbofuzz"})

    def test_builder_returns_copies(self):
        base = CampaignSpec()
        derived = base.with_options(seed=5).named("x").with_core("boom")
        assert base.fuzzer_options == {} and base.core == "rocket"
        assert derived.fuzzer_options == {"seed": 5}
        assert derived.core == "boom"

    def test_with_fuzzer_preserves_accumulated_options(self):
        spec = (CampaignSpec().with_seed(42)
                .with_fuzzer("turbofuzz", instructions_per_iteration=500))
        assert spec.fuzzer_options == {
            "seed": 42, "instructions_per_iteration": 500}

    def test_instrument_key_groups_identical_instrumentation(self):
        a = small_spec().named("a")
        b = small_spec(seed=99).named("b")
        c = a.with_instrumentation(style="legacy")
        assert a.instrument_key() == b.instrument_key()
        assert a.instrument_key() != c.instrument_key()


class TestRegistry:
    def test_unknown_fuzzer_lists_registered(self):
        with pytest.raises(ValueError, match="turbofuzz"):
            FUZZERS.get("afl")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_fuzzer("turbofuzz", config_class=TurboFuzzConfig,
                            timing="turbofuzz", factory=TurboFuzzer)

    def test_third_party_fuzzer_plugs_in(self):
        @register_fuzzer("turbofuzz-slowcheck", config_class=TurboFuzzConfig,
                         timing="cascade")
        class SlowCheckFuzzer(TurboFuzzer):
            name = "turbofuzz-slowcheck"

        try:
            session = build_session(
                CampaignSpec().with_fuzzer("turbofuzz-slowcheck", **SMALL)
            )
            assert isinstance(session.fuzzer, SlowCheckFuzzer)
            assert session.timing.name == "cascade"
            outcome = session.run_iteration()
            assert outcome.coverage_total > 0
        finally:
            FUZZERS.unregister("turbofuzz-slowcheck")

    def test_unknown_tweak_named(self):
        with pytest.raises(ValueError, match="no tweak"):
            build_session(small_spec().with_tweak("allow_warp"))


class TestEventBus:
    def test_unknown_event_rejected(self):
        with pytest.raises(ValueError, match="unknown event"):
            EventBus().subscribe("teardown", lambda: None)

    def test_unsubscribe(self):
        bus = EventBus()
        seen = []
        unsubscribe = bus.subscribe("milestone", lambda **kw: seen.append(kw))
        bus.milestone("first")
        unsubscribe()
        unsubscribe()  # idempotent
        bus.milestone("second")
        assert [kw["kind"] for kw in seen] == ["first"]
        assert bus.emitted["milestone"] == 2

    def test_session_emits_iteration_and_coverage_events(self):
        session = build_session(small_spec())
        events = []
        session.bus.on_iteration(
            lambda **kw: events.append(("iteration", kw["outcome"].index)))
        session.bus.on_new_coverage(
            lambda **kw: events.append(("new_coverage", kw["new_points"])))
        session.run_iterations(2)
        kinds = [kind for kind, _ in events]
        assert kinds.count("iteration") == 2
        # The first iterations of a fresh campaign always find coverage.
        assert "new_coverage" in kinds

    def test_campaign_start_milestone(self):
        bus = EventBus()
        milestones = []
        bus.on_milestone(lambda **kw: milestones.append(kw["kind"]))
        build_session(small_spec(), bus=bus)
        assert milestones == ["campaign_start"]

    def test_mismatch_event_fires(self):
        spec = (CampaignSpec(core="cva6", bugs=("C1",))
                .with_checking(with_ref=True)
                .with_fuzzer("turbofuzz", instructions_per_iteration=500))
        session = build_session(spec)
        caught = []
        session.bus.on_mismatch(lambda **kw: caught.append(kw["mismatch"]))
        session.run_for_virtual_time(
            math.inf, max_iterations=50, until_detection=True)
        assert caught and caught[0].field


class TestCampaignSession:
    def test_bug_wait_requires_injected_bugs(self):
        session = build_session(small_spec())
        with pytest.raises(ValueError, match="no injected bugs"):
            session.run_for_virtual_time(
                math.inf, max_iterations=1, until_detection=True)

    def test_core_names_stay_case_insensitive(self):
        # make_core("Rocket") always worked; the registry path must too.
        session = build_session(small_spec().with_core("Rocket"))
        assert session.core.name == "rocket"

    def test_report_is_jsonable(self):
        import json

        session = build_session(small_spec())
        session.run_iterations(2)
        payload = json.dumps(to_jsonable(campaign_report(session)))
        assert "coverage_total" in payload


class TestDeterminism:
    def test_same_seed_identical_series(self):
        series = []
        for _ in range(2):
            session = build_session(small_spec(seed=0xFEED))
            session.run_iterations(6)
            series.append(session.coverage_series())
        assert series[0] == series[1]

    def test_different_seeds_diverge(self):
        totals = []
        for seed in (0xFEED, 0xBEEF):
            session = build_session(small_spec(seed=seed))
            session.run_iterations(6)
            totals.append(session.coverage_series())
        assert totals[0] != totals[1]

    def test_derive_seed_deterministic_and_distinct(self):
        seeds = [derive_seed(42, index) for index in range(16)]
        assert seeds == [derive_seed(42, index) for index in range(16)]
        assert len(set(seeds)) == 16
        assert all(seeds)

    def test_orchestrator_reseed_only_touches_unpinned(self):
        pinned = small_spec(seed=7).named("pinned")
        free = small_spec().named("free")
        orchestrator = CampaignOrchestrator([pinned, free], reseed_base=42)
        assert orchestrator["pinned"].fuzzer.config.seed == 7
        assert (orchestrator["free"].fuzzer.config.seed
                == derive_seed(42, 1))


class TestOrchestratorCache:
    def _count_instrumentations(self, monkeypatch):
        counter = {"calls": 0}
        real = cache_module.instrument_design

        def counted(*args, **kwargs):
            counter["calls"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(cache_module, "instrument_design", counted)
        return counter

    def test_shared_cache_instruments_once_with_identical_results(
            self, monkeypatch):
        counter = self._count_instrumentations(monkeypatch)
        solo = {}
        for label in ("a", "b", "c"):
            session = build_session(small_spec().named(label))
            session.run_iterations(3)
            solo[label] = session.coverage_series()
        assert counter["calls"] == 3  # one instrumentation per solo session

        counter["calls"] = 0
        orchestrator = CampaignOrchestrator(
            [small_spec().named(label) for label in ("a", "b", "c")]
        )
        orchestrator.run_iterations(3)
        # The grid instruments the shared netlist once, not per shard...
        assert counter["calls"] == 1
        assert orchestrator.cache.stats == {
            "hits": 2, "misses": 1, "entries": 1}
        # ...and every shard's coverage series is unchanged.
        for label in ("a", "b", "c"):
            assert orchestrator[label].coverage_series() == solo[label]

    def test_distinct_instrumentations_get_distinct_entries(self):
        orchestrator = CampaignOrchestrator([
            small_spec().named("opt"),
            small_spec().named("leg").with_instrumentation(style="legacy"),
        ])
        assert orchestrator.cache.stats["entries"] == 2

    def test_run_for_virtual_time_matches_solo_run(self):
        spec = small_spec(seed=5).named("solo")
        solo = build_session(spec)
        solo.run_for_virtual_time(0.02, max_iterations=30)
        orchestrator = CampaignOrchestrator([spec])
        orchestrator.run_for_virtual_time(0.02, max_iterations=30, slices=4)
        assert orchestrator["solo"].coverage_series() == solo.coverage_series()

    def test_merged_series_is_monotonic(self):
        orchestrator = CampaignOrchestrator(
            [small_spec(seed=seed).named(f"s{seed}") for seed in (1, 2)]
        )
        orchestrator.run_iterations(4)
        merged = orchestrator.merged_coverage_series()
        assert len(merged) == 8
        assert all(b[1] >= a[1] for a, b in zip(merged, merged[1:]))
        assert all(b[0] >= a[0] for a, b in zip(merged, merged[1:]))

    def test_report_shape(self):
        orchestrator = CampaignOrchestrator([small_spec().named("only")])
        orchestrator.run_iterations(2)
        report = orchestrator.report()
        assert report["total_iterations"] == 2
        assert set(report["shards"]) == {"only"}
        assert report["shards"]["only"]["spec"]["fuzzer"] == "turbofuzz"
        assert report["instrumentation_cache"]["misses"] == 1

    def test_duplicate_labels_disambiguated(self):
        orchestrator = CampaignOrchestrator([small_spec(), small_spec()])
        assert len(orchestrator.labels) == 2


class TestInstrumentationRegistry:
    def test_spec_resolves_registered_style(self):
        from repro.campaign import INSTRUMENTATIONS, register_instrumentation
        from repro.coverage import OptimizedLayout

        @register_instrumentation("optimized-probe")
        class ProbeLayout(OptimizedLayout):
            style = "optimized-probe"

        try:
            session = build_session(
                small_spec().with_instrumentation(style="optimized-probe"))
            assert all(isinstance(cov.layout, ProbeLayout)
                       for cov in session.coverage.modules)
            assert session.run_iteration().coverage_total > 0
        finally:
            INSTRUMENTATIONS.unregister("optimized-probe")
        with pytest.raises(ValueError, match="optimized-probe"):
            build_session(
                small_spec().with_instrumentation(style="optimized-probe"))

    def test_cache_keys_on_registry_entry_not_name(self):
        from repro.campaign import INSTRUMENTATIONS, register_instrumentation
        from repro.coverage import OptimizedLayout
        from repro.dut import make_core

        class LayoutA(OptimizedLayout):
            style = "swappable"

        class LayoutB(OptimizedLayout):
            style = "swappable"

        register_instrumentation("swappable", LayoutA)
        try:
            cache = InstrumentationCache()
            core = make_core("rocket")
            first = cache.instrument(core, style="swappable")
            assert isinstance(first.modules[0].layout, LayoutA)
            # Re-registering the same name must not serve stale layouts.
            register_instrumentation("swappable", LayoutB, replace=True)
            second = cache.instrument(make_core("rocket"), style="swappable")
            assert isinstance(second.modules[0].layout, LayoutB)
            assert cache.stats["misses"] == 2 and cache.stats["hits"] == 0
        finally:
            INSTRUMENTATIONS.unregister("swappable")
