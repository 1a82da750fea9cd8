"""Checkpoint protocol + execution backends: bit-identical resume."""

import json

import pytest

from repro.campaign import (
    BACKENDS,
    CampaignCheckpoint,
    CampaignOrchestrator,
    CampaignSpec,
    CheckpointError,
    SerialBackend,
    SupervisedQueueBackend,
    build_session,
    campaign_report,
    checkpoint_session,
    coverage_at_time,
    register_backend,
    resolve_backend,
    resume_session,
)
from repro.campaign.session import DELTA_INCREMENTAL, DELTA_VERBATIM
from repro.coverage import CoverageMap, FeedbackWeights
from repro.fuzzer.corpus import Corpus, Seed
from repro.fuzzer.lfsr import Lfsr
from repro.harness.clock import VirtualClock

SMALL = {"instructions_per_iteration": 150}


def small_spec(**options):
    merged = dict(SMALL)
    merged.update(options)
    return CampaignSpec().with_fuzzer("turbofuzz", **merged)


def json_round_trip(value):
    return json.loads(json.dumps(value))


def corpus_fingerprint(session):
    """Full serialized corpus (``seed_id`` is deliberately not part of the
    state protocol — it is a process-global counter)."""
    return [seed.state_dict() for seed in session.fuzzer.corpus.seeds]


class TestComponentStateDicts:
    def test_lfsr_round_trip_continues_stream(self):
        source = Lfsr(0xFEED)
        for _ in range(10):
            source.next()
        clone = Lfsr(1)
        clone.prepare_state(json_round_trip(source.state_dict()))()
        assert [clone.next() for _ in range(20)] == \
            [source.next() for _ in range(20)]

    def test_corpus_round_trip_preserves_schedule(self):
        lfsr = Lfsr(3)
        corpus = Corpus(capacity=4)
        for increment in (5, 2, 9, 1, 7):
            corpus.add(Seed([], coverage_increment=increment))
        restored = Corpus(capacity=1)
        restored.prepare_state(json_round_trip(corpus.state_dict()))()
        assert restored.increments() == corpus.increments()
        assert restored.capacity == 4
        assert restored.best().coverage_increment == \
            corpus.best().coverage_increment
        # Selection draws must agree from identical LFSR states.
        twin = Lfsr(3)
        for _ in range(16):
            a = corpus.select(lfsr)
            b = restored.select(twin)
            assert a.coverage_increment == b.coverage_increment

    def test_coverage_map_round_trip(self):
        cmap = CoverageMap(1 << 10)
        cmap.observe_many([3, 7, 500])
        clone = CoverageMap(1 << 10)
        clone.prepare_state(json_round_trip(cmap.state_dict()))()
        assert clone.snapshot() == cmap.snapshot()
        assert clone.instrumented_points == 1 << 10
        assert not clone.observe(7) and clone.observe(8)
        with pytest.raises(ValueError, match="does not fit a map of 512"):
            CoverageMap(1 << 9).prepare_state(cmap.state_dict())

    def test_weights_round_trip(self):
        weights = FeedbackWeights.attenuate_arithmetic()
        clone = FeedbackWeights({"X": 3})
        clone.prepare_state(json_round_trip(weights.state_dict()))()
        assert clone.weighted("MulDiv", 8) == weights.weighted("MulDiv", 8)
        assert clone.shift_for("X") == 0

    def test_clock_round_trip_is_exact(self):
        clock = VirtualClock(100e6)
        clock.advance_cycles(12345)
        clock.advance_seconds(0.1)
        clone = VirtualClock(1.0)
        clone.prepare_state(json_round_trip(clock.state_dict()))()
        assert clone.seconds == clock.seconds  # bit-exact, not approx
        assert clone.frequency_hz == 100e6

    @pytest.mark.parametrize("spec", (small_spec(),
                                      CampaignSpec(fuzzer="difuzzrtl")),
                             ids=("turbofuzz", "difuzzrtl"))
    def test_mid_iteration_checkpoint_rejected(self, spec):
        session = build_session(spec)
        session.fuzzer.generate_iteration()
        with pytest.raises(ValueError, match="mid-iteration"):
            session.state_dict()

    def test_protocol_less_fuzzer_gets_named_error(self):
        session = build_session(small_spec())

        class LegacyPluginFuzzer:
            def generate_iteration(self):
                raise NotImplementedError

            def feedback(self, iteration, increment):
                raise NotImplementedError

        session.fuzzer = LegacyPluginFuzzer()
        with pytest.raises(TypeError, match="checkpoint protocol"):
            session.state_dict()
        with pytest.raises(TypeError, match="checkpoint protocol"):
            session.load_state({"history": [], "total_executed": 0,
                                "total_generated": 0, "fuzzer": {}})


class TestSessionResume:
    @pytest.mark.parametrize("seed", (0xFEED, 0xBEEF, 7))
    def test_resume_equals_uninterrupted_turbofuzz(self, seed):
        spec = small_spec(seed=seed)
        full = build_session(spec)
        full.run_iterations(8)

        half = build_session(spec)
        half.run_iterations(4)
        checkpoint = CampaignCheckpoint.from_json(
            CampaignCheckpoint.capture(half).to_json())
        resumed = resume_session(checkpoint)
        resumed.run_iterations(4)

        assert resumed.coverage_series() == full.coverage_series()
        assert resumed.history_dicts() == full.history_dicts()
        assert campaign_report(resumed) == campaign_report(full)
        assert resumed.fuzzer.lfsr.state == full.fuzzer.lfsr.state
        assert corpus_fingerprint(resumed) == corpus_fingerprint(full)
        assert resumed.clock.seconds == full.clock.seconds

    @pytest.mark.parametrize("fuzzer", ("difuzzrtl", "cascade"))
    def test_resume_equals_uninterrupted_baselines(self, fuzzer):
        spec = CampaignSpec(fuzzer=fuzzer)
        full = build_session(spec)
        full.run_iterations(4)
        half = build_session(spec)
        half.run_iterations(2)
        resumed = resume_session(
            json_round_trip(CampaignCheckpoint.capture(half).to_dict()))
        resumed.run_iterations(2)
        assert resumed.coverage_series() == full.coverage_series()
        assert campaign_report(resumed) == campaign_report(full)

    def test_checkpoint_file_round_trip(self, tmp_path):
        session = build_session(small_spec(seed=11))
        session.run_iterations(3)
        path = tmp_path / "shard.json"
        checkpoint_session(session, path, label="solo")
        resumed = resume_session(path)
        assert resumed.spec == session.spec
        assert resumed.coverage_series() == session.coverage_series()

    def test_resume_preserves_triggered_bugs(self):
        spec = (small_spec(seed=5)
                .with_core("cva6", bugs=("C1",)))
        session = build_session(spec)
        session.run_iterations(1)
        session.core.hooks.triggered.add("C1")
        resumed = resume_session(
            json_round_trip(CampaignCheckpoint.capture(session).to_dict()))
        assert resumed.core.hooks.triggered == {"C1"}

    def test_newer_format_version_rejected(self):
        session = build_session(small_spec())
        data = CampaignCheckpoint.capture(session).to_dict()
        data["version"] = 999
        with pytest.raises(ValueError, match="newer"):
            CampaignCheckpoint.from_dict(data)

    def test_checkpoint_rejects_mismatched_design(self):
        rocket = build_session(small_spec(seed=1))
        rocket.run_iterations(1)
        state = rocket.state_dict()
        boom = build_session(small_spec(seed=1).with_core("boom"))
        with pytest.raises(ValueError, match="does not match this design"):
            boom.load_state(state)


DELTA_SPECS = (
    small_spec(seed=4),
    small_spec(seed=4).with_core("boom"),
    CampaignSpec().with_fuzzer("cascade", **SMALL),
    small_spec(seed=4).with_core("cva6", bugs=("C1",)),
)
DELTA_IDS = ("turbofuzz-rocket", "turbofuzz-boom", "cascade-rocket",
             "turbofuzz-cva6-bugs")


def first_kept(delta):
    """The first ``[position, coverage_increment, uses]`` kept seed."""
    return next(entry for entry in delta["fuzzer"]["corpus"]["seeds"]
                if isinstance(entry, list))


class TestSliceDeltas:
    """``state_dict(mark)`` / ``load_state()``: what a shard resident on a
    worker ships per slice instead of its whole checkpoint."""

    def advanced(self, spec, before=3, during=4):
        """(session after before+during iterations, its state after
        ``before``, the JSON-round-tripped delta of the last ``during``)."""
        session = build_session(spec)
        session.run_iterations(before)
        base = json_round_trip(session.state_dict())
        mark = session.delta_mark()
        session.run_iterations(during)
        delta = CampaignCheckpoint.from_json(CampaignCheckpoint(
            spec=spec, state=session.state_dict(mark)).to_json()).state
        return session, base, delta

    @pytest.mark.parametrize("spec", DELTA_SPECS, ids=DELTA_IDS)
    def test_delta_applied_to_its_base_equals_the_advanced_session(self, spec):
        session, base, delta = self.advanced(spec)
        follower = build_session(spec).load_state(base)
        follower.load_state(delta)
        assert follower.state_dict() == session.state_dict()
        # The follower carries on exactly like the session it follows.
        session.run_iterations(2)
        follower.run_iterations(2)
        assert follower.state_dict() == session.state_dict()

    @pytest.mark.parametrize("spec", DELTA_SPECS, ids=DELTA_IDS)
    def test_every_state_key_travels_in_the_delta(self, spec):
        """Adding a state_dict() key without declaring how a delta sends
        it (as a change or whole) fails here."""
        session, _, delta = self.advanced(spec)
        keys = set(session.state_dict())
        assert set(delta) == keys | {"base"}
        assert keys <= (set(DELTA_INCREMENTAL) | set(DELTA_VERBATIM)
                        | {"triggered_bugs"})
        fuzzer = session.fuzzer
        if hasattr(fuzzer, "delta_mark"):
            assert set(delta["fuzzer"]) == set(fuzzer.state_dict())
            assert (set(delta["fuzzer"]["corpus"])
                    == set(fuzzer.corpus.state_dict()))

    def test_kept_seeds_travel_as_positions(self):
        session, base, delta = self.advanced(small_spec(seed=4))
        seeds = delta["fuzzer"]["corpus"]["seeds"]
        kept = [entry for entry in seeds if isinstance(entry, list)]
        assert kept, "a later slice should keep some of the base's seeds"
        assert all(0 <= position < len(base["fuzzer"]["corpus"]["seeds"])
                   for position, _, _ in kept)
        new = [entry for entry in seeds if isinstance(entry, dict)]
        assert len(kept) + len(new) == len(session.fuzzer.corpus)

    def test_wrong_base_raises_and_leaves_session_unchanged(self):
        spec = small_spec(seed=4)
        _, base, delta = self.advanced(spec)
        later = build_session(spec)
        later.run_iterations(4)  # the delta's base is iteration 3
        other_campaign = build_session(small_spec(seed=5))
        other_campaign.run_iterations(3)
        for session in (build_session(spec), later, other_campaign):
            before = session.state_dict()
            with pytest.raises(CheckpointError, match="was taken at"):
                session.load_state(delta)
            assert session.state_dict() == before

    def test_malformed_delta_raises_and_leaves_session_unchanged(self):
        spec = small_spec(seed=4)
        _, base, delta = self.advanced(spec)
        follower = build_session(spec).load_state(base)
        before = follower.state_dict()
        corruptions = {
            "kept seed outside the corpus": lambda d: (
                d["fuzzer"]["corpus"]["seeds"].append([999, 1, 0])),
            "kept seed increment as word": lambda d: (
                first_kept(d).__setitem__(1, "lots")),
            "kept seed uses as float": lambda d: (
                first_kept(d).__setitem__(2, 1.0)),
            "unknown module": lambda d: d["coverage"]["modules"].update(x=[1]),
            "missing verbatim key": lambda d: d.pop("clock"),
            "verbatim key of the wrong type": lambda d: d.update(core=[]),
            "history out of order": lambda d: d["history"].reverse(),
            "new seed without blocks": lambda d: (
                d["fuzzer"]["corpus"]["seeds"].append({"uses": 0})),
        }
        for name, corrupt in corruptions.items():
            bad = json_round_trip(delta)
            corrupt(bad)
            with pytest.raises(CheckpointError,
                               match="malformed checkpoint state"):
                follower.load_state(bad)
            assert follower.state_dict() == before, name
        follower.load_state(delta)  # the intact delta still applies


WIRE_CASES = [(core, fuzzer) for core in ("rocket", "boom", "cva6")
              for fuzzer in ("turbofuzz", "difuzzrtl", "cascade")]


class TestWireEncoding:
    @pytest.mark.parametrize("core, fuzzer", WIRE_CASES,
                             ids=[f"{fuzzer}-{core}"
                                  for core, fuzzer in WIRE_CASES])
    def test_to_json_is_the_sorted_json_of_to_dict(self, core, fuzzer):
        """``to_json`` skips the encoder's circular-reference checks; the
        text of a full checkpoint and of a slice delta stays what the
        checking encoder writes."""
        spec = (CampaignSpec().with_fuzzer(fuzzer, **SMALL).with_core(core)
                .with_seed(4))
        session = build_session(spec)
        session.run_iterations(2)
        full = CampaignCheckpoint.capture(session)
        mark = session.delta_mark()
        session.run_iterations(2)
        delta = CampaignCheckpoint(spec=spec, state=session.state_dict(mark))
        for checkpoint in (full, delta):
            assert checkpoint.to_json() == json.dumps(checkpoint.to_dict(),
                                                      sort_keys=True)


class TestBackends:
    def grid(self, backend=None):
        return CampaignOrchestrator(
            [small_spec(seed=seed).named(f"s{seed}") for seed in (1, 2)],
            backend=backend,
        )

    def test_registry_resolution(self):
        assert isinstance(resolve_backend(None), SerialBackend)
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend("supervised-queue"),
                          SupervisedQueueBackend)
        backend = SupervisedQueueBackend(workers=2)
        assert resolve_backend(backend) is backend
        for unknown in ("gpu", "process-pool"):
            with pytest.raises(ValueError, match="unknown execution backend"):
                resolve_backend(unknown)
        assert set(BACKENDS.names()) == {"serial", "supervised-queue"}

    def test_third_party_backend_plugs_in(self):
        calls = []

        @register_backend("probe")
        class ProbeBackend(SerialBackend):
            name = "probe"

            def start(self, orchestrator):
                calls.append(orchestrator)
                return super().start(orchestrator)

        try:
            grid = self.grid(backend="probe")
            grid.run_iterations(1)
            assert calls == [grid]
            assert grid.report()["total_iterations"] == 2
            assert grid.report()["backend"] == "probe"
        finally:
            BACKENDS.unregister("probe")

    def test_pool_matches_serial_run_iterations(self):
        serial = self.grid()
        serial.run_iterations(3)
        parallel = self.grid(backend=SupervisedQueueBackend(workers=2))
        parallel.run_iterations(3)
        assert parallel.coverage_series() == serial.coverage_series()
        assert parallel.shard_stats() == serial.shard_stats()
        assert (parallel.merged_coverage_series()
                == serial.merged_coverage_series())
        # Checkpoint *files* are deterministic too: freezing either grid
        # yields byte-identical JSON per shard.
        serial_wire = {label: cp.to_json()
                       for label, cp in serial.checkpoint().items()}
        parallel_wire = {label: cp.to_json()
                         for label, cp in parallel.checkpoint().items()}
        assert serial_wire == parallel_wire

    def test_pool_emits_orchestration_milestones(self):
        grid = self.grid(backend=SupervisedQueueBackend(workers=1))
        kinds = []
        grid.bus.on_milestone(lambda **kw: kinds.append(kw["kind"]))
        grid.run_for_virtual_time(0.005, max_iterations=4, slices=2)
        assert kinds.count("time_slice") == 2
        assert kinds.count("shard_done") == 2


class TestOrchestratorResume:
    def test_grid_resume_equals_uninterrupted(self):
        specs = [small_spec(seed=seed).named(f"s{seed}") for seed in (1, 2, 3)]
        full = CampaignOrchestrator(specs)
        full.run_iterations(6)

        half = CampaignOrchestrator(specs)
        half.run_iterations(3)
        wire = json_round_trip(
            {label: cp.to_dict() for label, cp in half.checkpoint().items()})
        resumed = CampaignOrchestrator.from_checkpoints(
            [CampaignCheckpoint.from_dict(cp) for cp in wire.values()])
        resumed.run_iterations(3)

        assert resumed.coverage_series() == full.coverage_series()
        assert resumed.shard_stats() == full.shard_stats()

    def test_grid_resume_on_pool_backend(self):
        specs = [small_spec(seed=seed).named(f"s{seed}") for seed in (4, 5)]
        full = CampaignOrchestrator(specs)
        full.run_for_virtual_time(0.01, max_iterations=10, slices=2)

        half = CampaignOrchestrator(specs)
        half.run_for_virtual_time(0.005, max_iterations=10, slices=1)
        resumed = CampaignOrchestrator.from_checkpoints(
            half.checkpoint(), backend="supervised-queue")
        resumed.run_for_virtual_time(0.01, max_iterations=10, slices=1)

        assert resumed.coverage_series() == full.coverage_series()


class TestCoverageAtBisect:
    def test_matches_linear_scan(self):
        series = [(0.5, 10), (1.0, 20), (1.0, 25), (2.5, 40)]

        def linear(seconds):
            best = 0
            for time_point, points in series:
                if time_point <= seconds:
                    best = points
            return best

        for seconds in (0.0, 0.5, 0.75, 1.0, 2.0, 2.5, 99.0):
            assert coverage_at_time(series, seconds) == linear(seconds)
        assert coverage_at_time([], 1.0) == 0

    def test_orchestrator_coverage_at_uses_series(self):
        grid = CampaignOrchestrator([small_spec(seed=9).named("only")])
        grid.run_iterations(3)
        series = grid["only"].coverage_series()
        last_time, last_points = series[-1]
        assert grid.coverage_at("only", last_time) == last_points
        assert grid.coverage_at("only", 0.0) == 0


class TestInstructionLibraryCheckpoint:
    """The library's VIO-style enable/disable toggles must travel with a
    checkpoint — the analyzer's checkpoint auditor motivated adding the
    library to every fuzzer's state_dict (before that, mid-campaign
    toggles silently reverted to constructor defaults on resume)."""

    def test_library_round_trip(self):
        from repro.fuzzer.instrlib import InstructionLibrary
        from repro.isa.instructions import Extension

        library = InstructionLibrary()
        library.disable(Extension.D)
        library.disable(Extension.F)
        restored = InstructionLibrary()
        restored.prepare_state(json_round_trip(library.state_dict()))()
        assert restored.enabled_extensions == library.enabled_extensions
        assert [spec.name for spec in restored.active_specs] == \
            [spec.name for spec in library.active_specs]

    def test_resume_preserves_mid_campaign_toggle(self):
        from repro.isa.instructions import Extension

        spec = small_spec(seed=0xD15A)

        full = build_session(spec)
        full.run_iterations(3)
        full.fuzzer.library.disable(Extension.F)
        full.fuzzer.library.disable(Extension.D)
        full.run_iterations(5)

        half = build_session(spec)
        half.run_iterations(3)
        half.fuzzer.library.disable(Extension.F)
        half.fuzzer.library.disable(Extension.D)
        half.run_iterations(1)
        resumed = resume_session(CampaignCheckpoint.from_json(
            CampaignCheckpoint.capture(half).to_json()))
        assert resumed.fuzzer.library.enabled_extensions == \
            half.fuzzer.library.enabled_extensions
        resumed.run_iterations(4)

        assert resumed.coverage_series() == full.coverage_series()
        assert resumed.history_dicts() == full.history_dicts()
        assert resumed.fuzzer.lfsr.state == full.fuzzer.lfsr.state

    @pytest.mark.parametrize("fuzzer", ("difuzzrtl", "cascade"))
    def test_baseline_fuzzers_carry_library(self, fuzzer):
        from repro.isa.instructions import Extension

        spec = CampaignSpec(fuzzer=fuzzer)
        half = build_session(spec)
        half.run_iterations(2)
        half.fuzzer.library.disable(Extension.M)
        resumed = resume_session(
            json_round_trip(CampaignCheckpoint.capture(half).to_dict()))
        assert resumed.fuzzer.library.enabled_extensions == \
            half.fuzzer.library.enabled_extensions

    def test_checkpoint_without_library_key_is_rejected(self):
        spec = small_spec(seed=5)
        session = build_session(spec)
        session.run_iterations(2)
        state = json_round_trip(session.state_dict())
        del state["fuzzer"]["library"]  # pre-library checkpoint shape
        fresh = build_session(spec)
        before = fresh.state_dict()
        with pytest.raises(CheckpointError, match="library"):
            fresh.load_state(state)
        assert fresh.state_dict() == before
