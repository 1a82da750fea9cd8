"""Bit-identity of the optimized hot path vs the reference observer.

The hot path (group tables folded from the layouts' contribution tables,
the one DUT loop, GF(2) batch fills, decode/illegal memoization, softfloat
memoization) must not change ANY observable campaign behaviour: coverage
series, corpus contents, LFSR stream, and the full campaign report have to
match exactly.  The reference observer (``tests/helpers.py``) steps the
core one instruction at a time and computes every index from
``core.vals`` and ``layout.contribution()``; the tests here run both and
compare.  Campaign digests for every core x layout are also pinned to
committed golden values (``golden_fingerprints.json``), and the
executor's opcode count per instruction is held under a ceiling.
"""

import gc
import hashlib
import json
import weakref
from pathlib import Path

import pytest

from repro.campaign.checkpoint import CampaignCheckpoint
from repro.campaign.events import EventBus
from repro.campaign.session import CampaignSession
from repro.campaign.spec import CampaignSpec
from repro.evict import evict_half
from repro.fuzzer.lfsr import Lfsr
from tests.helpers import opcodes_per_instruction, reference_observation

CORES = ("rocket", "cva6", "boom")
STYLES = ("optimized", "legacy")
BASELINES = ("cascade", "difuzzrtl")
GOLDEN_PATH = Path(__file__).with_name("golden_fingerprints.json")


def _spec(core, style, fuzzer="turbofuzz"):
    return (CampaignSpec()
            .with_fuzzer(fuzzer, instructions_per_iteration=300)
            .with_core(core)
            .with_instrumentation(style=style))


def _fingerprint(session):
    """Everything the ISSUE's bit-identity clause names."""
    return {
        "coverage_series": session.coverage_series(),
        "history": session.history_dicts(),
        "lfsr": session.fuzzer.lfsr.state,
        "corpus": session.fuzzer.corpus.state_dict(),
        "counts": session.coverage.counts_by_module(),
        "total_executed": session.total_executed,
        "total_generated": session.total_generated,
    }


def _baseline_fingerprint(session):
    """:func:`_fingerprint` of a baseline campaign: the fuzzer's whole
    ``state_dict()`` (LFSR, counters and, for DifuzzRTL, its corpus)
    stands in for the TurboFuzz corpus."""
    return {
        "coverage_series": session.coverage_series(),
        "history": session.history_dicts(),
        "lfsr": session.fuzzer.lfsr.state,
        "fuzzer": session.fuzzer.state_dict(),
        "counts": session.coverage.counts_by_module(),
        "total_executed": session.total_executed,
        "total_generated": session.total_generated,
    }


class TestObserverEquivalence:
    @pytest.mark.parametrize("core", CORES)
    @pytest.mark.parametrize("style", STYLES)
    def test_fast_path_matches_reference(self, core, style):
        fast = CampaignSession(_spec(core, style))
        fast.run_iterations(6)

        reference = CampaignSession(_spec(core, style))
        with reference_observation(reference):
            reference.run_iterations(6)

        assert _fingerprint(fast) == _fingerprint(reference)

    def test_switching_mid_campaign_is_seamless(self):
        """Reference and fast paths interleave without divergence."""
        mixed = CampaignSession(_spec("rocket", "optimized"))
        for index in range(8):
            if index % 2 == 0:
                with reference_observation(mixed):
                    mixed.run_iterations(1)
            else:
                mixed.run_iterations(1)

        fast = CampaignSession(_spec("rocket", "optimized"))
        fast.run_iterations(8)
        assert _fingerprint(mixed) == _fingerprint(fast)

    @pytest.mark.parametrize("core", CORES)
    def test_resume_from_checkpoint_matches_uninterrupted(self, core):
        straight = CampaignSession(_spec(core, "optimized"))
        straight.run_iterations(8)

        first_leg = CampaignSession(_spec(core, "optimized"))
        first_leg.run_iterations(4)
        checkpoint = CampaignCheckpoint.capture(first_leg)
        resumed = CampaignCheckpoint.from_json(checkpoint.to_json()).restore()
        resumed.run_iterations(4)
        assert _fingerprint(resumed) == _fingerprint(straight)

    def test_resume_into_reference_observer_matches(self):
        """A checkpoint taken on the fast path resumes bit-identically
        even if the resumed session observes via the reference observer."""
        straight = CampaignSession(_spec("rocket", "legacy"))
        straight.run_iterations(6)

        first_leg = CampaignSession(_spec("rocket", "legacy"))
        first_leg.run_iterations(3)
        resumed = CampaignCheckpoint.capture(first_leg).restore()
        with reference_observation(resumed):
            resumed.run_iterations(3)
        assert _fingerprint(resumed) == _fingerprint(straight)


class TestLfsrBatchEquivalence:
    def test_fill_bytes_matches_wordwise_stream(self):
        for seed in (1, 0xDEAD_BEEF, (1 << 64) - 1):
            for count in (0, 1, 7, 8, 9, 255, 2047, 2048, 16384, 16385):
                reference = Lfsr(seed)
                out = bytearray()
                while len(out) < count:
                    out.extend(reference.next().to_bytes(8, "little"))
                batched = Lfsr(seed)
                assert batched.fill_bytes(count) == bytes(out[:count])
                if count:
                    # The draw stream continues exactly where the
                    # word-wise stream would.
                    advanced = Lfsr(seed)
                    for _ in range((count + 7) // 8):
                        advanced.next()
                    assert batched.state == advanced.state

    def test_fill_words_matches_next(self):
        batched = Lfsr(42)
        stepped = Lfsr(42)
        assert batched.fill_words(100) == [stepped.next() for _ in range(100)]


class TestBoundedCaches:
    def test_decoder_caches_stay_bounded(self):
        from repro.isa import decoder

        original_limit = decoder._CACHE_LIMIT
        decoder._CACHE_LIMIT = 64
        decoder._CACHE.clear()
        decoder._ILLEGAL_CACHE.clear()
        try:
            for index in range(500):
                # addi with varying immediates: distinct legal words.
                decoder.try_decode(0x00000013 | ((index & 0xFFF) << 20)
                                   | ((index & 0x1F) << 7))
                # Distinct illegal words populate the illegal memo.
                decoder.try_decode(0x0000007F | (index << 15))
                assert len(decoder._CACHE) <= 64
                assert len(decoder._ILLEGAL_CACHE) <= 64
        finally:
            decoder._CACHE_LIMIT = original_limit

    def test_illegal_decode_pins_no_caller_frame(self):
        """The illegal-word memo keeps a reason, not an exception whose
        traceback would keep the raising caller's frame, and its locals,
        alive for as long as the entry lives."""
        from repro.isa.decoder import IllegalInstruction, decode

        class Local:
            pass

        def caller(word):
            local = Local()
            try:
                decode(word)
            except IllegalInstruction:
                pass
            return weakref.ref(local)

        for _ in range(2):  # a fresh illegal word, then the memoized one
            alive = caller(0x1357_9BDC)
            gc.collect()
            assert alive() is None

    def test_finished_session_is_collected(self):
        """Nothing the decoder memoizes keeps a finished campaign alive
        (its mutation probes decode illegal words)."""
        session = CampaignSession(_spec("rocket", "optimized"))
        session.run_iterations(6)
        alive = weakref.ref(session)
        del session
        gc.collect()
        assert alive() is None

    def test_decoder_caches_serve_identical_results(self):
        from repro.isa.decoder import try_decode

        word = 0x00A3_0313  # addi t1, t1, 10
        first = try_decode(word)
        assert try_decode(word) is first
        assert try_decode(0xFFFF_FFFF) is None
        assert try_decode(0xFFFF_FFFF) is None  # memoized-illegal path

    def test_evict_half_dict_drops_oldest(self):
        cache = {index: index for index in range(10)}
        assert evict_half(cache) == 5
        assert sorted(cache) == [5, 6, 7, 8, 9]

    def test_evict_half_set_and_tiny(self):
        assert evict_half({}) == 0
        assert evict_half({1: 1}) == 0
        seen = set(range(10))
        assert evict_half(seen) == 5
        assert len(seen) == 5


class TestEventBusFastPath:
    def test_publish_without_subscribers_counts_only(self):
        bus = EventBus()
        bus.emit("iteration", session=None)
        assert bus.emitted["iteration"] == 1
        assert not bus.has_subscribers("iteration")

    def test_subscribe_flips_fast_path_flag(self):
        bus = EventBus()
        seen = []
        unsubscribe = bus.subscribe("milestone", lambda **p: seen.append(p))
        assert bus.has_subscribers("milestone")
        bus.milestone("campaign_start")
        assert seen and seen[0]["kind"] == "campaign_start"
        unsubscribe()
        assert not bus.has_subscribers("milestone")
        bus.milestone("ignored")
        assert len(seen) == 1
        assert bus.emitted["milestone"] == 2

    def test_cached_illegal_raise_does_not_grow_traceback(self):
        from repro.isa.decoder import IllegalInstruction, decode

        word = 0xFFFF_FFFF
        depths = []
        for _ in range(3):
            try:
                decode(word)
            except IllegalInstruction as error:
                depth = 0
                traceback = error.__traceback__
                while traceback is not None:
                    depth += 1
                    traceback = traceback.tb_next
                depths.append(depth)
        assert depths[0] == depths[1] == depths[2]


class TestGoldenFingerprints:
    """Every core x layout reproduces the campaign digests recorded in
    ``golden_fingerprints.json`` (see its ``about`` for the recipe)."""

    @pytest.mark.parametrize("core", CORES)
    @pytest.mark.parametrize("style", STYLES)
    def test_matches_recorded_digest(self, core, style):
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        session = CampaignSession(_spec(core, style))
        session.run_iterations(golden["iterations"])
        blob = json.dumps(_fingerprint(session), sort_keys=True,
                          separators=(",", ":"))
        digest = hashlib.sha256(blob.encode()).hexdigest()
        assert digest == golden["digests"][f"{core}/{style}"]

    @pytest.mark.parametrize("fuzzer", BASELINES)
    def test_baseline_matches_recorded_digest(self, fuzzer):
        """The baselines' generated streams (Rocket, optimized layout)."""
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        session = CampaignSession(_spec("rocket", "optimized", fuzzer))
        session.run_iterations(golden["iterations"])
        blob = json.dumps(_baseline_fingerprint(session), sort_keys=True,
                          separators=(",", ":"))
        digest = hashlib.sha256(blob.encode()).hexdigest()
        assert digest == golden["baseline_digests"][fuzzer]


class TestBlockCompile:
    """Checkpoint transparency of runtime caches.  The block compiler this
    class once covered is gone; its resume check still applies to the
    caches that remain."""

    def test_resume_starts_cold_and_stays_identical(self):
        """Runtime caches are checkpoint-transparent: a resumed session
        rebuilds them from nothing yet replays bit-identically."""
        straight = CampaignSession(_spec("rocket", "optimized"))
        straight.run_iterations(8)

        first_leg = CampaignSession(_spec("rocket", "optimized"))
        with reference_observation(first_leg):
            first_leg.run_iterations(4)
        # Warm before capture.
        assert first_leg.fuzzer.direct._specs
        checkpoint = CampaignCheckpoint.capture(first_leg)
        resumed = CampaignCheckpoint.from_json(checkpoint.to_json()).restore()
        assert resumed.fuzzer.direct._specs is None
        with reference_observation(resumed):
            resumed.run_iterations(4)
        # Rewarmed on its own.
        assert resumed.fuzzer.direct._specs
        assert _fingerprint(resumed) == _fingerprint(straight)



class TestExecutorCost:
    """The executor's cost per retired instruction, counted as opcode
    events (``tests/helpers.py:opcodes_per_instruction``), stays within
    5% of the count recorded when the one DUT loop landed.  The count is
    exact and the same in every process, so a change that makes the
    per-instruction path run more bytecode fails here without a timing
    run (an empty 1,200-turn loop at the top of ``Executor.step`` reads
    several thousand)."""

    # Opcode events per retired instruction when the loop landed (its
    # parent read 1019 / 1527, 1196 / 1704 and 1089 / 1597); the lockstep
    # rows since the checker compares fields in place (1105.1, 1212.5 and
    # 1141.3 before: the field compares cost about what the two tuple
    # calls did, while a check takes about 30% less time).
    RECORDED = {
        ("rocket", False): 710.2, ("rocket", True): 1104.2,
        ("boom", False): 817.6, ("boom", True): 1211.5,
        ("cva6", False): 746.4, ("cva6", True): 1140.3,
    }

    @pytest.mark.parametrize("with_ref", (False, True), ids=("dut", "lockstep"))
    @pytest.mark.parametrize("core", CORES)
    def test_opcodes_per_instruction_within_recorded(self, core, with_ref):
        count = opcodes_per_instruction(core, with_ref)
        assert count <= self.RECORDED[core, with_ref] * 1.05, count
