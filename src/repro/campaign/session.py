"""Campaign sessions: one reproducible fuzzing campaign built from a spec.

A :class:`CampaignSession` resolves a declarative
:class:`~repro.campaign.spec.CampaignSpec` through the registries
(:mod:`repro.campaign.registry`), wires DUT + instrumentation + fuzzer +
runner + virtual clock, and publishes its progress on an
:class:`~repro.campaign.events.EventBus` — reporting, plotting, and bug
triage subscribe instead of special-casing the driver loop.
"""

from dataclasses import dataclass

from repro.campaign.cache import InstrumentationCache
from repro.campaign.checkpoint import CheckpointError
from repro.campaign.events import EventBus
from repro.campaign.registry import CORES, FUZZERS, TIMINGS
from repro.campaign.spec import CampaignSpec
from repro.coverage import FeedbackWeights
from repro.fuzzer.lfsr import Lfsr
from repro.harness.clock import VirtualClock
from repro.harness.runner import IterationRunner

# The probabilistic end-of-program detection model (a fuzzer plugin's
# coarse_detection) draws from its own LFSR so detection luck is decoupled
# from generation; the seed is a campaign-level constant.  Checkpoints
# still carry it, so a campaign saved with another seed resumes on its own
# stream.
DEFAULT_DETECTION_SEED = 0xC0FFEE

#: The ``base`` of a state taken without a mark: the empty campaign.
EMPTY_BASE = {"iterations": 0, "total_executed": 0, "total_generated": 0}
#: ``state_dict()`` keys that, given a mark, carry changes since its base.
DELTA_INCREMENTAL = ("history", "coverage", "fuzzer")
#: The ``state_dict()`` keys that travel whole, with their JSON types
#: (``triggered_bugs``, a list, only on cores with injected bugs).  A
#: fuzzer without a ``delta_mark()`` also travels whole.
DELTA_VERBATIM = {
    "total_executed": int,
    "total_generated": int,
    "weights": dict,
    "clock": dict,
    "detection_seed": int,
    "detection_lfsr": dict,
    "core": dict,
}


@dataclass
class IterationOutcome:
    """One point of a campaign's history."""

    index: int
    virtual_seconds: float
    coverage_total: int
    new_coverage: int
    executed_instructions: int
    prevalence: float
    mismatch: object = None

    def to_dict(self):
        """Plain-data form for JSON export (Fig./Table persistence)."""
        return {
            "index": self.index,
            "virtual_seconds": self.virtual_seconds,
            "coverage_total": self.coverage_total,
            "new_coverage": self.new_coverage,
            "executed_instructions": self.executed_instructions,
            "prevalence": self.prevalence,
            "mismatch": (self.mismatch.describe()
                         if self.mismatch is not None else None),
        }

    @classmethod
    def from_dict(cls, data):
        """Rebuild a history point from its :meth:`to_dict` form.

        A recorded mismatch comes back as a :class:`RestoredMismatch`
        placeholder whose ``describe()`` echoes the archived text, so the
        round-trip ``to_dict(from_dict(d)) == d`` holds bit-for-bit."""
        described = data["mismatch"]
        return cls(
            index=data["index"],
            virtual_seconds=data["virtual_seconds"],
            coverage_total=data["coverage_total"],
            new_coverage=data["new_coverage"],
            executed_instructions=data["executed_instructions"],
            prevalence=data["prevalence"],
            mismatch=(None if described is None
                      else RestoredMismatch(described)),
        )


class RestoredMismatch:
    """Stand-in for a checker mismatch rebuilt from a checkpoint: the live
    record objects do not outlive their run, but the archived description
    must keep exporting identically."""

    def __init__(self, described):
        self.described = described

    def describe(self):
        return self.described

    def __repr__(self):
        return f"RestoredMismatch({self.described!r})"


class CampaignSession:
    """A fuzzing campaign bound to one DUT and one fuzzer.

    Built from a spec (``CampaignSession(spec)`` or :func:`build_session`):
    the core, the fuzzer, its timing model and its checking come from the
    registries.  ``cache`` is a shared
    :class:`~repro.campaign.cache.InstrumentationCache` (a private one
    serves a session built without it), and ``bus`` a shared
    :class:`~repro.campaign.events.EventBus` (the orchestrator passes one
    bus to all shards).
    """

    def __init__(self, spec=None, *, cache=None, bus=None):
        self.spec = spec or CampaignSpec()
        spec = self.spec
        self.bus = bus or EventBus()
        plugin = FUZZERS.get(spec.fuzzer)

        # Exact registry match first; fall back to the lowercase form the
        # core factory has always accepted ("Rocket" == "rocket").
        core_name = (spec.core if spec.core in CORES
                     else str(spec.core).lower())
        core_class = CORES.get(core_name)
        self.core = core_class(bugs=tuple(spec.bugs),
                               rv32a_only=spec.rv32a_only)
        self.weights = FeedbackWeights(dict(spec.weight_shifts))
        if cache is None:
            cache = InstrumentationCache()
        self.coverage = cache.instrument(
            self.core, style=spec.instrument_style,
            max_state_size=spec.max_state_size,
            seed=spec.instrument_seed, weights=self.weights,
        )
        self.core.attach_coverage(self.coverage)

        self.fuzzer = plugin.build(spec.fuzzer_options)
        for tweak in spec.tweaks:
            plugin.apply_tweak(self.fuzzer, tweak)
        self.coarse_detection = plugin.coarse_detection

        if spec.stop_on_trap is not None:
            stop_on_trap = bool(spec.stop_on_trap)
        else:
            stop_on_trap = plugin.stop_on_trap
        self.runner = IterationRunner(
            self.core,
            with_ref=spec.with_ref,
            capture_snapshots=spec.capture_snapshots,
            stop_on_trap=stop_on_trap,
        )

        if spec.timing is not None:
            self.timing = TIMINGS.get(spec.timing)
        else:
            self.timing = TIMINGS.get(plugin.timing)

        self.clock = VirtualClock(self.core.default_frequency_hz)
        self.history = []
        self.total_executed = 0
        self.total_generated = 0
        self._detection_seed = DEFAULT_DETECTION_SEED
        # Session-level so its draw position survives a checkpoint: a
        # resumed bug-detection wait continues the same detection-luck
        # stream instead of restarting it.
        self.detection_lfsr = Lfsr(0xDE7EC7 ^ DEFAULT_DETECTION_SEED)
        self.bus.milestone("campaign_start", session=self, spec=spec)

    # -- one iteration ---------------------------------------------------------
    def run_iteration(self):
        """Generate, execute, feed back, account time; returns the outcome."""
        iteration = self.fuzzer.generate_iteration()
        before = self.coverage.counts_by_module()
        result = self.runner.run(iteration)
        after = self.coverage.counts_by_module()
        # The fuzzer's feedback scalar is the *weighted* N_cov increment
        # (the auxiliary-shift mechanism of Section VI); the raw increment
        # is what the experiment reports.
        weighted_increment = self.coverage.weights.weighted_total(
            {name: after[name] - before.get(name, 0) for name in after}
        )
        self.fuzzer.feedback(iteration, weighted_increment)
        self.clock.advance_seconds(
            self.timing.iteration_seconds(
                generated=iteration.total_instructions,
                executed=result.executed_instructions,
                dut_cycles=result.cycles,
                frequency_hz=self.core.default_frequency_hz,
            )
        )
        self.total_executed += result.executed_instructions
        self.total_generated += iteration.total_instructions
        outcome = IterationOutcome(
            index=len(self.history),
            virtual_seconds=self.clock.seconds,
            coverage_total=self.coverage.total_points,
            new_coverage=result.new_coverage,
            executed_instructions=result.executed_instructions,
            prevalence=result.prevalence,
            mismatch=result.mismatch,
        )
        self.history.append(outcome)
        bus = self.bus
        bus.emit("iteration", session=self, iteration=iteration,
                 result=result, outcome=outcome)
        if result.new_coverage > 0:
            bus.emit("new_coverage", session=self, outcome=outcome,
                     new_points=result.new_coverage)
        if result.mismatch is not None:
            bus.emit("mismatch", session=self, outcome=outcome,
                     mismatch=result.mismatch, snapshot=result.snapshot)
        return outcome

    # -- campaign drivers ------------------------------------------------------
    def run_for_virtual_time(self, virtual_seconds, max_iterations=None,
                             until_detection=False):
        """Iterate until the virtual clock passes the budget or the history
        holds ``max_iterations`` outcomes.

        With ``until_detection`` the campaign also ends at its first
        detection (:meth:`_detector`): the clock then advances by the
        timing model's detection latency (snapshot capture and readback
        for TurboFuzz, trace dump for the software fuzzers), a
        ``mismatch_confirmed`` (``outcome``, ``seconds``) or
        ``bug_triggered`` (``bug_id``, ``seconds``) milestone is emitted,
        and the detection's virtual time is returned.  Returns None when
        the budget runs out first.
        """
        detect = self._detector() if until_detection else None
        while self.clock.seconds < virtual_seconds:
            if max_iterations is not None and len(self.history) >= max_iterations:
                break
            outcome = self.run_iteration()
            if detect is not None:
                detection = detect(outcome)
                if detection is not None:
                    kind, payload = detection
                    self.clock.advance_seconds(self.timing.detection_s)
                    self.bus.milestone(kind, session=self, **payload,
                                       seconds=self.clock.seconds)
                    return self.clock.seconds
        return None

    def run_iterations(self, count):
        """Run a fixed number of iterations."""
        for _ in range(count):
            self.run_iteration()
        return self.history

    def _detector(self):
        """The campaign's detection rule: a function of an iteration's
        outcome that returns the milestone it confirms, ``(kind,
        payload)``, or None.  With a REF, a detection is a lockstep
        mismatch.  Without one, it is an injected bug firing (the first in
        sorted order) that the fuzzer's checking sees: the plugin's
        ``coarse_detection`` odds, drawn from :attr:`detection_lfsr`."""
        if self.runner.with_ref:
            def mismatch(outcome):
                if outcome.mismatch is None:
                    return None
                return "mismatch_confirmed", {"outcome": outcome}
            return mismatch
        triggered = getattr(self.core.hooks, "triggered", None)
        if triggered is None:
            raise ValueError(
                f"core {self.spec.core!r} has no injected bugs and no REF: "
                "build the campaign with CampaignSpec(bugs=(bug_id, ...)) "
                "or with_checking(with_ref=True) so it can detect one"
            )
        odds = self.coarse_detection
        chance = self.detection_lfsr.chance

        def bug(outcome):
            if not triggered:
                return None
            if odds is not None and not chance(odds):
                # The end-of-program comparison missed it; keep going.
                triggered.clear()
                return None
            return "bug_triggered", {"bug_id": min(triggered)}
        return bug

    # -- reporting -------------------------------------------------------------
    @property
    def coverage_total(self):
        return self.coverage.total_points

    @property
    def iterations(self):
        return len(self.history)

    def iteration_rate_hz(self):
        """Mean iterations per virtual second (the Table I metric)."""
        if not self.history or self.clock.seconds == 0:
            return 0.0
        return len(self.history) / self.clock.seconds

    def executed_per_second(self):
        if self.clock.seconds == 0:
            return 0.0
        return self.total_executed / self.clock.seconds

    def coverage_series(self):
        """(virtual_seconds, coverage_total) pairs for plotting."""
        return [(o.virtual_seconds, o.coverage_total) for o in self.history]

    def history_dicts(self):
        """The campaign history as plain dicts (JSON export hook)."""
        return [outcome.to_dict() for outcome in self.history]

    # -- checkpoint protocol ---------------------------------------------------
    def _fuzzer_protocol(self, method):
        """The fuzzer's checkpoint hook, with a protocol-naming error for
        plugins that predate it (instead of a bare AttributeError)."""
        hook = getattr(self.fuzzer, method, None)
        if hook is None:
            raise TypeError(
                f"fuzzer {type(self.fuzzer).__name__!r} does not implement "
                f"the checkpoint protocol ({method}()); checkpointing and "
                "the supervised-queue backend require registered fuzzers to "
                "provide state_dict()/prepare_state()"
            )
        return hook

    def _base(self):
        return {"iterations": len(self.history),
                "total_executed": self.total_executed,
                "total_generated": self.total_generated}

    def delta_mark(self):
        """Remember where a slice starts, for :meth:`state_dict`: the
        history length, each module's seen set, and — for a fuzzer with a
        ``delta_mark()`` of its own, as TurboFuzz has — the corpus seed
        ids."""
        fuzzer_mark = getattr(self.fuzzer, "delta_mark", None)
        return {"base": self._base(),
                "coverage": self.coverage.delta_mark(),
                "fuzzer": fuzzer_mark() if fuzzer_mark else None}

    def state_dict(self, mark=None):
        """Every piece of mutable campaign state, as plain JSON data.

        Taken at an iteration boundary (the only place the session drivers
        can observe the campaign), this is sufficient for a bit-identical
        resume: the DUT core and runner are reset at the start of every
        iteration, so their in-flight state never crosses a boundary, and
        the instrumentation layouts rebuild deterministically from the
        spec.  Bundle with the spec via
        :class:`~repro.campaign.checkpoint.CampaignCheckpoint`.

        With a :meth:`delta_mark`, history, coverage and corpus hold only
        what changed since it (:data:`DELTA_INCREMENTAL`), the other keys
        travel whole, and ``base`` names the point it applies to, so a
        worker that keeps a shard resident ships a slice's change instead
        of the campaign.  Without a mark, the state is the change since
        the empty campaign.
        """
        if mark is None:
            base, coverage_mark, fuzzer_mark = EMPTY_BASE, None, None
        else:
            base, coverage_mark, fuzzer_mark = (
                mark["base"], mark["coverage"], mark["fuzzer"])
        state_fuzzer = self._fuzzer_protocol("state_dict")
        state = {
            "history": [outcome.to_dict()
                        for outcome in self.history[base["iterations"]:]],
            "total_executed": self.total_executed,
            "total_generated": self.total_generated,
            "fuzzer": (state_fuzzer() if fuzzer_mark is None
                       else state_fuzzer(fuzzer_mark)),
            "coverage": self.coverage.state_dict(coverage_mark),
            "weights": self.weights.state_dict(),
            "clock": self.clock.state_dict(),
            "detection_seed": self._detection_seed,
            "detection_lfsr": self.detection_lfsr.state_dict(),
            # Cross-iteration core state (empty for most cores; BOOM's
            # persistent branch predictor lives here).
            "core": self.core.core_state_dict(),
        }
        if mark is not None:
            state["base"] = base
        triggered = getattr(self.core.hooks, "triggered", None)
        if triggered is not None:
            state["triggered_bugs"] = sorted(triggered)
        return state

    def load_state(self, state):
        """Load a :meth:`state_dict` into this session at the state's
        ``base``: decode and check all of it, and only then change the
        session.  A state without a base is the change since the empty
        campaign, so it loads only into a freshly built session."""
        base = state.get("base", EMPTY_BASE)
        if base != self._base():
            raise CheckpointError(
                f"checkpoint state was taken at {base}, but this session "
                f"is at {self._base()}")
        prepare_fuzzer = self._fuzzer_protocol("prepare_state")
        try:
            history = [IterationOutcome.from_dict(outcome)
                       for outcome in state["history"]]
            if [outcome.index for outcome in history] != list(range(
                    len(self.history), len(self.history) + len(history))):
                raise ValueError("history outcomes do not follow the base")
            apply_coverage = self.coverage.prepare_state(state["coverage"])
            if not isinstance(state["fuzzer"], dict):
                raise TypeError("fuzzer state must be an object")
            apply_fuzzer = prepare_fuzzer(state["fuzzer"])
            for key, kind in DELTA_VERBATIM.items():
                if not isinstance(state[key], kind):
                    raise TypeError(f"{key} must be {kind.__name__}")
            apply_weights = self.weights.prepare_state(state["weights"])
            apply_clock = self.clock.prepare_state(state["clock"])
            apply_detection = self.detection_lfsr.prepare_state(
                state["detection_lfsr"])
            apply_core = self.core.prepare_core_state(state["core"])
            triggered = getattr(self.core.hooks, "triggered", None)
            if triggered is not None and not isinstance(
                    state["triggered_bugs"], list):
                raise TypeError("triggered_bugs must be a list")
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"malformed checkpoint state: {exc!r}") from exc
        apply_weights()
        apply_clock()
        apply_detection()
        apply_core()
        apply_fuzzer()
        apply_coverage()
        self.history.extend(history)
        self.total_executed = state["total_executed"]
        self.total_generated = state["total_generated"]
        self._detection_seed = state["detection_seed"]
        if triggered is not None:
            triggered.clear()
            triggered.update(state["triggered_bugs"])
        return self


def build_session(spec, *, bus=None, cache=None):
    """Resolve a :class:`CampaignSpec` into a ready-to-run session."""
    return CampaignSession(spec, bus=bus, cache=cache)
