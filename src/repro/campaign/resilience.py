"""Fault tolerance for campaign execution: policy, injection, recovery.

Three pieces, used by the parallel backend
(:class:`~repro.campaign.backends.SupervisedQueueBackend`):

* :class:`FaultPolicy` — the knobs of the failure/recovery state machine:
  per-slice timeout, retry budget per shard, exponential backoff with
  deterministic seeded jitter, quarantine threshold, heartbeat cadence,
  and the respawn budget after which a supervisor degrades.
* :class:`FaultInjector` — seeded, registry-based chaos: faults
  (``kill-worker``, ``delay-result``, ``drop-result``,
  ``corrupt-checkpoint``) are scheduled by *(shard index, slice index)*
  through a per-decision :class:`~repro.fuzzer.lfsr.Lfsr`, so a chaos run
  is exactly reproducible from its seed — same seed, same spec, same
  injected-fault schedule.  Faults fire only on a task's **first**
  attempt (unless ``repeat=True``), so every injected failure has a
  fault-free retry path and the recovered campaign merges bit-identically
  with an undisturbed run.
* :class:`ShardRecovery` — the one retry/redispatch/quarantine code path:
  counts failures per ``(shard, slice)``, decides *retry with backoff* vs
  *quarantine*, publishes the robustness events (``redispatch``,
  ``quarantine``, ``worker_lost``, ``degraded``) on the orchestrator's
  bus, and accumulates the counters surfaced under
  ``orchestrator.report()["resilience"]``.

Supervision consults wall-clock time (timeouts, backoff) but none of it
ever feeds campaign state: a re-dispatched slice re-runs from the shard's
last good checkpoint and merges bit-identically, so recovery timing
cannot change results — only wall-clock.
"""

import os
import time  # analyze: ignore[DET001] supervision sleep/jitter only; never feeds campaign state
import zlib
from dataclasses import asdict, dataclass, field

from repro.fuzzer.lfsr import Lfsr
from repro.registry import Registry


def derive_seed(base, index):
    """Deterministic, well-spread per-shard seed (never zero: a zero LFSR
    state is degenerate).  Moved here from the orchestrator so the fault
    machinery below can reuse it without an import cycle; the orchestrator
    re-exports it."""
    mixed = (base * 0x9E3779B1 + (index + 1) * 0x85EBCA6B) & 0xFFFF_FFFF
    return mixed or 1


# ---------------------------------------------------------------------------
# Policy
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FaultPolicy:
    """Failure-handling knobs of the parallel backend.

    ``max_retries`` bounds attempts per *(shard, slice)*: the first
    failure is attempt 1, and a shard whose slice fails more than
    ``max_retries`` times is quarantined.  ``quarantine_after`` (optional)
    additionally quarantines a shard once its *total* failures across the
    whole run reach the threshold, even if each individual slice
    eventually succeeded — the "poison shard" guard.
    """

    slice_timeout_s: float = 120.0
    max_retries: int = 3
    quarantine_after: int = None
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0
    jitter_seed: int = 0x5EED
    heartbeat_interval_s: float = 0.2
    heartbeat_timeout_s: float = 5.0
    max_respawns: int = 16

    def backoff_s(self, attempt, shard_index=0):
        """Exponential backoff before re-dispatch attempt ``attempt``
        (1-based), with deterministic seeded jitter: the same
        ``(jitter_seed, shard, attempt)`` always yields the same delay, so
        chaos runs replay exactly."""
        if attempt <= 0:
            return 0.0
        delay = self.backoff_base_s * (self.backoff_factor ** (attempt - 1))
        delay = min(delay, self.backoff_max_s)
        if delay <= 0.0:
            return 0.0
        lfsr = Lfsr(derive_seed(self.jitter_seed, (shard_index << 10) ^ attempt))
        # Up to +25% jitter in 256 deterministic steps.
        return delay * (1.0 + lfsr.below(256) / 1024.0)

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, data):
        return cls(**data)


# ---------------------------------------------------------------------------
# Fault registry
# ---------------------------------------------------------------------------
FAULTS = Registry("injected fault")

#: Exit code a worker uses when a ``kill-worker`` fault fires, so the
#: supervisor (and tests) can tell an injected death from a real crash.
KILL_WORKER_EXIT_CODE = 70


def register_fault(name, fault_class=None, replace=False):
    """Register an injected-fault class; usable directly or as a class
    decorator.  A fault class declares ``stage`` — ``"pre"`` (before the
    slice runs), ``"post"`` (after the slice, before the result is
    posted), or ``"result"`` (mutates the serialized result) — and an
    ``apply(context)`` method; constructor keywords come verbatim from
    the injector's ``params`` for that fault kind."""
    return FAULTS.register(name, fault_class, replace=replace)


@register_fault("kill-worker")
@dataclass
class KillWorkerFault:
    """Hard-kill the worker process before it runs the slice (the
    "machine died" chaos case)."""

    stage = "pre"

    def apply(self, context):
        os._exit(KILL_WORKER_EXIT_CODE)


@register_fault("delay-result")
@dataclass
class DelayResultFault:
    """Stall after computing the slice, so the result arrives after the
    supervisor's ``slice_timeout_s`` deadline (the "hung worker" case)."""

    stage = "post"
    seconds: float = 1.0

    def apply(self, context):
        time.sleep(self.seconds)


@register_fault("drop-result")
@dataclass
class DropResultFault:
    """Complete the slice but never post the result (the "lost message"
    case); the supervisor recovers via the slice deadline."""

    stage = "post"

    def apply(self, context):
        context["drop"] = True


@register_fault("corrupt-checkpoint")
@dataclass
class CorruptCheckpointFault:
    """Truncate the serialized result checkpoint (the "partial write"
    case); the supervisor's :class:`~repro.campaign.checkpoint.CheckpointError`
    validation turns it into an ordinary retry."""

    stage = "result"
    keep_fraction: float = 0.5

    def apply(self, context):
        text = context.get("checkpoint_json") or ""
        context["checkpoint_json"] = text[: int(len(text) * self.keep_fraction)]


def apply_fault_directives(directives, stage, context):
    """Run every directive registered for ``stage`` against ``context``
    (a plain dict: ``task``, ``drop`` flag, ``checkpoint_json``).
    Directives are plain dicts — ``{"kind": name, **params}`` — so they
    cross process boundaries as JSON-shaped data.  Returns the kinds
    applied."""
    applied = []
    for directive in directives or ():
        fault_class = FAULTS.get(directive["kind"])
        if fault_class.stage != stage:
            continue
        params = {key: value for key, value in directive.items() if key != "kind"}
        fault_class(**params).apply(context)
        applied.append(directive["kind"])
    return applied


class FaultInjector:
    """Deterministic chaos scheduler.

    Faults fire per *(kind, shard index, slice index)*, decided either by
    an explicit ``schedule`` (an iterable of ``(kind, shard, slice)``
    triples) or by per-kind ``rates`` — ``{kind: (num, den)}`` Bernoulli
    probabilities drawn from a fresh :class:`Lfsr` seeded by
    ``derive_seed(seed ^ crc32(kind), ...)``, so every decision is a pure
    function of ``(seed, kind, shard, slice)`` and :meth:`plan` is the
    exact schedule a run will experience.  By default faults fire only on
    attempt 0 — retries run fault-free, which is what makes chaos runs
    merge bit-identically with undisturbed ones; ``repeat=True`` keeps
    injecting on retries (for quarantine testing)."""

    def __init__(self, seed=0xFA117, rates=None, schedule=None, params=None,
                 repeat=False):
        self.seed = int(seed)
        self.rates = dict(rates or {})
        for kind in self.rates:
            FAULTS.get(kind)  # validate early, with the known-names message
        self.schedule = set()
        for kind, shard_index, slice_index in (schedule or ()):
            FAULTS.get(kind)
            self.schedule.add((kind, int(shard_index), int(slice_index)))
        self.params = {kind: dict(values) for kind, values in (params or {}).items()}
        self.repeat = bool(repeat)
        self.injected = 0
        self.injected_by_kind = {}

    def kinds(self):
        """Every fault kind this injector can fire, in deterministic order."""
        scheduled = {kind for kind, _, _ in self.schedule}
        return sorted(set(self.rates) | scheduled)

    def decide(self, kind, shard_index, slice_index):
        """Pure decision: does ``kind`` fire at (shard, slice)?"""
        if (kind, shard_index, slice_index) in self.schedule:
            return True
        probability = self.rates.get(kind)
        if not probability:
            return False
        salt = zlib.crc32(kind.encode("utf-8"))
        lfsr = Lfsr(derive_seed(self.seed ^ salt,
                                shard_index * 0x10001 + slice_index))
        return lfsr.chance(probability)

    def faults_for(self, shard_index, slice_index, attempt=0):
        """The directives to attach to one task dispatch (counted)."""
        if attempt > 0 and not self.repeat:
            return []
        directives = []
        for kind in self.kinds():
            if self.decide(kind, shard_index, slice_index):
                directives.append({"kind": kind, **self.params.get(kind, {})})
                self.injected += 1
                self.injected_by_kind[kind] = self.injected_by_kind.get(kind, 0) + 1
        return directives

    def plan(self, shard_count, slice_count):
        """The full reproducible schedule over a grid: sorted
        ``(slice_index, shard_index, kind)`` triples.  Pure — planning
        does not advance any state or counter, so ``plan()`` before a run
        equals the faults the run will inject."""
        return [
            (slice_index, shard_index, kind)
            for slice_index in range(slice_count)
            for shard_index in range(shard_count)
            for kind in self.kinds()
            if self.decide(kind, shard_index, slice_index)
        ]

    def stats(self):
        return {
            "seed": self.seed,
            "injected": self.injected,
            "by_kind": dict(sorted(self.injected_by_kind.items())),
            "repeat": self.repeat,
        }


# ---------------------------------------------------------------------------
# Recovery accounting
# ---------------------------------------------------------------------------
@dataclass
class _RecoveryCounters:
    """Plain counter block so the report section has a stable shape."""

    failures: int = 0
    redispatches: int = 0
    quarantines: int = 0
    worker_losses: int = 0
    timeouts: int = 0
    corrupt_checkpoints: int = 0
    worker_errors: int = 0
    heartbeat_losses: int = 0
    faults_injected: int = 0
    spawns: int = 0
    respawns: int = 0
    respawn_failures: int = 0
    degraded: int = 0
    inline_tasks: int = 0
    full_tasks: int = 0    # tasks carrying a shard's whole checkpoint
    delta_tasks: int = 0   # tasks for a shard resident on its worker
    relay_events: int = 0
    extra: dict = field(default_factory=dict)


class ShardRecovery:
    """The one failure/recovery path of the parallel backend.

    One instance per backend run: it owns the per-``(shard, slice)``
    attempt counts, the retry-vs-quarantine decision, the robustness
    event emission, and the counters that end up in
    ``orchestrator.report()["resilience"]``.  ``health`` is the
    orchestrator's ``shard_health`` mapping — quarantining a shard marks
    it there so the campaign report shows it without aborting the grid.
    """

    RETRY = "retry"
    QUARANTINE = "quarantine"

    def __init__(self, policy=None, bus=None, health=None):
        self.policy = policy or FaultPolicy()
        self.bus = bus
        self.health = health if health is not None else {}
        self.attempts = {}        # (label, slice_index) -> failed attempts
        self.total_failures = {}  # label -> failures across all slices
        self.last_error = {}      # label -> most recent failure reason
        self.counters = _RecoveryCounters()

    # -- counters ---------------------------------------------------------------
    def note(self, counter, amount=1):
        if hasattr(self.counters, counter):
            setattr(self.counters, counter,
                    getattr(self.counters, counter) + amount)
        else:
            extra = self.counters.extra
            extra[counter] = extra.get(counter, 0) + amount

    def attempts_for(self, label, slice_index):
        return self.attempts.get((label, slice_index), 0)

    def _emit(self, event, **payload):
        if self.bus is not None:
            self.bus.emit(event, **payload)

    # -- event-shaped notifications ---------------------------------------------
    def worker_lost(self, worker_id, label=None, exit_code=None):
        """A worker process died."""
        self.note("worker_losses")
        self._emit("worker_lost", worker=worker_id, shard=label,
                   exit_code=exit_code)

    def degraded(self, reason, workers_left):
        """The supervisor lost capacity (fewer workers, or inline)."""
        self.note("degraded")
        self._emit("degraded", reason=reason, workers=workers_left)

    # -- the decision -----------------------------------------------------------
    def record_failure(self, label, *, slice_index=0, shard_index=0,
                       reason="failure"):
        """Charge one failure; returns ``(action, backoff_seconds)`` where
        action is :data:`RETRY` or :data:`QUARANTINE`."""
        self.note("failures")
        key = (label, slice_index)
        attempts = self.attempts.get(key, 0) + 1
        self.attempts[key] = attempts
        total = self.total_failures.get(label, 0) + 1
        self.total_failures[label] = total
        self.last_error[label] = reason
        policy = self.policy
        exhausted = attempts > policy.max_retries
        poisoned = (policy.quarantine_after is not None
                    and total >= policy.quarantine_after)
        if exhausted or poisoned:
            self.health[label] = "quarantined"
            self.note("quarantines")
            self._emit("quarantine", shard=label, slice_index=slice_index,
                       reason=reason, attempts=attempts, total_failures=total)
            return self.QUARANTINE, 0.0
        self.note("redispatches")
        backoff = policy.backoff_s(attempts, shard_index)
        self._emit("redispatch", shard=label, slice_index=slice_index,
                   attempt=attempts, reason=reason, backoff_s=backoff)
        return self.RETRY, backoff

    # -- reporting --------------------------------------------------------------
    def stats(self):
        counters = asdict(self.counters)
        extra = counters.pop("extra")
        counters.update(extra)
        return {
            "counters": dict(sorted(counters.items())),
            "policy": self.policy.to_dict(),
            "quarantined": sorted(label for label, health in self.health.items()
                                  if health == "quarantined"),
            "last_error": dict(sorted(self.last_error.items())),
        }
