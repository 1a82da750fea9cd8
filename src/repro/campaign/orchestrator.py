"""Multi-campaign orchestration: N specs as shards on one time axis.

The paper's headline results all come from *grids* of campaigns
({fuzzer × core × instrumentation × timing}); the orchestrator runs such a
grid as shards with:

* **slices on a shared virtual-time axis** — the budget is cut into
  slices and every shard is advanced to each slice frontier in turn, so
  long-running shards cannot starve short ones and progress events
  interleave on a common clock;
* **pluggable execution backends** — the orchestrator owns the slice
  loop and hands each slice to its backend as a ``{label: stop}`` map:
  :class:`~repro.campaign.backends.SerialBackend` advances shards
  in-process (the default), while
  :class:`~repro.campaign.backends.SupervisedQueueBackend` keeps each
  shard resident on a worker process and applies what each slice changed
  at every slice frontier — bit-identical per-shard results either way,
  because shards share no mutable state;
* **per-shard deterministic seeding** — ``reseed_base`` derives a distinct,
  reproducible seed per shard index for specs that do not pin one;
* **a shared instrumentation cache** — shards with identical
  ``(core, style, max_state_size, seed)`` keys reuse one layout
  computation instead of re-instrumenting the same netlist per shard;
* **aggregate reporting** — merged coverage series and per-shard stats;
* **checkpoint/resume** — ``checkpoint()`` freezes every shard as a
  :class:`~repro.campaign.checkpoint.CampaignCheckpoint`;
  ``CampaignOrchestrator.from_checkpoints`` rebuilds the grid so a
  preempted run continues bit-identically.

Every shard publishes on one shared :class:`EventBus`, so a single
subscriber observes the whole grid.
"""

import contextlib
import math
from bisect import bisect_right
from heapq import merge as heap_merge

from repro.campaign.backends import resolve_backend
from repro.campaign.cache import InstrumentationCache
from repro.campaign.checkpoint import CampaignCheckpoint
from repro.campaign.events import EventBus
from repro.campaign.resilience import derive_seed
from repro.campaign.session import build_session

__all__ = ["CampaignOrchestrator", "coverage_at_time", "derive_seed"]


def coverage_at_time(series, seconds):
    """Last-known coverage at or before ``seconds`` in a time-sorted
    ``[(seconds, points), ...]`` series (binary search, not a rescan)."""
    # bisect on (seconds, +inf) so an exact time match is included.
    index = bisect_right(series, (seconds, float("inf")))
    return series[index - 1][1] if index else 0


class CampaignOrchestrator:
    """Runs a list of :class:`CampaignSpec` shards to completion."""

    def __init__(self, specs, *, cache=None, bus=None, reseed_base=None,
                 backend=None):
        self.bus = bus or EventBus()
        self.cache = cache if cache is not None else InstrumentationCache()
        self.backend = resolve_backend(backend)
        self.specs = []
        self.sessions = {}
        # label -> "ok" | "quarantined"; fault-tolerant backends mark
        # poison shards here instead of aborting the grid.
        self.shard_health = {}
        for index, spec in enumerate(specs):
            if reseed_base is not None and "seed" not in spec.fuzzer_options:
                spec = spec.with_seed(derive_seed(reseed_base, index))
            label = spec.label
            if label in self.sessions:
                label = f"{label}#{index}"
                spec = spec.named(label)
            self.specs.append(spec)
            self.sessions[label] = build_session(
                spec, bus=self.bus, cache=self.cache
            )
            self.shard_health[label] = "ok"

    # -- access -----------------------------------------------------------------
    def __getitem__(self, label):
        return self.sessions[label]

    def __iter__(self):
        return iter(self.sessions.items())

    def __len__(self):
        return len(self.sessions)

    @property
    def labels(self):
        return list(self.sessions)

    # -- scheduling -------------------------------------------------------------
    def run_for_virtual_time(self, budget_seconds, max_iterations=None,
                             slices=8):
        """Advance every shard to the shared budget, slice by slice.

        ``max_iterations`` caps each shard individually (the scaled-down
        experiment budgets); per-shard results are identical to running
        each session alone for the same budget, because shards share no
        mutable state — only the layout cache, which is read-only after
        construction.
        """
        slices = max(1, int(slices))
        caps = dict.fromkeys(self.sessions, max_iterations)
        with contextlib.closing(self.backend.start(self)) as run:
            for step in range(1, slices + 1):
                # The last frontier is exactly the budget (no
                # floating-point shortfall on the final slice).
                frontier = (budget_seconds if step == slices
                            else budget_seconds * step / slices)
                run.execute_slice(step - 1, self._stops(frontier, caps))
                self.bus.milestone("time_slice", orchestrator=self,
                                   frontier=frontier, step=step,
                                   slices=slices)
        self._shards_done()
        return self

    def run_iterations(self, count):
        """Run ``count`` more iterations per shard, as one slice."""
        caps = {label: session.iterations + count
                for label, session in self.sessions.items()}
        with contextlib.closing(self.backend.start(self)) as run:
            run.execute_slice(0, self._stops(math.inf, caps))
        self._shards_done()
        return self

    def _stops(self, until, caps):
        """One slice as the backend takes it, ``{label: stop}``: every
        shard that is not quarantined and that has work left before
        ``until`` (virtual seconds) and ``caps[label]`` (its absolute
        iteration cap, None for none)."""
        stops = {}
        for label, session in self.sessions.items():
            cap = caps[label]
            if (self.shard_health[label] == "quarantined"
                    or session.clock.seconds >= until
                    or (cap is not None and session.iterations >= cap)):
                continue
            stops[label] = {"until": until, "max_iterations": cap}
        return stops

    def _shards_done(self):
        for label, session in self.sessions.items():
            self.bus.milestone("shard_done", orchestrator=self, shard=label,
                               session=session)

    # -- checkpoint / resume ----------------------------------------------------
    def checkpoint(self):
        """Freeze every shard: ``label -> CampaignCheckpoint``."""
        return {
            label: CampaignCheckpoint.capture(session, label=label)
            for label, session in self.sessions.items()
        }

    @classmethod
    def from_checkpoints(cls, checkpoints, *, cache=None, bus=None,
                         backend=None):
        """Rebuild a grid from ``checkpoint()`` output (or a list of
        checkpoints); the resumed run is bit-identical to an uninterrupted
        one under either backend."""
        if isinstance(checkpoints, dict):
            checkpoints = list(checkpoints.values())
        orchestrator = cls([cp.spec for cp in checkpoints], cache=cache,
                           bus=bus, backend=backend)
        for label, checkpoint in zip(orchestrator.labels, checkpoints):
            orchestrator.sessions[label].load_state(checkpoint.state)
        return orchestrator

    # -- aggregate reporting ----------------------------------------------------
    def coverage_series(self):
        """Per-shard ``label -> [(t, coverage)]``."""
        return {label: session.coverage_series()
                for label, session in self.sessions.items()}

    def merged_coverage_series(self):
        """One merged series on the shared time axis: at every event time,
        the sum of each shard's last-known coverage total.

        Per-shard series are already time-sorted (the virtual clock only
        advances), so a k-way heap merge gives the global order in
        O(n log k) without re-sorting the concatenation.
        """
        streams = [
            [(seconds, index, points)
             for seconds, points in session.coverage_series()]
            for index, session in enumerate(self.sessions.values())
        ]
        latest = [0] * len(streams)
        merged = []
        for seconds, index, points in heap_merge(*streams):
            latest[index] = points
            merged.append((seconds, sum(latest)))
        return merged

    def coverage_at(self, label, seconds):
        """A shard's best coverage at or before ``seconds`` (binary search
        over the time-sorted series)."""
        return coverage_at_time(self.sessions[label].coverage_series(),
                                seconds)

    def shard_stats(self):
        """Per-shard summary numbers."""
        return {
            label: {
                "spec": session.spec.to_dict(),
                "iterations": session.iterations,
                "coverage_total": session.coverage_total,
                "virtual_seconds": session.clock.seconds,
                "iteration_rate_hz": session.iteration_rate_hz(),
                "executed_per_second": session.executed_per_second(),
            }
            for label, session in self.sessions.items()
        }

    def report(self):
        """Aggregate report: per-shard stats + merged totals + cache use.

        Fault-tolerant backends additionally contribute ``shard_health``
        (``ok``/``quarantined`` per shard) and a ``resilience`` section
        with retry/redispatch/quarantine counters."""
        stats = self.shard_stats()
        report = {
            "shards": stats,
            "total_coverage": sum(s["coverage_total"] for s in stats.values()),
            "total_iterations": sum(s["iterations"] for s in stats.values()),
            "backend": self.backend.name,
            "instrumentation_cache": dict(self.cache.stats),
            "shard_health": dict(self.shard_health),
        }
        resilience = getattr(self.backend, "resilience_stats", None)
        if resilience is not None:
            stats_block = resilience()
            if stats_block is not None:
                report["resilience"] = stats_block
        return report
