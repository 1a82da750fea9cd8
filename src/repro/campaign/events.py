"""Campaign event bus: observers replace driver-loop special cases.

A :class:`CampaignSession` emits a small, fixed vocabulary of events while
it runs; reporting, plotting, and bug triage subscribe instead of poking
at the session's internals after the fact.  Events:

* ``iteration`` — after every iteration; payload carries the session, the
  generated :class:`~repro.fuzzer.blocks.Iteration`, the raw
  :class:`~repro.harness.runner.RunResult`, and the recorded
  :class:`~repro.campaign.session.IterationOutcome`.
* ``new_coverage`` — only when the iteration found new coverage points.
* ``mismatch`` — a DUT/REF divergence was flagged by the checker.
* ``milestone`` — coarse campaign landmarks (``campaign_start``,
  ``mismatch_confirmed``, ``bug_triggered``, ``shard_done``, ...);
  payload always carries ``kind``.

Robustness events, published by the supervised queue backend
(:mod:`repro.campaign.resilience`):

* ``worker_lost`` — a worker process died; payload
  carries ``worker``, ``shard`` (may be None), ``exit_code``.
* ``redispatch`` — a shard slice is being re-dispatched from its last
  good checkpoint; payload carries ``shard``, ``slice_index``,
  ``attempt``, ``reason``, ``backoff_s``.
* ``quarantine`` — a shard exhausted its retry budget and was parked;
  payload carries ``shard``, ``slice_index``, ``reason``, ``attempts``,
  ``total_failures``.
* ``degraded`` — the supervisor lost capacity (fewer workers, or fell
  back to in-process execution); payload carries ``reason``, ``workers``.

Remote events relayed across processes by the supervised queue backend
are re-emitted on the orchestrator's bus with ``remote=True``,
``shard=<label>``, ``session=None``, and JSON-shaped payloads (see
:mod:`repro.campaign.queue_worker`).

Subscribers are called synchronously, in subscription order, on the
thread that runs the iteration — handlers must be cheap and must not
re-enter the session.  ``subscribe`` returns an unsubscribe callable so
short-lived observers (a figure driver collecting a histogram) can detach
cleanly.

Emission is engineered for the zero-subscriber case: ``emit`` on a topic
with no handlers is a counter bump and one cached-flag check — sessions
in a tight campaign loop pay nothing for events nobody listens to.
"""


class EventBus:
    """Synchronous publish/subscribe hub for campaign events."""

    EVENTS = ("iteration", "new_coverage", "mismatch", "milestone",
              "worker_lost", "redispatch", "quarantine", "degraded")

    def __init__(self):
        self._handlers = {event: [] for event in self.EVENTS}
        self.emitted = {event: 0 for event in self.EVENTS}
        # Cached per-event "anyone listening?" flags: the hot emit path
        # checks one dict entry instead of taking a len() of the handler
        # list; maintained by subscribe/unsubscribe.
        self._active = {event: False for event in self.EVENTS}

    # -- subscription -----------------------------------------------------------
    def subscribe(self, event, handler):
        """Register ``handler`` for ``event``; returns an unsubscribe
        callable (idempotent)."""
        if event not in self._handlers:
            raise ValueError(
                f"unknown event {event!r} (expected one of {self.EVENTS})"
            )
        handlers = self._handlers[event]
        handlers.append(handler)
        self._active[event] = True

        def unsubscribe():
            if handler in handlers:
                handlers.remove(handler)
                self._active[event] = bool(handlers)

        return unsubscribe

    def has_subscribers(self, event):
        """Cheap check a producer can use to skip payload construction."""
        return self._active[event]

    # Decorator-friendly aliases: bus.on_iteration(fn) or @bus.on_iteration.
    def on_iteration(self, handler):
        self.subscribe("iteration", handler)
        return handler

    def on_new_coverage(self, handler):
        self.subscribe("new_coverage", handler)
        return handler

    def on_mismatch(self, handler):
        self.subscribe("mismatch", handler)
        return handler

    def on_milestone(self, handler):
        self.subscribe("milestone", handler)
        return handler

    def on_worker_lost(self, handler):
        self.subscribe("worker_lost", handler)
        return handler

    def on_redispatch(self, handler):
        self.subscribe("redispatch", handler)
        return handler

    def on_quarantine(self, handler):
        self.subscribe("quarantine", handler)
        return handler

    def on_degraded(self, handler):
        self.subscribe("degraded", handler)
        return handler

    # -- emission ---------------------------------------------------------------
    def emit(self, event, **payload):
        """Dispatch ``payload`` to every handler subscribed to ``event``.

        Near-zero with no subscribers: one counter bump, one flag check.
        """
        self.emitted[event] += 1
        if not self._active[event]:
            return
        # Copy: a handler may unsubscribe (itself or others) mid-dispatch.
        for handler in list(self._handlers[event]):
            handler(**payload)

    def milestone(self, kind, **payload):
        """Shorthand for ``emit("milestone", kind=kind, ...)``."""
        self.emit("milestone", kind=kind, **payload)
