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
  ``coverage_target``, ``bug_triggered``, ``shard_done``, ...); payload
  always carries ``kind``.

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

Emission is engineered for the zero-subscriber case: ``publish``/``emit``
on a topic with no handlers is a counter bump and one cached-flag check —
sessions in a tight campaign loop pay nothing for events nobody listens
to.  For handlers that do real I/O (streaming shard reports to disk), the
:class:`BufferedSink` and :class:`AsyncSink` wrappers decouple the
iteration loop from the sink's latency — the ROADMAP's "event-bus
backpressure" item.
"""

import queue
import threading


class EventBus:
    """Synchronous publish/subscribe hub for campaign events."""

    EVENTS = ("iteration", "new_coverage", "mismatch", "milestone",
              "worker_lost", "redispatch", "quarantine", "degraded")

    def __init__(self):
        self._handlers = {event: [] for event in self.EVENTS}
        self.emitted = {event: 0 for event in self.EVENTS}
        # Cached per-event "anyone listening?" flags: the hot publish path
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

    # ``publish`` is the preferred producer-facing name; ``emit`` remains
    # for compatibility with PR-1-era callers.
    publish = emit

    def milestone(self, kind, **payload):
        """Shorthand for ``emit("milestone", kind=kind, ...)``."""
        self.emit("milestone", kind=kind, **payload)

    def handler_count(self, event=None):
        if event is not None:
            return len(self._handlers[event])
        return sum(len(handlers) for handlers in self._handlers.values())


class BufferedSink:
    """Batches events in memory and flushes them in chunks.

    Subscribe its :meth:`push` to any event; ``flush_fn`` receives a list
    of payload dicts whenever ``capacity`` events have accumulated (and on
    :meth:`flush`/:meth:`close`).  This absorbs bursty event traffic —
    e.g. streaming per-iteration shard reports to disk in 512-row chunks
    instead of one write per iteration.
    """

    def __init__(self, flush_fn, capacity=512):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.flush_fn = flush_fn
        self.capacity = capacity
        self._buffer = []
        self.flushes = 0

    def push(self, **payload):
        """Handler-compatible entry point (subscribe this)."""
        self._buffer.append(payload)
        if len(self._buffer) >= self.capacity:
            self.flush()

    def flush(self):
        """Hand the buffered payloads to ``flush_fn`` (no-op if empty)."""
        if not self._buffer:
            return 0
        batch = self._buffer
        self._buffer = []
        self.flush_fn(batch)
        self.flushes += 1
        return len(batch)

    def close(self):
        self.flush()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __len__(self):
        return len(self._buffer)


class AsyncSink:
    """Hands events to a worker thread so slow consumers never stall the
    iteration loop (the event-bus backpressure answer for sinks that do
    real I/O).

    Subscribe its :meth:`push`.  Payloads go into a bounded queue drained
    by a daemon thread running ``consume_fn(payload)``; when the queue is
    full the oldest payload is dropped (and counted in ``dropped``) so the
    producer never blocks — campaign progress is never hostage to a sink.
    A ``consume_fn`` exception is counted in ``errors`` and the worker
    keeps draining (a flaky sink must not silently kill event delivery).
    :meth:`close` drains outstanding events and joins the worker.
    """

    _STOP = object()

    def __init__(self, consume_fn, max_pending=1024):
        if max_pending <= 0:
            raise ValueError("max_pending must be positive")
        self.consume_fn = consume_fn
        self.dropped = 0
        self.consumed = 0
        self.errors = 0
        self._queue = queue.Queue(maxsize=max_pending)
        self._worker = threading.Thread(target=self._drain, daemon=True)
        self._closed = False
        self._worker.start()

    def push(self, **payload):
        """Handler-compatible entry point (subscribe this)."""
        if self._closed:
            raise RuntimeError("AsyncSink is closed")
        while True:
            try:
                self._queue.put_nowait(payload)
                return
            except queue.Full:
                # Shed the oldest event instead of stalling the campaign.
                try:
                    self._queue.get_nowait()
                    self.dropped += 1
                except queue.Empty:
                    continue

    def _drain(self):
        while True:
            item = self._queue.get()
            if item is self._STOP:
                return
            try:
                self.consume_fn(item)
            except Exception:  # noqa: BLE001 — sink faults must not kill delivery
                self.errors += 1
            finally:
                self.consumed += 1

    def close(self, timeout=10.0):
        """Flush outstanding events and stop the worker."""
        if self._closed:
            return
        self._closed = True
        self._queue.put(self._STOP)
        self._worker.join(timeout=timeout)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
