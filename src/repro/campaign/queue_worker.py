"""Supervised campaign workers: the process side of the work-queue backend.

A worker is a **long-running** process: it loops on its own
multiprocessing task queue and keeps the sessions of the shards routed
to it **resident** between slices.  A shard's first task (and any task
after a failure) is *full*: it carries the shard's checkpoint, which
replaces the resident session.  Every later task is a *delta* task that
only names the base iteration count and the slice to run.  Either way
the worker posts back only what the slice changed
(:func:`advance_resident`).  Alongside the task loop:

* a daemon **heartbeat thread** posts liveness beats every
  ``heartbeat_interval_s`` even while the main thread is deep in a slice,
  so the supervisor can tell "busy" from "dead";
* a :class:`RelayPublisher` subscribes to the worker session's private
  :class:`~repro.campaign.events.EventBus` and forwards sanitized,
  JSON-shaped event payloads over the **relay queue** — the cross-process
  event relay that lets grid-wide subscribers on the orchestrator's bus
  observe remote iterations;
* injected-fault directives attached to a task are applied at their
  stages via :func:`~repro.campaign.resilience.apply_fault_directives`
  (chaos testing; see :class:`~repro.campaign.resilience.FaultInjector`).

Everything crossing a queue is plain JSON-shaped data (checkpoints and
deltas travel as compact JSON strings), so results cannot depend on
pickled object graphs, and a re-dispatched full task re-runs
bit-identically from the orchestrator's copy of the shard.
"""

import contextlib
import gc
import queue
import threading

from repro.campaign.checkpoint import CampaignCheckpoint, CheckpointError
from repro.campaign.events import EventBus
from repro.campaign.resilience import apply_fault_directives

DEFAULT_HEARTBEAT_S = 0.2

#: Event payload keys the supervisor adds on re-emission; the sanitizer
#: must never forward a colliding key from the remote payload.
_RESERVED_KEYS = frozenset({"session", "shard", "remote"})


@contextlib.contextmanager
def paused_gc():
    """Pause the cyclic garbage collector around a bulk encode or decode.

    Building or applying a slice delta allocates tens of thousands of
    acyclic objects, and every collection they trigger rescans the
    campaign state held in the process; late in a campaign that costs
    more than the decode itself.  Reference counting still frees them."""
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _plain(value):
    return value is None or isinstance(value, (bool, int, float, str))


def sanitize_event(event, payload):
    """Reduce a live event payload to JSON-shaped data for the relay.

    Live payloads carry heavyweight objects (the session, iteration, run
    result) that must not cross the process boundary; remote subscribers
    get the outcome dict plus the scalar fields."""
    if event == "milestone":
        data = {key: value for key, value in payload.items()
                if _plain(value) and key not in _RESERVED_KEYS}
        data["kind"] = payload.get("kind")
        return data
    data = {}
    outcome = payload.get("outcome")
    if outcome is not None:
        data["outcome"] = outcome.to_dict()
    if event == "new_coverage":
        data["new_points"] = payload.get("new_points")
    if event == "mismatch":
        mismatch = payload.get("mismatch")
        data["mismatch"] = (mismatch.describe()
                            if hasattr(mismatch, "describe") else repr(mismatch))
    return data


class RelayPublisher:
    """Forwards a worker session's events onto the relay queue.

    Delivery is best-effort by design: when the relay queue is full the
    event is shed (and counted) rather than stalling the iteration loop —
    campaign progress is never hostage to observers."""

    def __init__(self, relay_queue, shard, events):
        self.relay_queue = relay_queue
        self.shard = shard
        self.events = tuple(events)
        self.forwarded = 0
        self.dropped = 0

    def attach(self, bus):
        for event in self.events:
            bus.subscribe(event, self._handler(event))
        return bus

    def _handler(self, event):
        def forward(**payload):
            message = {
                "type": "event",
                "event": event,
                "shard": self.shard,
                "payload": sanitize_event(event, payload),
            }
            try:
                self.relay_queue.put_nowait(message)
                self.forwarded += 1
            except queue.Full:
                self.dropped += 1  # shed under backpressure, never block
        return forward


def _task_bus(task, relay_queue):
    """A private bus for one task, relaying the topics the task asks for."""
    bus = EventBus()
    if relay_queue is not None and task.get("relay"):
        RelayPublisher(relay_queue, task["label"], task["relay"]).attach(bus)
    return bus


def _run_slice(session, task):
    command = task["command"]
    if command == "run_for_virtual_time":
        session.run_for_virtual_time(task["frontier"],
                                     max_iterations=task.get("max_iterations"))
    elif command == "run_iterations":
        session.run_iterations(task["count"])
    else:
        raise ValueError(f"unknown task command {command!r}")


def advance_resident(task, resident, cache=None, relay_queue=None, bus=None):
    """Run one slice on a shard this worker keeps resident; return what
    the slice changed, as a checkpoint-envelope JSON whose state is the
    session's :meth:`~repro.campaign.session.CampaignSession.state_dict`
    since a mark taken at the slice start.

    ``resident`` maps shard label to session.  A *full* task (one that
    carries ``checkpoint_json``) replaces the shard's session; a *delta*
    task names the iteration count its base is at, and fails when the
    resident session is elsewhere.  A slice that raises leaves the shard
    non-resident, so only a full task can bring it back.  ``bus``
    overrides the private per-task bus (the supervisor's degraded
    in-process fallback passes the orchestrator's bus, so local
    subscribers see full-fidelity events)."""
    label = task["label"]
    if bus is None:
        bus = _task_bus(task, relay_queue)
    session = resident.pop(label, None)
    if "checkpoint_json" in task:
        with paused_gc():
            checkpoint = CampaignCheckpoint.from_json(task["checkpoint_json"])
            session = checkpoint.restore(bus=bus, cache=cache)
    elif session is None or session.iterations != task["base_iterations"]:
        raise CheckpointError(
            f"shard {label!r} is not resident at iteration "
            f"{task['base_iterations']}")
    else:
        session.bus = bus
    mark = session.delta_mark()
    _run_slice(session, task)
    resident[label] = session
    with paused_gc():
        return CampaignCheckpoint(spec=session.spec,
                                  state=session.state_dict(mark)).to_json()


def _heartbeat_loop(worker_id, result_queue, interval_s, stop):
    while not stop.wait(interval_s):
        try:
            result_queue.put_nowait({"type": "heartbeat", "worker": worker_id})
        except queue.Full:
            continue  # supervisor is behind; skip this beat


def worker_main(worker_id, task_queue, result_queue, relay_queue,
                heartbeat_interval_s=DEFAULT_HEARTBEAT_S):
    """The worker process entry point: loop until the ``None`` sentinel.

    A task that raises is reported as an ``error`` message and the loop
    continues — a poison shard must not take the worker (or the grid)
    down with it; retry/quarantine policy lives with the supervisor."""
    stop = threading.Event()
    beat = threading.Thread(
        target=_heartbeat_loop,
        args=(worker_id, result_queue, heartbeat_interval_s, stop),
        daemon=True,
    )
    beat.start()
    # One instrumentation cache per worker: full tasks of the same grid
    # restore identical layouts (layouts are read-only once built).
    from repro.campaign.cache import InstrumentationCache

    cache = InstrumentationCache()
    resident = {}  # shard label -> the session this worker keeps
    try:
        while True:
            task = task_queue.get()
            if task is None:
                break
            result_queue.put({"type": "claim", "task_id": task["task_id"],
                              "worker": worker_id, "label": task["label"]})
            context = {"task": task, "drop": False, "checkpoint_json": None}
            directives = task.get("faults") or ()
            try:
                apply_fault_directives(directives, "pre", context)
                context["checkpoint_json"] = advance_resident(
                    task, resident, cache=cache, relay_queue=relay_queue)
                apply_fault_directives(directives, "post", context)
                apply_fault_directives(directives, "result", context)
            except Exception as exc:  # poison shard: report, keep serving
                result_queue.put({
                    "type": "error", "task_id": task["task_id"],
                    "worker": worker_id, "label": task["label"],
                    "error": f"{type(exc).__name__}: {exc}",
                })
                continue
            if context["drop"]:
                continue  # injected drop-result: supervisor recovers by deadline
            result_queue.put({
                "type": "result", "task_id": task["task_id"],
                "worker": worker_id, "label": task["label"],
                "checkpoint_json": context["checkpoint_json"],
            })
    finally:
        stop.set()
