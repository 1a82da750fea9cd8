"""Supervised campaign workers: the process side of the work-queue backend.

A worker is a **long-running** process with one duplex pipe to its
supervisor, which carries everything in both directions: tasks in;
results, errors, heartbeats and relayed events out.  The worker holds at
most one task at a time and keeps the sessions of the shards routed to
it **resident** between slices.  A shard's first task (and any task
after a failure) is *full*: it carries the shard's checkpoint, which
replaces the resident session.  Every later task is a *delta* task that
only names the base iteration count and the slice's stop.  Either way
the worker posts back only what the slice changed
(:func:`advance_resident`).  Alongside the task loop:

* a daemon **heartbeat thread** posts liveness beats every
  ``heartbeat_interval_s`` even while the main thread is deep in a slice,
  so the supervisor can tell "busy" from "dead"; a lock lets it and the
  main thread take turns on the pipe, so messages never interleave;
* the topics a task asks to relay are forwarded from the worker
  session's private :class:`~repro.campaign.events.EventBus` as
  sanitized, JSON-shaped payloads — the cross-process event relay that
  lets grid-wide subscribers on the orchestrator's bus observe remote
  iterations.  They travel on the pipe ahead of the slice's result;
* injected-fault directives attached to a task are applied at their
  stages via :func:`~repro.campaign.resilience.apply_fault_directives`
  (chaos testing; see :class:`~repro.campaign.resilience.FaultInjector`).

A forked worker inherits the whole heap of the process that started it
(the orchestrator's sessions, the decode cache, whatever else that
process holds).  It never uses that heap, so before it serves its first
task it freezes it (:func:`gc.freeze`): the inherited objects move to
the collector's permanent generation, the worker's collections walk
only its own objects, and the inherited copy-on-write pages stay shared.

Everything crossing the pipe is plain JSON-shaped data (checkpoints and
deltas travel as compact JSON strings), so results cannot depend on
pickled object graphs, and a re-dispatched full task re-runs
bit-identically from the orchestrator's copy of the shard.
"""

import contextlib
import gc
import threading

from repro.campaign.checkpoint import CampaignCheckpoint, CheckpointError
from repro.campaign.events import EventBus
from repro.campaign.resilience import apply_fault_directives

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


def _relay(post, event, shard):
    def forward(**payload):
        post({"type": "event", "event": event, "shard": shard,
              "payload": sanitize_event(event, payload)})
    return forward


def _task_bus(task, post):
    """A private bus for one task, relaying the topics the task asks for."""
    bus = EventBus()
    if post is not None:
        for event in task.get("relay", ()):
            bus.subscribe(event, _relay(post, event, task["label"]))
    return bus


def advance_resident(task, resident, cache=None, post=None, bus=None):
    """Run one slice on a shard this worker keeps resident, to the task's
    ``stop`` (see :mod:`repro.campaign.backends`); return what the slice
    changed, as a checkpoint-envelope JSON whose state is the session's
    :meth:`~repro.campaign.session.CampaignSession.state_dict` since a
    mark taken at the slice start.

    ``resident`` maps shard label to session.  A *full* task (one that
    carries ``checkpoint_json``) replaces the shard's session; a *delta*
    task names the iteration count its base is at, and fails when the
    resident session is elsewhere.  A slice that raises leaves the shard
    non-resident, so only a full task can bring it back.  ``post`` sends
    one message to the supervisor; the task's relayed events go through
    it.  ``bus`` overrides the private per-task bus (the supervisor's
    degraded in-process fallback passes the orchestrator's bus, so local
    subscribers see full-fidelity events)."""
    label = task["label"]
    if bus is None:
        bus = _task_bus(task, post)
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
    stop = task["stop"]
    session.run_for_virtual_time(stop["until"],
                                 max_iterations=stop["max_iterations"])
    resident[label] = session
    with paused_gc():
        return CampaignCheckpoint(spec=session.spec,
                                  state=session.state_dict(mark)).to_json()


def _heartbeat_loop(post, interval_s, stop):
    while not stop.wait(interval_s):
        try:
            post({"type": "heartbeat"})
        except OSError:
            return  # the supervisor has gone


def worker_main(conn, heartbeat_interval_s):
    """The worker process entry point: serve tasks from ``conn`` until
    the ``None`` sentinel, one at a time.

    A task that raises is reported as an ``error`` message and the loop
    continues — a poison shard must not take the worker (or the grid)
    down with it; retry/quarantine policy lives with the supervisor."""
    # Everything alive now was inherited; the worker's collections skip it.
    gc.freeze()
    lock = threading.Lock()

    def post(message):
        with lock:
            conn.send(message)

    stop = threading.Event()
    threading.Thread(target=_heartbeat_loop,
                     args=(post, heartbeat_interval_s, stop),
                     daemon=True).start()
    # One instrumentation cache per worker: full tasks of the same grid
    # restore identical layouts (layouts are read-only once built).
    from repro.campaign.cache import InstrumentationCache

    cache = InstrumentationCache()
    resident = {}  # shard label -> the session this worker keeps
    try:
        while True:
            task = conn.recv()
            if task is None:
                break
            context = {"task": task, "drop": False, "checkpoint_json": None}
            directives = task.get("faults") or ()
            try:
                apply_fault_directives(directives, "pre", context)
                context["checkpoint_json"] = advance_resident(
                    task, resident, cache=cache, post=post)
                apply_fault_directives(directives, "post", context)
                apply_fault_directives(directives, "result", context)
            except Exception as exc:  # poison shard: report, keep serving
                post({"type": "error",
                      "error": f"{type(exc).__name__}: {exc}"})
                continue
            if context["drop"]:
                continue  # injected drop-result: supervisor recovers by deadline
            post({"type": "result",
                  "checkpoint_json": context["checkpoint_json"]})
    finally:
        stop.set()
