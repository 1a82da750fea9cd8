"""Pluggable execution backends: how one slice of a grid runs.

The orchestrator owns the schedule.  It cuts a run into slices and hands
each slice to its backend as a ``{label: stop}`` map of plain data: a
shard's stop is ``{"until": virtual seconds, "max_iterations": an
absolute iteration count or None}``, and the shard runs until its clock
reaches ``until`` or its history reaches ``max_iterations``, whichever
comes first (``until`` is ``inf`` when only the count bounds a slice).
How a slice runs is the backend's, behind the :data:`BACKENDS` registry:

* :class:`SerialBackend` — the shards' sessions, in-process, one after
  another;
* :class:`SupervisedQueueBackend` — the parallel backend: long-running
  worker processes, each with one duplex pipe of its own and at most one
  task at a time, that keep their shards resident between slices.  After
  a shard's first slice a task names only the slice, and the worker
  returns only what the slice changed, which the orchestrator's session
  applies at each slice frontier.  Shards share no mutable state, so
  per-shard results match the serial backend bit for bit; only
  wall-clock changes.  Workers are supervised with heartbeats: a dead,
  hung, or silent worker is respawned and its shard re-dispatched as a
  full checkpoint captured from the orchestrator's copy (idempotent —
  the re-run slice merges bit-identically); a shard that keeps failing
  is quarantined instead of aborting the grid; when workers cannot be
  (re)spawned at all the supervisor degrades to in-process execution.
  Workers forward session events over their pipe, ahead of the slice's
  result, so grid-wide subscribers on the orchestrator's bus observe
  remote iterations (re-emitted with ``remote=True``, ``shard=<label>``,
  and JSON-shaped payloads — see :mod:`repro.campaign.queue_worker`).

Recovery runs through one code path
(:class:`~repro.campaign.resilience.ShardRecovery` driven by a
:class:`~repro.campaign.resilience.FaultPolicy`), and the backend accepts
a :class:`~repro.campaign.resilience.FaultInjector` for reproducible
chaos testing.  Custom fuzzers/cores/instrumentations registered by the
parent are visible to workers on fork-capable platforms (Linux); on
spawn-only platforms workers know the built-ins plus whatever registers
at import time.
"""

import contextlib
import os
import time  # analyze: ignore[DET001] supervision deadlines/backoff; never feeds campaign state

from repro.campaign.checkpoint import CampaignCheckpoint, CheckpointError
from repro.campaign.queue_worker import advance_resident, paused_gc, worker_main
from repro.campaign.resilience import FaultPolicy, ShardRecovery
from repro.registry import Registry

BACKENDS = Registry("execution backend")


def register_backend(name, backend_class=None, replace=False):
    """Register an :class:`ExecutionBackend` class; usable directly or as
    a class decorator."""
    return BACKENDS.register(name, backend_class, replace=replace)


def resolve_backend(backend):
    """Normalize ``backend`` (None / name / class / instance) to an instance."""
    if backend is None:
        backend = "serial"
    if isinstance(backend, str):
        backend = BACKENDS.get(backend)
    if isinstance(backend, type):
        backend = backend()
    return backend


class ExecutionBackend:
    """How the shards of a slice advance.

    :meth:`start` begins one orchestrator call's run over its shards and
    returns the run: ``run.execute_slice(slice_index, stops)`` advances
    each shard of ``stops`` to its stop, and ``run.close()``, which the
    orchestrator calls however the run ends, releases what the run holds.
    A backend must preserve the invariant that each shard's results are
    identical to running that session alone to the same stops."""

    name = "base"

    def start(self, orchestrator):
        raise NotImplementedError


def _full_task(template, session):
    """``template`` plus the session's full checkpoint."""
    task = dict(template)
    task["checkpoint_json"] = CampaignCheckpoint.capture(session).to_json()
    return task


class _SerialRun:
    """A serial run: a slice's shards advance in-process, in label order."""

    def __init__(self, sessions):
        self.sessions = sessions

    def execute_slice(self, slice_index, stops):
        for label, stop in stops.items():
            self.sessions[label].run_for_virtual_time(
                stop["until"], max_iterations=stop["max_iterations"])

    def close(self):
        """A serial run holds nothing."""


@register_backend("serial")
class SerialBackend(ExecutionBackend):
    """In-process execution, one shard after another."""

    name = "serial"

    def start(self, orchestrator):
        return _SerialRun(orchestrator.sessions)


def _preferred_context():
    """Fork where available: workers inherit third-party registry
    entries (custom fuzzers/cores/instrumentations)."""
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


# ---------------------------------------------------------------------------
# Supervised work-queue backend
# ---------------------------------------------------------------------------
class _Supervisor:
    """One orchestrator call's worker fleet, pipes, and supervision loop:
    the run :meth:`SupervisedQueueBackend.start` returns.

    **Affinity.**  Every worker has one duplex pipe of its own and holds
    at most one task.  Shard *i* goes to the worker in slot *i* mod *W*,
    which keeps the shard's session resident between slices; a task for
    a busy worker waits in the supervisor, in label order.  A shard's
    first task is *full*: it carries the checkpoint captured from the
    orchestrator's session.  While the shard stays resident on its
    worker at the session's iteration count, later tasks are *delta*
    tasks that name only the base iteration count and the stop.  Every
    result is a slice delta, which the orchestrator's session applies on
    arrival (``load_state`` checks its base and validates all of it
    first).  So that session is exact at every slice frontier, and it is
    the shard's last good checkpoint.

    **Recovery.**  The state machine per task: *sent* → *result* |
    *error* | *timeout* | *worker lost*.  Every non-result outcome (a
    result whose delta does not parse or fit counts as a corrupt
    checkpoint) drops the shard's residency and routes through
    :meth:`ShardRecovery.record_failure`, which either re-dispatches a
    full task captured from the orchestrator's session (after
    deterministic backoff) or quarantines the shard.  A task's deadline
    starts when it is sent.  Deadlines and heartbeat silence are
    measured in supervision time (:meth:`_now`), which does not count a
    host stall against the workers.  A worker's death reads as
    end-of-file on its pipe (the worker holds the only other copy of its
    end), and a worker that blows a deadline or falls silent is
    terminated; either way it is charged for exactly the task it held.
    Worker loss triggers a respawn into the same slot, and a slot whose
    respawn fails is dropped (its shards re-route to the remaining
    workers).  When the respawn budget is exhausted or no worker is
    left, the supervisor emits ``degraded`` and runs the remaining tasks
    in-process: full tasks through the same
    :func:`~repro.campaign.queue_worker.advance_resident` as a worker,
    whose deltas are applied the same way, so results stay bit-identical.
    """

    POLL_S = 0.05
    MAX_GAP_S = 1.0  # see _now

    def __init__(self, backend, orchestrator):
        self.orchestrator = orchestrator
        self.policy = backend.policy
        self.injector = backend.injector
        self.recovery = ShardRecovery(self.policy, bus=orchestrator.bus,
                                      health=orchestrator.shard_health)
        if backend._recovery is not None:
            # Counters and last errors run over every call the backend
            # has started; attempt counts stay per call, whose slice
            # indices restart at 0.
            self.recovery.counters.update(backend._recovery.counters)
            self.recovery.last_error.update(backend._recovery.last_error)
        self.shard_index = {label: index for index, label
                            in enumerate(orchestrator.sessions)}
        self.relay = [event for event in backend.RELAY_EVENTS
                      if orchestrator.bus.has_subscribers(event)]
        self.inline = False
        self._slots = []       # slot -> worker_id (None while vacant)
        self._workers = {}     # worker_id -> Process
        self._conns = {}       # worker_id -> the supervisor's end of its pipe
        self._last_beat = {}   # worker_id -> supervision seconds
        self._resident = {}    # label -> (worker_id, iterations) it holds
        self._next_worker_id = 0
        self._respawns = 0
        self._clock = 0.0      # supervision seconds (see _now)
        self._real = time.monotonic()  # the reading _clock last advanced to
        try:
            self._context = _preferred_context()
        except Exception as exc:
            self._degrade(f"multiprocessing unavailable: {exc}")
            return
        shard_count = len(orchestrator.sessions)
        target = backend.workers or min(shard_count,
                                        max(1, os.cpu_count() or 1))
        for _ in range(max(1, target)):
            if not self._spawn_worker():
                break
        if not self._workers:
            self._degrade("no workers could be spawned")

    def _now(self):
        """Supervision time in seconds: the monotonic clock, with every gap
        between two readings counted as at most ``MAX_GAP_S``.  The loop
        reads the clock about every ``POLL_S``, so a longer gap means this
        process was not running; on a host stall the workers were frozen
        too, and the stall must not count as their silence or against
        their task deadlines."""
        real = time.monotonic()
        self._clock += min(real - self._real, self.MAX_GAP_S)
        self._real = real
        return self._clock

    # -- fleet ------------------------------------------------------------------
    def _spawn_worker(self):
        """Start a worker with a pipe of its own in the first vacant slot
        (or a new one); returns whether it started."""
        worker_id = self._next_worker_id
        ends = ()
        try:
            ends = self._context.Pipe()
            process = self._context.Process(
                target=worker_main,
                args=(ends[1], self.policy.heartbeat_interval_s),
                daemon=True, name=f"campaign-worker-{worker_id}")
            process.start()
        except Exception:
            for end in ends:
                end.close()
            self.recovery.note("respawn_failures")
            return False
        ends[1].close()  # now the worker's exit reads as end-of-file
        self._next_worker_id = worker_id + 1
        self._workers[worker_id] = process
        self._conns[worker_id] = ends[0]
        self._last_beat[worker_id] = self._now()
        if None in self._slots:
            self._slots[self._slots.index(None)] = worker_id
        else:
            self._slots.append(worker_id)
        self.recovery.note("spawns")
        return True

    def _ensure_workers(self):
        """Respawn into every vacated slot; drop each slot whose respawn
        fails (degrading gracefully), so no slot is left vacant."""
        while not self.inline and None in self._slots:
            if self._respawns >= self.policy.max_respawns:
                self._degrade("respawn budget exhausted")
                return
            self._respawns += 1
            self.recovery.note("respawns")
            if self._spawn_worker():
                continue
            self._slots.remove(None)
            if not self._workers:
                self._degrade("respawn kept failing")
            else:
                self.recovery.degraded("respawn failed",
                                       workers_left=len(self._workers))

    def _degrade(self, reason):
        """Fall back to in-process execution (the last resort: correctness
        is preserved — same worker-side function — at serial speed)."""
        self.inline = True
        self.recovery.degraded(reason, workers_left=len(self._workers))

    # -- dispatch ---------------------------------------------------------------
    def _dispatch(self, worker_id, template, slice_index, attempt, pending):
        """Send one task to the idle worker its shard is routed to: a delta
        task while the shard is resident there at the orchestrator
        session's iteration count, a full task otherwise."""
        label = template["label"]
        session = self.orchestrator.sessions[label]
        if self._resident.get(label) == (worker_id, session.iterations):
            task = dict(template, base_iterations=session.iterations)
            self.recovery.note("delta_tasks")
        else:
            task = _full_task(template, session)
            self.recovery.note("full_tasks")
        if self.injector is not None:
            faults = self.injector.faults_for(task["shard_index"], slice_index,
                                              attempt)
            if faults:
                task["faults"] = faults
                self.recovery.note("faults_injected", len(faults))
        # A worker that died unnoticed refuses the send; the end-of-file
        # on its pipe then loses it, and this task with it.
        with contextlib.suppress(OSError):
            self._conns[worker_id].send(task)
        pending[worker_id] = {"template": template, "sent_at": self._now()}

    def _fail_task(self, template, delayed, slice_index, reason):
        """Schedule the retry of a task that failed (a full task: the
        shard is no longer resident anywhere), or quarantine its shard."""
        label = template["label"]
        self._resident.pop(label, None)
        action, backoff = self.recovery.record_failure(
            label, slice_index=slice_index,
            shard_index=template["shard_index"], reason=reason)
        if action == ShardRecovery.QUARANTINE:
            return
        attempt = self.recovery.attempts_for(label, slice_index)
        delayed[label] = (self._now() + backoff, template, attempt)

    # -- supervision loop -------------------------------------------------------
    def execute_slice(self, slice_index, stops):
        """Run one slice's tasks, a shard and its stop each, to completion
        (or quarantine); each result is applied to its orchestrator
        session on arrival."""
        pending = {}  # worker_id -> {template, sent_at}: its one task
        delayed = {}  # label -> (not_before, task template, attempt)
        for label, stop in stops.items():
            # A task without the shard's state (see _full_task), as plain
            # JSON-shaped data.
            template = {"label": label, "shard_index": self.shard_index[label],
                        "stop": stop}
            if self.relay:
                template["relay"] = self.relay
            delayed[label] = (0.0, template, 0)
        while pending or delayed:
            self._ensure_workers()
            if self.inline:
                for record in pending.values():
                    self._run_inline(record["template"], slice_index)
                for label in sorted(delayed):
                    self._run_inline(delayed[label][1], slice_index)
                break
            now = self._now()
            for label in sorted(delayed):
                not_before, template, attempt = delayed[label]
                worker_id = self._slots[
                    template["shard_index"] % len(self._slots)]
                if now >= not_before and worker_id not in pending:
                    del delayed[label]
                    self._dispatch(worker_id, template, slice_index, attempt,
                                   pending)
            self._pump(pending, delayed, slice_index)
            self._check_heartbeats(pending, delayed, slice_index)
            self._check_deadlines(pending, delayed, slice_index)

    def _run_inline(self, template, slice_index):
        """Degraded-mode execution: a full task run in this process on the
        orchestrator's cache and bus (fault directives ignored: chaos
        targets workers), its delta applied like a worker's result."""
        label = template["label"]
        if self.recovery.health.get(label) == "quarantined":
            return
        task = _full_task(template, self.orchestrator.sessions[label])
        while True:
            self.recovery.note("inline_tasks")
            try:
                self._apply_delta(label, advance_resident(
                    task, {}, cache=self.orchestrator.cache,
                    bus=self.orchestrator.bus))
                break
            except Exception as exc:
                action, backoff = self.recovery.record_failure(
                    label, slice_index=slice_index,
                    shard_index=task["shard_index"],
                    reason=f"inline-error: {exc}")
                if action == ShardRecovery.QUARANTINE:
                    break
                if backoff:
                    time.sleep(backoff)

    def _apply_delta(self, label, checkpoint_json):
        """Apply a slice delta to the shard's orchestrator session and
        return that session; a delta that does not parse or fit raises
        :class:`CheckpointError` and leaves the session unchanged."""
        session = self.orchestrator.sessions[label]
        with paused_gc():
            delta = CampaignCheckpoint.from_json(checkpoint_json)
            session.load_state(delta.state)
        return session

    # -- message handling -------------------------------------------------------
    def _pump(self, pending, delayed, slice_index):
        """Handle every message the workers have sent, waiting up to
        ``POLL_S`` for the first; a pipe at end-of-file (or cut off
        mid-message) loses its worker."""
        from multiprocessing.connection import wait

        workers = {conn: worker_id for worker_id, conn in self._conns.items()}
        for conn in wait(list(workers), timeout=self.POLL_S):
            worker_id = workers[conn]
            while conn.poll():
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    self._lose_worker(worker_id, pending, delayed,
                                      slice_index, "worker-lost")
                    break
                self._handle_message(worker_id, message, pending, delayed,
                                     slice_index)

    def _handle_message(self, worker_id, message, pending, delayed,
                        slice_index):
        self._last_beat[worker_id] = self._now()
        mtype = message["type"]
        if mtype == "heartbeat":
            return
        if mtype == "event":
            self.recovery.note("relay_events")
            self.orchestrator.bus.emit(
                message["event"], session=None, shard=message["shard"],
                remote=True, **message["payload"])
            return
        template = pending.pop(worker_id)["template"]
        if mtype == "result":
            label = template["label"]
            try:
                session = self._apply_delta(label, message["checkpoint_json"])
            except CheckpointError:
                self.recovery.note("corrupt_checkpoints")
                self._fail_task(template, delayed, slice_index,
                                "corrupt-checkpoint")
                return
            self._resident[label] = (worker_id, session.iterations)
        elif mtype == "error":
            self.recovery.note("worker_errors")
            self._fail_task(template, delayed, slice_index, message["error"])

    # -- liveness ---------------------------------------------------------------
    def _lose_worker(self, worker_id, pending, delayed, slice_index, reason):
        """A worker died, or the supervisor gave up on it: stop it, close
        its pipe, vacate its slot, drop the residency of every shard it
        held, and charge the task it held with ``reason``."""
        process = self._workers.pop(worker_id)
        if process.is_alive():
            process.terminate()
        process.join(timeout=1.0)
        self._conns.pop(worker_id).close()
        self._last_beat.pop(worker_id, None)
        self._slots[self._slots.index(worker_id)] = None
        for label, (holder, _) in list(self._resident.items()):
            if holder == worker_id:
                del self._resident[label]
        record = pending.pop(worker_id, None)
        label = record["template"]["label"] if record is not None else None
        self.recovery.worker_lost(worker_id, label=label,
                                  exit_code=process.exitcode)
        if record is not None:
            self._fail_task(record["template"], delayed, slice_index, reason)

    def _check_heartbeats(self, pending, delayed, slice_index):
        """A worker silent past the heartbeat deadline, with nothing unread
        on its pipe, is presumed wedged (beats flow from a daemon thread
        even mid-slice) and terminated."""
        now = self._now()
        for worker_id, last in list(self._last_beat.items()):
            if (now - last > self.policy.heartbeat_timeout_s
                    and not self._conns[worker_id].poll()):
                self.recovery.note("heartbeat_losses")
                self._lose_worker(worker_id, pending, delayed, slice_index,
                                  "heartbeat-lost")

    def _check_deadlines(self, pending, delayed, slice_index):
        """A task times out ``slice_timeout_s`` after it was sent, unless
        its worker's pipe holds unread messages; whatever the worker is
        doing, it is not finishing this slice."""
        now = self._now()
        for worker_id, record in list(pending.items()):
            if (now - record["sent_at"] > self.policy.slice_timeout_s
                    and not self._conns[worker_id].poll()):
                self.recovery.note("timeouts")
                self._lose_worker(worker_id, pending, delayed, slice_index,
                                  "timeout")

    # -- teardown ---------------------------------------------------------------
    def close(self):
        for conn in self._conns.values():
            with contextlib.suppress(OSError):
                conn.send(None)
        deadline = time.monotonic() + 5.0
        for process in self._workers.values():
            process.join(timeout=max(0.0, deadline - time.monotonic()))
        for process in self._workers.values():
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        for conn in self._conns.values():
            conn.close()
        self._workers.clear()
        self._conns.clear()


@register_backend("supervised-queue")
class SupervisedQueueBackend(ExecutionBackend):
    """Fault-tolerant work-queue execution with long-running workers.

    Shard-slice tasks go over a per-worker pipe, one at a time, to a
    supervised worker fleet that keeps each shard resident, so after a
    shard's first slice only the slice's change crosses a process
    boundary (``report()["resilience"]["counters"]`` counts
    ``full_tasks`` and ``delta_tasks``).  Worker death, heartbeat loss,
    and slice timeouts are survived by respawning and re-dispatching the
    shard as a full checkpoint of the orchestrator's copy (bit-identical
    by construction), poison shards are quarantined instead of aborting
    the grid, and session events are relayed back so grid-wide
    subscribers observe remote iterations.  Of :data:`RELAY_EVENTS`,
    only topics with subscribers on the orchestrator's bus when a run
    starts are shipped."""

    name = "supervised-queue"

    RELAY_EVENTS = ("iteration", "new_coverage", "mismatch", "milestone")

    def __init__(self, workers=None, policy=None, injector=None):
        self.workers = workers
        self.policy = policy or FaultPolicy()
        self.injector = injector
        self._recovery = None

    def resilience_stats(self):
        """Retry/redispatch/quarantine counters over every run this
        backend has started, with each shard's latest failure reason
        (None before any run); surfaced by ``orchestrator.report()``."""
        if self._recovery is None:
            return None
        stats = self._recovery.stats()
        if self.injector is not None:
            stats["faults"] = self.injector.stats()
        return stats

    def start(self, orchestrator):
        supervisor = _Supervisor(self, orchestrator)
        self._recovery = supervisor.recovery
        return supervisor
