"""Pluggable execution backends: how an orchestrator advances its shards.

PR 1's orchestrator advanced every shard inline, single-threaded.  The
scheduling *policy* (batched round-robin on a shared virtual-time axis)
is unchanged, but the *mechanism* is now a backend behind the
:data:`BACKENDS` registry:

* :class:`SerialBackend` — the extracted in-process loops, behaviour
  identical to PR 1 bit for bit;
* :class:`SupervisedQueueBackend` — the parallel backend: long-running
  worker processes, each with its own task queue, that keep their shards
  resident between slices.  After a shard's first slice a task names
  only the slice, and the worker returns only what the slice changed,
  which the orchestrator's session applies in deterministic label order
  at each slice frontier.  Shards share no mutable state, so per-shard
  results match the serial backend bit for bit; only wall-clock changes.
  Workers are supervised with heartbeats: a dead, hung, or silent worker
  is respawned and its shard re-dispatched as a full checkpoint captured
  from the orchestrator's copy (idempotent — the re-run slice merges
  bit-identically); a shard that keeps failing is quarantined instead
  of aborting the grid; when workers cannot be (re)spawned at all the
  supervisor degrades to in-process execution.
  Workers forward session events over a relay queue, so grid-wide
  subscribers on the orchestrator's bus observe remote iterations
  (re-emitted with ``remote=True``, ``shard=<label>``, and JSON-shaped
  payloads — see :mod:`repro.campaign.queue_worker`).

Recovery runs through one code path
(:class:`~repro.campaign.resilience.ShardRecovery` driven by a
:class:`~repro.campaign.resilience.FaultPolicy`), and the backend accepts
a :class:`~repro.campaign.resilience.FaultInjector` for reproducible
chaos testing.  Custom fuzzers/cores/instrumentations registered by the
parent are visible to workers on fork-capable platforms (Linux); on
spawn-only platforms workers know the built-ins plus whatever registers
at import time.
"""

import os
import queue
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
    """How shards advance.  Backends receive the orchestrator and drive its
    sessions; they must preserve the invariant that each shard's results
    are identical to running that session alone for the same budget."""

    name = "base"

    def run_for_virtual_time(self, orchestrator, budget_seconds,
                             max_iterations=None, slices=8):
        raise NotImplementedError

    def run_iterations(self, orchestrator, count, batch=16):
        raise NotImplementedError


def _slice_frontiers(budget_seconds, slices):
    """The shared virtual-time frontiers; the last one is exactly the
    budget (no floating-point shortfall on the final slice)."""
    slices = max(1, int(slices))
    return [
        budget_seconds if step == slices else budget_seconds * step / slices
        for step in range(1, slices + 1)
    ]


def _shard_health(orchestrator):
    """The orchestrator's shard-health mapping (tolerates bare test
    doubles that predate it)."""
    return getattr(orchestrator, "shard_health", None)


def _eligible(orchestrator, frontier, max_iterations):
    """(label, shard_index, session) triples that still need this slice."""
    health = _shard_health(orchestrator) or {}
    rows = []
    for shard_index, (label, session) in enumerate(orchestrator.sessions.items()):
        if health.get(label) == "quarantined":
            continue
        if frontier is not None and session.clock.seconds >= frontier:
            continue  # already past: the worker would no-op
        if (max_iterations is not None
                and session.iterations >= max_iterations):
            continue
        rows.append((label, shard_index, session))
    return rows


def _make_task(label, shard_index, command, *, frontier=None,
               max_iterations=None, count=None, relay=()):
    """One shard-slice unit of work, as plain JSON-shaped data, without
    the shard's state (see :func:`_full_task`)."""
    task = {
        "label": label,
        "shard_index": shard_index,
        "command": command,
    }
    if relay:
        task["relay"] = list(relay)
    if command == "run_for_virtual_time":
        task["frontier"] = frontier
        task["max_iterations"] = max_iterations
    else:
        task["count"] = count
    return task


def _full_task(template, session):
    """``template`` plus the session's full checkpoint."""
    task = dict(template)
    task["checkpoint_json"] = CampaignCheckpoint.capture(session).to_json()
    return task


@register_backend("serial")
class SerialBackend(ExecutionBackend):
    """In-process batched round-robin (PR 1's inline loops, extracted)."""

    name = "serial"

    def run_for_virtual_time(self, orchestrator, budget_seconds,
                             max_iterations=None, slices=8):
        frontiers = _slice_frontiers(budget_seconds, slices)
        for step, frontier in enumerate(frontiers, start=1):
            for label, session in orchestrator.sessions.items():
                session.run_for_virtual_time(frontier,
                                             max_iterations=max_iterations)
            orchestrator.bus.milestone(
                "time_slice", orchestrator=orchestrator, frontier=frontier,
                step=step, slices=len(frontiers))
        for label, session in orchestrator.sessions.items():
            orchestrator.bus.milestone("shard_done", orchestrator=orchestrator,
                                       shard=label, session=session)

    def run_iterations(self, orchestrator, count, batch=16):
        remaining = {label: count for label in orchestrator.sessions}
        while any(remaining.values()):
            for label, session in orchestrator.sessions.items():
                for _ in range(min(batch, remaining[label])):
                    session.run_iteration()
                    remaining[label] -= 1
        for label, session in orchestrator.sessions.items():
            orchestrator.bus.milestone("shard_done", orchestrator=orchestrator,
                                       shard=label, session=session)


def _preferred_context(mp_context):
    """Fork where available: workers inherit third-party registry
    entries (custom fuzzers/cores/instrumentations)."""
    if mp_context is not None:
        return mp_context
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


# ---------------------------------------------------------------------------
# Supervised work-queue backend
# ---------------------------------------------------------------------------
class _Supervisor:
    """One backend run's worker fleet, queues, and supervision loop.

    **Affinity.**  Every worker has its own task queue, and shard *i* goes
    to the worker in slot *i* mod *W*, which keeps the shard's session
    resident between slices.  A shard's first task is *full*: it carries
    the checkpoint captured from the orchestrator's session.  While the
    shard stays resident on its worker at the session's iteration count,
    later tasks are *delta* tasks that name only the base iteration count
    and the slice.  Every result is a slice delta, which the
    orchestrator's session applies on arrival (``load_state`` checks its
    base and validates all of it first).  So that session is exact at
    every slice frontier, and it is the shard's last good checkpoint.

    **Recovery.**  The state machine per task: *dispatched* → *claimed*
    (worker announced pickup) → *result* | *error* | *timeout* | *worker
    lost*.  Every non-result outcome (a result whose delta does not parse
    or fit counts as a corrupt checkpoint) drops the shard's residency
    and routes through :meth:`ShardRecovery.record_failure`, which either
    re-dispatches a full task captured from the orchestrator's session
    (after deterministic backoff) or quarantines the shard.  A task's
    deadline starts when its worker claims it: waiting in a queue behind
    another shard's slice is not a failure.  Deadlines and heartbeat
    silence are measured in supervision time (:meth:`_now`), which does
    not count a host stall against the workers.  A worker's queue dies with
    it, and the supervisor knows which tasks it held: the one it was
    running is charged a failure, the ones queued behind it are
    re-dispatched uncharged.  Worker loss triggers a respawn into the
    same slot, and a slot whose respawn fails is dropped (its shards
    re-route to the remaining workers).  When the respawn budget is
    exhausted or no worker is left, the supervisor emits ``degraded``
    and runs the remaining tasks in-process: full tasks through the same
    :func:`~repro.campaign.queue_worker.advance_resident` as a worker,
    whose deltas are applied the same way, so results stay bit-identical.
    """

    POLL_S = 0.05
    MAX_GAP_S = 1.0  # see _now

    def __init__(self, backend, orchestrator):
        self.backend = backend
        self.orchestrator = orchestrator
        self.policy = backend.policy
        self.injector = backend.injector
        self.recovery = ShardRecovery(self.policy, bus=orchestrator.bus,
                                      health=_shard_health(orchestrator))
        self.inline = False
        self._context = None
        self._slots = []       # slot -> worker_id (None while vacant)
        self._workers = {}     # worker_id -> Process
        self._queues = {}      # worker_id -> its task queue
        self._last_beat = {}   # worker_id -> supervision seconds
        self._claims = {}      # worker_id -> task_id
        self._resident = {}    # label -> (worker_id, iterations) it holds
        self._stale = set()    # task_ids whose late results must be ignored
        self._next_task_id = 0
        self._next_worker_id = 0
        self._respawns = 0
        self._clock = 0.0      # supervision seconds (see _now)
        self._real = time.monotonic()  # the reading _clock last advanced to
        try:
            context = _preferred_context(backend._mp_context)
            self.result_queue = context.Queue()
            self.relay_queue = context.Queue(maxsize=4096)
            self._context = context
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
        """Start a worker with its own task queue in the first vacant slot
        (or a new one); returns whether it started."""
        try:
            worker_id = self._next_worker_id
            task_queue = self._context.Queue()
            process = self._context.Process(
                target=worker_main,
                args=(worker_id, task_queue, self.result_queue,
                      self.relay_queue),
                kwargs={"heartbeat_interval_s":
                        self.policy.heartbeat_interval_s},
                daemon=True, name=f"campaign-worker-{worker_id}")
            process.start()
        except Exception:
            self.recovery.note("respawn_failures")
            return False
        self._next_worker_id = worker_id + 1
        self._workers[worker_id] = process
        self._queues[worker_id] = task_queue
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
    def _dispatch(self, template, slice_index, attempt, pending):
        """Send one task to the worker its shard is routed to: a delta task
        while the shard is resident there at the orchestrator session's
        iteration count, a full task otherwise."""
        label = template["label"]
        session = self.orchestrator.sessions[label]
        worker_id = self._slots[template["shard_index"] % len(self._slots)]
        if self._resident.get(label) == (worker_id, session.iterations):
            task = dict(template, base_iterations=session.iterations)
            self.recovery.note("delta_tasks")
        else:
            task = _full_task(template, session)
            self.recovery.note("full_tasks")
        task_id = self._next_task_id
        self._next_task_id += 1
        task.update(task_id=task_id, attempt=attempt, slice_index=slice_index)
        if self.injector is not None:
            faults = self.injector.faults_for(task["shard_index"], slice_index,
                                              attempt)
            if faults:
                task["faults"] = faults
                self.recovery.note("faults_injected", len(faults))
        pending[task_id] = {"task": task, "template": template,
                            "worker": worker_id, "claimed_at": None}
        self._queues[worker_id].put(task)

    def _fail_task(self, task_id, pending, delayed, slice_index, reason,
                   charge=True):
        """Take a task out of flight and schedule its shard's retry (a full
        task: the shard is no longer resident anywhere).  ``charge=False``
        re-dispatches a task that never ran without counting a failure."""
        record = pending.pop(task_id, None)
        if record is None:
            return
        self._stale.add(task_id)
        template = record["template"]
        label = template["label"]
        self._resident.pop(label, None)
        if not charge:
            self.recovery.requeue(label, slice_index, reason)
            delayed.append([self._now(), template,
                            record["task"]["attempt"]])
            return
        action, backoff = self.recovery.record_failure(
            label, slice_index=slice_index,
            shard_index=template["shard_index"], reason=reason)
        if action == ShardRecovery.QUARANTINE:
            return
        attempt = self.recovery.attempts_for(label, slice_index)
        delayed.append([self._now() + backoff, template, attempt])

    # -- supervision loop -------------------------------------------------------
    def execute_slice(self, slice_index, templates):
        """Run one slice frontier's tasks to completion (or quarantine);
        each result is applied to its orchestrator session on arrival."""
        pending = {}
        # [not_before, task template, attempt]; label order on dispatch.
        delayed = [[0.0, templates[label], 0] for label in sorted(templates)]
        while pending or delayed:
            self._ensure_workers()
            if self.inline:
                for task_id, record in sorted(pending.items()):
                    self._stale.add(task_id)
                    self._run_inline(record["template"], slice_index)
                for _, template, _ in delayed:
                    self._run_inline(template, slice_index)
                break
            now = self._now()
            ready = [entry for entry in delayed if now >= entry[0]]
            if ready:
                delayed[:] = [entry for entry in delayed if now < entry[0]]
                for _, template, attempt in ready:
                    self._dispatch(template, slice_index, attempt, pending)
            self._drain_relay()
            self._pump_results(pending, delayed, slice_index)
            self._reap_workers(pending, delayed, slice_index)
            self._check_heartbeats(pending, delayed, slice_index)
            self._check_deadlines(pending, delayed, slice_index)
        self._drain_relay()

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
    def _pump_results(self, pending, delayed, slice_index):
        try:
            message = self.result_queue.get(timeout=self.POLL_S)
        except queue.Empty:
            return
        self._handle_message(message, pending, delayed, slice_index)
        while True:
            try:
                message = self.result_queue.get_nowait()
            except queue.Empty:
                return
            self._handle_message(message, pending, delayed, slice_index)

    def _handle_message(self, message, pending, delayed, slice_index):
        worker_id = message.get("worker")
        if worker_id is not None:
            self._last_beat[worker_id] = self._now()
        mtype = message.get("type")
        if mtype == "heartbeat":
            return
        task_id = message.get("task_id")
        if mtype == "claim":
            record = pending.get(task_id)
            if record is not None:
                record["claimed_at"] = self._now()
                self._claims[worker_id] = task_id
            return
        if task_id in self._stale or task_id not in pending:
            return  # late twin of a re-dispatched task; merges are idempotent
        record = pending[task_id]
        if self._claims.get(record["worker"]) == task_id:
            self._claims.pop(record["worker"], None)
        if mtype == "result":
            label = record["template"]["label"]
            try:
                session = self._apply_delta(label, message["checkpoint_json"])
            except CheckpointError:
                self.recovery.note("corrupt_checkpoints")
                self._fail_task(task_id, pending, delayed, slice_index,
                                "corrupt-checkpoint")
                return
            pending.pop(task_id)
            self._resident[label] = (record["worker"], session.iterations)
        elif mtype == "error":
            self.recovery.note("worker_errors")
            self._fail_task(task_id, pending, delayed, slice_index,
                            message.get("error", "worker-error"))

    # -- liveness ---------------------------------------------------------------
    def _lose_worker(self, worker_id, pending, delayed, slice_index,
                     reason="worker-lost"):
        """A worker died or was terminated: vacate its slot, close its
        queue, drop the residency of every shard it held, charge the task
        it was running with ``reason`` and re-dispatch the ones queued
        behind it uncharged."""
        process = self._workers.pop(worker_id)
        self._last_beat.pop(worker_id, None)
        self._slots[self._slots.index(worker_id)] = None
        task_queue = self._queues.pop(worker_id)
        task_queue.cancel_join_thread()
        task_queue.close()
        for label, (holder, _) in list(self._resident.items()):
            if holder == worker_id:
                del self._resident[label]
        held = sorted(task_id for task_id, record in pending.items()
                      if record["worker"] == worker_id)
        # The task it was running: the claimed one, or — when the claim
        # died with it — the oldest it held (its queue is FIFO).
        running = self._claims.pop(worker_id, None)
        if running not in held:
            running = held[0] if held else None
        label = (pending[running]["template"]["label"]
                 if running is not None else None)
        self.recovery.worker_lost(worker_id, label=label,
                                  exit_code=process.exitcode)
        for task_id in held:
            if task_id == running:
                self._fail_task(task_id, pending, delayed, slice_index, reason)
            else:
                self._fail_task(task_id, pending, delayed, slice_index,
                                "worker-lost-queued", charge=False)

    def _terminate_worker(self, worker_id, pending, delayed, slice_index,
                          reason):
        """Stop a worker the supervisor gave up on, and lose it at once so
        no retry is routed to it while it dies."""
        process = self._workers[worker_id]
        process.terminate()
        process.join(timeout=1.0)
        self._lose_worker(worker_id, pending, delayed, slice_index, reason)

    def _reap_workers(self, pending, delayed, slice_index):
        for worker_id, process in list(self._workers.items()):
            if not process.is_alive():
                process.join(timeout=0)
                self._lose_worker(worker_id, pending, delayed, slice_index)

    def _check_heartbeats(self, pending, delayed, slice_index):
        """A worker silent past the heartbeat deadline is presumed wedged
        (beats flow from a daemon thread even mid-slice) and terminated."""
        now = self._now()
        for worker_id, last in list(self._last_beat.items()):
            if now - last > self.policy.heartbeat_timeout_s:
                self.recovery.note("heartbeat_losses")
                self._terminate_worker(worker_id, pending, delayed,
                                       slice_index, "heartbeat-lost")

    def _check_deadlines(self, pending, delayed, slice_index):
        """A task times out ``slice_timeout_s`` after its worker claimed
        it.  A task still queued behind another shard's slice has no
        deadline of its own: its worker's liveness checks and the running
        task's deadline cover it."""
        now = self._now()
        timeout = self.policy.slice_timeout_s
        for task_id, record in list(pending.items()):
            if task_id not in pending:
                continue  # re-dispatched with a worker lost in this sweep
            claimed_at = record["claimed_at"]
            if claimed_at is None or now - claimed_at <= timeout:
                continue
            self.recovery.note("timeouts")
            worker_id = record["worker"]
            if self._claims.get(worker_id) == task_id:
                # Whatever it is doing, it is not finishing this slice.
                self._terminate_worker(worker_id, pending, delayed,
                                       slice_index, "timeout")
            else:
                # Its worker has moved on: the result was lost.
                self._fail_task(task_id, pending, delayed, slice_index,
                                "timeout")

    # -- event relay ------------------------------------------------------------
    def _drain_relay(self):
        if self._context is None:
            return
        bus = self.orchestrator.bus
        while True:
            try:
                message = self.relay_queue.get_nowait()
            except queue.Empty:
                return
            except (OSError, ValueError):
                return  # queue closed mid-shutdown
            payload = message.get("payload") or {}
            self.recovery.note("relay_events")
            bus.emit(message["event"], session=None, shard=message.get("shard"),
                     remote=True, **payload)

    # -- teardown ---------------------------------------------------------------
    def shutdown(self):
        if self._context is None:
            return
        for task_queue in self._queues.values():
            task_queue.put(None)
        deadline = time.monotonic() + 5.0
        for process in self._workers.values():
            process.join(timeout=max(0.0, deadline - time.monotonic()))
        for process in self._workers.values():
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        self._workers.clear()
        self._drain_relay()
        for open_queue in (*self._queues.values(), self.result_queue,
                           self.relay_queue):
            open_queue.cancel_join_thread()
            open_queue.close()
        self._queues.clear()


@register_backend("supervised-queue")
class SupervisedQueueBackend(ExecutionBackend):
    """Fault-tolerant work-queue execution with long-running workers.

    Shard-slice tasks stream over per-worker multiprocessing queues to a
    supervised worker fleet that keeps each shard resident, so after a
    shard's first slice only the slice's change crosses a process
    boundary (``report()["resilience"]["counters"]`` counts
    ``full_tasks`` and ``delta_tasks``).  Worker death, heartbeat loss,
    and slice timeouts are survived by respawning and re-dispatching the
    shard as a full checkpoint of the orchestrator's copy (bit-identical
    by construction), poison shards are quarantined instead of aborting
    the grid, and session events are relayed back so grid-wide
    subscribers observe remote iterations.  ``relay_events`` selects which event
    topics are forwarded (only topics with subscribers on the
    orchestrator's bus at dispatch time are shipped)."""

    name = "supervised-queue"

    RELAY_EVENTS = ("iteration", "new_coverage", "mismatch", "milestone")

    def __init__(self, workers=None, policy=None, injector=None,
                 mp_context=None, relay_events=RELAY_EVENTS):
        self.workers = workers
        self.policy = policy or FaultPolicy()
        self.injector = injector
        self._mp_context = mp_context
        self.relay_events = tuple(relay_events)
        self._recovery = None

    def resilience_stats(self):
        """Retry/redispatch/quarantine counters of the most recent run
        (None before any run); surfaced by ``orchestrator.report()``."""
        if self._recovery is None:
            return None
        stats = self._recovery.stats()
        if self.injector is not None:
            stats["faults"] = self.injector.stats()
        return stats

    def _relay_wanted(self, orchestrator):
        return tuple(event for event in self.relay_events
                     if orchestrator.bus.has_subscribers(event))

    def run_for_virtual_time(self, orchestrator, budget_seconds,
                             max_iterations=None, slices=8):
        frontiers = _slice_frontiers(budget_seconds, slices)
        supervisor = _Supervisor(self, orchestrator)
        self._recovery = supervisor.recovery
        relay = self._relay_wanted(orchestrator)
        try:
            for step, frontier in enumerate(frontiers, start=1):
                templates = {
                    label: _make_task(label, shard_index,
                                      "run_for_virtual_time",
                                      frontier=frontier,
                                      max_iterations=max_iterations,
                                      relay=relay)
                    for label, shard_index, _ in _eligible(
                        orchestrator, frontier, max_iterations)
                }
                supervisor.execute_slice(step - 1, templates)
                orchestrator.bus.milestone(
                    "time_slice", orchestrator=orchestrator,
                    frontier=frontier, step=step, slices=len(frontiers))
        finally:
            supervisor.shutdown()
        for label, session in orchestrator.sessions.items():
            orchestrator.bus.milestone("shard_done", orchestrator=orchestrator,
                                       shard=label, session=session)

    def run_iterations(self, orchestrator, count, batch=16):
        supervisor = _Supervisor(self, orchestrator)
        self._recovery = supervisor.recovery
        relay = self._relay_wanted(orchestrator)
        try:
            templates = {
                label: _make_task(label, shard_index, "run_iterations",
                                  count=count, relay=relay)
                for label, shard_index, _ in _eligible(
                    orchestrator, None, None)
            }
            supervisor.execute_slice(0, templates)
        finally:
            supervisor.shutdown()
        for label, session in orchestrator.sessions.items():
            orchestrator.bus.milestone("shard_done", orchestrator=orchestrator,
                                       shard=label, session=session)
