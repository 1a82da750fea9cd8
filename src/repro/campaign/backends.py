"""Pluggable execution backends: how an orchestrator advances its shards.

PR 1's orchestrator advanced every shard inline, single-threaded.  The
scheduling *policy* (batched round-robin on a shared virtual-time axis)
is unchanged, but the *mechanism* is now a backend behind the
:data:`BACKENDS` registry:

* :class:`SerialBackend` — the extracted in-process loops, behaviour
  identical to PR 1 bit for bit;
* :class:`ProcessPoolBackend` — ships each shard to a worker process as a
  :class:`~repro.campaign.checkpoint.CampaignCheckpoint`, runs the time
  slice remotely, and merges the returned checkpoints back into the
  orchestrator's sessions in deterministic label order at each slice
  frontier.  Shards share no mutable state, so per-shard results match
  the serial backend bit for bit; only wall-clock changes.
* :class:`SupervisedQueueBackend` — long-running worker processes, each
  with its own task queue, that keep their shards resident between
  slices: after a shard's first slice a task names only the slice, and
  the worker returns only what the slice changed.  Workers are
  supervised with heartbeats: a dead, hung, or silent worker is
  respawned and its shard re-dispatched as a full checkpoint captured
  from the orchestrator's copy (idempotent — the re-run slice merges
  bit-identically); a shard that keeps failing is quarantined instead
  of aborting the grid; when workers cannot be (re)spawned at all the
  supervisor degrades to in-process execution.
  Workers forward session events over a relay queue, so grid-wide
  subscribers on the orchestrator's bus observe remote iterations
  (re-emitted with ``remote=True``, ``shard=<label>``, and JSON-shaped
  payloads — see :mod:`repro.campaign.queue_worker`).

Both parallel backends share one recovery code path
(:class:`~repro.campaign.resilience.ShardRecovery` driven by a
:class:`~repro.campaign.resilience.FaultPolicy`) and accept a
:class:`~repro.campaign.resilience.FaultInjector` for reproducible chaos
testing.  With the pool backend, per-iteration events stay on the
worker's private bus (no relay); custom fuzzers/cores/instrumentations
registered by the parent are visible to workers on fork-capable
platforms (Linux); on spawn-only platforms workers know the built-ins
plus whatever registers at import time.
"""

import os
import queue
import time  # analyze: ignore[DET001] supervision deadlines/backoff; never feeds campaign state

from repro.campaign.checkpoint import CampaignCheckpoint, CheckpointError
from repro.campaign.queue_worker import execute_task, paused_gc, worker_main
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
# Process-pool backend
# ---------------------------------------------------------------------------
# One instrumentation cache per worker process: checkpoints restored for
# successive time slices of the same grid rebuild identical layouts, and
# layouts are read-only after construction (the same sharing property the
# orchestrator's own cache relies on).
_worker_cache = None


def _advance_shard(task):
    """Pool worker entry point: task in, advanced-checkpoint JSON out.

    Runs in a separate process; everything crossing the boundary is plain
    JSON-shaped data, so results cannot depend on pickling object graphs.
    Injected-fault directives are honoured at their stages (a pre-stage
    ``kill-worker`` hard-exits here, which the parent sees as a broken
    pool); a dropped result is reported as ``{"dropped": True}`` — the
    pool-shaped analogue of silence, since a future must resolve.
    """
    global _worker_cache
    if _worker_cache is None:
        from repro.campaign.cache import InstrumentationCache

        _worker_cache = InstrumentationCache()
    from repro.campaign.resilience import apply_fault_directives

    context = {"task": task, "drop": False, "checkpoint_json": None}
    directives = task.get("faults") or ()
    apply_fault_directives(directives, "pre", context)
    context["checkpoint_json"] = execute_task(task, cache=_worker_cache)
    apply_fault_directives(directives, "post", context)
    apply_fault_directives(directives, "result", context)
    if context["drop"]:
        return {"dropped": True}
    return {"checkpoint_json": context["checkpoint_json"]}


@register_backend("process-pool")
class ProcessPoolBackend(ExecutionBackend):
    """Advance shards in worker processes, merging at slice frontiers.

    Each shard travels as a ``(spec, state)`` checkpoint; the worker
    restores it, runs the slice, and returns the advanced checkpoint.
    Results are merged back into the orchestrator's sessions in label
    order, so reports, coverage series, and bus-milestone ordering are
    deterministic regardless of worker completion order.

    Failure handling shares the supervised backend's recovery path: a
    slice that times out (``policy.slice_timeout_s``), returns a corrupt
    checkpoint, or dies with its worker is re-dispatched from the same
    last-good checkpoint with deterministic backoff, up to
    ``policy.max_retries`` — then the shard is quarantined and the rest
    of the grid continues.  A broken pool is rebuilt in place.
    """

    name = "process-pool"

    def __init__(self, processes=None, mp_context=None, policy=None,
                 injector=None):
        self.processes = processes
        self._mp_context = mp_context
        self.policy = policy or FaultPolicy()
        self.injector = injector
        self._recovery = None

    def resilience_stats(self):
        """Retry/quarantine counters of the most recent run (None before
        any run); surfaced by ``orchestrator.report()``."""
        if self._recovery is None:
            return None
        stats = self._recovery.stats()
        if self.injector is not None:
            stats["faults"] = self.injector.stats()
        return stats

    def _make_pool(self, shard_count):
        from concurrent.futures import ProcessPoolExecutor

        context = _preferred_context(self._mp_context)
        workers = self.processes or min(shard_count,
                                        max(1, os.cpu_count() or 1))
        return ProcessPoolExecutor(max_workers=max(1, workers),
                                   mp_context=context)

    def _dispatch_and_merge(self, orchestrator, pool, tasks, recovery,
                            slice_index):
        """Submit one task per shard; retry/quarantine failures; merge
        survivors in label order.  Returns the (possibly rebuilt) pool."""
        from concurrent.futures.process import BrokenProcessPool

        pending = dict(tasks)
        merged = {}
        while pending:
            submitted = {}
            for label in sorted(pending):
                task = dict(pending[label])
                recovery.note("full_tasks")
                attempt = recovery.attempts_for(label, slice_index)
                task["attempt"] = attempt
                if self.injector is not None:
                    faults = self.injector.faults_for(
                        task["shard_index"], slice_index, attempt)
                    if faults:
                        task["faults"] = faults
                        recovery.note("faults_injected", len(faults))
                submitted[label] = pool.submit(_advance_shard, task)
            failed = []
            broken = False
            for label in sorted(submitted):
                future = submitted[label]
                if broken:
                    failed.append((label, "worker-lost"))
                    continue
                try:
                    result = future.result(timeout=self.policy.slice_timeout_s)
                    if result.get("dropped"):
                        recovery.note("dropped_results")
                        failed.append((label, "dropped-result"))
                        continue
                    advanced = CampaignCheckpoint.from_json(
                        result["checkpoint_json"])
                except CheckpointError:
                    recovery.note("corrupt_checkpoints")
                    failed.append((label, "corrupt-checkpoint"))
                except TimeoutError:
                    future.cancel()
                    recovery.note("timeouts")
                    failed.append((label, "timeout"))
                except BrokenProcessPool:
                    broken = True
                    failed.append((label, "worker-lost"))
                except Exception as exc:
                    recovery.note("worker_errors")
                    failed.append((label, f"worker-error: {exc}"))
                else:
                    merged[label] = advanced
                    pending.pop(label)
            if broken:
                recovery.worker_lost(worker_id=None)
                pool.shutdown(wait=False)
                pool = self._make_pool(len(orchestrator.sessions))
            for label, reason in failed:
                task = pending.get(label)
                if task is None:
                    continue
                action, backoff = recovery.record_failure(
                    label, slice_index=slice_index,
                    shard_index=task["shard_index"], reason=reason)
                if action == ShardRecovery.QUARANTINE:
                    pending.pop(label)
                elif backoff:
                    time.sleep(backoff)
        for label in orchestrator.labels:
            if label in merged:
                orchestrator.sessions[label].load_state(merged[label].state)
        return pool

    def run_for_virtual_time(self, orchestrator, budget_seconds,
                             max_iterations=None, slices=8):
        frontiers = _slice_frontiers(budget_seconds, slices)
        recovery = self._recovery = ShardRecovery(
            self.policy, bus=orchestrator.bus,
            health=_shard_health(orchestrator))
        pool = self._make_pool(len(orchestrator.sessions))
        try:
            for step, frontier in enumerate(frontiers, start=1):
                tasks = {
                    label: _full_task(_make_task(
                        label, shard_index, "run_for_virtual_time",
                        frontier=frontier, max_iterations=max_iterations),
                        session)
                    for label, shard_index, session in _eligible(
                        orchestrator, frontier, max_iterations)
                }
                pool = self._dispatch_and_merge(orchestrator, pool, tasks,
                                                recovery, step - 1)
                orchestrator.bus.milestone(
                    "time_slice", orchestrator=orchestrator,
                    frontier=frontier, step=step, slices=len(frontiers))
        finally:
            pool.shutdown()
        for label, session in orchestrator.sessions.items():
            orchestrator.bus.milestone("shard_done", orchestrator=orchestrator,
                                       shard=label, session=session)

    def run_iterations(self, orchestrator, count, batch=16):
        # Round-robin batching only matters for event interleaving inside
        # one process; across processes each shard runs its full budget in
        # one dispatch (identical results, one checkpoint round-trip).
        recovery = self._recovery = ShardRecovery(
            self.policy, bus=orchestrator.bus,
            health=_shard_health(orchestrator))
        pool = self._make_pool(len(orchestrator.sessions))
        try:
            tasks = {
                label: _full_task(_make_task(label, shard_index,
                                             "run_iterations", count=count),
                                  session)
                for label, shard_index, session in _eligible(
                    orchestrator, None, None)
            }
            self._dispatch_and_merge(orchestrator, pool, tasks, recovery, 0)
        finally:
            pool.shutdown()
        for label, session in orchestrator.sessions.items():
            orchestrator.bus.milestone("shard_done", orchestrator=orchestrator,
                                       shard=label, session=session)


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
    (after deterministic backoff) or quarantines the shard.  A worker's
    queue dies with it, and the supervisor knows which tasks it held: the
    one it was running is charged a failure, the ones queued behind it
    are re-dispatched uncharged.  Worker loss triggers a respawn into the
    same slot; when the respawn budget is exhausted or spawning fails
    outright, the supervisor emits ``degraded`` and falls back to
    in-process execution of the remaining tasks with full checkpoints —
    the same :func:`execute_task` path as the pool, so results stay
    bit-identical.
    """

    POLL_S = 0.05

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
        self._last_beat = {}   # worker_id -> monotonic seconds
        self._claims = {}      # worker_id -> task_id
        self._resident = {}    # label -> (worker_id, iterations) it holds
        self._stale = set()    # task_ids whose late results must be ignored
        self._next_task_id = 0
        self._next_worker_id = 0
        self._respawns = 0
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
        self._last_beat[worker_id] = time.monotonic()
        if None in self._slots:
            self._slots[self._slots.index(None)] = worker_id
        else:
            self._slots.append(worker_id)
        self.recovery.note("spawns")
        return True

    def _ensure_workers(self):
        """Respawn into vacated slots; drop a slot (degrading gracefully)
        when spawning fails."""
        while not self.inline and None in self._slots:
            if self._respawns >= self.policy.max_respawns:
                self._degrade("respawn budget exhausted")
                return
            self._respawns += 1
            self.recovery.note("respawns")
            if not self._spawn_worker():
                self._slots.remove(None)
                if not self._workers:
                    self._degrade("respawn kept failing")
                else:
                    self.recovery.degraded("respawn failed",
                                           workers_left=len(self._workers))
                return

    def _degrade(self, reason):
        """Fall back to in-process execution (the last resort: correctness
        is preserved — same execute_task path — at serial speed)."""
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
                            "worker": worker_id, "claimed_at": None,
                            "enqueued_at": time.monotonic()}
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
            delayed.append([time.monotonic(), template,
                            record["task"]["attempt"]])
            return
        action, backoff = self.recovery.record_failure(
            label, slice_index=slice_index,
            shard_index=template["shard_index"], reason=reason)
        if action == ShardRecovery.QUARANTINE:
            return
        attempt = self.recovery.attempts_for(label, slice_index)
        delayed.append([time.monotonic() + backoff, template, attempt])

    # -- supervision loop -------------------------------------------------------
    def execute_slice(self, slice_index, templates):
        """Run one slice frontier's tasks to completion (or quarantine);
        each result is applied to its orchestrator session on arrival."""
        pending = {}
        # [not_before, task template, attempt]; label order on dispatch.
        delayed = [[0.0, templates[label], 0] for label in sorted(templates)]
        now = time.monotonic()
        for worker_id in self._last_beat:
            self._last_beat[worker_id] = now  # we weren't listening between slices
        while pending or delayed:
            self._ensure_workers()
            if self.inline:
                for task_id, record in sorted(pending.items()):
                    self._stale.add(task_id)
                    self._run_inline(record["template"], slice_index)
                for _, template, _ in delayed:
                    self._run_inline(template, slice_index)
                break
            now = time.monotonic()
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
        """Degraded-mode execution: a full task run in this process (fault
        directives ignored: chaos targets workers)."""
        label = template["label"]
        if self.recovery.health.get(label) == "quarantined":
            return
        session = self.orchestrator.sessions[label]
        task = _full_task(template, session)
        task.pop("relay", None)
        while True:
            self.recovery.note("inline_tasks")
            try:
                advanced = CampaignCheckpoint.from_json(execute_task(
                    task, cache=self.orchestrator.cache,
                    bus=self.orchestrator.bus))
                session.load_state(advanced.state)
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
            self._last_beat[worker_id] = time.monotonic()
        mtype = message.get("type")
        if mtype == "heartbeat":
            return
        task_id = message.get("task_id")
        if mtype == "claim":
            record = pending.get(task_id)
            if record is not None:
                record["claimed_at"] = time.monotonic()
                self._claims[worker_id] = task_id
            return
        if task_id in self._stale or task_id not in pending:
            return  # late twin of a re-dispatched task; merges are idempotent
        record = pending[task_id]
        if self._claims.get(record["worker"]) == task_id:
            self._claims.pop(record["worker"], None)
        if mtype == "result":
            label = record["template"]["label"]
            session = self.orchestrator.sessions[label]
            try:
                with paused_gc():
                    delta = CampaignCheckpoint.from_json(
                        message["checkpoint_json"])
                    session.load_state(delta.state)
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
        now = time.monotonic()
        for worker_id, last in list(self._last_beat.items()):
            if now - last > self.policy.heartbeat_timeout_s:
                self.recovery.note("heartbeat_losses")
                self._terminate_worker(worker_id, pending, delayed,
                                       slice_index, "heartbeat-lost")

    def _check_deadlines(self, pending, delayed, slice_index):
        now = time.monotonic()
        timeout = self.policy.slice_timeout_s
        for task_id, record in list(pending.items()):
            if task_id not in pending:
                continue  # re-dispatched with a worker lost in this sweep
            started = record["claimed_at"] or record["enqueued_at"]
            if now - started <= timeout:
                continue
            self.recovery.note("timeouts")
            worker_id = record["worker"]
            if self._claims.get(worker_id) == task_id:
                # Whatever it is doing, it is not finishing this slice.
                self._terminate_worker(worker_id, pending, delayed,
                                       slice_index, "timeout")
            else:
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
