"""Fault tolerance: policy, deterministic chaos, recovery, atomic saves.

The backend tests follow the repo's bit-identity discipline: every
chaos run (injected kills, delays, drops, corrupt checkpoints) must
produce coverage series, shard stats, per-session campaign reports, and
each shard's full ``state_dict()`` identical to an undisturbed serial
run — recovery may cost wall-clock, never results.
"""

import json
import sys
import time
from types import SimpleNamespace

import pytest

from repro.campaign import (
    CampaignCheckpoint,
    CampaignOrchestrator,
    CampaignSpec,
    CheckpointError,
    EventBus,
    FaultInjector,
    FaultPolicy,
    ShardRecovery,
    SupervisedQueueBackend,
    build_session,
    campaign_report,
    register_fault,
)
from repro.campaign.backends import _make_task, _Supervisor
from repro.campaign.queue_worker import advance_resident
from repro.campaign.resilience import KILL_WORKER_EXIT_CODE

SMALL = {"instructions_per_iteration": 150}


def small_spec(**options):
    merged = dict(SMALL)
    merged.update(options)
    return CampaignSpec().with_fuzzer("turbofuzz", **merged)


def two_shard_specs():
    return [small_spec(seed=11).named("a"), small_spec(seed=22).named("b")]


# Three slices of about ten iterations per shard: every shard works in
# every slice, so later slices run as delta tasks on resident shards.
SLICES = 3


def run_grid(orchestrator):
    orchestrator.run_for_virtual_time(0.03, max_iterations=40, slices=SLICES)
    return orchestrator


def serial_reference(specs):
    return run_grid(CampaignOrchestrator(specs))


def shard_states(orchestrator):
    return {label: session.state_dict()
            for label, session in orchestrator.sessions.items()}


def assert_bit_identical(serial, other):
    assert other.coverage_series() == serial.coverage_series()
    assert other.shard_stats() == serial.shard_stats()
    assert shard_states(other) == shard_states(serial)
    for label in serial.labels:
        assert (campaign_report(other.sessions[label])
                == campaign_report(serial.sessions[label]))


@register_fault("explode", replace=True)
class ExplodeFault:
    """Test-only fault: raises inside the worker's task handling, driving
    the error-message path (poison shard must not kill the worker)."""

    stage = "pre"

    def apply(self, context):
        raise RuntimeError("injected explosion")


@register_fault("wedge", replace=True)
class WedgeFault:
    """Test-only fault: spin holding the interpreter lock, so the worker's
    heartbeat thread falls silent while its process stays alive.  The
    short sleep first lets the claim message flush, as ``kill-worker``
    does, so the queue's feeder thread is not starved mid-write."""

    stage = "pre"

    def apply(self, context):
        time.sleep(0.05)
        sys.setswitchinterval(1000.0)
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            pass


class TestFaultPolicy:
    def test_backoff_is_deterministic_and_capped(self):
        policy = FaultPolicy(backoff_base_s=0.1, backoff_factor=2.0,
                             backoff_max_s=0.5, jitter_seed=99)
        series = [policy.backoff_s(attempt, shard_index=3)
                  for attempt in range(1, 6)]
        again = [FaultPolicy(backoff_base_s=0.1, backoff_factor=2.0,
                             backoff_max_s=0.5, jitter_seed=99)
                 .backoff_s(attempt, shard_index=3)
                 for attempt in range(1, 6)]
        assert series == again
        # Exponential up to the cap, jitter bounded at +25%.
        assert series[0] >= 0.1
        assert all(delay <= 0.5 * 1.25 for delay in series)
        assert policy.backoff_s(0) == 0.0

    def test_jitter_varies_by_shard_and_attempt(self):
        policy = FaultPolicy(backoff_base_s=1.0, backoff_factor=1.0,
                             backoff_max_s=1.0)
        delays = {policy.backoff_s(attempt, shard_index=shard)
                  for shard in range(4) for attempt in (1, 2)}
        assert len(delays) > 1

    def test_round_trips_through_dict(self):
        policy = FaultPolicy(slice_timeout_s=7.5, max_retries=5,
                             quarantine_after=9)
        assert FaultPolicy.from_dict(policy.to_dict()) == policy


class TestFaultInjector:
    def test_same_seed_same_plan(self):
        rates = {"kill-worker": (1, 4), "drop-result": (1, 8)}
        plan_a = FaultInjector(seed=5, rates=rates).plan(4, 6)
        plan_b = FaultInjector(seed=5, rates=rates).plan(4, 6)
        assert plan_a == plan_b
        assert plan_a  # a 1/4 rate over 24 cells fires at least once
        assert FaultInjector(seed=6, rates=rates).plan(4, 6) != plan_a

    def test_plan_is_pure_and_matches_faults_for(self):
        injector = FaultInjector(seed=5, rates={"kill-worker": (1, 2)})
        plan = injector.plan(3, 3)
        assert injector.injected == 0  # planning never counts
        fired = [
            (slice_index, shard_index, directive["kind"])
            for slice_index in range(3)
            for shard_index in range(3)
            for directive in injector.faults_for(shard_index, slice_index)
        ]
        assert sorted(fired) == plan
        assert injector.injected == len(plan)

    def test_explicit_schedule_and_params(self):
        injector = FaultInjector(
            schedule=[("delay-result", 1, 0)],
            params={"delay-result": {"seconds": 0.01}})
        assert injector.faults_for(0, 0) == []
        assert injector.faults_for(1, 0) == [
            {"kind": "delay-result", "seconds": 0.01}]

    def test_retries_run_fault_free_unless_repeat(self):
        schedule = [("kill-worker", 0, 0)]
        injector = FaultInjector(schedule=schedule)
        assert injector.faults_for(0, 0, attempt=0)
        assert injector.faults_for(0, 0, attempt=1) == []
        repeating = FaultInjector(schedule=schedule, repeat=True)
        assert repeating.faults_for(0, 0, attempt=3)

    def test_unknown_fault_kind_rejected_early(self):
        with pytest.raises(ValueError, match="unknown injected fault"):
            FaultInjector(rates={"melt-cpu": (1, 2)})


class TestShardRecovery:
    def test_retry_then_quarantine_with_events(self):
        bus = EventBus()
        seen = []
        bus.on_redispatch(lambda **p: seen.append(("redispatch", p)))
        bus.on_quarantine(lambda **p: seen.append(("quarantine", p)))
        health = {"a": "ok"}
        recovery = ShardRecovery(FaultPolicy(max_retries=2, backoff_base_s=0.0),
                                 bus=bus, health=health)
        actions = [recovery.record_failure("a", slice_index=0, reason="boom")[0]
                   for _ in range(3)]
        assert actions == [ShardRecovery.RETRY, ShardRecovery.RETRY,
                           ShardRecovery.QUARANTINE]
        assert health["a"] == "quarantined"
        assert [kind for kind, _ in seen] == ["redispatch", "redispatch",
                                              "quarantine"]
        assert seen[-1][1]["reason"] == "boom"
        stats = recovery.stats()
        assert stats["counters"]["failures"] == 3
        assert stats["counters"]["quarantines"] == 1
        assert stats["quarantined"] == ["a"]
        assert stats["last_error"] == {"a": "boom"}

    def test_quarantine_after_total_failures_across_slices(self):
        recovery = ShardRecovery(
            FaultPolicy(max_retries=10, quarantine_after=3, backoff_base_s=0.0))
        actions = [recovery.record_failure("a", slice_index=index)[0]
                   for index in range(3)]  # one failure per distinct slice
        assert actions[-1] == ShardRecovery.QUARANTINE

    def test_requeue_does_not_charge_a_failure(self):
        bus = EventBus()
        recovery = ShardRecovery(FaultPolicy(), bus=bus)
        recovery.requeue("a", 0, "worker-lost-unclaimed")
        assert recovery.counters.failures == 0
        assert recovery.counters.redispatches == 1
        assert recovery.attempts_for("a", 0) == 0
        assert bus.emitted["redispatch"] == 1

    def test_worker_lost_and_degraded_events(self):
        bus = EventBus()
        seen = []
        bus.on_worker_lost(lambda **p: seen.append(p))
        bus.on_degraded(lambda **p: seen.append(p))
        recovery = ShardRecovery(FaultPolicy(), bus=bus)
        recovery.worker_lost(3, label="a", exit_code=KILL_WORKER_EXIT_CODE)
        recovery.degraded("respawn budget exhausted", workers_left=0)
        assert seen[0]["exit_code"] == KILL_WORKER_EXIT_CODE
        assert seen[1]["workers"] == 0


def busiest_map(state):
    """The coverage map with the most points, so corrupting it matters."""
    maps = [module["map"] for module in state["coverage"]["modules"].values()]
    return max(maps, key=lambda cmap: len(cmap["seen"]))


#: Single-field corruptions of a full checkpoint state.  Each must raise
#: CheckpointError: never resume into a different campaign, never fill a
#: missing key with a default, never fail half-way with a bare error.
MALFORMED_STATES = {
    "seen-as-string": lambda state: busiest_map(state).update(
        seen=json.dumps(busiest_map(state)["seen"])),
    "seen-as-floats": lambda state: busiest_map(state).update(
        seen=[float(point) for point in busiest_map(state)["seen"]]),
    "wrong-instrumented-points": lambda state: busiest_map(state).update(
        instrumented_points=busiest_map(state)["instrumented_points"] * 2),
    "no-coverage": lambda state: state.pop("coverage"),
    "no-core": lambda state: state.pop("core"),
    "no-library": lambda state: state["fuzzer"].pop("library"),
    "history-without-prevalence": lambda state: (
        state["history"][0].pop("prevalence")),
    "reversed-history": lambda state: state["history"].reverse(),
    "new-seed-without-blocks": lambda state: (
        state["fuzzer"]["corpus"]["seeds"][0].pop("blocks")),
    "total-executed-as-string": lambda state: state.update(
        total_executed=str(state["total_executed"])),
    "clock-as-list": lambda state: state.update(
        clock=list(state["clock"].values())),
}
MALFORMED_CASES = ([("rocket", name) for name in MALFORMED_STATES]
                   + [("boom", "no-core")])


class TestAtomicCheckpoint:
    def checkpoint(self, seed=7):
        session = build_session(small_spec(seed=seed))
        session.run_iterations(3)
        return CampaignCheckpoint.capture(session)

    @pytest.mark.parametrize(
        "core, corruption", MALFORMED_CASES,
        ids=[f"{core}-{name}" for core, name in MALFORMED_CASES])
    def test_malformed_state_never_resumes(self, core, corruption):
        session = build_session(small_spec(
            seed=4, instructions_per_iteration=300).with_core(core))
        session.run_iterations(3)
        data = json.loads(CampaignCheckpoint.capture(session).to_json())
        MALFORMED_STATES[corruption](data["state"])
        with pytest.raises(CheckpointError):
            CampaignCheckpoint.from_dict(data).restore()

    def test_full_state_loads_only_into_a_fresh_session(self):
        checkpoint = self.checkpoint()
        ran = build_session(checkpoint.spec)
        ran.run_iterations(1)
        before = ran.state_dict()
        with pytest.raises(CheckpointError, match="was taken at"):
            ran.load_state(checkpoint.state)
        assert ran.state_dict() == before
        fresh = build_session(checkpoint.spec).load_state(checkpoint.state)
        assert fresh.state_dict() == checkpoint.state

    def test_crash_mid_save_preserves_old_checkpoint(self, tmp_path,
                                                     monkeypatch):
        path = tmp_path / "shard.json"
        old = self.checkpoint(seed=7)
        old.save(path)
        survivor = path.read_text()

        def partial_write_then_die(obj, handle, **kwargs):
            handle.write('{"version": 1, "spec": {"trunca')
            raise OSError("simulated crash mid-write")

        monkeypatch.setattr(json, "dump", partial_write_then_die)
        with pytest.raises(OSError, match="simulated crash"):
            self.checkpoint(seed=8).save(path)
        monkeypatch.undo()
        assert path.read_text() == survivor  # old file untouched
        assert not list(tmp_path.glob("*.tmp.*"))  # temp cleaned up
        restored = CampaignCheckpoint.load(path)
        assert restored.state == old.state

    def test_save_then_load_round_trip(self, tmp_path):
        path = tmp_path / "shard.json"
        checkpoint = self.checkpoint()
        checkpoint.save(path)
        loaded = CampaignCheckpoint.load(path)
        assert loaded.state == checkpoint.state
        assert loaded.spec.to_dict() == checkpoint.spec.to_dict()

    def test_truncated_json_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "shard.json"
        self.checkpoint().save(path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(CheckpointError, match="truncated or corrupt"):
            CampaignCheckpoint.load(path)

    def test_unknown_version_raises_checkpoint_error(self):
        data = self.checkpoint().to_dict()
        data["version"] = 99
        with pytest.raises(CheckpointError, match="newer"):
            CampaignCheckpoint.from_dict(data)
        # CheckpointError subclasses ValueError: pre-existing callers
        # catching the old raw error keep working.
        with pytest.raises(ValueError, match="newer"):
            CampaignCheckpoint.from_dict(data)
        # A bool is not a version, and versions start at 1.
        for bad in (True, False):
            data["version"] = bad
            with pytest.raises(CheckpointError, match="must be an integer"):
                CampaignCheckpoint.from_dict(data)
        for bad in (0, -3):
            data["version"] = bad
            with pytest.raises(CheckpointError, match="at least 1"):
                CampaignCheckpoint.from_dict(data)

    def test_missing_keys_and_non_object_payloads(self):
        with pytest.raises(CheckpointError, match="missing required keys"):
            CampaignCheckpoint.from_dict({"version": 1, "state": {}})
        with pytest.raises(CheckpointError, match="must be an object"):
            CampaignCheckpoint.from_json("[1, 2, 3]")
        with pytest.raises(CheckpointError, match="version must be"):
            CampaignCheckpoint.from_dict({"version": "new", "spec": {},
                                          "state": {}})
        # Payloads that parse but are malformed must fail here too, not
        # later in restore() or load_state() with a bare TypeError.
        with pytest.raises(CheckpointError, match="state must be an object"):
            CampaignCheckpoint.from_json('{"version":1,"spec":{},"state":[]}')
        with pytest.raises(CheckpointError, match="meta must be an object"):
            CampaignCheckpoint.from_dict({"spec": {}, "state": {}, "meta": 3})
        for spec in ({"bogus": 1}, "x", 7):
            with pytest.raises(CheckpointError, match="spec is malformed"):
                CampaignCheckpoint.from_dict({"spec": spec, "state": {}})


class TestSupervisedQueueBackend:
    def test_fault_free_run_matches_serial(self):
        specs = two_shard_specs()
        serial = serial_reference(specs)
        supervised = CampaignOrchestrator(
            specs, backend=SupervisedQueueBackend(
                workers=2, policy=FaultPolicy(slice_timeout_s=60.0)))
        run_grid(supervised)
        assert_bit_identical(serial, supervised)
        report = supervised.report()
        assert report["shard_health"] == {"a": "ok", "b": "ok"}
        counters = report["resilience"]["counters"]
        assert counters["failures"] == 0
        assert counters["spawns"] == 2
        # Shards stay resident: one full task each, on its first slice;
        # every later slice ships only a delta.
        assert counters["full_tasks"] == 2
        assert counters["delta_tasks"] == 2 * (SLICES - 1)

    def test_worker_kills_recover_bit_identically(self):
        specs = two_shard_specs()
        serial = serial_reference(specs)
        injector = FaultInjector(schedule=[("kill-worker", 0, 0),
                                           ("kill-worker", 1, 0)])
        supervised = CampaignOrchestrator(
            specs, backend=SupervisedQueueBackend(
                workers=2, policy=FaultPolicy(slice_timeout_s=60.0),
                injector=injector))
        events = []
        supervised.bus.on_worker_lost(lambda **p: events.append("worker_lost"))
        supervised.bus.on_redispatch(lambda **p: events.append("redispatch"))
        run_grid(supervised)
        assert_bit_identical(serial, supervised)
        report = supervised.report()
        counters = report["resilience"]["counters"]
        assert counters["worker_losses"] > 0
        assert counters["redispatches"] > 0
        assert "worker_lost" in events and "redispatch" in events
        assert report["shard_health"] == {"a": "ok", "b": "ok"}
        assert report["resilience"]["faults"]["injected"] == 2
        # Each kill costs its shard one more full task, on the respawn.
        assert counters["full_tasks"] == 4
        assert counters["delta_tasks"] == 2 * (SLICES - 1)

    @pytest.mark.parametrize("kind, counter, params", (
        ("corrupt-checkpoint", "corrupt_checkpoints", {}),
        ("drop-result", "timeouts", {}),
        ("delay-result", "timeouts", {"seconds": 4.0}),
    ))
    def test_result_faults_redispatch_a_full_task(self, kind, counter, params):
        """The fault hits shard 1's second slice, a delta task on its
        resident session.  The retry must be a full task captured from
        the orchestrator's session, and the run must merge bit-identically.
        A lost or late result is caught by the slice deadline, which also
        retires the worker that held it."""
        specs = two_shard_specs()
        serial = serial_reference(specs)
        injector = FaultInjector(schedule=[(kind, 1, 1)],
                                 params={kind: params})
        supervised = CampaignOrchestrator(
            specs, backend=SupervisedQueueBackend(
                workers=2,
                policy=FaultPolicy(slice_timeout_s=2.5, backoff_base_s=0.0),
                injector=injector))
        run_grid(supervised)
        assert_bit_identical(serial, supervised)
        counters = supervised.report()["resilience"]["counters"]
        assert counters[counter] >= 1
        assert counters["redispatches"] >= 1
        # Every re-dispatch was a full task (a slow host may blow the short
        # deadline once more, which must not change that); every first
        # dispatch after a shard's first slice was a delta.
        assert counters["full_tasks"] == 2 + counters["redispatches"]
        assert counters["delta_tasks"] == 2 * (SLICES - 1)

    @pytest.mark.parametrize("fuzzer, budget", (("turbofuzz", 0.03),
                                                ("cascade", 0.6)))
    def test_every_slice_frontier_matches_serial(self, fuzzer, budget):
        """Rocket and BOOM shards, three of them on two workers (worker 0
        keeps two resident): at every ``time_slice`` milestone each
        shard's full state equals the serial backend's."""
        specs = [CampaignSpec().with_fuzzer(fuzzer, seed=seed, **SMALL)
                 .with_core(core).named(f"{core}{seed}")
                 for core, seed in (("rocket", 1), ("boom", 2), ("rocket", 3))]

        def frontier_states(backend):
            grid = CampaignOrchestrator(specs, backend=backend)
            states = []

            def on_milestone(kind, remote=False, **_):
                if kind == "time_slice" and not remote:
                    states.append(shard_states(grid))

            grid.bus.subscribe("milestone", on_milestone)
            grid.run_for_virtual_time(budget, max_iterations=40, slices=SLICES)
            return grid, states

        _, serial = frontier_states("serial")
        grid, supervised = frontier_states(SupervisedQueueBackend(workers=2))
        assert len(supervised) == SLICES
        assert supervised == serial
        counters = grid.report()["resilience"]["counters"]
        assert counters["full_tasks"] == len(specs)
        assert counters["delta_tasks"] == len(specs) * (SLICES - 1)

    def test_resident_shard_takes_delta_tasks_only_at_its_base(self):
        spec = small_spec(seed=3).named("a")
        orchestrator_copy = build_session(spec)
        template = {"label": "a", "shard_index": 0,
                    "command": "run_iterations", "count": 2}
        resident = {}
        full = dict(template, checkpoint_json=CampaignCheckpoint.capture(
            orchestrator_copy).to_json())
        for task in (full, dict(template, base_iterations=2)):
            delta = CampaignCheckpoint.from_json(
                advance_resident(task, resident))
            orchestrator_copy.load_state(delta.state)
        assert orchestrator_copy.iterations == resident["a"].iterations == 4
        assert (orchestrator_copy.state_dict()
                == resident["a"].state_dict())
        with pytest.raises(CheckpointError, match="not resident"):
            advance_resident(dict(template, base_iterations=2), resident)
        assert "a" not in resident  # only a full task brings it back

    def test_worker_error_is_retried_not_fatal(self):
        specs = two_shard_specs()
        serial = serial_reference(specs)
        injector = FaultInjector(schedule=[("explode", 0, 0)])
        supervised = CampaignOrchestrator(
            specs, backend=SupervisedQueueBackend(
                workers=2,
                policy=FaultPolicy(slice_timeout_s=60.0, backoff_base_s=0.0),
                injector=injector))
        run_grid(supervised)
        assert_bit_identical(serial, supervised)
        counters = supervised.report()["resilience"]["counters"]
        assert counters["worker_errors"] == 1
        assert counters["worker_losses"] == 0  # the worker survived

    @pytest.mark.parametrize("kind", ("explode", "corrupt-checkpoint"))
    def test_poison_shard_quarantined_without_aborting_grid(self, kind):
        specs = two_shard_specs()
        serial = serial_reference(specs)
        injector = FaultInjector(schedule=[(kind, 0, 0)], repeat=True)
        supervised = CampaignOrchestrator(
            specs, backend=SupervisedQueueBackend(
                workers=2,
                policy=FaultPolicy(slice_timeout_s=60.0, max_retries=1,
                                   backoff_base_s=0.0),
                injector=injector))
        run_grid(supervised)
        report = supervised.report()
        assert report["shard_health"]["a"] == "quarantined"
        assert report["shard_health"]["b"] == "ok"
        # The healthy shard is untouched by its neighbour's poison.
        assert (supervised.shard_stats()["b"] == serial.shard_stats()["b"])
        assert report["resilience"]["counters"]["quarantines"] == 1

    def test_degrades_to_inline_when_spawning_fails(self, monkeypatch):
        specs = two_shard_specs()
        serial = serial_reference(specs)
        monkeypatch.setattr(_Supervisor, "_spawn_worker", lambda self: False)
        supervised = CampaignOrchestrator(
            specs, backend=SupervisedQueueBackend(workers=2))
        events = []
        supervised.bus.on_degraded(lambda **p: events.append(p))
        run_grid(supervised)
        assert_bit_identical(serial, supervised)
        counters = supervised.report()["resilience"]["counters"]
        assert counters["degraded"] >= 1
        assert counters["inline_tasks"] > 0
        assert events and events[0]["workers"] == 0

    def test_failed_respawn_drops_every_vacant_slot(self, monkeypatch):
        """Two of three workers die in one reaping sweep and every respawn
        fails: both vacant slots are dropped, so all three shards route to
        the surviving worker and the slice still matches serial."""
        specs = [small_spec(seed=seed).named(label)
                 for label, seed in (("a", 11), ("b", 22), ("c", 33))]
        serial = CampaignOrchestrator(specs)
        serial.run_iterations(2)
        grid = CampaignOrchestrator(specs)
        supervisor = _Supervisor(SupervisedQueueBackend(workers=3), grid)
        try:
            assert supervisor._slots == [0, 1, 2]
            for worker_id in (0, 1):
                process = supervisor._workers[worker_id]
                process.terminate()
                process.join(timeout=5.0)
                assert not process.is_alive()
            supervisor._reap_workers({}, [], 0)
            assert supervisor._slots == [None, None, 2]
            monkeypatch.setattr(supervisor, "_spawn_worker", lambda: False)
            supervisor._ensure_workers()
            assert supervisor._slots == [2]
            assert not supervisor.inline
            supervisor.execute_slice(0, {
                label: _make_task(label, index, "run_iterations", count=2)
                for index, label in enumerate(grid.labels)})
        finally:
            supervisor.shutdown()
        assert shard_states(grid) == shard_states(serial)
        counters = supervisor.recovery.stats()["counters"]
        assert counters["full_tasks"] == len(specs)
        assert counters["failures"] == 0

    def test_event_relay_reaches_orchestrator_subscribers(self):
        specs = two_shard_specs()
        supervised = CampaignOrchestrator(
            specs, backend=SupervisedQueueBackend(
                workers=2, policy=FaultPolicy(slice_timeout_s=60.0)))
        remote = []

        def on_iteration(**payload):
            if payload.get("remote"):
                remote.append(payload)

        supervised.bus.on_iteration(on_iteration)
        supervised.run_for_virtual_time(1.0, max_iterations=10, slices=1)
        assert remote, "no remote iteration events relayed"
        sample = remote[0]
        assert sample["session"] is None
        assert sample["shard"] in ("a", "b")
        assert isinstance(sample["outcome"], dict)  # JSON-shaped payload
        counters = supervised.report()["resilience"]["counters"]
        assert counters["relay_events"] == len(remote)

    def test_queue_wait_does_not_count_against_slice_timeout(self):
        """Four shards on one worker, each first slice's result held back
        1 s: the last task waits in the queue longer than
        ``slice_timeout_s``, but only the time since its claim counts."""
        specs = [small_spec(seed=seed).named(f"s{index}")
                 for index, seed in enumerate((11, 22, 33, 44))]
        serial = serial_reference(specs)
        injector = FaultInjector(
            schedule=[("delay-result", shard, 0) for shard in range(4)],
            params={"delay-result": {"seconds": 1.0}})
        supervised = CampaignOrchestrator(
            specs, backend=SupervisedQueueBackend(
                workers=1,
                policy=FaultPolicy(slice_timeout_s=2.5, backoff_base_s=0.0),
                injector=injector))
        run_grid(supervised)
        assert_bit_identical(serial, supervised)
        counters = supervised.report()["resilience"]["counters"]
        assert counters["timeouts"] == counters["failures"] == 0

    def test_host_stall_is_not_a_heartbeat_loss(self, monkeypatch):
        """A host stall freezes the supervisor and its workers alike, so no
        worker can beat while it lasts.  Simulated by moving the
        supervisor's clock a minute ahead right before a heartbeat check
        in the second slice: no worker may be presumed wedged."""
        specs = two_shard_specs()
        serial = serial_reference(specs)
        stall = [0.0]
        monkeypatch.setattr("repro.campaign.backends.time", SimpleNamespace(
            monotonic=lambda: time.monotonic() + stall[0], sleep=time.sleep))
        check_heartbeats = _Supervisor._check_heartbeats

        def stall_then_check(self, pending, delayed, slice_index):
            if slice_index == 1 and not stall[0]:
                stall[0] = 60.0
            check_heartbeats(self, pending, delayed, slice_index)

        monkeypatch.setattr(_Supervisor, "_check_heartbeats", stall_then_check)
        supervised = CampaignOrchestrator(
            specs, backend=SupervisedQueueBackend(
                workers=2, policy=FaultPolicy(slice_timeout_s=60.0)))
        run_grid(supervised)
        assert stall[0], "the stall was never simulated"
        assert_bit_identical(serial, supervised)
        counters = supervised.report()["resilience"]["counters"]
        assert counters["heartbeat_losses"] == counters["worker_losses"] == 0
        assert counters["full_tasks"] == 2

    def test_silent_worker_is_presumed_wedged(self):
        """A worker whose heartbeats stop is terminated and its shard
        re-dispatched, though its process is alive and no deadline has
        passed."""
        specs = two_shard_specs()
        serial = serial_reference(specs)
        injector = FaultInjector(schedule=[("wedge", 1, 1)])
        supervised = CampaignOrchestrator(
            specs, backend=SupervisedQueueBackend(
                workers=2,
                policy=FaultPolicy(heartbeat_timeout_s=2.0, backoff_base_s=0.0),
                injector=injector))
        run_grid(supervised)
        assert_bit_identical(serial, supervised)
        counters = supervised.report()["resilience"]["counters"]
        assert counters["heartbeat_losses"] == counters["worker_losses"] == 1
        assert counters["timeouts"] == 0

    def test_run_iterations_matches_serial(self):
        specs = two_shard_specs()
        serial = CampaignOrchestrator(specs)
        serial.run_iterations(12)
        supervised = CampaignOrchestrator(
            specs, backend=SupervisedQueueBackend(workers=2))
        supervised.run_iterations(12)
        assert_bit_identical(serial, supervised)
        counters = supervised.report()["resilience"]["counters"]
        assert (counters["full_tasks"], counters["delta_tasks"]) == (2, 0)


class TestChaosDeterminism:
    def test_same_chaos_seed_same_run(self):
        """Two supervised chaos runs with the same injector seed produce
        identical merged reports — and both equal the serial run."""
        specs = two_shard_specs()
        serial = serial_reference(specs)
        reports = []
        for _ in range(2):
            injector = FaultInjector(seed=0xC0FFEE,
                                     rates={"kill-worker": (1, 2)})
            orchestrator = CampaignOrchestrator(
                specs, backend=SupervisedQueueBackend(
                    workers=2, policy=FaultPolicy(slice_timeout_s=60.0),
                    injector=injector))
            run_grid(orchestrator)
            assert_bit_identical(serial, orchestrator)
            reports.append({
                "coverage": orchestrator.coverage_series(),
                "faults": injector.stats(),
            })
        assert reports[0] == reports[1]
        assert reports[0]["faults"]["injected"] > 0
