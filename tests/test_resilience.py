"""Fault tolerance: policy, deterministic chaos, recovery, atomic saves.

The backend tests follow the repo's bit-identity discipline: every
chaos run (injected kills, delays, drops, corrupt checkpoints) must
produce coverage series, shard stats, per-session campaign reports, and
each shard's full ``state_dict()`` identical to an undisturbed serial
run — recovery may cost wall-clock, never results.
"""

import contextlib
import gc
import json
import math
import multiprocessing
import os
import signal
import struct
import sys
import time
from multiprocessing import connection
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
from repro.campaign.backends import _Supervisor
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
    heartbeat thread falls silent while its process stays alive."""

    stage = "pre"

    def apply(self, context):
        sys.setswitchinterval(1000.0)
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            pass


@register_fault("needs-frozen-heap", replace=True)
class NeedsFrozenHeapFault:
    """Test-only fault: raise in the worker unless the heap it inherited
    sits in the collector's permanent generation (``gc.freeze()``)."""

    stage = "pre"

    def apply(self, context):
        if gc.get_freeze_count() == 0:
            raise RuntimeError("the worker collects the heap it inherited")


#: A result message larger than this is cut off half-way by
#: ``die_mid_write`` (the padded result is the only one that large).
BIG_MESSAGE = 8 << 20


@register_fault("pad-result", replace=True)
class PadResultFault:
    """Test-only fault: pad the result JSON with trailing spaces (still
    valid JSON) past ``BIG_MESSAGE`` bytes."""

    stage = "result"

    def apply(self, context):
        context["checkpoint_json"] = context["checkpoint_json"].ljust(
            BIG_MESSAGE + 1)


@register_fault("clock-as-word", replace=True)
class ClockAsWordFault:
    """Test-only fault: the result delta's clock ``seconds`` becomes a
    word, in JSON that still parses (a leaf only the clock can reject)."""

    stage = "result"

    def apply(self, context):
        data = json.loads(context["checkpoint_json"])
        data["state"]["clock"]["seconds"] = "abc"
        context["checkpoint_json"] = json.dumps(data, sort_keys=True)


SEND_BYTES = connection.Connection._send_bytes


def die_mid_write(conn, buf):
    """``Connection._send_bytes`` that writes a message over
    ``BIG_MESSAGE`` bytes half-way and then kills its process."""
    if len(buf) <= BIG_MESSAGE:
        return SEND_BYTES(conn, buf)
    conn._send(struct.pack("!i", len(buf)) + bytes(buf[: len(buf) // 2]))
    os._exit(KILL_WORKER_EXIT_CODE)


@contextlib.contextmanager
def deadline(seconds):
    """Raise ``TimeoutError`` if the block runs longer than ``seconds``,
    so a hung grid fails its test instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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


def first_seed(state):
    return state["fuzzer"]["corpus"]["seeds"][0]


def first_block(state):
    return first_seed(state)["blocks"][0]


def first_entry(state):
    return first_block(state)["entries"][0]


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
    "no-branch-predictor": lambda state: state["core"].pop("branch_predictor"),
    "branch-predictor-key-not-int": lambda state: (
        state["core"]["branch_predictor"].update({"not-a-pc": 1})),
    "corpus-block-without-entries": lambda state: (
        state["fuzzer"]["corpus"][0][0].pop("entries")),
    "iterations-as-word": lambda state: (
        state["fuzzer"].update(iterations="three")),
    # The leaf loaders: each is checked before anything is applied.
    "clock-without-frequency": lambda state: state["clock"].pop(
        "frequency_hz"),
    "weight-shift-as-word": lambda state: (
        state["weights"]["shifts"].update(MulDiv="x")),
    "clock-seconds-as-word": lambda state: state["clock"].update(
        seconds="abc"),
    "empty-detection-lfsr": lambda state: state.update(detection_lfsr={}),
    "fuzzer-lfsr-as-word": lambda state: (
        state["fuzzer"]["lfsr"].update(state="zz")),
    "fuzzer-stats-without-iterations": lambda state: (
        state["fuzzer"]["stats"].pop("iterations")),
    # One block of a corpus seed, and the seed's own fields.
    "block-without-entries": lambda state: first_block(state).update(
        entries=[]),
    "block-unknown-prime": lambda state: first_block(state).update(
        prime_name="vfmacc.vv"),
    "block-unknown-cf-kind": lambda state: first_block(state).update(
        cf_kind="teleport"),
    "block-negative-target": lambda state: first_block(state).update(
        target_block=-5),
    "word-of-40-bits": lambda state: first_entry(state).update(
        word=1 << 40),
    "negative-word": lambda state: first_entry(state).update(word=-1),
    "word-as-string": lambda state: first_entry(state).update(word="19"),
    "is-prime-as-word": lambda state: first_entry(state).update(
        is_prime="no"),
    "seed-increment-as-bool": lambda state: first_seed(state).update(
        coverage_increment=True),
    "seed-born-iteration-as-float": lambda state: first_seed(state).update(
        born_iteration=2.0),
    "seed-uses-as-string": lambda state: first_seed(state).update(uses="1"),
    "seed-origin-as-number": lambda state: first_seed(state).update(
        origin=3),
}
BOOM_ONLY = ("no-branch-predictor", "branch-predictor-key-not-int")
# Corruptions of one baseline fuzzer's state -> that fuzzer.
BASELINE_ONLY = {"corpus-block-without-entries": "difuzzrtl",
                 "iterations-as-word": "cascade"}
MALFORMED_CASES = ([("rocket", name) for name in MALFORMED_STATES
                    if name not in BOOM_ONLY and name not in BASELINE_ONLY]
                   + [("boom", "no-core")]
                   + [("boom", name) for name in BOOM_ONLY]
                   + [(fuzzer, name) for name, fuzzer in BASELINE_ONLY.items()])


def malformed_case_spec(target):
    """A TurboFuzz campaign on the core ``target``, or the baseline
    fuzzer ``target`` on Rocket."""
    if target in BASELINE_ONLY.values():
        return CampaignSpec().with_fuzzer(target, instructions_per_iteration=300)
    return small_spec(seed=4, instructions_per_iteration=300).with_core(target)


class TestAtomicCheckpoint:
    def checkpoint(self, seed=7):
        session = build_session(small_spec(seed=seed))
        session.run_iterations(3)
        return CampaignCheckpoint.capture(session)

    @pytest.mark.parametrize(
        "target, corruption", MALFORMED_CASES,
        ids=[f"{target}-{name}" for target, name in MALFORMED_CASES])
    def test_malformed_state_never_resumes(self, target, corruption):
        spec = malformed_case_spec(target)
        session = build_session(spec)
        session.run_iterations(3)
        data = json.loads(CampaignCheckpoint.capture(session).to_json())
        MALFORMED_STATES[corruption](data["state"])
        with pytest.raises(CheckpointError):
            CampaignCheckpoint.from_dict(data).restore()
        # Nothing of it is applied: a fresh session stays fresh.
        fresh = build_session(spec)
        before = fresh.state_dict()
        with pytest.raises(CheckpointError):
            fresh.load_state(data["state"])
        assert fresh.state_dict() == before

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

    def test_workers_freeze_the_heap_they_inherit(self):
        """Every task of the grid checks, in its worker, that the worker
        froze what it inherited; none fails, and the grid ends as the
        serial one does."""
        # A worker forked from a frozen heap would inherit the freeze.
        assert gc.get_freeze_count() == 0
        specs = two_shard_specs()
        serial = serial_reference(specs)
        injector = FaultInjector(schedule=[
            ("needs-frozen-heap", shard, step)
            for shard in range(len(specs)) for step in range(SLICES)])
        supervised = CampaignOrchestrator(
            specs, backend=SupervisedQueueBackend(
                workers=2, policy=FaultPolicy(slice_timeout_s=60.0),
                injector=injector))
        run_grid(supervised)
        assert_bit_identical(serial, supervised)
        counters = supervised.report()["resilience"]["counters"]
        assert counters["faults_injected"] == len(specs) * SLICES
        assert counters["worker_errors"] == 0

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

    def test_worker_loss_charges_only_the_task_it_held(self):
        """Shards a and c share worker 0, which holds one task at a time.
        Killing it on a's second slice charges a alone: c's task waited
        in the supervisor, so it is simply sent, as a full task, to the
        respawned worker."""
        specs = [small_spec(seed=seed).named(label)
                 for label, seed in (("a", 11), ("b", 22), ("c", 33))]
        serial = serial_reference(specs)
        injector = FaultInjector(schedule=[("kill-worker", 0, 1)])
        supervised = CampaignOrchestrator(
            specs, backend=SupervisedQueueBackend(
                workers=2,
                policy=FaultPolicy(slice_timeout_s=60.0, backoff_base_s=0.0),
                injector=injector))
        run_grid(supervised)
        assert_bit_identical(serial, supervised)
        counters = supervised.report()["resilience"]["counters"]
        assert counters["worker_losses"] == 1
        assert counters["failures"] == counters["redispatches"] == 1
        # One full task per shard, a's retry, and c's first task on the
        # respawned worker.
        assert counters["full_tasks"] == 5

    def test_worker_dying_mid_result_costs_only_its_slice(self, monkeypatch):
        """Shard 0's worker dies half-way through writing its second
        slice's result.  Its pipe ends mid-message, which loses that
        worker alone; the grid finishes bit-identical to serial instead
        of blocking on the half-written message."""
        specs = two_shard_specs()
        serial = serial_reference(specs)
        monkeypatch.setattr(connection.Connection, "_send_bytes",
                            die_mid_write)
        injector = FaultInjector(schedule=[("pad-result", 0, 1)])
        supervised = CampaignOrchestrator(
            specs, backend=SupervisedQueueBackend(
                workers=2, policy=FaultPolicy(slice_timeout_s=60.0),
                injector=injector))
        with deadline(60):
            run_grid(supervised)
        assert_bit_identical(serial, supervised)
        counters = supervised.report()["resilience"]["counters"]
        assert counters["worker_losses"] == counters["failures"] == 1
        assert counters["full_tasks"] == 3

    def test_idle_worker_death_is_a_worker_loss(self):
        """A worker killed between slices, while idle: the next task sent
        to it is lost with it, charged once, and re-run on a respawn."""
        specs = two_shard_specs()
        serial = serial_reference(specs)
        supervised = CampaignOrchestrator(
            specs, backend=SupervisedQueueBackend(
                workers=2,
                policy=FaultPolicy(slice_timeout_s=60.0, backoff_base_s=0.0)))

        def kill_a_worker(kind, **payload):
            if (kind == "time_slice" and payload.get("step") == 1
                    and not payload.get("remote")):
                victim = multiprocessing.active_children()[0]
                os.kill(victim.pid, signal.SIGKILL)
                victim.join(timeout=5.0)
                assert not victim.is_alive()

        supervised.bus.on_milestone(kill_a_worker)
        run_grid(supervised)
        assert_bit_identical(serial, supervised)
        report = supervised.report()
        counters = report["resilience"]["counters"]
        assert counters["worker_losses"] == counters["failures"] == 1
        assert report["shard_health"] == {"a": "ok", "b": "ok"}

    def test_malformed_leaf_in_a_delta_is_redispatched(self):
        """A delta whose JSON parses but whose clock does not check is a
        corrupt checkpoint: shard 1's second slice runs again as a full
        task, and the grid ends as the serial one does."""
        specs = two_shard_specs()
        serial = serial_reference(specs)
        injector = FaultInjector(schedule=[("clock-as-word", 1, 1)])
        supervised = CampaignOrchestrator(
            specs, backend=SupervisedQueueBackend(
                workers=2,
                policy=FaultPolicy(slice_timeout_s=60.0, backoff_base_s=0.0),
                injector=injector))
        run_grid(supervised)
        assert_bit_identical(serial, supervised)
        counters = supervised.report()["resilience"]["counters"]
        assert counters["corrupt_checkpoints"] == 1
        assert counters["redispatches"] == 1

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
                    "stop": {"until": math.inf, "max_iterations": 2}}
        resident = {}
        full = dict(template, checkpoint_json=CampaignCheckpoint.capture(
            orchestrator_copy).to_json())
        second = dict(template, base_iterations=2,
                      stop={"until": math.inf, "max_iterations": 4})
        for task in (full, second):
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
        """Two of three workers die, one pump of their pipes loses both,
        and every respawn fails: both vacant slots are dropped, so all
        three shards route to the surviving worker and the slice still
        matches serial."""
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
            supervisor._pump({}, {}, 0)
            assert supervisor._slots == [None, None, 2]
            monkeypatch.setattr(supervisor, "_spawn_worker", lambda: False)
            supervisor._ensure_workers()
            assert supervisor._slots == [2]
            assert not supervisor.inline
            supervisor.execute_slice(0, {
                label: {"until": math.inf, "max_iterations": 2}
                for label in grid.labels})
        finally:
            supervisor.close()
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
        remote_milestones = []
        relayed_by_frontier = []

        def on_iteration(**payload):
            if payload.get("remote"):
                remote.append(payload)

        def on_milestone(kind, **payload):
            if payload.get("remote"):
                remote_milestones.append(kind)
            elif kind == "time_slice":
                relayed_by_frontier.append(len(remote))

        supervised.bus.on_iteration(on_iteration)
        supervised.bus.on_milestone(on_milestone)
        supervised.run_for_virtual_time(1.0, max_iterations=10, slices=1)
        assert remote, "no remote iteration events relayed"
        sample = remote[0]
        assert sample["session"] is None
        assert sample["shard"] in ("a", "b")
        assert isinstance(sample["outcome"], dict)  # JSON-shaped payload
        # A slice's events travel on its worker's pipe ahead of its
        # result, so every one is re-emitted by the slice frontier.
        assert relayed_by_frontier == [len(remote)]
        assert len(remote) == sum(session.iterations
                                  for session in supervised.sessions.values())
        counters = supervised.report()["resilience"]["counters"]
        assert counters["relay_events"] == len(remote) + len(remote_milestones)

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

    def test_counters_count_every_call(self):
        """Every call spawns its own fleet and ships each shard whole;
        the report counts the tasks and spawns of all of them."""
        supervised = CampaignOrchestrator(
            two_shard_specs(), backend=SupervisedQueueBackend(workers=2))
        seen = []
        for _ in range(2):
            supervised.run_iterations(2)
            counters = supervised.report()["resilience"]["counters"]
            seen.append((counters["full_tasks"], counters["spawns"]))
        assert seen == [(2, 2), (4, 4)]

    def test_run_iterations_on_an_uneven_grid_matches_serial(self):
        """Shards resumed at 0, 1 and 2 iterations: each runs two more,
        its stop capped at its own count plus two."""
        specs = [small_spec(seed=seed).named(label)
                 for label, seed in (("a", 11), ("b", 22), ("c", 33))]
        uneven = CampaignOrchestrator(specs)
        for count, session in enumerate(uneven.sessions.values()):
            session.run_iterations(count)
        serial = CampaignOrchestrator.from_checkpoints(uneven.checkpoint())
        serial.run_iterations(2)
        supervised = CampaignOrchestrator.from_checkpoints(
            uneven.checkpoint(), backend=SupervisedQueueBackend(workers=2))
        supervised.run_iterations(2)
        assert [session.iterations for session
                in supervised.sessions.values()] == [2, 3, 4]
        assert shard_states(supervised) == shard_states(serial)

    def test_raising_subscriber_still_stops_every_worker(self):
        """A ``time_slice`` subscriber that raises ends the run, and the
        fleet with it: no worker outlives the call."""

        class Interrupted(Exception):
            pass

        supervised = CampaignOrchestrator(
            two_shard_specs(), backend=SupervisedQueueBackend(workers=2))

        def interrupt(kind, remote=False, **payload):
            if kind == "time_slice" and not remote and payload["step"] == 2:
                assert len(multiprocessing.active_children()) == 2
                raise Interrupted

        supervised.bus.on_milestone(interrupt)
        with pytest.raises(Interrupted):
            run_grid(supervised)
        assert multiprocessing.active_children() == []


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
