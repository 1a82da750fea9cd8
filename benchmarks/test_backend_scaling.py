"""Execution-backend scaling: serial vs the supervised queue.

Not a paper figure: this benchmark guards the backend abstraction — the
parallel backend must produce *bit-identical* per-shard state while its
wall-clock scales with worker count.  Both columns advance the same
2-shard grid slice by slice with ``run_for_virtual_time``, so the
parallel column pays its per-slice cost on every slice: the supervised
queue keeps each shard resident on its worker and ships one full task
per shard, then only slice deltas.  The persisted JSON records both task
counts next to the wall times.  Throughput is reported as executed
instructions/sec (the unit of perfbench's ``instr_per_s``) and
iterations/sec.  Each column also records its CPU budget: the CPU
seconds of this process (the orchestrator) and of its reaped children
(the workers) over the run, and how busy that kept ``os.cpu_count()``
CPUs.
"""

import os
import resource
import time

from benchmarks.conftest import persist, print_header, scaled
from repro.campaign import (
    CampaignOrchestrator,
    CampaignSpec,
    SupervisedQueueBackend,
    build_session,
)


def _grid_specs(iterations_size=300):
    return [
        CampaignSpec()
        .with_fuzzer("turbofuzz", instructions_per_iteration=iterations_size,
                     seed=seed)
        .named(f"shard{index}")
        for index, seed in enumerate((0xA11CE, 0xB0B))
    ]


def _budget(iterations):
    """The virtual time shard 0 needs for ``iterations`` iterations."""
    session = build_session(_grid_specs()[0])
    session.run_iterations(iterations)
    return session.clock.seconds


def _cpu_seconds():
    """(this process's, its reaped children's) user + system CPU seconds."""
    return tuple(usage.ru_utime + usage.ru_stime for usage in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


def _timed_run(backend, budget, iterations, slices):
    """(orchestrator, wall seconds, CPU budget) of one grid run; the
    workers are reaped when the run ends, so their CPU counts."""
    orchestrator = CampaignOrchestrator(_grid_specs(), backend=backend)
    own_before, workers_before = _cpu_seconds()
    start = time.perf_counter()
    orchestrator.run_for_virtual_time(budget, max_iterations=iterations,
                                      slices=slices)
    elapsed = time.perf_counter() - start
    own_after, workers_after = _cpu_seconds()
    cpus = os.cpu_count() or 1
    cpu = {
        "orchestrator_cpu_s": own_after - own_before,
        "workers_cpu_s": workers_after - workers_before,
        "busy_frac": ((own_after - own_before + workers_after - workers_before)
                      / (elapsed * cpus) if elapsed else None),
    }
    return orchestrator, elapsed, cpu


def _throughput(orchestrator, elapsed, cpu):
    """Harness-style throughput row for one backend run, with its CPU
    budget and the task counts of the parallel backend."""
    executed = sum(session.total_executed
                   for session in orchestrator.sessions.values())
    iterations = sum(len(session.history)
                     for session in orchestrator.sessions.values())
    row = {
        "wall_s": elapsed,
        "instructions_per_sec": executed / elapsed if elapsed else None,
        "iterations_per_sec": iterations / elapsed if elapsed else None,
        **cpu,
    }
    resilience = orchestrator.report().get("resilience")
    if resilience is not None:
        counters = resilience["counters"]
        row["full_tasks"] = counters["full_tasks"]
        row["delta_tasks"] = counters["delta_tasks"]
    return row


def _states(orchestrator):
    return {label: session.state_dict()
            for label, session in orchestrator.sessions.items()}


def test_backend_scaling():
    iterations, slices = scaled((30, 5), (200, 10))
    budget = _budget(iterations)
    serial, serial_s, serial_cpu = _timed_run("serial", budget, iterations,
                                              slices)
    supervised, supervised_s, supervised_cpu = _timed_run(
        SupervisedQueueBackend(), budget, iterations, slices)

    assert supervised.coverage_series() == serial.coverage_series()
    assert supervised.shard_stats() == serial.shard_stats()
    assert _states(supervised) == _states(serial)

    shards = len(serial.labels)
    serial_rate = _throughput(serial, serial_s, serial_cpu)
    supervised_rate = _throughput(supervised, supervised_s, supervised_cpu)
    # Shards stay resident: one full task each, then a delta for every
    # later shard-slice (every shard works in every slice at this budget).
    assert supervised_rate["full_tasks"] == shards
    assert (supervised_rate["full_tasks"] + supervised_rate["delta_tasks"]
            == shards * slices)
    result = {
        "shards": shards,
        "iterations_per_shard": iterations,
        "slices": slices,
        "cpu_count": os.cpu_count(),
        "serial": serial_rate,
        "supervised_queue": supervised_rate,
        "supervised_speedup": serial_s / supervised_s if supervised_s else None,
        "supervised_resilience": supervised.report().get("resilience"),
        "reports_identical": True,
        "serial_report": serial.report(),
    }
    persist("backend_scaling", result)
    print_header("Backend scaling: serial vs supervised queue (2-shard grid)")
    print(f"cpu_count={result['cpu_count']}  slices={slices}  "
          f"serial={serial_s:.2f}s ({serial_rate['instructions_per_sec']:.0f} instr/s)  "
          f"supervised={supervised_s:.2f}s "
          f"({supervised_rate['instructions_per_sec']:.0f} instr/s, "
          f"{supervised_rate['full_tasks']} full + "
          f"{supervised_rate['delta_tasks']} delta tasks)  "
          f"speedup={result['supervised_speedup']:.2f}x")
    print(f"supervised CPU: orchestrator "
          f"{supervised_rate['orchestrator_cpu_s']:.2f}s, workers "
          f"{supervised_rate['workers_cpu_s']:.2f}s, "
          f"{supervised_rate['busy_frac']:.0%} of {result['cpu_count']} CPUs busy")
    print("per-shard state: identical (bit-for-bit)")
