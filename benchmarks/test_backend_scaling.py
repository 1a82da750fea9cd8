"""Execution-backend scaling: serial vs process-pool vs supervised queue.

Not a paper figure: this benchmark guards the backend abstraction — the
parallel backends must produce *bit-identical* per-shard state while
their wall-clock scales with worker count.  All three columns advance the
same 2-shard grid slice by slice with ``run_for_virtual_time``, so the
parallel columns pay their per-slice cost on every slice: the process
pool ships each shard's full checkpoint out and back per slice, while the
supervised queue keeps each shard resident on its worker and ships one
full task per shard, then only slice deltas.  The persisted JSON records
both task counts next to the wall times.  Throughput is reported through
the ``repro.perf`` harness conventions (instructions/sec +
iterations/sec) so the numbers line up with ``perf_baseline.json``.
"""

import os
import time

from benchmarks.conftest import persist, print_header, scaled
from repro.campaign import (
    CampaignOrchestrator,
    CampaignSpec,
    ProcessPoolBackend,
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


def _timed_run(backend, budget, iterations, slices):
    orchestrator = CampaignOrchestrator(_grid_specs(), backend=backend)
    start = time.perf_counter()
    orchestrator.run_for_virtual_time(budget, max_iterations=iterations,
                                      slices=slices)
    elapsed = time.perf_counter() - start
    return orchestrator, elapsed


def _throughput(orchestrator, elapsed):
    """Harness-style throughput row for one backend run, with the task
    counts of a parallel backend."""
    executed = sum(session.total_executed
                   for session in orchestrator.sessions.values())
    iterations = sum(len(session.history)
                     for session in orchestrator.sessions.values())
    row = {
        "wall_s": elapsed,
        "instructions_per_sec": executed / elapsed if elapsed else None,
        "iterations_per_sec": iterations / elapsed if elapsed else None,
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
    serial, serial_s = _timed_run("serial", budget, iterations, slices)
    pool, pool_s = _timed_run(ProcessPoolBackend(), budget, iterations, slices)
    supervised, supervised_s = _timed_run(SupervisedQueueBackend(), budget,
                                          iterations, slices)

    for parallel in (pool, supervised):
        assert parallel.coverage_series() == serial.coverage_series()
        assert parallel.shard_stats() == serial.shard_stats()
        assert _states(parallel) == _states(serial)

    serial_rate = _throughput(serial, serial_s)
    pool_rate = _throughput(pool, pool_s)
    supervised_rate = _throughput(supervised, supervised_s)
    # Shards stay resident: one full task each, then deltas for every
    # shard-slice the pool shipped whole.
    assert supervised_rate["full_tasks"] == len(serial.labels)
    assert (supervised_rate["full_tasks"] + supervised_rate["delta_tasks"]
            == pool_rate["full_tasks"])
    assert pool_rate["delta_tasks"] == 0
    result = {
        "shards": len(serial.labels),
        "iterations_per_shard": iterations,
        "slices": slices,
        "cpu_count": os.cpu_count(),
        "serial": serial_rate,
        "process_pool": pool_rate,
        "supervised_queue": supervised_rate,
        "speedup": serial_s / pool_s if pool_s else None,
        "supervised_speedup": serial_s / supervised_s if supervised_s else None,
        # Fault-free supervised wall vs pool wall (negative: faster).
        "supervision_overhead": (supervised_s / pool_s - 1.0) if pool_s else None,
        "supervised_resilience": supervised.report().get("resilience"),
        "reports_identical": True,
        "serial_report": serial.report(),
    }
    persist("backend_scaling", result)
    print_header(
        "Backend scaling: serial vs process-pool vs supervised (2-shard grid)")
    print(f"cpu_count={result['cpu_count']}  slices={slices}  "
          f"serial={serial_s:.2f}s ({serial_rate['instructions_per_sec']:.0f} instr/s)  "
          f"pool={pool_s:.2f}s ({pool_rate['instructions_per_sec']:.0f} instr/s)  "
          f"speedup={result['speedup']:.2f}x")
    print(f"supervised={supervised_s:.2f}s "
          f"({supervised_rate['instructions_per_sec']:.0f} instr/s, "
          f"{supervised_rate['full_tasks']} full + "
          f"{supervised_rate['delta_tasks']} delta tasks)  "
          f"vs pool={result['supervision_overhead']:+.1%}")
    print("per-shard state: identical (bit-for-bit)")
