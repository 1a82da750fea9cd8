"""Micro/macro benchmark harness for the per-instruction hot path.

The macro benchmark runs a real ``CampaignSession`` (the fig11-style
TurboFuzz-on-Rocket configuration) for a fixed iteration window and
reports **instructions/sec** (executed DUT instructions per wall second —
the paper's throughput axis) and **iterations/sec**.  Every measurement
is best-of-``repeats``: the repo's CI boxes and dev containers have noisy
clocks, and the minimum wall time of N identical workloads is the
standard estimator for "how fast can this code run".

Two numbers matter downstream:

* ``macro.instructions_per_sec`` — absolute throughput, recorded for
  humans and for same-machine comparisons;
* ``macro.speedup_vs_reference`` — the optimized observer hot path vs the
  preserved pre-overhaul reference path (``use_reference_observer``),
  measured in the same process seconds apart.  Being a ratio of two
  same-machine runs it is the machine-independent metric the CI
  regression gate keys on.

The per-stage breakdown uses a short ``cProfile`` capture and buckets
cumulative time into the pipeline stages (generate / execute / observe /
microarch update), which is how this PR's optimizations were found.
"""

import cProfile
import pstats
import statistics
import time

from repro.fuzzer.lfsr import Lfsr


def _build_session(core="rocket", style="optimized",
                   instructions_per_iteration=1000):
    from repro.campaign.session import CampaignSession
    from repro.campaign.spec import CampaignSpec

    spec = (CampaignSpec()
            .with_fuzzer("turbofuzz",
                         instructions_per_iteration=instructions_per_iteration)
            .with_core(core)
            .with_instrumentation(style=style))
    return CampaignSession(spec)


def _measure_session(session, iterations, repeats):
    """Best-of-``repeats`` throughput over ``iterations``-sized windows."""
    best_ips = 0.0
    best_itps = 0.0
    for _ in range(repeats):
        executed_before = session.total_executed
        start = time.perf_counter()
        session.run_iterations(iterations)
        elapsed = time.perf_counter() - start
        executed = session.total_executed - executed_before
        if elapsed > 0:
            best_ips = max(best_ips, executed / elapsed)
            best_itps = max(best_itps, iterations / elapsed)
    return best_ips, best_itps


def measure_macro(core="rocket", style="optimized", iterations=30, warmup=3,
                  instructions_per_iteration=1000, repeats=7):
    """The headline benchmark: optimized vs reference hot path.

    Both variants run the identical deterministic workload (same spec,
    same seeds — the campaigns are bit-identical by construction, which
    the equivalence suite asserts), so the ratio isolates the hot-path
    implementation.
    """
    from repro.perf.reference import reenact_pre_overhaul

    session = _build_session(core, style, instructions_per_iteration)
    session.run_iterations(warmup)
    with reenact_pre_overhaul():
        reference = _build_session(core, style, instructions_per_iteration)
        reference.core.use_reference_observer(True)
        reference.run_iterations(warmup)
    # Deliberately no gc.freeze(): freezing the warmed object graph lifts
    # absolute throughput on both sides, but it relieves the
    # allocation-heavy reference path far more than the allocation-free
    # optimized one and compresses the gated ratio by ~25% (measured).
    # The baseline series has always been collected unfrozen; keep it
    # comparable.

    # Interleave the two variants' measurement windows so machine-speed
    # drift (shared CI runners fluctuate on the scale of seconds) hits
    # both sides of the ratio equally.  The *absolute* throughputs keep
    # the best window (what the code can do), but the gated *ratio* is
    # the median of per-pair ratios: each optimized window divided by
    # the reference window adjacent to it in time, so common-mode speed
    # drift cancels pair-wise.  Taking the ratio of the two independent
    # maxima instead flaps badly on single-vCPU runners — the sides'
    # best windows can land at opposite ends of a frequency ramp.
    optimized_ips = optimized_itps = reference_ips = 0.0
    pair_ratios = []
    for _ in range(repeats):
        ips, itps = _measure_session(session, iterations, 1)
        optimized_ips = max(optimized_ips, ips)
        optimized_itps = max(optimized_itps, itps)
        with reenact_pre_overhaul():
            ref_ips, _ = _measure_session(reference, iterations, 1)
        reference_ips = max(reference_ips, ref_ips)
        if ref_ips:
            pair_ratios.append(ips / ref_ips)

    return {
        "core": core,
        "style": style,
        "iterations": iterations,
        "instructions_per_iteration": instructions_per_iteration,
        "repeats": repeats,
        "instructions_per_sec": optimized_ips,
        "iterations_per_sec": optimized_itps,
        "reference_instructions_per_sec": reference_ips,
        "speedup_vs_reference": (
            statistics.median(pair_ratios) if pair_ratios else None
        ),
    }


def measure_grid(budget_iterations=12, instructions_per_iteration=500):
    """Small fig11-style grid (the CI smoke workload): every registered
    DUT core under the optimized layout, one TurboFuzz campaign each."""
    rows = {}
    for core in ("rocket", "cva6", "boom"):
        session = _build_session(core, "optimized",
                                 instructions_per_iteration)
        session.run_iterations(2)
        ips, itps = _measure_session(session, budget_iterations, 1)
        rows[core] = {
            "instructions_per_sec": ips,
            "iterations_per_sec": itps,
            "coverage_total": session.coverage_total,
        }
    return rows


def measure_micro():
    """Component benchmarks for the pieces the tentpole rewrote."""
    results = {}

    lfsr = Lfsr(0xBEEF)
    lfsr.fill_bytes(1 << 14)  # warm the basis cache
    start = time.perf_counter()
    filled = 0
    while filled < 1 << 22:
        lfsr.fill_bytes(1 << 14)
        filled += 1 << 14
    elapsed = time.perf_counter() - start
    results["lfsr_fill_mb_per_sec"] = filled / elapsed / (1 << 20)

    start = time.perf_counter()
    draws = 200_000
    for _ in range(draws):
        lfsr.below(32)
    results["lfsr_draws_per_sec"] = draws / (time.perf_counter() - start)

    from repro.isa.decoder import decode
    from repro.isa.encoder import encode

    words = [encode("addi", rd=5, rs1=6, imm=7), encode("add", rd=7, rs1=8, rs2=9),
             encode("lw", rd=10, rs1=5, imm=16), encode("beq", rs1=5, rs2=6, imm=8)]
    for word in words:
        decode(word)
    start = time.perf_counter()
    lookups = 50_000
    for _ in range(lookups):
        for word in words:
            decode(word)
    results["decode_hot_per_sec"] = (
        lookups * len(words) / (time.perf_counter() - start)
    )

    session = _build_session()
    session.run_iterations(1)
    core = session.core
    vals = core.vals
    fused = core._fused
    start = time.perf_counter()
    observations = 100_000
    for index in range(observations):
        vals["pc_lo"] = index & 7
        fused.observe(vals)
    results["observe_per_sec"] = (
        observations / (time.perf_counter() - start)
    )
    return results


_STAGE_MARKERS = {
    "generate": ("fuzzer.py", "generate_iteration"),
    "execute": ("executor.py", "step"),
    "microarch_update": ("core.py", "_update_microarch"),
    "observe": ("core.py", "_observe_active"),
    "latency": ("core.py", "_latency"),
    "image_build": ("image.py", "build_image"),
}


def profile_stages(iterations=10, instructions_per_iteration=1000):
    """Per-stage cumulative seconds from a short cProfile capture."""
    session = _build_session(
        instructions_per_iteration=instructions_per_iteration)
    session.run_iterations(2)
    profiler = cProfile.Profile()
    profiler.enable()
    session.run_iterations(iterations)
    profiler.disable()
    stats = pstats.Stats(profiler)
    stages = {name: 0.0 for name in _STAGE_MARKERS}
    total = 0.0
    for (filename, _line, function), row in stats.stats.items():
        cumulative = row[3]
        total += row[2]  # tottime sums to wall
        for stage, (file_marker, function_name) in _STAGE_MARKERS.items():
            if function == function_name and filename.endswith(file_marker):
                stages[stage] += cumulative
    stages["profiled_total"] = total
    return stages


def collect(repeats=7, iterations=30, with_stages=False):
    """Everything the baseline file persists, in one call."""
    result = {
        "macro": measure_macro(repeats=repeats, iterations=iterations),
        "micro": measure_micro(),
    }
    if with_stages:
        result["stages"] = profile_stages()
    return result


def flat_metrics(result):
    """Flatten a :func:`collect` result into dotted metric names."""
    metrics = {}
    macro = result.get("macro", {})
    for key in ("instructions_per_sec", "iterations_per_sec",
                "speedup_vs_reference"):
        if macro.get(key) is not None:
            metrics[f"macro.{key}"] = macro[key]
    for key, value in result.get("micro", {}).items():
        metrics[f"micro.{key}"] = value
    return metrics
