"""One measurement process of the campaign-loop benchmark.

``run.py`` starts this script with ``PYTHONHASHSEED`` pinned and ``src``
on the import path.  It runs one workload and prints one JSON object as
its last line of output:

* ``--trace 0``: end-to-end figures from untraced repetitions;
* ``--trace 1``: per-layer figures from spans recorded around the public
  calls into each layer, from a recorded-iteration replay, and from
  untraced repetitions alternating with the traced ones (the tracing
  overhead);
* ``--setup-only``: build the workload's session or orchestrator, print
  ``ready`` and exit (``run.py`` times this from process start).

Times of the serial workloads are scaled to the reference machine speed
(calibration.py).  The ``sharded`` grid keeps on both CPUs; a one-thread
kernel run between its slices does not track its speed (normalizing that
way widened its spread over seeds from about 6% to about 13%), so its
times are raw host times.

Every repetition is a unit of work that is checked.  It fails if it
raises, or if its digest differs from the committed one.  For seeds with
no committed digest, it fails if its digest differs from the first
repetition's.  It also fails if a shard is quarantined, or if lockstep
checking reports a mismatch on a core without injected bugs.
"""

import argparse
import contextlib
import itertools
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import calibration
import workloads
from spans import Tracer, patched

import repro.harness.runner as runner_module
from repro.campaign import (
    CampaignCheckpoint,
    CampaignOrchestrator,
    SupervisedQueueBackend,
    build_session,
)
from repro.dut.bugs import CorrectHooks
from repro.fuzzer.fuzzer import TurboFuzzer
from repro.harness import IterationRunner, build_image
from repro.ref import ArchState, ExecConfig, Executor, SparseMemory
try:
    from repro.ref.blockcompile import compile_stats
except ImportError:  # a tree without block-compiled dispatch compiles nothing
    def compile_stats(core):
        return {"compiled_instructions": 0}

HERE = Path(__file__).resolve().parent
RECORDED_ITERATIONS = 10
REPLAY_ROUNDS = 3
CHECKPOINT_ROUNDS = 3
SPANS_DIR = Path(".perfbench-out")


# -- checking -----------------------------------------------------------------
class Units:
    """Attempted and failed units of work, with the reasons for failures."""

    def __init__(self, expected):
        self.expected = expected   # digest key -> digest
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def attempt(self, body):
        """Run one unit; ``body`` returns ``(result, problems)``.  A unit
        that raises counts as failed and yields ``None``."""
        try:
            result, problems = body()
        except Exception as exc:
            self.record([f"{type(exc).__name__}: {exc}"])
            return None
        self.record(problems)
        return result

    def digest_problems(self, key, session):
        got = workloads.digest(session)
        want = self.expected.setdefault(key, got)
        if got == want:
            return []
        return [f"{key}: digest {got[:16]} differs from expected {want[:16]}"]


def expected_digests(workload, seed):
    committed = json.loads((HERE / "expected_digests.json").read_text())
    key = str(seed)
    expected = {name: digests[key] for name, digests in committed.items()
                if key in digests}
    if workload == "sharded" and "fuzz" in expected:
        expected["shard0"] = expected["fuzz"]
    return expected


# -- repetitions ----------------------------------------------------------------
def window(seconds, repetition):
    """Run repetitions until ``seconds`` of host time passed (at least
    one attempt); returns the results of those that succeeded."""
    results = []
    deadline = time.perf_counter() + seconds
    attempts = 0
    while attempts == 0 or time.perf_counter() < deadline:
        attempts += 1
        result = repetition()
        if result is not None:
            results.append(result)
    return results


def run_session(spec, iterations, instrument=None):
    """A fresh campaign of ``iterations`` closed-loop iterations.  Returns
    the session, the host ns of each ``run_iteration``, and the ns of the
    calibration kernel run just before each iteration."""
    session = build_session(spec)
    if instrument is not None:
        instrument(session)
    run_iteration = session.run_iteration
    kernel_ns = calibration.kernel_ns
    clock = time.perf_counter_ns
    samples, kernels = [], []
    for _ in range(iterations):
        kernels.append(kernel_ns())
        start = clock()
        run_iteration()
        samples.append(clock() - start)
    return session, samples, kernels


def session_record(session, samples, kernels):
    """What the metrics need from one repetition (sessions are dropped)."""
    fuzzer = session.fuzzer
    norm = [ns * factor for ns, factor
            in zip(samples, calibration.local_factors(kernels))]
    return {
        "executed": session.total_executed,
        "raw_ns": sum(samples),
        "norm_ns": norm,
        "time_ns": sum(norm),
        "kernel_ns": kernels,
        "coverage": session.coverage_total,
        "iterations": session.iterations,
        "seeds_added": fuzzer.stats.seeds_added,
        "corpus_seeds": len(fuzzer.corpus),
        "productive": sum(1 for o in session.history if o.new_coverage > 0),
        "compiled": compile_stats(session.core)["compiled_instructions"],
    }


def session_repetition(units, key, spec, iterations, instrument=None,
                       finish=None):
    """One repetition as a checked unit.  ``finish`` gets the checked
    session; no session outlives its repetition, because a live campaign
    left over makes the next repetition's garbage collections slower."""
    def body():
        session, samples, kernels = run_session(spec, iterations, instrument)
        problems = units.digest_problems(key, session)
        problems += [f"{key}: lockstep mismatch in iteration {o.index}"
                     for o in session.history if o.mismatch is not None]
        if finish is not None:
            finish(session)
        return session_record(session, samples, kernels), problems
    return lambda: units.attempt(body)


def grid_repetition(units, seed, budget, tracer=None, grid_id=0):
    """One ``sharded`` repetition: wall time of the whole grid, and the
    end of every slice with the iterations each shard has done by then."""
    def body():
        orchestrator = CampaignOrchestrator(
            workloads.shard_specs(seed),
            backend=SupervisedQueueBackend(workers=workloads.workers()))
        sessions = list(orchestrator.sessions.values())
        clock = time.perf_counter_ns
        marks = []   # (slice end ns, iterations per shard)

        def on_milestone(kind, remote=False, **_):
            if kind == "time_slice" and not remote:
                marks.append((clock(), [s.iterations for s in sessions]))
                if tracer is not None:
                    tracer.group = (grid_id, len(marks))

        orchestrator.bus.subscribe("milestone", on_milestone)
        if tracer is not None:
            tracer.group = (grid_id, 0)
            for session in sessions:
                session.load_state = tracer.wrap("session.load_state",
                                                 session.load_state)
        start = clock()
        orchestrator.run_for_virtual_time(
            budget, max_iterations=workloads.FUZZ_ITERATIONS,
            slices=workloads.SHARD_SLICES)
        end = clock()
        report = orchestrator.report()
        problems = []
        for index, session in enumerate(sessions):
            problems += units.digest_problems(f"shard{index}", session)
        problems += [f"shard {label} is {health}"
                     for label, health in report["shard_health"].items()
                     if health != "ok"]
        record = {
            "executed": sum(s.total_executed for s in sessions),
            "coverage": sum(s.coverage_total for s in sessions),
            "raw_ns": end - start,
            "time_ns": end - start,
            "slices": grid_slices(start, marks),
            "counters": report.get("resilience", {}).get("counters", {}),
        }
        return record, problems
    return lambda: units.attempt(body)


def grid_slices(start, marks):
    """Per-slice wall ns and the iterations each shard advanced in it."""
    slices = []
    previous_ns, previous = start, None
    for end_ns, iterations in marks:
        advanced = [now - (previous[i] if previous else 0)
                    for i, now in enumerate(iterations)]
        slices.append({"ns": end_ns - previous_ns, "advanced": advanced})
        previous_ns, previous = end_ns, iterations
    return slices


def working_slices(grid):
    return [s for s in grid["slices"] if any(s["advanced"])]


def shard_iteration_ms(grid):
    """Host ms per shard iteration: each slice's wall time spread over the
    iterations a shard advanced in it."""
    samples = []
    for piece in working_slices(grid):
        for count in piece["advanced"]:
            if count:
                samples.extend([piece["ns"] / count / 1e6] * count)
    return samples


def reference_run(units, seed, instrument=None):
    """Serial run of shard 0 (``fuzz``'s spec): checks shard 0 against
    the serial result and sets the grid's virtual-time budget."""
    def body():
        session, samples, kernels = run_session(
            workloads.fuzz_spec(seed), workloads.FUZZ_ITERATIONS, instrument)
        record = session_record(session, samples, kernels)
        return (session.clock.seconds, record), units.digest_problems(
            "shard0", session)
    result = units.attempt(body)
    if result is None:
        raise SystemExit("sharded: the serial reference run failed: "
                         + "; ".join(units.problems))
    return result


def rate(records, key="time_ns"):
    """Instructions per reported ns (``key="raw_ns"``: per host ns)."""
    return sum(r["executed"] for r in records) / sum(r[key] for r in records)


def session_workload(name, seed):
    if name == "fuzz":
        return workloads.fuzz_spec(seed), workloads.FUZZ_ITERATIONS
    return workloads.lockstep_spec(seed), workloads.LOCKSTEP_ITERATIONS


# -- end-to-end ---------------------------------------------------------------
def percentile(samples, fraction):
    return statistics.quantiles(samples, n=100, method="inclusive")[
        round(fraction * 100) - 1]


def peak_rss_mb():
    """Peak resident MB of this process and of its largest worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return own, workers


def end_to_end(args, units):
    if args.workload == "sharded":
        budget, reference = reference_run(units, args.seed)
        kernels = reference["kernel_ns"]
        reps = window(args.seconds, grid_repetition(units, args.seed, budget))
        samples = [ms for rep in reps for ms in shard_iteration_ms(rep)]
    else:
        spec, iterations = session_workload(args.workload, args.seed)
        run_session(spec, workloads.WARMUP_ITERATIONS)
        reps = window(args.seconds, session_repetition(
            units, args.workload, spec, iterations))
        samples = [ns / 1e6 for rep in reps for ns in rep["norm_ns"]]
        kernels = [k for rep in reps for k in rep["kernel_ns"]]
    if not reps:
        raise SystemExit(f"{args.workload}: every repetition failed")
    own_mb, workers_mb = peak_rss_mb()
    metrics = {
        "instr_per_s": rate(reps) * 1e9,
        "iter_ms_p50": statistics.median(samples),
        "iter_ms_p90": percentile(samples, 0.9),
        # Of this process only: which worker draws which shard-slice is
        # up to the queue, which made the largest worker's peak spread
        # by about 11% over seeds.  It is reported in the notes.
        "peak_rss_mb": own_mb,
        "coverage_points": reps[-1]["coverage"],
    }
    notes = {
        "iteration_samples": len(samples),
        "repetitions": len(reps),
        "raw_instr_per_s": rate(reps, "raw_ns") * 1e9,
        "kernel_mops": calibration.mops(kernels),
        "peak_rss_parent_mb": own_mb,
        "peak_rss_worker_mb": workers_mb,
    }
    return metrics, notes


# -- tracing ------------------------------------------------------------------
def instrument_session(tracer, runs, recorded):
    """Wrap the public layer calls of one live session in spans."""
    def instrument(session):
        fuzzer = session.fuzzer

        def keep(iteration):
            if len(recorded) < RECORDED_ITERATIONS:
                recorded.append(iteration)

        fuzzer.generate_iteration = tracer.wrap(
            "fuzzer.generate_iteration", fuzzer.generate_iteration, after=keep)
        fuzzer.feedback = tracer.wrap("fuzzer.feedback", fuzzer.feedback)
        session.runner.run = tracer.wrap("runner.run", session.runner.run,
                                         after=runs.append)
        coverage = session.coverage
        coverage.counts_by_module = tracer.wrap(
            "coverage.counts_by_module", coverage.counts_by_module)
        coverage.weights.weighted_total = tracer.wrap(
            "coverage.weighted_total", coverage.weights.weighted_total)
        session.run_iteration = tracer.wrap(
            "session.run_iteration", session.run_iteration, root=True)
    return instrument


@contextlib.contextmanager
def image_spans(tracer):
    """Time ``build_image`` under the name the runner module calls."""
    with patched(runner_module, "build_image",
                 tracer.wrap("image.build_image", build_image)):
        yield


@contextlib.contextmanager
def checkpoint_spans(tracer, sizes):
    """Time checkpoint capture, JSON encode and decode on the class."""
    def note_size(text):
        sizes.append((tracer.group, len(text)))

    with contextlib.ExitStack() as stack:
        stack.enter_context(patched(
            CampaignCheckpoint, "capture", staticmethod(tracer.wrap(
                "checkpoint.capture", CampaignCheckpoint.capture))))
        stack.enter_context(patched(
            CampaignCheckpoint, "to_json", tracer.wrap(
                "checkpoint.to_json", CampaignCheckpoint.to_json,
                after=note_size)))
        stack.enter_context(patched(
            CampaignCheckpoint, "from_json", staticmethod(tracer.wrap(
                "checkpoint.from_json", CampaignCheckpoint.from_json))))
        yield


def checkpoint_round_trips(units, tracer, session, sizes, kernels):
    """Capture, encode, decode and load the session's checkpoint; the
    loaded campaign must have the same digest as the live one.  Returns
    each round's trace id -> machine-speed factor."""
    factors = {}

    def body():
        with checkpoint_spans(tracer, sizes):
            for index in range(CHECKPOINT_ROUNDS):
                round_kernels = [calibration.kernel_ns() for _ in range(3)]
                kernels.extend(round_kernels)
                tracer.group = f"checkpoint-round{index}"
                factors[tracer.group] = calibration.factor(round_kernels)
                text = CampaignCheckpoint.capture(session).to_json()
                restored = CampaignCheckpoint.from_json(text)
                fresh = build_session(restored.spec)
                tracer.wrap("session.load_state", fresh.load_state)(
                    restored.state)
        same = workloads.digest(fresh) == workloads.digest(session)
        return None, [] if same else ["checkpoint round trip changed the digest"]
    units.attempt(body)
    return factors


def replay(spec, recorded):
    """Replay recorded iterations three ways and return ns/instruction on
    the reference machine: a bare REF ``Executor``, the runner without
    REF, and the runner with REF lockstep checking.  Images are built
    once, outside the timing, and the ways take turns per iteration so a
    change in machine speed hits all of them alike."""
    session = build_session(spec)
    core = session.core
    images = {id(iteration): build_image(iteration) for iteration, _ in recorded}
    runners = {"runner": IterationRunner(core, with_ref=False),
               "lockstep": IterationRunner(core, with_ref=True)}
    clock = time.perf_counter_ns
    rows = []   # (round, kernel ns, way -> (ns, instructions))
    mismatches = 0
    with patched(runner_module, "build_image",
                 lambda iteration: images[id(iteration)]):
        for round_index in range(REPLAY_ROUNDS):
            for iteration, steps in recorded:
                kernel = calibration.kernel_ns()
                start = clock()
                bare_replay(images[id(iteration)], steps, core.rv32a_only)
                ways = {"bare": (clock() - start, steps)}
                for way, runner in runners.items():
                    start = clock()
                    result = runner.run(iteration)
                    ways[way] = (clock() - start, result.executed_instructions)
                    mismatches += result.mismatch is not None
                rows.append((round_index, kernel, ways))
    factors = calibration.local_factors([kernel for _, kernel, _ in rows])
    medians = {}
    for way in ("bare", "runner", "lockstep"):
        per_round = []
        for round_index in range(REPLAY_ROUNDS):
            picked = [(ways[way], f) for (r, _, ways), f in zip(rows, factors)
                      if r == round_index]
            per_round.append(sum(ns * f for (ns, _), f in picked)
                             / sum(count for (_, count), _ in picked))
        medians[way] = statistics.median(per_round)
    return medians, mismatches, [kernel for _, kernel, _ in rows]


def bare_replay(image, steps, rv32a_only):
    memory = SparseMemory()
    image.install(memory)
    executor = Executor(ArchState(pc=image.layout.reset), memory,
                        config=ExecConfig(),
                        hooks=CorrectHooks(rv32a_only=rv32a_only))
    step = executor.step
    for _ in range(steps):
        step()


def iteration_layers(totals, runs, reps):
    """Per-iteration layer figures from the spans of traced iterations."""
    iterations, _, iteration_ns = totals["session.run_iteration"]

    def self_ns(name):
        return totals.get(name, (0, 0, 0))[1]

    def ms(ns):
        return ns / iterations / 1e6

    layer_names = ("fuzzer.generate_iteration", "fuzzer.feedback",
                   "image.build_image", "runner.run",
                   "coverage.counts_by_module", "coverage.weighted_total",
                   "session.run_iteration")
    executed = sum(run.executed_instructions for run in runs)
    traced_iterations = sum(rep["iterations"] for rep in reps)
    return {
        "fuzzer.generate_ms": ms(self_ns("fuzzer.generate_iteration")),
        "fuzzer.feedback_us": ms(self_ns("fuzzer.feedback")) * 1e3,
        "fuzzer.seeds_added_frac": (
            sum(rep["seeds_added"] for rep in reps) / traced_iterations),
        "fuzzer.corpus_seeds": statistics.mean(
            rep["corpus_seeds"] for rep in reps),
        "image.build_ms": ms(self_ns("image.build_image")),
        "runner.run_ms": ms(self_ns("runner.run")),
        "runner.ns_per_instr": self_ns("runner.run") / executed,
        "runner.prevalence": statistics.mean(run.prevalence for run in runs),
        "runner.traps_per_iter": statistics.mean(run.traps for run in runs),
        "blockcompile.compiled_share": (
            sum(rep["compiled"] for rep in reps)
            / sum(rep["executed"] for rep in reps)),
        "coverage.counts_ms": ms(self_ns("coverage.counts_by_module")
                                 + self_ns("coverage.weighted_total")),
        "coverage.productive_frac": (
            sum(rep["productive"] for rep in reps) / traced_iterations),
        "session.self_ms": ms(self_ns("session.run_iteration")),
        "session.iteration_ms": ms(iteration_ns),
        "trace.accounted_frac": (
            sum(self_ns(name) for name in layer_names) / iteration_ns),
    }


def checkpoint_layers(totals, sizes):
    def mean_ms(name):
        calls, _, duration = totals[name]
        return duration / calls / 1e6

    return {
        "checkpoint.bytes": max(size for _, size in sizes),
        "checkpoint.capture_ms": mean_ms("checkpoint.capture"),
        "checkpoint.encode_ms": mean_ms("checkpoint.to_json"),
        "checkpoint.decode_ms": mean_ms("checkpoint.from_json"),
        "checkpoint.load_ms": mean_ms("session.load_state"),
    }


NO_BACKEND = {
    "backends.slice_ms": 0.0,
    "backends.slice_ms_max": 0.0,
    "backends.slice_growth": 0.0,
    "backends.ship_ms": 0.0,
    "backends.retries": 0,
    "backends.redispatches": 0,
    "backends.worker_losses": 0,
}


def alternate(seconds, plain, traced):
    """Alternate untraced and traced repetitions for ``seconds`` (at least
    one pair), so drift in machine speed hits both sides alike."""
    pairs = window(seconds, lambda: (plain(), traced()))
    return ([p for p, _ in pairs if p is not None],
            [t for _, t in pairs if t is not None])


def session_layers(args, units, tracer, runs, recorded, sizes, kernels):
    spec, iterations = session_workload(args.workload, args.seed)
    run_session(spec, workloads.WARMUP_ITERATIONS)
    round_factors = {}

    def round_trip_once(session):
        if not round_factors:
            round_factors.update(checkpoint_round_trips(
                units, tracer, session, sizes, kernels))

    plain = session_repetition(units, args.workload, spec, iterations)
    traced_rep = session_repetition(
        units, args.workload, spec, iterations,
        instrument_session(tracer, runs, recorded), round_trip_once)

    def traced():
        with image_spans(tracer):
            return traced_rep()

    untraced, traced_reps = alternate(args.seconds, plain, traced)
    if not untraced or not traced_reps:
        raise SystemExit(f"{args.workload}: every repetition failed")
    kernels += [k for rep in untraced + traced_reps for k in rep["kernel_ns"]]
    overhead = 1.0 - rate(traced_reps) / rate(untraced)
    return spec, traced_reps, dict(NO_BACKEND), overhead, round_factors, {}


def grid_layers(args, units, tracer, runs, recorded, sizes, kernels):
    spec = workloads.fuzz_spec(args.seed)
    with image_spans(tracer):
        budget, reference = reference_run(
            units, args.seed, instrument_session(tracer, runs, recorded))
    plain = grid_repetition(units, args.seed, budget)
    grid_ids = itertools.count()

    def traced():
        with checkpoint_spans(tracer, sizes):
            return grid_repetition(units, args.seed, budget, tracer,
                                   next(grid_ids))()

    untraced, grids = alternate(args.seconds, plain, traced)
    if not untraced or not grids:
        raise SystemExit("sharded: every repetition failed")
    kernels += reference["kernel_ns"]
    per_grid = [[s["ns"] / 1e6 for s in working_slices(grid)]
                for grid in grids]
    slices = [ms for grid_slices in per_grid for ms in grid_slices]
    totals = tracer.totals()
    ship_ns = sum(totals[name][2] for name in (
        "checkpoint.capture", "checkpoint.to_json",
        "checkpoint.from_json", "session.load_state"))
    counters = grids[-1]["counters"]
    backends = {
        "backends.slice_ms": statistics.median(slices),
        "backends.slice_ms_max": max(slices),
        "backends.slice_growth": (statistics.mean(s[-1] for s in per_grid)
                                  / statistics.mean(s[0] for s in per_grid)),
        "backends.ship_ms": ship_ns / len(slices) / 1e6,
        "backends.retries": counters.get("failures", 0),
        "backends.redispatches": counters.get("redispatches", 0),
        "backends.worker_losses": counters.get("worker_losses", 0),
    }
    notes = {
        "slice_ms": [round(ms, 1) for ms in per_grid[-1]],
        "checkpoint_bytes_by_slice": bytes_by_slice(sizes),
    }
    overhead = 1.0 - rate(grids) / rate(untraced)
    return spec, [reference], backends, overhead, {}, notes


def bytes_by_slice(sizes):
    """Largest checkpoint shipped in each slice, in slice order."""
    by_slice = {}
    for (_, slice_index), size in sizes:
        by_slice[slice_index] = max(size, by_slice.get(slice_index, 0))
    return [size for _, size in sorted(by_slice.items())]


def per_layer(args, units):
    tracer = Tracer()
    runs, recorded, sizes, kernels = [], [], [], []
    layers = grid_layers if args.workload == "sharded" else session_layers
    spec, traced_reps, backends, overhead, round_factors, notes = layers(
        args, units, tracer, runs, recorded, sizes, kernels)
    # Iteration spans are scaled by the kernels run next to their
    # iteration, checkpoint round trips by the kernels run before each
    # round; the grid's spans stay raw, like its end-to-end times.
    iteration_factors = calibration.local_factors(
        [k for rep in traced_reps for k in rep["kernel_ns"]])

    def scale(trace_id):
        if isinstance(trace_id, int) and trace_id < len(iteration_factors):
            return iteration_factors[trace_id]
        return round_factors.get(trace_id, 1.0)

    totals = tracer.totals(scale)
    metrics = iteration_layers(totals, runs, traced_reps)
    metrics.update(checkpoint_layers(totals, sizes))
    metrics.update(backends)
    steps = [run.executed_instructions for run in runs[:len(recorded)]]
    medians, mismatches, replay_kernels = replay(
        spec, list(zip(recorded, steps)))
    if mismatches:
        units.record([f"replay: {mismatches} lockstep mismatches"])
    metrics.update({
        "ref.replay_ns_per_instr": medians["bare"],
        "dut.overhead_ns_per_instr": medians["runner"] - medians["bare"],
        "checker.lockstep_tax_ns_per_instr": (
            medians["lockstep"] - medians["runner"]),
        "trace.overhead_frac": overhead,
    })
    notes["traced_iterations"] = totals["session.run_iteration"][0]
    notes["spans"] = len(tracer.spans)
    notes["kernel_mops"] = calibration.mops(kernels + replay_kernels)
    path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(path)
    notes["spans_file"] = str(path)
    return metrics, notes


# -- entry point ----------------------------------------------------------------
def inject_busy_wait(ms):
    """Self-test only: busy-wait ``ms`` before every generate_iteration."""
    original = TurboFuzzer.generate_iteration
    wait_ns = int(ms * 1e6)

    def slowed(self, *args, **kwargs):
        end = time.perf_counter_ns() + wait_ns
        while time.perf_counter_ns() < end:
            pass
        return original(self, *args, **kwargs)

    TurboFuzzer.generate_iteration = slowed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--inject-generate-ms", type=float, default=0.0)
    args = parser.parse_args(argv)

    if args.setup_only:
        if args.workload == "sharded":
            CampaignOrchestrator(
                workloads.shard_specs(args.seed),
                backend=SupervisedQueueBackend(workers=workloads.workers()))
        else:
            build_session(session_workload(args.workload, args.seed)[0])
        print("ready", flush=True)
        return 0
    if args.inject_generate_ms:
        inject_busy_wait(args.inject_generate_ms)
    units = Units(expected_digests(args.workload, args.seed))
    measure = per_layer if args.trace else end_to_end
    metrics, notes = measure(args, units)
    print(json.dumps({
        "metrics": metrics,
        "attempted": units.attempted,
        "failed": units.failed,
        "problems": units.problems,
        "notes": notes,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
