"""Campaign-loop benchmark of the TurboFuzz reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload fuzz --seed 1 --seconds 20 --trace 0

Workloads: ``fuzz``, ``lockstep``, ``sharded`` (see workloads.py).  With
``--trace 0`` it prints every end-to-end metric named in BENCHMARK.json;
with ``--trace 1`` every per-layer metric.  The last line of output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

The measurement itself runs in a child process (measure.py) with
``PYTHONHASHSEED`` pinned, because dict layout alone moves throughput by
about 15% between processes.  Set-up time is the median of several fresh
processes, each timed from its start until the workload's session or
orchestrator is built.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 11
CHILD_TIMEOUT_S = 170


def child_env():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path("src").resolve()), env.get("PYTHONPATH")]))
    return env


def setup_seconds(workload, seed):
    """Median over fresh processes of start -> session/orchestrator built,
    each scaled to the reference machine speed (calibration.py)."""
    command = [sys.executable, str(HERE / "measure.py"), "--workload",
               workload, "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        kernels = [calibration.kernel_ns() for _ in range(3)]
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                              env=child_env()) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            if child.wait(timeout=CHILD_TIMEOUT_S) != 0 or line.strip() != "ready":
                raise SystemExit(f"set-up probe failed (exit {child.returncode})")
        times.append(elapsed * calibration.factor(kernels))
    return statistics.median(times)


def measure(args):
    command = [sys.executable, str(HERE / "measure.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.inject_generate_ms:
        command += ["--inject-generate-ms", str(args.inject_generate_ms)]
    # The child's workers share its new process group: a timeout kills
    # them all, so none outlives the run.
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                          env=child_env(), start_new_session=True) as child:
        try:
            output, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            raise SystemExit("measurement timed out") from None
    if child.returncode != 0:
        raise SystemExit(f"measurement failed (exit {child.returncode})")
    return json.loads(output.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-generate-ms", type=float, default=0.0,
                        help=argparse.SUPPRESS)  # self-test only
    args = parser.parse_args(argv)

    if not Path("src/repro/campaign/__init__.py").is_file():
        print("run.py: no src/repro here; run from the repository root",
              file=sys.stderr)
        return 2
    contract = json.loads(Path("BENCHMARK.json").read_text())
    wanted = contract["per_layer" if args.trace else "end_to_end"]
    host = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "calibration_mops": calibration.mops(
                [calibration.kernel_ns() for _ in range(7)])}

    # Set-up probes run first, while the host is not yet busy with us.
    setup = None if args.trace else setup_seconds(args.workload, args.seed)
    result = measure(args)
    values = dict(result["metrics"])
    if setup is not None:
        values["setup_s"] = setup
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"measurement lacks metrics: {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    attempted, failed = result["attempted"], result["failed"]
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("host " + json.dumps(host, sort_keys=True))
    print("notes " + json.dumps(result["notes"], sort_keys=True))
    for m in wanted:
        value = values[m["name"]]
        print(f"  {m['name']:<36} {value:>16.6g} {m['unit']:<6} "
              f"({m['better']} is better)")
    print(f"  {'failed_frac':<36} {failed / max(1, attempted):>16.6g} "
          f"{'frac':<6} ({failed} of {attempted} units)")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
