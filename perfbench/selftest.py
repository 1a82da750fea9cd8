"""Self-test: the benchmark must flag a slowdown of known size and name
the layer it was put in.

    python3 perfbench/selftest.py --seed 1 --seconds 20 --inject-ms 20

Runs ``fuzz`` with and without a busy-wait of ``--inject-ms`` put in
front of every ``TurboFuzzer.generate_iteration`` call (from outside the
program, as the traced run wraps calls).  It passes when ``instr_per_s``
falls by more than its bound from BENCHMARK.json, and when
``fuzzer.generate_ms`` is the only per-layer metric that moved: a timing
moved if it changed by more than half; a simulated count or fraction moved
if it changed at all.  ``trace.*`` metrics describe the
tracing itself and ``session.iteration_ms`` is the whole iteration, which
holds every layer; neither is a layer.  Exits 1 when the test fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

TIME_UNITS = {"ms", "us", "ns"}
PAIRS = 2      # untraced base/slowed pairs; instr_per_s is their median
MOVED = 0.5    # relative change beyond which a timing counts as moved


def run(seed, seconds, trace, inject_ms):
    command = [sys.executable, str(Path(__file__).with_name("run.py")),
               "--workload", "fuzz", "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--inject-generate-ms", str(inject_ms)]
    output = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                            check=True).stdout
    result = json.loads(output.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"run was not correct: {output}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def moved(unit, before, after):
    if unit in TIME_UNITS:
        if before == 0:
            return after != 0
        return abs(after / before - 1.0) > MOVED
    return abs(after - before) > 1e-9 * max(abs(before), 1.0)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--inject-ms", type=float, default=20.0)
    args = parser.parse_args(argv)
    contract = json.loads(Path("BENCHMARK.json").read_text())
    bound = next(m["bound"] for m in contract["end_to_end"]
                 if m["name"] == "instr_per_s")

    base, slowed = [], []
    for _ in range(PAIRS):
        base.append(run(args.seed, args.seconds, 0, 0)["instr_per_s"])
        slowed.append(run(args.seed, args.seconds, 0, args.inject_ms)
                      ["instr_per_s"])
    base_ips, slowed_ips = statistics.median(base), statistics.median(slowed)
    drop = 1.0 - slowed_ips / base_ips
    flagged = drop > bound
    print(f"instr_per_s: {base_ips:.1f} -> {slowed_ips:.1f} "
          f"(drop {drop:.1%}, bound {bound:.0%}): "
          f"{'flagged' if flagged else 'NOT flagged'}")

    before = run(args.seed, args.seconds, 1, 0)
    after = run(args.seed, args.seconds, 1, args.inject_ms)
    movers = []
    for metric in contract["per_layer"]:
        name = metric["name"]
        if name.startswith("trace.") or name == "session.iteration_ms":
            continue
        changed = moved(metric["unit"], before[name], after[name])
        if changed:
            movers.append(name)
        print(f"  {name:<36} {before[name]:>14.6g} -> {after[name]:>14.6g} "
              f"{metric['unit']:<6}{'  MOVED' if changed else ''}")
    named = movers == ["fuzzer.generate_ms"]
    print(f"layers that moved: {', '.join(movers) or 'none'}")
    ok = flagged and named
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
