"""CLI for the perf harness: measure, update the baseline, or gate.

Examples::

    PYTHONPATH=src python -m repro.perf measure
    PYTHONPATH=src python -m repro.perf measure --stages
    PYTHONPATH=src python -m repro.perf update-baseline
    PYTHONPATH=src python -m repro.perf gate --tolerance 0.10
"""

import argparse
import json
import os
import sys

from repro.perf.baseline import (
    DEFAULT_TOLERANCE,
    baseline_path,
    compare,
    load_baseline,
    save_baseline,
)
from repro.perf.harness import collect, flat_metrics


def _parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Hot-path benchmark harness and regression gate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    measure = sub.add_parser("measure", help="run the benchmarks and print JSON")
    measure.add_argument("--repeats", type=int, default=7)
    measure.add_argument("--iterations", type=int, default=30)
    measure.add_argument("--stages", action="store_true",
                         help="include the cProfile per-stage breakdown")

    update = sub.add_parser("update-baseline",
                            help="measure and rewrite the committed baseline")
    update.add_argument("--repeats", type=int, default=7)
    update.add_argument("--iterations", type=int, default=30)
    update.add_argument("--path", default=None)

    gate = sub.add_parser("gate",
                          help="measure and fail (exit 1) on regression")
    gate.add_argument("--repeats", type=int, default=7)
    gate.add_argument("--iterations", type=int, default=30)
    gate.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    gate.add_argument("--path", default=None)
    return parser


def _pin_hash_seed():
    """Re-exec with a fixed PYTHONHASHSEED if none was requested.

    Per-process hash randomization gives each run a dict-layout
    "personality" worth ±15% on the dict-heavy hot path — more than the
    gate's tolerance.  Pinning the seed makes measure/gate runs of the
    same code reproduce; export PYTHONHASHSEED yourself to study the
    spread.
    """
    if os.environ.get("PYTHONHASHSEED") is None:
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, "-m", "repro.perf",
                                   *sys.argv[1:]], env)


def main(argv=None):
    if argv is None:
        _pin_hash_seed()
    args = _parser().parse_args(argv)

    if args.command == "measure":
        result = collect(repeats=args.repeats, iterations=args.iterations,
                         with_stages=args.stages)
        print(json.dumps(result, indent=2, sort_keys=True))
        return 0

    if args.command == "update-baseline":
        result = collect(repeats=args.repeats, iterations=args.iterations)
        path = save_baseline(result, path=args.path)
        print(f"baseline written: {path}")
        print(json.dumps(flat_metrics(result), indent=2, sort_keys=True))
        return 0

    # gate
    result = collect(repeats=args.repeats, iterations=args.iterations)
    current = flat_metrics(result)
    baseline = load_baseline(args.path)
    regressions = compare(current, baseline, tolerance=args.tolerance)
    print("current:", json.dumps(current, indent=2, sort_keys=True))
    print("baseline:", args.path or baseline_path())
    if regressions:
        for regression in regressions:
            print("REGRESSION:", regression.get("reason", regression),
                  file=sys.stderr)
        print("hint: check the hot paths for reintroduced allocations with\n"
              "      PYTHONPATH=src python -m repro.analyze report --select HOT src/",
              file=sys.stderr)
        return 1
    print(f"perf gate OK (tolerance {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
