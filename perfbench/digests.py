"""Regenerate the committed output digests for a range of benchmark seeds.

    PYTHONHASHSEED=0 PYTHONPATH=src python3 perfbench/digests.py 0 20

Digests come from plain serial sessions, independent of the measured code
paths: ``fuzz`` after FUZZ_ITERATIONS iterations (which is also shard 0 of
``sharded``), ``shard1`` run to shard 0's final virtual time under the same
iteration cap (the budget the grid uses), and ``lockstep`` after
LOCKSTEP_ITERATIONS iterations.  Only run this when a change is meant to
alter campaign results; a speed-only change must leave every digest as is.
"""

import json
import sys
from pathlib import Path

import workloads

from repro.campaign import build_session

PATH = Path(__file__).resolve().parent / "expected_digests.json"


def seed_digests(seed):
    fuzz = build_session(workloads.fuzz_spec(seed))
    fuzz.run_iterations(workloads.FUZZ_ITERATIONS)
    shard1 = build_session(workloads.fuzz_spec(seed, 1))
    shard1.run_for_virtual_time(fuzz.clock.seconds,
                                max_iterations=workloads.FUZZ_ITERATIONS)
    lockstep = build_session(workloads.lockstep_spec(seed))
    lockstep.run_iterations(workloads.LOCKSTEP_ITERATIONS)
    return {"fuzz": workloads.digest(fuzz),
            "shard1": workloads.digest(shard1),
            "lockstep": workloads.digest(lockstep)}


def main(first, last):
    committed = json.loads(PATH.read_text())
    for seed in range(first, last + 1):
        for name, value in seed_digests(seed).items():
            committed[name][str(seed)] = value
        print(f"seed {seed}: done", flush=True)
        PATH.write_text(json.dumps(committed, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]))
