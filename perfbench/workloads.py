"""The benchmark's workloads: campaign specs, run lengths, output digests.

Every workload is a closed loop: the next campaign iteration starts only
after the previous one returned.  One *repetition* is a fresh campaign of
a fixed number of iterations, so every repetition of a seed does the same
simulated work and must end in the same digest.

* ``fuzz`` — TurboFuzz on Rocket, 1000 instructions per iteration,
  optimized instrumentation, serial, no REF (the paper's headline
  configuration).  Generation, DUT execution and coverage observation do
  the work; block-compiled template dispatch is active.
* ``lockstep`` — the same campaign on BOOM with REF lockstep checking and
  no injected bugs: every instruction also runs on a bare REF executor and
  through the differential checker, which bypasses the block compiler.
* ``sharded`` — two such Rocket campaigns (shard 0 is ``fuzz``'s spec) on
  the supervised work-queue backend with two workers, advanced slice by
  slice with ``run_for_virtual_time``, so every slice ships each shard's
  full checkpoint out and back.
"""

import hashlib
import json
import os

from repro.campaign import CampaignSpec, derive_seed

NAMES = ("fuzz", "lockstep", "sharded")

INSTRUCTIONS_PER_ITERATION = 1000
# Iterations per repetition.  A sharded shard runs at most
# FUZZ_ITERATIONS, so shard 0 ends where a ``fuzz`` repetition ends.
FUZZ_ITERATIONS = 120
LOCKSTEP_ITERATIONS = 60
SHARD_SLICES = 10
# Untimed iterations that fill the process-wide caches (decoder, compiled
# templates, softfloat memo) before the first timed repetition.
WARMUP_ITERATIONS = 20


def workers():
    """Worker processes for the sharded workload: at most ``nproc``."""
    return max(1, min(2, os.cpu_count() or 1))


def fuzz_spec(seed, shard=0):
    """The ``fuzz`` campaign for a benchmark seed (``shard`` > 0 gives the
    other shards of the ``sharded`` grid)."""
    return (CampaignSpec()
            .with_fuzzer("turbofuzz",
                         instructions_per_iteration=INSTRUCTIONS_PER_ITERATION)
            .with_core("rocket")
            .with_instrumentation(style="optimized")
            .with_seed(derive_seed(seed, shard)))


def lockstep_spec(seed):
    return fuzz_spec(seed).with_core("boom").with_checking(True)


def shard_specs(seed):
    return [fuzz_spec(seed, shard) for shard in range(2)]


def digest(session):
    """SHA-256 over a campaign's results: coverage series, corpus state,
    virtual clock, and fuzzer LFSR state."""
    payload = {
        "coverage_series": session.coverage_series(),
        "corpus": session.fuzzer.corpus.state_dict(),
        "clock": session.clock.state_dict(),
        "lfsr": session.fuzzer.lfsr.state_dict(),
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
