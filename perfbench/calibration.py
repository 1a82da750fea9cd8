"""Machine-speed normalization.

The shared 2-vCPU host this benchmark was built on changes speed by up
to 2x within seconds as neighbours load it, and the raw throughput of a
serial campaign spread by about 15% over runs.  So the serial host times
the benchmark reports are scaled to a *reference machine*.  A small fixed
pure-Python kernel runs next to the measured work (just before each
campaign iteration, each replayed iteration, each set-up probe).  A time
measured while the kernel ran ``r`` times faster than it does on the
reference machine is multiplied by ``r``.  With that, the spread of
``instr_per_s`` over seeds fell from about 15% to 1.5-6%.

The raw times and the kernel rate are printed with every result.
"""

import statistics
import time

TURNS = 10_000
# Kernel time on the reference machine: 5.0 million turns per second.
REFERENCE_MOPS = 5.0
REFERENCE_NS = TURNS / REFERENCE_MOPS * 1e3
# Neighbouring kernel samples whose median gives the local machine speed.
WINDOW = 9


def kernel_ns():
    """Run the fixed kernel once; returns its host nanoseconds."""
    start = time.perf_counter_ns()
    acc, table = 0, {}
    for i in range(TURNS):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 255] = acc
    return time.perf_counter_ns() - start


def mops(kernel_samples):
    """The kernel rate in million turns per second (median sample)."""
    return TURNS / statistics.median(kernel_samples) * 1e3


def factor(kernel_samples):
    """How much faster than the reference machine the host ran."""
    return REFERENCE_NS / statistics.median(kernel_samples)


def local_factors(kernel_samples):
    """Per-sample factors from a running median over WINDOW neighbours."""
    half = WINDOW // 2
    return [factor(kernel_samples[max(0, i - half):i + half + 1])
            for i in range(len(kernel_samples))]
