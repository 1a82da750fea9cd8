"""Co-simulation harness: the FPGA platform glue of the paper.

* :mod:`repro.harness.clock` — the 100 MHz virtual wall clock
* :mod:`repro.harness.image` — program image building (templates + blocks
  + randomized data segment)
* :mod:`repro.harness.runner` — DUT(/REF lockstep) iteration execution
* :mod:`repro.harness.checker` — ENCORE-style instruction-level checking
* :mod:`repro.harness.snapshot` — hardware snapshot capture/restore

The campaign loop that drives these lives in :mod:`repro.campaign`.
"""

from repro.harness.clock import VirtualClock
from repro.harness.image import ProgramImage, build_image
from repro.harness.checker import DifferentialChecker, Mismatch
from repro.harness.snapshot import HardwareSnapshot
from repro.harness.runner import IterationRunner, RunResult

__all__ = [
    "VirtualClock",
    "ProgramImage",
    "build_image",
    "DifferentialChecker",
    "Mismatch",
    "HardwareSnapshot",
    "IterationRunner",
    "RunResult",
]
