"""The TurboFuzzer: a synthesizable-hardware-style processor fuzzer.

This package implements Section IV of the paper:

* LFSR-driven **direct mode** generation over a VIO-configurable
  instruction library (:mod:`repro.fuzzer.direct`,
  :mod:`repro.fuzzer.instrlib`),
* the **mutation mode** engine with its generate / delete / retain block
  operations and coverage-aware seed selection
  (:mod:`repro.fuzzer.mutation`),
* **instruction blocks** (prime + affiliated instructions) and iteration
  assembly with the control-flow optimizations of Section IV-C — bounded
  jump windows, 4000-instruction iterations, exception templates
  (:mod:`repro.fuzzer.blocks`, :mod:`repro.fuzzer.templates`),
* **corpus scheduling** by coverage increment rather than FIFO age
  (:mod:`repro.fuzzer.corpus`, Section IV-D).
"""

from repro.fuzzer.config import TurboFuzzConfig
from repro.fuzzer.lfsr import Lfsr
from repro.fuzzer.instrlib import InstructionLibrary
from repro.fuzzer.blocks import InstructionBlock, Iteration
from repro.fuzzer.context import MemoryLayout, draw_odds
from repro.fuzzer.corpus import Corpus, Seed
from repro.fuzzer.direct import DirectGenerator
from repro.fuzzer.mutation import MutationEngine
from repro.fuzzer.templates import build_prologue, build_trap_handler
from repro.fuzzer.fuzzer import TurboFuzzer

__all__ = [
    "TurboFuzzConfig",
    "Lfsr",
    "InstructionLibrary",
    "InstructionBlock",
    "Iteration",
    "MemoryLayout",
    "draw_odds",
    "Corpus",
    "Seed",
    "DirectGenerator",
    "MutationEngine",
    "build_prologue",
    "build_trap_handler",
    "TurboFuzzer",
]
