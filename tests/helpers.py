"""Shared helpers for the test suite."""

import gc
import struct
import sys
from contextlib import contextmanager
from functools import partial

from repro.campaign import CampaignSpec, build_session
from repro.dut.core import _ACTIVE
from repro.harness import HardwareSnapshot, IterationRunner
from repro.harness.checker import DifferentialChecker
from repro.harness.image import build_image
from repro.harness.runner import MAX_INSTRUCTION_FACTOR, RunResult
from repro.isa.instructions import Category
from repro.ref import ArchState, Executor, SparseMemory


def f64_bits(value):
    """Host double -> raw 64-bit pattern."""
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def bits_f64(bits):
    """Raw 64-bit pattern -> host double."""
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def f32_bits(value):
    """Host float -> raw 32-bit pattern."""
    return struct.unpack("<I", struct.pack("<f", value))[0]


def bits_f32(bits):
    """Raw 32-bit pattern -> host float."""
    return struct.unpack("<f", struct.pack("<I", bits))[0]


def make_executor(program_words, base=0x8000_0000, xregs=None, fregs=None):
    """A ready-to-step executor with a program installed."""
    memory = SparseMemory()
    memory.write_program(base, program_words)
    state = ArchState(pc=base)
    if xregs:
        for index, value in xregs.items():
            state.xregs[index] = value & ((1 << 64) - 1)
    if fregs:
        for index, value in fregs.items():
            state.fregs[index] = value & ((1 << 64) - 1)
    return Executor(state, memory)


def run_program(executor, max_steps=1000, stop_on_trap=True):
    """Step until ecall/trap or step limit; returns the records."""
    records = []
    for _ in range(max_steps):
        record = executor.step()
        records.append(record)
        if stop_on_trap and record.trap is not None:
            break
    return records


# -- the reference observer -----------------------------------------------------
# The oracle the DUT's group tables are checked against: it steps the core
# with ``core.step()`` and computes each observed module's index from
# ``core.vals`` and ``layout.contribution()``, reading no group table.

# The bit each conditional module owns in the core's ``_ACTIVE`` slot
# (the modules the last instruction activated).
CONDITIONAL_BITS = {"MulDiv": 1, "FPU": 2, "LSU": 4, "CSRFile": 8, "PTW": 16}


def reference_index(layout, values, positions=None):
    """A module's coverage index through ``layout.contribution()``:
    ``positions`` maps each of ``values`` to its register position
    (``None``: the values cover every register in order); registers not
    covered hold their reset value and contribute nothing."""
    if positions is None:
        positions = range(len(values))
    index = 0
    for position, value in zip(positions, values):
        index ^= layout.contribution(position, value)
    return index


def busy_samples(total):
    """The busy-counter values a multi-cycle operation of ``total``
    cycles exposes to coverage."""
    return tuple(min(sample, 24) for sample in (total & 31, (total // 2) & 31, 1))


class _ReferenceObserver:
    """Observes one core's instructions into its design's coverage maps."""

    def __init__(self, core):
        self.core = core
        self.bindings = []  # (module coverage, names, positions, conditional bit)
        dynamic = set(core.vals)
        for module_cov in core.coverage.modules:
            named = [(register.name, position) for position, register
                     in enumerate(module_cov.layout.registers)
                     if register.name in dynamic]
            self.bindings.append((module_cov, tuple(name for name, _ in named),
                                  tuple(position for _, position in named),
                                  CONDITIONAL_BITS.get(module_cov.name, 0)))
        self.busy = {Category.DIV: ("MulDiv", "md_counter", int(core.timing.div)),
                     Category.FP_DIV: ("FPU", "fdiv_cnt", int(core.timing.fp_div))}

    def step(self):
        """Step the core and observe the instruction: every
        always-observed module, the conditional modules it or the one
        before activated, and a divide's busy-counter samples."""
        core = self.core
        before = core._state[_ACTIVE]
        record = core.step()
        observed = before | core._state[_ACTIVE]
        values = dict(core.vals)
        for module_cov, names, positions, bit in self.bindings:
            if bit and not observed & bit:
                continue
            module_cov.map.observe(reference_index(
                module_cov.layout, [values[name] for name in names], positions))
        decoded = record.decoded
        if record.trap is None and decoded.spec.category in self.busy:
            module_name, counter, total = self.busy[decoded.spec.category]
            for module_cov, names, positions, _ in self.bindings:
                if module_cov.name != module_name:
                    continue
                for sample in busy_samples(total):
                    values[counter] = sample
                    module_cov.map.observe(reference_index(
                        module_cov.layout, [values[name] for name in names],
                        positions))
                values[counter] = 0
        return record

    def run(self, runner, iteration, instruction_cap=None):
        """:meth:`IterationRunner.run`, stepping through :meth:`step`."""
        core = self.core
        image = build_image(iteration)
        core.reset_pc = image.layout.reset
        core.reset()
        image.install(core.memory)
        ref = runner._make_ref(image) if runner.with_ref else None
        checker = DifferentialChecker() if runner.with_ref else None
        cap = instruction_cap or (
            MAX_INSTRUCTION_FACTOR * max(1, iteration.total_instructions)
            + image.total_template_instructions * 8)
        result = RunResult()
        start_points = core.coverage.total_points
        start_cycles = core.cycles
        since_fuzz = 0
        for _ in range(cap):
            record = self.step()
            result.executed_instructions += 1
            if record.pc >= iteration.fuzz_base:
                result.executed_fuzzing += 1
                if record.trap is None:
                    since_fuzz = 0
            else:
                result.executed_template += 1
            if record.trap is not None:
                result.traps += 1
                if runner.stop_on_trap and record.pc >= iteration.fuzz_base:
                    break
                since_fuzz += 1
                if since_fuzz > 64:
                    break
            if ref is not None:
                mismatch = checker.check(record, ref.step())
                if mismatch is not None:
                    result.mismatch = mismatch
                    if runner.capture_snapshots:
                        result.snapshot = HardwareSnapshot.capture(
                            core, annotation=mismatch.describe())
                    break
            if record.next_pc == iteration.layout.done:
                result.completed = True
                break
        result.cycles = core.cycles - start_cycles
        result.new_coverage = core.coverage.total_points - start_points
        return result


@contextmanager
def reference_observation(session):
    """Observe the session's iterations through the reference observer
    instead of the core's group tables, inside the ``with`` block."""
    core = session.core
    runner = session.runner
    observer = _ReferenceObserver(core)
    tables = core._observers
    core._observers = core._build_observers(None)  # zero tables, throwaway sets
    runner.run = partial(observer.run, runner)
    try:
        yield observer
    finally:
        del runner.run
        core._observers = tables


# -- the executor's cost count ------------------------------------------------------
def opcodes_per_instruction(core, with_ref, seed=1):
    """Opcode events ``sys.settrace`` reports per retired instruction over
    :meth:`IterationRunner.run`: a campaign of 300 instructions per
    iteration runs two iterations, generates one more, runs it once to
    warm the decode cache and the softfloat memo, and runs it again
    traced.  The count is a property of the program, not of the machine:
    it compares two versions of the code, it does not time them."""
    spec = (CampaignSpec()
            .with_fuzzer("turbofuzz", instructions_per_iteration=300)
            .with_core(core)
            .with_seed(seed))
    session = build_session(spec)
    session.run_iterations(2)
    iteration = session.fuzzer.generate_iteration()
    runner = IterationRunner(session.core, with_ref=with_ref)
    runner.run(iteration)
    events = 0

    def count(frame, event, arg):
        nonlocal events
        if event == "opcode":
            events += 1
        return count

    def trace_calls(frame, event, arg):
        frame.f_trace_opcodes = True
        return count

    previous = sys.gettrace()
    gc.collect()
    gc.disable()
    sys.settrace(trace_calls)
    try:
        result = runner.run(iteration)
    finally:
        sys.settrace(previous)
        gc.enable()
    return events / result.executed_instructions
