"""Loop-structured benchmark program generators.

Each generator builds a phase-structured program: a sequence of kernels,
each a counted loop whose body mixes a characteristic blend of operations.
The resulting dynamic instruction stream has strongly recurring basic-block
vectors, which is exactly what SimPoint clustering exploits.

Register conventions match the fuzzing templates (x5 = data base).
"""

from dataclasses import dataclass

from repro.fuzzer.blocks import InstructionBlock, Iteration
from repro.fuzzer.context import MemoryLayout, REG_DATA_BASE
from repro.fuzzer.lfsr import Lfsr
from repro.isa.encoder import encode


@dataclass
class WorkloadProgram:
    """A generated benchmark: words plus descriptive metadata."""

    name: str
    words: list
    phases: int
    approx_dynamic_instructions: int


# Scratch registers used by kernels (disjoint from template registers).
_COUNTER = 7   # t2: loop counter
_ACC = 8       # s0: accumulator
_TMP1 = 9
_TMP2 = 10
_TMP3 = 11
_PTR = 12


def _loop(body_words, iterations):
    """Wrap a body in a counted loop: counter set, body, decrement, bne."""
    words = [encode("addi", rd=_COUNTER, rs1=0, imm=iterations)]
    words.extend(body_words)
    words.append(encode("addi", rd=_COUNTER, rs1=_COUNTER, imm=-1))
    body_len = len(body_words) + 1  # +1 for the decrement
    words.append(
        encode("bne", rs1=_COUNTER, rs2=0, imm=-4 * body_len)
    )
    return words


def _alu_kernel(lfsr, length):
    ops = ("add", "sub", "xor", "or", "and", "sll", "srl", "slt")
    body = []
    for index in range(length):
        op = ops[lfsr.below(len(ops))]
        body.append(
            encode(op, rd=_ACC, rs1=_ACC,
                   rs2=(_TMP1, _TMP2, _TMP3)[index % 3])
        )
        if index % 4 == 3:
            body.append(encode("addi", rd=_TMP1, rs1=_TMP1, imm=lfsr.bits(6)))
    return body


def _mem_kernel(lfsr, length):
    body = [encode("addi", rd=_PTR, rs1=REG_DATA_BASE, imm=0)]
    for index in range(length):
        offset = (index * 8) % 1024
        if index % 3 == 2:
            body.append(encode("sd", rs2=_ACC, rs1=_PTR, imm=offset))
        else:
            body.append(encode("ld", rd=_TMP2, rs1=_PTR, imm=offset))
            body.append(encode("add", rd=_ACC, rs1=_ACC, rs2=_TMP2))
    return body


def _mul_kernel(lfsr, length):
    body = []
    for index in range(length):
        if index % 5 == 4:
            body.append(encode("div", rd=_TMP3, rs1=_ACC, rs2=_TMP1))
        else:
            body.append(encode("mul", rd=_ACC, rs1=_ACC, rs2=_TMP1))
        body.append(encode("addi", rd=_TMP1, rs1=_TMP1, imm=3))
    return body


def _fp_kernel(lfsr, length):
    body = [
        encode("fld", rd=0, rs1=REG_DATA_BASE, imm=48),  # 1.0
        encode("fld", rd=1, rs1=REG_DATA_BASE, imm=64),  # 1.5
    ]
    for index in range(length):
        op = ("fadd.d", "fmul.d", "fsub.d")[index % 3]
        body.append(encode(op, rd=2, rs1=(index % 2), rs2=1, rm=0))
        if index % 4 == 3:
            body.append(encode("fsd", rs2=2, rs1=REG_DATA_BASE,
                               imm=256 + (index % 16) * 8))
    return body


def _string_kernel(lfsr, length):
    """Byte-wise copy/compare mix (the dhrystone flavour)."""
    body = [encode("addi", rd=_PTR, rs1=REG_DATA_BASE, imm=0)]
    for index in range(length):
        offset = index % 256
        body.append(encode("lbu", rd=_TMP1, rs1=_PTR, imm=offset))
        body.append(encode("sb", rs2=_TMP1, rs1=_PTR, imm=512 + offset))
        if index % 4 == 3:
            body.append(encode("bne", rs1=_TMP1, rs2=0, imm=4))
    return body


def _program(name, lfsr_seed, phase_plan):
    """Assemble phases into one program; returns a WorkloadProgram."""
    lfsr = Lfsr(lfsr_seed)
    words = [
        encode("addi", rd=_ACC, rs1=0, imm=1),
        encode("addi", rd=_TMP1, rs1=0, imm=7),
        encode("addi", rd=_TMP2, rs1=0, imm=13),
        encode("addi", rd=_TMP3, rs1=0, imm=29),
    ]
    dynamic = len(words)
    for kernel, body_length, iterations in phase_plan:
        body = kernel(lfsr, body_length)
        words.extend(_loop(body, iterations))
        dynamic += (len(body) + 2) * iterations + 1
    return WorkloadProgram(
        name=name,
        words=words,
        phases=len(phase_plan),
        approx_dynamic_instructions=dynamic,
    )


def coremark_like(seed=1, scale=1):
    """coremark flavour: ALU-heavy with list/matrix-ish memory phases."""
    return _program(
        "coremark", seed,
        [
            (_alu_kernel, 24, 180 * scale),
            (_mem_kernel, 12, 140 * scale),
            (_mul_kernel, 10, 120 * scale),
            (_alu_kernel, 18, 160 * scale),
            (_mem_kernel, 16, 100 * scale),
        ],
    )


def dhrystone_like(seed=2, scale=1):
    """dhrystone flavour: string ops, branches, light integer math."""
    return _program(
        "dhrystone", seed,
        [
            (_string_kernel, 14, 200 * scale),
            (_alu_kernel, 10, 160 * scale),
            (_string_kernel, 18, 150 * scale),
            (_mem_kernel, 8, 120 * scale),
        ],
    )


def microbench_like(seed=3, scale=1):
    """microbench flavour: distinct small kernels incl. FP and div."""
    return _program(
        "microbench", seed,
        [
            (_alu_kernel, 12, 120 * scale),
            (_fp_kernel, 10, 110 * scale),
            (_mul_kernel, 8, 100 * scale),
            (_mem_kernel, 10, 110 * scale),
            (_fp_kernel, 14, 90 * scale),
            (_string_kernel, 10, 100 * scale),
        ],
    )


def all_workloads(scale=1):
    """The three benchmark stand-ins at a given loop-count scale."""
    return [
        coremark_like(scale=scale),
        dhrystone_like(scale=scale),
        microbench_like(scale=scale),
    ]


def raw_iteration(words, layout=None, data_seed=1):
    """Wrap raw program words into an Iteration (single-word blocks with
    no control-flow metadata, so assembly preserves them verbatim)."""
    layout = layout or MemoryLayout()
    blocks = [InstructionBlock("addi", (word,)) for word in words]
    iteration = Iteration(blocks=blocks, layout=layout, data_seed=data_seed)
    iteration.assemble()
    return iteration
