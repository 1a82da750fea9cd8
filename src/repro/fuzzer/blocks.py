"""Instruction blocks and iterations (paper Section IV-A).

An *instruction block* is the unit of generation: one mandatory prime
instruction plus optional affiliated instructions that establish
prerequisites (base-address materialization for jalr, aligned-address setup
for AMOs).  An *iteration* is the fuzzer's output unit: tens to thousands
of instruction blocks assembled into an executable program image.

Control-flow targets always land on block base addresses (the paper's
validity guarantee); assembly is two-pass — blocks are laid out, then
branch/jump/jalr words are patched with real offsets.
"""

from dataclasses import dataclass, field

from repro.fuzzer.context import REG_JALR_TEMP
from repro.isa.encoder import encode
from repro.isa.instructions import Category, SPECS_BY_NAME


@dataclass(slots=True)
class StimulusEntry:
    """One instruction inside a block, with its mutation metadata
    (the paper's seed stimulus entry: instruction, position, control-flow
    status, branch target position)."""

    word: int
    is_prime: bool = True
    needs_target_patch: bool = False  # branch/jal imm patched at assembly
    patch_kind: str = ""  # "branch" | "jal" | "lui" | "addi"

    def state_dict(self):
        """JSON-round-trippable form (corpus checkpointing)."""
        return {"word": self.word, "is_prime": self.is_prime,
                "needs_target_patch": self.needs_target_patch,
                "patch_kind": self.patch_kind}

    @classmethod
    def from_state(cls, state):
        return cls(int(state["word"]), bool(state["is_prime"]),
                   bool(state["needs_target_patch"]),
                   str(state["patch_kind"]))


@dataclass(slots=True)
class InstructionBlock:
    """Prime instruction + affiliated instructions + control-flow metadata."""

    prime_name: str
    entries: list
    cf_kind: str = ""  # "" | "branch" | "jal" | "jalr"
    target_block: int = None  # iteration-relative block index
    generated: bool = True  # False when retained from a seed

    @property
    def spec(self):
        return SPECS_BY_NAME[self.prime_name]

    @property
    def size(self):
        """Instruction count of the block."""
        return len(self.entries)

    @property
    def is_control_flow(self):
        return bool(self.cf_kind)

    def state_dict(self):
        """JSON-round-trippable form (corpus checkpointing)."""
        return {
            "prime_name": self.prime_name,
            "entries": [entry.state_dict() for entry in self.entries],
            "cf_kind": self.cf_kind,
            "target_block": self.target_block,
            "generated": self.generated,
        }

    @classmethod
    def from_state(cls, state):
        target = state["target_block"]
        return cls(
            prime_name=str(state["prime_name"]),
            entries=[StimulusEntry.from_state(entry)
                     for entry in state["entries"]],
            cf_kind=str(state["cf_kind"]),
            target_block=None if target is None else int(target),
            generated=bool(state["generated"]),
        )

    def clone(self, generated=None):
        """Deep copy (mutation retains blocks by copying them)."""
        return InstructionBlock(
            prime_name=self.prime_name,
            entries=[
                StimulusEntry(
                    entry.word, entry.is_prime,
                    entry.needs_target_patch, entry.patch_kind,
                )
                for entry in self.entries
            ],
            cf_kind=self.cf_kind,
            target_block=self.target_block,
            generated=self.generated if generated is None else generated,
        )


@dataclass
class Iteration:
    """An assembled fuzzing iteration: blocks, program image, metadata.

    ``setup_words`` model per-iteration setup routines placed ahead of the
    fuzzing blocks (register-file initialization and the like).  TurboFuzz
    keeps this empty — its environment setup lives in the shared templates —
    but the software-fuzzer baselines carry hundreds of setup instructions,
    which is what drags their prevalence below 0.2 (Fig. 4 / Fig. 8).
    """

    blocks: list
    layout: object  # MemoryLayout
    data_seed: int = 0
    words: list = field(default_factory=list)
    block_bases: list = field(default_factory=list)  # absolute addresses
    setup_words: list = field(default_factory=list)
    data_patches: list = field(default_factory=list)  # (offset, bytes) pairs
    _total_cache: int = None  # filled by assemble(); blocks are frozen then

    @property
    def total_instructions(self):
        if self._total_cache is not None:
            return self._total_cache
        return sum(block.size for block in self.blocks) + len(self.setup_words)

    @property
    def fuzz_base(self):
        """First address of actual fuzzing instructions."""
        return self.layout.blocks + 4 * len(self.setup_words)

    @property
    def control_flow_blocks(self):
        return sum(1 for block in self.blocks if block.is_control_flow)

    def assemble(self):
        """Two-pass assembly into ``words`` with control flow patched.

        Pass 1 lays out block base addresses; pass 2 patches branch/jal
        displacements and jalr's lui/addi absolute target pairs.  A final
        ``ecall`` terminates the iteration (the trap handler routes it to
        the done loop).
        """
        base = self.fuzz_base
        self.block_bases = []
        cursor = base
        for block in self.blocks:
            self.block_bases.append(cursor)
            cursor += 4 * block.size

        words = list(self.setup_words)
        cursor = base
        for index, block in enumerate(self.blocks):
            target_address = None
            if block.is_control_flow and block.target_block is not None:
                # Clamp to a strictly-forward block: a target at or before
                # the block itself (possible after retention re-indexing)
                # would create a backward edge or a self-loop.
                target_index = min(block.target_block, len(self.blocks) - 1)
                if target_index <= index:
                    target_index = index + 1
                if target_index < len(self.blocks):
                    target_address = self.block_bases[target_index]
            for entry in block.entries:
                word = entry.word
                if entry.needs_target_patch:
                    # Fallback for dangling control flow (e.g. a retained
                    # jalr whose target fell off the end): continue at the
                    # next sequential block.
                    effective_target = (
                        target_address
                        if target_address is not None
                        else self.block_bases[index] + 4 * block.size
                    )
                    word = self._patch(entry, word, cursor, effective_target)
                words.append(word)
                cursor += 4
        words.append(encode("ecall"))
        self.words = words
        self._total_cache = ((cursor - base) >> 2) + len(self.setup_words)
        return words

    @staticmethod
    def _patch(entry, word, address, target):
        """Patch one control-flow word with its final displacement."""
        if entry.patch_kind == "branch":
            offset = target - address
            # B-format reach is +/-4 KiB; clamp to the next instruction
            # when out of range, and never allow a non-forward edge.
            if offset <= 0 or offset > 4094:
                offset = 4
            return _set_b_imm(word, offset)
        if entry.patch_kind == "jal":
            offset = target - address
            if offset <= 0 or offset > (1 << 20) - 2:
                offset = 4
            return _set_j_imm(word, offset)
        if entry.patch_kind == "lui":
            upper = (target + 0x800) & 0xFFFFF000
            return encode("lui", rd=REG_JALR_TEMP, imm=upper)
        if entry.patch_kind == "addi":
            upper = (target + 0x800) & 0xFFFFF000
            return encode("addi", rd=REG_JALR_TEMP, rs1=REG_JALR_TEMP,
                          imm=target - upper)
        raise ValueError(f"unknown patch kind {entry.patch_kind!r}")


def _set_b_imm(word, imm):
    word &= ~0xFE000F80  # clear imm bits of B-format
    imm &= 0x1FFF
    word |= (((imm >> 12) & 1) << 31) | (((imm >> 5) & 0x3F) << 25)
    word |= (((imm >> 1) & 0xF) << 8) | (((imm >> 11) & 1) << 7)
    return word


def _set_j_imm(word, imm):
    word &= 0x00000FFF  # keep rd + opcode
    imm &= 0x1FFFFF
    word |= (((imm >> 20) & 1) << 31) | (((imm >> 1) & 0x3FF) << 21)
    word |= (((imm >> 11) & 1) << 20) | (((imm >> 12) & 0xFF) << 12)
    return word


class BlockBuilder:
    """Builds instruction blocks from specs + a fuzzing context
    (the paper's random generation + operand assignment modules)."""

    def __init__(self, context):
        self.context = context

    def build(self, spec, block_index, total_blocks, jump_window):
        """Generate one block for a prime instruction spec.

        ``jump_window`` limits forward control-flow distance in blocks
        (``None`` = unbounded, the prior-work behaviour).
        """
        ctx = self.context
        fmt = spec.fmt
        name = spec.name
        category = spec.category

        if category is Category.BRANCH:
            word = encode(name, rs1=ctx.gen_rs(), rs2=ctx.gen_rs(), imm=4)
            target = ctx.pick_jump_target(block_index, total_blocks, jump_window)
            entry = StimulusEntry(word, needs_target_patch=target is not None,
                                  patch_kind="branch")
            return InstructionBlock(name, [entry], cf_kind="branch",
                                    target_block=target)

        if name == "jal":
            word = encode("jal", rd=ctx.gen_rd(), imm=4)
            target = ctx.pick_jump_target(block_index, total_blocks, jump_window)
            entry = StimulusEntry(word, needs_target_patch=target is not None,
                                  patch_kind="jal")
            return InstructionBlock(name, [entry], cf_kind="jal",
                                    target_block=target)

        if name == "jalr":
            target = ctx.pick_jump_target(block_index, total_blocks, jump_window)
            if target is None:
                # No forward block to land on: degrade to a nop-like addi.
                word = encode("addi", rd=ctx.gen_rd(), rs1=0, imm=ctx.gen_imm12())
                return InstructionBlock("addi", [StimulusEntry(word)])
            lui = StimulusEntry(0, is_prime=False, needs_target_patch=True,
                                patch_kind="lui")
            addi = StimulusEntry(0, is_prime=False, needs_target_patch=True,
                                 patch_kind="addi")
            word = encode("jalr", rd=ctx.gen_rd(), rs1=REG_JALR_TEMP, imm=0)
            prime = StimulusEntry(word)
            return InstructionBlock(name, [lui, addi, prime], cf_kind="jalr",
                                    target_block=target)

        if fmt == "L":
            word = encode(name, rd=ctx.gen_rd(), rs1=ctx.read_base_reg(),
                          imm=ctx.mem_offset(_access_size(name)))
            return InstructionBlock(name, [StimulusEntry(word)])
        if fmt == "FL":
            word = encode(name, rd=ctx.gen_freg(), rs1=ctx.read_base_reg(),
                          imm=ctx.mem_offset(_access_size(name)))
            return InstructionBlock(name, [StimulusEntry(word)])
        if fmt == "S":
            word = encode(name, rs2=ctx.gen_rs(), rs1=ctx.write_base_reg(),
                          imm=ctx.mem_offset(_access_size(name)))
            return InstructionBlock(name, [StimulusEntry(word)])
        if fmt == "FS":
            word = encode(name, rs2=ctx.gen_freg(), rs1=ctx.write_base_reg(),
                          imm=ctx.mem_offset(_access_size(name)))
            return InstructionBlock(name, [StimulusEntry(word)])

        if fmt in ("AMO", "LR"):
            size = 8 if name.endswith(".d") else 4
            setup = StimulusEntry(
                encode("addi", rd=REG_JALR_TEMP, rs1=ctx.write_base_reg(),
                       imm=ctx.amo_offset(size)),
                is_prime=False,
            )
            if fmt == "LR":
                word = encode(name, rd=ctx.gen_rd(), rs1=REG_JALR_TEMP)
            else:
                word = encode(name, rd=ctx.gen_rd(), rs1=REG_JALR_TEMP,
                              rs2=ctx.gen_rs())
            return InstructionBlock(name, [setup, StimulusEntry(word)])

        if fmt == "R":
            word = encode(name, rd=ctx.gen_rd(), rs1=ctx.gen_rs(), rs2=ctx.gen_rs())
        elif fmt == "I":
            word = encode(name, rd=ctx.gen_rd(), rs1=ctx.gen_rs(),
                          imm=ctx.gen_imm12())
        elif fmt == "R_SH":
            word = encode(name, rd=ctx.gen_rd(), rs1=ctx.gen_rs(),
                          shamt=ctx.gen_shamt())
        elif fmt == "R_SHW":
            word = encode(name, rd=ctx.gen_rd(), rs1=ctx.gen_rs(),
                          shamt=ctx.gen_shamt(word_variant=True))
        elif fmt == "U":
            word = encode(name, rd=ctx.gen_rd(), imm=ctx.gen_uimm20() << 12)
        elif fmt == "CSR":
            writable = name != "csrrs" and name != "csrrc"
            word = encode(name, rd=ctx.gen_rd(), rs1=ctx.gen_rs(),
                          csr=ctx.gen_csr(writable))
        elif fmt == "CSRI":
            writable = name == "csrrwi"
            word = encode(name, rd=ctx.gen_rd(), zimm=ctx.lfsr.bits(5),
                          csr=ctx.gen_csr(writable))
        elif fmt == "FR":
            word = encode(name, rd=ctx.gen_freg(), rs1=ctx.gen_freg(),
                          rs2=ctx.gen_freg(), rm=ctx.gen_rm())
        elif fmt == "R4":
            word = encode(name, rd=ctx.gen_freg(), rs1=ctx.gen_freg(),
                          rs2=ctx.gen_freg(), rs3=ctx.gen_freg(),
                          rm=ctx.gen_rm())
        elif fmt == "FR1":
            word = encode(name, rd=ctx.gen_freg(), rs1=ctx.gen_freg(),
                          rm=ctx.gen_rm())
        elif fmt == "FRN":
            word = encode(name, rd=ctx.gen_freg(), rs1=ctx.gen_freg(),
                          rs2=ctx.gen_freg())
        elif fmt == "FCMP":
            word = encode(name, rd=ctx.gen_rd(), rs1=ctx.gen_freg(),
                          rs2=ctx.gen_freg())
        elif fmt == "FCVT_IF":
            word = encode(name, rd=ctx.gen_rd(), rs1=ctx.gen_freg(),
                          rm=ctx.gen_rm())
        elif fmt == "FCVT_FI":
            word = encode(name, rd=ctx.gen_freg(), rs1=ctx.gen_rs(),
                          rm=ctx.gen_rm())
        elif fmt in ("NONE", "FENCE"):
            word = encode(name)
        else:
            raise ValueError(f"block builder cannot handle format {fmt!r}")
        return InstructionBlock(name, [StimulusEntry(word)])


_ACCESS_SIZES = {
    "lb": 1, "lbu": 1, "sb": 1,
    "lh": 2, "lhu": 2, "sh": 2,
    "lw": 4, "lwu": 4, "sw": 4, "flw": 4, "fsw": 4,
    "ld": 8, "sd": 8, "fld": 8, "fsd": 8,
}


def _access_size(name):
    return _ACCESS_SIZES[name]
