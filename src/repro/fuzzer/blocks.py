"""Instruction blocks and iterations (paper Section IV-A).

An *instruction block* is the unit of generation: one mandatory prime
instruction plus optional affiliated instructions that establish
prerequisites (base-address materialization for jalr, aligned-address setup
for AMOs).  An *iteration* is the fuzzer's output unit: tens to thousands
of instruction blocks assembled into an executable program image.

A block is one packed object, as the paper's seed stimulus entry
("instruction, position, control-flow status, branch target position") is
a word plus a few bits in hardware: a tuple of instruction words and one
int of per-entry flags (affiliated, needs a target patch, patch kind),
beside the prime's name, the control-flow kind, the target block and
whether it was generated.  Blocks are never changed once built: retention,
operand rebinding and the baselines' bit flips build new blocks, so a seed
and an iteration share them freely.  :meth:`InstructionBlock.state_dict`
spells the flags out as one JSON object per entry.

Each spec's block is made by its *emitter* (the paper's random generation
and operand assignment modules), bound once at import and chosen from the
spec's format, as the decoder binds one field extractor per spec.  An
emitter draws from an LFSR lookahead (:func:`repro.fuzzer.lfsr.lookahead`):
it reads each state as ``ahead[pos]`` and returns the new ``pos`` with the
block.  It ORs into ``spec.match`` each register, CSR and rounding mode
from a pre-shifted constant pool (range-checked once, when the emitter is
bound; the values come from :mod:`repro.fuzzer.context`) and each
immediate from the draw's low bits: no format dispatch, operand method or
encoder call per block.  Its draws and words are those ``encode()`` gives
for the same operands, which the tests check for every spec.

Control-flow targets always land on block base addresses (the paper's
validity guarantee); assembly is two-pass — blocks are laid out, then
branch/jump/jalr words are patched with real offsets.
"""

from dataclasses import dataclass, field

from repro.fuzzer.context import (
    FREG_POOL,
    GENERATABLE_CSRS,
    INVALID_RMS,
    RD_POOL,
    REG_DATA_BASE,
    REG_INSTR_BASE,
    REG_JALR_TEMP,
    RS_POOL,
    VALID_RMS,
    WRITABLE_CSRS,
)
from repro.isa.encoder import encode
from repro.isa.instructions import SPECS, SPECS_BY_NAME, Category

# -- block flags ------------------------------------------------------------------
# Bit 0 of InstructionBlock.flags is set when some entry needs a target
# patch (assembly copies the other blocks' words as they are).  Entry i's
# field sits at bit 1 + _ENTRY_BITS * i: _AFFILIATED (not the prime),
# _PATCH (its displacement is patched at assembly), and the index of its
# patch kind in PATCH_KINDS from bit _KIND_SHIFT.
_NEEDS_PATCH = 1
_AFFILIATED = 1
_PATCH = 2
_KIND_SHIFT = 2
_ENTRY_BITS = 5
PATCH_KINDS = ("", "branch", "jal", "lui", "addi")


def pack_flags(entries):
    """The flags of entries given as ``(is_prime, needs_target_patch,
    patch_kind)``; a patch kind outside :data:`PATCH_KINDS` raises
    ``ValueError``."""
    flags = 0
    shift = 1
    for is_prime, needs_patch, kind in entries:
        entry = PATCH_KINDS.index(kind) << _KIND_SHIFT
        if not is_prime:
            entry |= _AFFILIATED
        if needs_patch:
            entry |= _PATCH
            flags |= _NEEDS_PATCH
        flags |= entry << shift
        shift += _ENTRY_BITS
    return flags


# (is_prime, needs_target_patch, patch_kind) of each entry field value.
_ENTRY_FLAGS = [(not entry & _AFFILIATED, bool(entry & _PATCH),
                 PATCH_KINDS[entry >> _KIND_SHIFT])
                for entry in range(len(PATCH_KINDS) << _KIND_SHIFT)]
_ENTRY_MASK = (1 << _ENTRY_BITS) - 1
# What InstructionBlock.from_state accepts: the field bits of each patch
# kind, the control-flow kinds, the largest word.
_KIND_CODES = {kind: index << _KIND_SHIFT
               for index, kind in enumerate(PATCH_KINDS)}
_CF_KINDS = frozenset(("", "branch", "jal", "jalr"))
_WORD_MAX = (1 << 32) - 1


def _entry_states(words, flags):
    """The JSON objects of a block's entries, which
    :meth:`InstructionBlock.from_state` reads back."""
    states = []
    flags >>= 1
    for word in words:
        is_prime, needs_patch, kind = _ENTRY_FLAGS[flags & _ENTRY_MASK]
        states.append({"word": word, "is_prime": is_prime,
                       "needs_target_patch": needs_patch, "patch_kind": kind})
        flags >>= _ENTRY_BITS
    return states


@dataclass(slots=True)
class InstructionBlock:
    """Prime instruction + affiliated instructions + control-flow metadata,
    packed: ``words`` is a tuple, ``flags`` holds each entry's bits (see
    :func:`pack_flags`; 0 when every entry is a prime needing no patch)."""

    prime_name: str
    words: tuple
    flags: int = 0
    cf_kind: str = ""  # "" | "branch" | "jal" | "jalr"
    target_block: int = None  # iteration-relative block index
    generated: bool = True  # False when retained from a seed

    @property
    def spec(self):
        return SPECS_BY_NAME[self.prime_name]

    @property
    def size(self):
        """Instruction count of the block."""
        return len(self.words)

    @property
    def is_control_flow(self):
        return bool(self.cf_kind)

    def patched(self, position):
        """Whether the word of entry ``position`` is patched at assembly."""
        return bool((self.flags >> (1 + _ENTRY_BITS * position)) & _PATCH)

    def state_dict(self):
        """JSON-round-trippable form (corpus checkpointing): one object
        per entry, with its word and flags spelled out."""
        return {
            "prime_name": self.prime_name,
            "entries": _entry_states(self.words, self.flags),
            "cf_kind": self.cf_kind,
            "target_block": self.target_block,
            "generated": self.generated,
        }

    @classmethod
    def from_state(cls, state):
        """Decode a :meth:`state_dict`, checking each field, in one pass
        over the entries.  A malformed state raises ``ValueError`` or
        ``TypeError`` (``KeyError`` for a missing key): the entries are a
        non-empty list; a word is an ``int`` in ``[0, 2**32)``;
        ``is_prime``, ``needs_target_patch`` and ``generated`` are bools;
        the patch kind, prime name and control-flow kind are known; the
        target block is ``None`` or a block index."""
        prime_name, entries = state["prime_name"], state["entries"]
        cf_kind, target = state["cf_kind"], state["target_block"]
        generated = state["generated"]
        if prime_name not in SPECS_BY_NAME:
            raise ValueError(f"unknown prime instruction {prime_name!r}")
        if cf_kind not in _CF_KINDS:
            raise ValueError(f"unknown control-flow kind {cf_kind!r}")
        if target is not None and (target.__class__ is not int or target < 0):
            raise ValueError(f"target block {target!r} is not a block index")
        if generated.__class__ is not bool:
            raise TypeError(f"generated must be a bool, not {generated!r}")
        if entries.__class__ is not list or not entries:
            raise ValueError("a block's entries must be a non-empty list")
        words = []
        flags = 0
        shift = 1
        for entry in entries:
            word = entry["word"]
            if word.__class__ is not int or not 0 <= word <= _WORD_MAX:
                raise ValueError(f"{word!r} is not an instruction word")
            code = _KIND_CODES.get(entry["patch_kind"])
            if code is None:
                raise ValueError(
                    f"unknown patch kind {entry['patch_kind']!r}")
            is_prime = entry["is_prime"]
            if is_prime is False:
                code |= _AFFILIATED
            elif is_prime is not True:
                raise TypeError(f"is_prime must be a bool, not {is_prime!r}")
            needs_patch = entry["needs_target_patch"]
            if needs_patch is True:
                code |= _PATCH
                flags |= _NEEDS_PATCH
            elif needs_patch is not False:
                raise TypeError("needs_target_patch must be a bool, not "
                                f"{needs_patch!r}")
            words.append(word)
            flags |= code << shift
            shift += _ENTRY_BITS
        return cls(prime_name, tuple(words), flags, cf_kind, target, generated)


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

    def assemble(self):
        """Two-pass assembly into ``words`` with control flow patched.

        Pass 1 lays out block base addresses; pass 2 copies the words of
        blocks that need no patch and patches branch/jal displacements and
        jalr's lui/addi absolute target pairs.  A final ``ecall``
        terminates the iteration (the trap handler routes it to the done
        loop).
        """
        blocks = self.blocks
        count = len(blocks)
        base = self.fuzz_base
        bases = []
        cursor = base
        for block in blocks:
            bases.append(cursor)
            cursor += 4 * len(block.words)
        self.block_bases = bases

        words = list(self.setup_words)
        append = words.append
        extend = words.extend
        for index, block in enumerate(blocks):
            flags = block.flags
            if not flags & _NEEDS_PATCH:
                extend(block.words)
                continue
            address = bases[index]
            # Fallback for dangling control flow (e.g. a retained jalr
            # whose target fell off the end): continue at the next
            # sequential block.
            target_address = address + 4 * len(block.words)
            if block.cf_kind and block.target_block is not None:
                # Clamp to a strictly-forward block: a target at or before
                # the block itself (possible after retention re-indexing)
                # would create a backward edge or a self-loop.
                target_index = min(block.target_block, count - 1)
                if target_index <= index:
                    target_index = index + 1
                if target_index < count:
                    target_address = bases[target_index]
            flags >>= 1
            for word in block.words:
                if flags & _PATCH:
                    word = self._patch(PATCH_KINDS[(flags >> _KIND_SHIFT) & 7],
                                       word, address, target_address)
                append(word)
                address += 4
                flags >>= _ENTRY_BITS
        append(_ECALL)
        self.words = words
        self._total_cache = ((cursor - base) >> 2) + len(self.setup_words)
        return words

    @staticmethod
    def _patch(kind, word, address, target):
        """Patch one control-flow word with its final displacement."""
        if kind == "branch":
            offset = target - address
            # B-format reach is +/-4 KiB; clamp to the next instruction
            # when out of range, and never allow a non-forward edge.
            if offset <= 0 or offset > 4094:
                offset = 4
            return _set_b_imm(word, offset)
        if kind == "jal":
            offset = target - address
            if offset <= 0 or offset > (1 << 20) - 2:
                offset = 4
            return _set_j_imm(word, offset)
        if kind == "lui":
            upper = (target + 0x800) & 0xFFFFF000
            return encode("lui", rd=REG_JALR_TEMP, imm=upper)
        if kind == "addi":
            upper = (target + 0x800) & 0xFFFFF000
            return encode("addi", rd=REG_JALR_TEMP, rs1=REG_JALR_TEMP,
                          imm=target - upper)
        raise ValueError(f"unknown patch kind {kind!r}")


_ECALL = encode("ecall")


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


# -- emitters -------------------------------------------------------------------
# Signature: emit(ahead, pos, block_index, total_blocks, jump_window, odds)
# -> (pos, block): ``ahead[pos]`` is the current LFSR state of a lookahead
# (repro.fuzzer.lfsr.lookahead), the caller leaves at least
# MAX_EMIT_DRAWS states after it, and each draw reads the next state (one
# Lfsr.next() step).  ``odds`` is context.draw_odds(), and the block
# position, the iteration's block bound and the jump window place a
# control-flow target.  A register, CSR, rounding mode or shift amount is
# ``pool[state % len(pool)]`` from a pool of its field bits (Lfsr.choice
# over the context's values; Lfsr.below over a range); an immediate is the
# draw's low bits (Lfsr.bits) moved into its field.  A Bernoulli draw
# compares masked bits, as Lfsr.chance does.  Operands are drawn in the
# order the docstrings list them.

#: The most LFSR states one emitter draws (a four-register FP op with its
#: rounding-mode pair).
MAX_EMIT_DRAWS = 6


def _placed(values, width, shift):
    """``values`` as the bits of a ``width``-bit field at bit ``shift``,
    checked once to fit it."""
    if min(values) < 0 or max(values) >= 1 << width:
        raise ValueError(f"operand pool does not fit a {width}-bit field")
    return tuple([value << shift for value in values])


_RD = _placed(RD_POOL, 5, 7)
_RS1 = _placed(RS_POOL, 5, 15)
_RS2 = _placed(RS_POOL, 5, 20)
_FD, _FS1, _FS2, _FS3 = (_placed(FREG_POOL, 5, shift) for shift in (7, 15, 20, 27))
_SHAMT = _placed(range(64), 6, 20)  # below(64); below(32) for *W shifts
_SHAMTW = _placed(range(32), 5, 20)
_ZIMM = _placed(range(32), 5, 15)  # bits(5)
_UIMM = range(0, 1 << 32, 1 << 12)  # bits(20) << 12: a pool computed on index
_CSRS = {True: _placed(WRITABLE_CSRS, 12, 20),
         False: _placed(GENERATABLE_CSRS, 12, 20)}
# (valid, invalid) rounding modes; a spec whose rm field is fixed still
# draws one.
_RMS = (_placed(VALID_RMS, 3, 12), _placed(INVALID_RMS, 3, 12))
_NO_RMS = ((0,) * len(VALID_RMS), (0,) * len(INVALID_RMS))

_ACCESS_SIZES = {
    "lb": 1, "lbu": 1, "sb": 1,
    "lh": 2, "lhu": 2, "sh": 2,
    "lw": 4, "lwu": 4, "sw": 4, "flw": 4, "fsw": 4,
    "ld": 8, "sd": 8, "fld": 8, "fsd": 8,
}
# Memory displacements: the 11 drawn bits less 1 KiB, aligned down to the
# access size (within -1 KiB..+1 KiB of a base register that points 2 KiB
# into its segment), as 12-bit two's-complement field bits.
_MEM_OFFSET_BIAS = 1 << 10

# The flags of the emitted shapes: an affiliated setup before the prime;
# a branch or jal, with a target to patch or dangling; jalr's patched
# lui/addi pair before the prime.
_SETUP_FLAGS = pack_flags([(False, False, ""), (True, False, "")])
JUMP_FLAGS = {(kind, patched): pack_flags([(True, patched, kind)])
              for kind in ("branch", "jal") for patched in (False, True)}
_JALR_FLAGS = pack_flags([(False, True, "lui"), (False, True, "addi"),
                          (True, False, "")])


def _jump_target(ahead, pos, index, total, window):
    """``(pos, target)``: a forward target block index within ``window``
    blocks (``None``: unbounded, the prior fuzzers' behaviour, whose
    expected jump distance E_j = 1 + (L - p)/2 wastes most of the
    iteration, paper eq. 1), or ``None`` without a draw when no block
    follows."""
    first = index + 1
    if first >= total:
        return pos, None
    last = total - 1 if window is None else min(total - 1, index + window)
    if last < first:
        raise ValueError("bound must be positive")
    pos += 1
    return pos, first + ahead[pos] % (last - first + 1)


def _emit_plain(spec, pools, fixed=0):
    """One word: ``spec.match`` with the ``fixed`` bits, and an operand
    from each pool."""
    match, name = spec.match | fixed, spec.name
    fields = tuple((pool, len(pool)) for pool in pools)

    def emit(ahead, pos, index, total, window, odds):
        word = match
        for pool, count in fields:
            pos += 1
            word |= pool[ahead[pos] % count]
        return pos, InstructionBlock(name, (word,))
    return emit


def _emit_rounded(spec, pools):
    """FP registers and the like from ``pools``, then a rounding mode:
    an invalid one with the configured odds (exercising the
    illegal-instruction path and bug B2), else a valid one."""
    match, name = spec.match, spec.name
    fields = tuple((pool, len(pool)) for pool in pools)
    valid, invalid = _NO_RMS if spec.mask & 0x7000 else _RMS
    valid_count, invalid_count = len(valid), len(invalid)

    def emit(ahead, pos, index, total, window, odds):
        word = match
        for pool, count in fields:
            pos += 1
            word |= pool[ahead[pos] % count]
        if (ahead[pos + 1] & odds[1]) < odds[0]:
            word |= invalid[ahead[pos + 2] % invalid_count]
        else:
            word |= valid[ahead[pos + 2] % valid_count]
        return pos + 2, InstructionBlock(name, (word,))
    return emit


def _emit_i(spec):
    """rd, rs1, a signed 12-bit immediate (bits(12) - 2048)."""
    match, name = spec.match, spec.name
    rd_count, rs1_count = len(_RD), len(_RS1)

    def emit(ahead, pos, index, total, window, odds):
        # The field bits of (bits(12) - 2048): the draw, sign bit flipped.
        word = (match | _RD[ahead[pos + 1] % rd_count]
                | _RS1[ahead[pos + 2] % rs1_count]
                | ((ahead[pos + 3] & 0xFFF) ^ 0x800) << 20)
        return pos + 3, InstructionBlock(name, (word,))
    return emit


def _emit_load(spec, rd_pool):
    """rd from ``rd_pool``, a base register (the data segment with the
    configured odds, else the instruction segment), a displacement."""
    match, name = spec.match, spec.name
    rd_count = len(rd_pool)
    align = 0xFFF & ~(_ACCESS_SIZES[name] - 1)
    data_base, instr_base = REG_DATA_BASE << 15, REG_INSTR_BASE << 15

    def emit(ahead, pos, index, total, window, odds):
        word = match | rd_pool[ahead[pos + 1] % rd_count]
        word |= data_base if (ahead[pos + 2] & odds[3]) < odds[2] else instr_base
        word |= (((ahead[pos + 3] & 0x7FF) - _MEM_OFFSET_BIAS) & align) << 20
        return pos + 3, InstructionBlock(name, (word,))
    return emit


def _emit_store(spec, rs2_pool):
    """rs2 from ``rs2_pool``, the data base register (stores never target
    the code: no self-modifying code), a displacement."""
    match, name = spec.match | (REG_DATA_BASE << 15), spec.name
    rs2_count = len(rs2_pool)
    align = 0xFFF & ~(_ACCESS_SIZES[name] - 1)

    def emit(ahead, pos, index, total, window, odds):
        offset = ((ahead[pos + 2] & 0x7FF) - _MEM_OFFSET_BIAS) & align
        word = (match | rs2_pool[ahead[pos + 1] % rs2_count]
                | ((offset >> 5) << 25) | ((offset & 0x1F) << 7))
        return pos + 2, InstructionBlock(name, (word,))
    return emit


def _emit_amo(spec, pools):
    """An affiliated ``addi t4, t0, offset`` (offset: bits(10) times the
    access size, modulo 2 KiB, so aligned and in the data segment), then
    the prime on (t4) with its operands from ``pools``."""
    match, name = spec.match | (REG_JALR_TEMP << 15), spec.name
    size = 8 if name.endswith(".d") else 4
    setup_base = (SPECS_BY_NAME["addi"].match | (REG_JALR_TEMP << 7)
                  | (REG_DATA_BASE << 15))
    fields = tuple((pool, len(pool)) for pool in pools)

    def emit(ahead, pos, index, total, window, odds):
        pos += 1
        setup = setup_base | ((((ahead[pos] & 0x3FF) * size) & 0x7FF) << 20)
        word = match
        for pool, count in fields:
            pos += 1
            word |= pool[ahead[pos] % count]
        return pos, InstructionBlock(name, (setup, word), _SETUP_FLAGS)
    return emit


def _emit_jump(spec, pools, kind, placeholder):
    """Branch or jal: ``placeholder`` (the spec's word with a +4
    displacement) with its operands from ``pools``, then a forward
    target; the displacement is patched at assembly."""
    name = spec.name
    fields = tuple((pool, len(pool)) for pool in pools)
    dangling, patched = JUMP_FLAGS[kind, False], JUMP_FLAGS[kind, True]

    def emit(ahead, pos, index, total, window, odds):
        word = placeholder
        for pool, count in fields:
            pos += 1
            word |= pool[ahead[pos] % count]
        pos, target = _jump_target(ahead, pos, index, total, window)
        flags = dangling if target is None else patched
        return pos, InstructionBlock(name, (word,), flags, kind, target)
    return emit


def _emit_jalr(spec):
    """jalr: a forward target, materialized into t4 by an affiliated
    lui/addi pair (patched at assembly), then rd: ``jalr rd, 0(t4)``.  With
    no block to land on it degrades to a nop-like ``addi rd, x0, imm``
    (rd, imm)."""
    match = spec.match | (REG_JALR_TEMP << 15)
    addi = SPECS_BY_NAME["addi"].match
    rd_count = len(_RD)

    def emit(ahead, pos, index, total, window, odds):
        pos, target = _jump_target(ahead, pos, index, total, window)
        rd = _RD[ahead[pos + 1] % rd_count]
        if target is None:
            word = addi | rd | (((ahead[pos + 2] & 0xFFF) ^ 0x800) << 20)
            return pos + 2, InstructionBlock("addi", (word,))
        return pos + 1, InstructionBlock("jalr", (0, 0, match | rd),
                                         _JALR_FLAGS, "jalr", target)
    return emit


# Operand pools of the single-word formats, in draw order.
_PLAIN = {
    "R": (_RD, _RS1, _RS2),
    "R_SH": (_RD, _RS1, _SHAMT), "R_SHW": (_RD, _RS1, _SHAMTW),
    "U": (_RD, _UIMM), "FRN": (_FD, _FS1, _FS2), "FCMP": (_RD, _FS1, _FS2),
    "NONE": (), "FENCE": (),
}
# ... and of the formats that end with a rounding mode.
_ROUNDED = {
    "FR": (_FD, _FS1, _FS2), "R4": (_FD, _FS1, _FS2, _FS3),
    "FR1": (_FD, _FS1), "FCVT_IF": (_RD, _FS1), "FCVT_FI": (_FD, _RS1),
}


def _bind(spec):
    """The emitter of one spec, chosen from its category, name and format."""
    fmt = spec.fmt
    if spec.category is Category.BRANCH:
        return _emit_jump(spec, (_RS1, _RS2), "branch", _set_b_imm(spec.match, 4))
    if spec.name == "jal":
        return _emit_jump(spec, (_RD,), "jal", _set_j_imm(spec.match, 4))
    if spec.name == "jalr":
        return _emit_jalr(spec)
    if fmt == "I":
        return _emit_i(spec)
    if fmt in ("L", "FL"):
        return _emit_load(spec, _FD if fmt == "FL" else _RD)
    if fmt in ("S", "FS"):
        return _emit_store(spec, _FS2 if fmt == "FS" else _RS2)
    if fmt in ("AMO", "LR"):
        return _emit_amo(spec, (_RD, _RS2) if fmt == "AMO" else (_RD,))
    if fmt in ("CSR", "CSRI"):
        # Only csrrw/csrrwi draw from the writable CSRs.
        csrs = _CSRS[spec.name in ("csrrw", "csrrwi")]
        return _emit_plain(spec, (_RD, _ZIMM if fmt == "CSRI" else _RS1, csrs))
    if fmt in _ROUNDED:
        return _emit_rounded(spec, _ROUNDED[fmt])
    # A fence orders everything: pred/succ = iorw,iorw.
    return _emit_plain(spec, _PLAIN[fmt], 0x0FF00000 if fmt == "FENCE" else 0)


#: Spec name -> its block emitter, for every spec.
EMITTERS = {spec.name: _bind(spec) for spec in SPECS}
