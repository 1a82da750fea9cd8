"""Instruction word decoder.

Decoding is the hottest path in the whole framework (every DUT and REF step
decodes), so the decoder buckets specs by major opcode and memoizes decoded
words in a module-level cache.  Fuzzing iterations reuse instruction words
heavily (retained blocks, replayed seeds), which makes the cache effective.
"""

from dataclasses import dataclass

from repro.evict import evict_half
from repro.isa.encoding import bits, sext
from repro.isa.instructions import SPECS, InstrSpec


class IllegalInstruction(Exception):
    """Raised when a word does not decode to any implemented instruction."""

    def __init__(self, word, reason="no matching encoding"):
        super().__init__(f"illegal instruction {word:#010x}: {reason}")
        self.word = word & 0xFFFFFFFF
        self.reason = reason


@dataclass(frozen=True, slots=True)
class DecodedInstr:
    """A fully decoded instruction word."""

    spec: InstrSpec
    word: int
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    rs3: int = 0
    imm: int = 0
    csr: int = 0
    shamt: int = 0
    rm: int = 0
    zimm: int = 0

    @property
    def name(self):
        return self.spec.name

    @property
    def category(self):
        return self.spec.category

    def __repr__(self):
        return f"DecodedInstr({self.spec.name}, word={self.word:#010x})"


_BUCKETS = {}
for _spec in SPECS:
    _BUCKETS.setdefault(_spec.match & 0x7F, []).append(_spec)

_CACHE = {}
_ILLEGAL_CACHE = {}
_CACHE_LIMIT = 1 << 18


def _imm_i(word):
    return sext(bits(word, 31, 20), 12)


def _imm_s(word):
    return sext((bits(word, 31, 25) << 5) | bits(word, 11, 7), 12)


def _imm_b(word):
    raw = (
        (bits(word, 31, 31) << 12)
        | (bits(word, 7, 7) << 11)
        | (bits(word, 30, 25) << 5)
        | (bits(word, 11, 8) << 1)
    )
    return sext(raw, 13)


def _imm_u(word):
    return sext(bits(word, 31, 12) << 12, 32)


def _imm_j(word):
    raw = (
        (bits(word, 31, 31) << 20)
        | (bits(word, 19, 12) << 12)
        | (bits(word, 20, 20) << 11)
        | (bits(word, 30, 21) << 1)
    )
    return sext(raw, 21)


def _extract(spec, word):
    rd = bits(word, 11, 7)
    rs1 = bits(word, 19, 15)
    rs2 = bits(word, 24, 20)
    fmt = spec.fmt
    if fmt == "R":
        return DecodedInstr(spec, word, rd=rd, rs1=rs1, rs2=rs2)
    if fmt in ("I", "L"):
        return DecodedInstr(spec, word, rd=rd, rs1=rs1, imm=_imm_i(word))
    if fmt == "R_SH":
        return DecodedInstr(spec, word, rd=rd, rs1=rs1, shamt=bits(word, 25, 20))
    if fmt == "R_SHW":
        return DecodedInstr(spec, word, rd=rd, rs1=rs1, shamt=bits(word, 24, 20))
    if fmt == "S":
        return DecodedInstr(spec, word, rs1=rs1, rs2=rs2, imm=_imm_s(word))
    if fmt == "B":
        return DecodedInstr(spec, word, rs1=rs1, rs2=rs2, imm=_imm_b(word))
    if fmt == "U":
        return DecodedInstr(spec, word, rd=rd, imm=_imm_u(word))
    if fmt == "J":
        return DecodedInstr(spec, word, rd=rd, imm=_imm_j(word))
    if fmt == "CSR":
        return DecodedInstr(spec, word, rd=rd, rs1=rs1, csr=bits(word, 31, 20))
    if fmt == "CSRI":
        return DecodedInstr(spec, word, rd=rd, zimm=rs1, csr=bits(word, 31, 20))
    if fmt in ("FR", "R4"):
        rs3 = bits(word, 31, 27) if fmt == "R4" else 0
        return DecodedInstr(
            spec, word, rd=rd, rs1=rs1, rs2=rs2, rs3=rs3, rm=bits(word, 14, 12)
        )
    if fmt in ("FR1", "FCVT_IF", "FCVT_FI"):
        return DecodedInstr(spec, word, rd=rd, rs1=rs1, rm=bits(word, 14, 12))
    if fmt in ("FRN", "FCMP"):
        return DecodedInstr(spec, word, rd=rd, rs1=rs1, rs2=rs2)
    if fmt == "FL":
        return DecodedInstr(spec, word, rd=rd, rs1=rs1, imm=_imm_i(word))
    if fmt == "FS":
        return DecodedInstr(spec, word, rs1=rs1, rs2=rs2, imm=_imm_s(word))
    if fmt == "AMO":
        return DecodedInstr(spec, word, rd=rd, rs1=rs1, rs2=rs2)
    if fmt == "LR":
        return DecodedInstr(spec, word, rd=rd, rs1=rs1)
    if fmt in ("NONE", "FENCE"):
        return DecodedInstr(spec, word, rd=rd, rs1=rs1)
    raise AssertionError(f"unhandled format {fmt!r}")  # pragma: no cover


def decode(word):
    """Decode a 32-bit instruction word, raising :class:`IllegalInstruction`.

    Results are memoized, including *illegal* words (mutation produces
    them in bulk, and the bucket scan plus exception construction is the
    expensive part — the cached instance is simply re-raised).  Both memo
    tables are bounded with the shared evict-half policy instead of a
    wholesale clear, so a long campaign never hits a re-miss-on-everything
    latency cliff.
    """
    word &= 0xFFFFFFFF
    cached = _CACHE.get(word)
    if cached is not None:
        return cached
    error = _ILLEGAL_CACHE.get(word)
    if error is not None:
        # Reset the traceback before re-raising the cached instance:
        # ``raise`` APPENDS to an existing __traceback__, so re-raising a
        # long-lived exception unreset would grow its frame chain (and
        # retained locals) without bound over a campaign.
        raise error.with_traceback(None)
    if word & 0b11 != 0b11:
        error = IllegalInstruction(word, "compressed/invalid length")
    else:
        for spec in _BUCKETS.get(word & 0x7F, ()):
            if word & spec.mask == spec.match:
                decoded = _extract(spec, word)
                if len(_CACHE) >= _CACHE_LIMIT:
                    evict_half(_CACHE)
                _CACHE[word] = decoded
                return decoded
        error = IllegalInstruction(word)
    if len(_ILLEGAL_CACHE) >= _CACHE_LIMIT:
        evict_half(_ILLEGAL_CACHE)
    _ILLEGAL_CACHE[word] = error
    raise error


def try_decode(word):
    """Like :func:`decode` but returns ``None`` for illegal words."""
    word &= 0xFFFFFFFF
    cached = _CACHE.get(word)
    if cached is not None:
        return cached
    # Memoized-illegal fast path: no exception round-trip for words the
    # mutation engine keeps re-probing.
    if word in _ILLEGAL_CACHE:
        return None
    try:
        return decode(word)
    except IllegalInstruction:
        return None
