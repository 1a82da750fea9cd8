"""Instruction word decoder.

Decoding is the hottest path in the whole framework (every DUT and REF step
decodes), so decoded words are memoized in a module-level cache.  A miss
is cheap too, because fuzzing keeps producing fresh words: each major
opcode's specs are grouped by mask into ``match -> extractor`` dicts (no
two specs overlap, so at most one dict entry can match), and each spec's
extractor, chosen once from its operand format, builds the decoded tuple
directly.
"""

from types import MethodType
from typing import NamedTuple

from repro.evict import evict_half
from repro.isa.instructions import SPECS, InstrSpec


class IllegalInstruction(Exception):
    """Raised when a word does not decode to any implemented instruction."""

    def __init__(self, word, reason="no matching encoding"):
        super().__init__(f"illegal instruction {word:#010x}: {reason}")
        self.word = word & 0xFFFFFFFF
        self.reason = reason


class DecodedInstr(NamedTuple):
    """A fully decoded instruction word.

    Immutable: one instance is shared by every user of the decode cache.
    """

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


_new = tuple.__new__

_CACHE = {}
_ILLEGAL_CACHE = {}
_CACHE_LIMIT = 1 << 18


# Immediates: sign-extended from the bit layouts of the ISA manual.
def _imm_i(word):
    # imm[11:0] = word[31:20]
    imm = word >> 20
    return imm - 0x1000 if imm & 0x800 else imm


def _imm_s(word):
    # imm[11:5] = word[31:25], imm[4:0] = word[11:7]
    imm = ((word >> 20) & 0xFE0) | ((word >> 7) & 0x1F)
    return imm - 0x1000 if imm & 0x800 else imm


def _imm_b(word):
    # imm[12] = word[31], imm[11] = word[7], imm[10:5] = word[30:25],
    # imm[4:1] = word[11:8]
    imm = (((word >> 19) & 0x1000) | ((word << 4) & 0x800)
           | ((word >> 20) & 0x7E0) | ((word >> 7) & 0x1E))
    return imm - 0x2000 if imm & 0x1000 else imm


def _imm_u(word):
    # imm[31:12] = word[31:12]
    imm = word & 0xFFFFF000
    return imm - 0x1_0000_0000 if imm & 0x8000_0000 else imm


def _imm_j(word):
    # imm[20] = word[31], imm[19:12] = word[19:12], imm[11] = word[20],
    # imm[10:1] = word[30:21]
    imm = ((word & 0x80000000) >> 11 | (word & 0xFF000)
           | ((word >> 9) & 0x800) | ((word >> 20) & 0x7FE))
    return imm - 0x20_0000 if imm & 0x10_0000 else imm


# One extractor per operand format: (spec, word) -> DecodedInstr, fields in
# declaration order (spec, word, rd, rs1, rs2, rs3, imm, csr, shamt, rm, zimm).
def _r(spec, word):
    return _new(DecodedInstr, (spec, word, (word >> 7) & 31, (word >> 15) & 31,
                               (word >> 20) & 31, 0, 0, 0, 0, 0, 0))


def _i(spec, word):
    return _new(DecodedInstr, (spec, word, (word >> 7) & 31, (word >> 15) & 31,
                               0, 0, _imm_i(word), 0, 0, 0, 0))


def _sh(spec, word):
    return _new(DecodedInstr, (spec, word, (word >> 7) & 31, (word >> 15) & 31,
                               0, 0, 0, 0, (word >> 20) & 63, 0, 0))


def _shw(spec, word):
    return _new(DecodedInstr, (spec, word, (word >> 7) & 31, (word >> 15) & 31,
                               0, 0, 0, 0, (word >> 20) & 31, 0, 0))


def _s(spec, word):
    return _new(DecodedInstr, (spec, word, 0, (word >> 15) & 31,
                               (word >> 20) & 31, 0, _imm_s(word), 0, 0, 0, 0))


def _b(spec, word):
    return _new(DecodedInstr, (spec, word, 0, (word >> 15) & 31,
                               (word >> 20) & 31, 0, _imm_b(word), 0, 0, 0, 0))


def _u(spec, word):
    return _new(DecodedInstr, (spec, word, (word >> 7) & 31, 0, 0, 0,
                               _imm_u(word), 0, 0, 0, 0))


def _j(spec, word):
    return _new(DecodedInstr, (spec, word, (word >> 7) & 31, 0, 0, 0,
                               _imm_j(word), 0, 0, 0, 0))


def _csr(spec, word):
    return _new(DecodedInstr, (spec, word, (word >> 7) & 31, (word >> 15) & 31,
                               0, 0, 0, word >> 20, 0, 0, 0))


def _csri(spec, word):
    return _new(DecodedInstr, (spec, word, (word >> 7) & 31, 0, 0, 0, 0,
                               word >> 20, 0, 0, (word >> 15) & 31))


def _fr(spec, word):
    return _new(DecodedInstr, (spec, word, (word >> 7) & 31, (word >> 15) & 31,
                               (word >> 20) & 31, 0, 0, 0, 0, (word >> 12) & 7, 0))


def _r4(spec, word):
    return _new(DecodedInstr, (spec, word, (word >> 7) & 31, (word >> 15) & 31,
                               (word >> 20) & 31, word >> 27, 0, 0, 0,
                               (word >> 12) & 7, 0))


def _fr1(spec, word):
    return _new(DecodedInstr, (spec, word, (word >> 7) & 31, (word >> 15) & 31,
                               0, 0, 0, 0, 0, (word >> 12) & 7, 0))


def _rd_rs1(spec, word):
    return _new(DecodedInstr, (spec, word, (word >> 7) & 31, (word >> 15) & 31,
                               0, 0, 0, 0, 0, 0, 0))


_EXTRACTORS = {
    "R": _r, "FRN": _r, "FCMP": _r, "AMO": _r,
    "I": _i, "L": _i, "FL": _i,
    "R_SH": _sh, "R_SHW": _shw,
    "S": _s, "FS": _s, "B": _b, "U": _u, "J": _j,
    "CSR": _csr, "CSRI": _csri,
    "FR": _fr, "R4": _r4,
    "FR1": _fr1, "FCVT_IF": _fr1, "FCVT_FI": _fr1,
    "LR": _rd_rs1, "NONE": _rd_rs1, "FENCE": _rd_rs1,
}


def _build_buckets():
    """Major opcode -> ((mask, {match: extractor bound to its spec}), ...)."""
    buckets = {}
    for spec in SPECS:
        extractor = MethodType(_EXTRACTORS[spec.fmt], spec)
        by_mask = buckets.setdefault(spec.match & 0x7F, {})
        by_mask.setdefault(spec.mask, {})[spec.match] = extractor
    return {opcode: tuple(by_mask.items()) for opcode, by_mask in buckets.items()}


_BUCKETS = _build_buckets()


def decode(word):
    """Decode a 32-bit instruction word, raising :class:`IllegalInstruction`.

    Results are memoized, including *illegal* words (mutation produces
    them in bulk, and exception construction is the expensive part — the
    cached instance is simply re-raised).  Both memo tables are bounded
    with the shared evict-half policy instead of a wholesale clear, so a
    long campaign never hits a re-miss-on-everything latency cliff.
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
        for mask, extractors in _BUCKETS.get(word & 0x7F, ()):
            extract = extractors.get(word & mask)
            if extract is not None:
                decoded = extract(word)
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
