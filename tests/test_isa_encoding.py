"""ISA layer: bit helpers, encode/decode round trips, assembler."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa import (
    IllegalInstruction,
    SPECS,
    SPECS_BY_NAME,
    assemble,
    decode,
    disassemble,
    encode,
)
from repro.isa.decoder import spec_of, try_decode
from repro.isa.encoder import EncodeError, assemble_all
from repro.isa.encoding import (
    align_down,
    bits,
    fits_signed,
    fits_unsigned,
    popcount,
    sext,
    to_signed,
    to_unsigned,
)
from repro.isa.instructions import Extension, specs_for_extensions


class TestBitHelpers:
    def test_bits_extracts_inclusive_slice(self):
        assert bits(0b1011_0110, 5, 2) == 0b1101

    def test_bits_rejects_inverted_slice(self):
        with pytest.raises(ValueError):
            bits(0, 2, 5)

    def test_sext_negative(self):
        assert sext(0xFFF, 12) == -1
        assert sext(0x800, 12) == -2048

    def test_sext_positive(self):
        assert sext(0x7FF, 12) == 2047

    def test_signed_unsigned_roundtrip(self):
        assert to_unsigned(to_signed(0xFFFF_FFFF_FFFF_FFFF)) == (1 << 64) - 1
        assert to_signed(to_unsigned(-5)) == -5

    def test_fits(self):
        assert fits_signed(-2048, 12) and not fits_signed(2048, 12)
        assert fits_unsigned(4095, 12) and not fits_unsigned(4096, 12)

    def test_align_down(self):
        assert align_down(0x1007, 8) == 0x1000

    def test_popcount(self):
        assert popcount(0b1011) == 3

    @given(st.integers(min_value=-(1 << 11), max_value=(1 << 11) - 1))
    def test_sext_is_identity_on_in_range(self, value):
        assert sext(value & 0xFFF, 12) == value


class TestSpecTable:
    def test_every_spec_has_consistent_match_mask(self):
        for spec in SPECS:
            assert spec.match & ~spec.mask == 0, spec.name

    def test_no_overlapping_encodings(self):
        # Any two specs must be distinguishable by their shared mask bits.
        for i, a in enumerate(SPECS):
            for b in SPECS[i + 1:]:
                shared = a.mask & b.mask
                assert (a.match & shared) != (b.match & shared), (
                    f"{a.name} and {b.name} overlap"
                )

    def test_extension_filtering(self):
        base = specs_for_extensions({Extension.I})
        assert all(spec.extension is Extension.I for spec in base)
        assert "mul" not in {spec.name for spec in base}

    def test_rv32_filtering(self):
        rv32 = specs_for_extensions({Extension.I}, xlen=32)
        names = {spec.name for spec in rv32}
        assert "ld" not in names and "lw" in names

    def test_category_predicates(self):
        assert SPECS_BY_NAME["beq"].is_control_flow
        assert SPECS_BY_NAME["ld"].is_memory
        assert SPECS_BY_NAME["fdiv.d"].is_fp
        assert not SPECS_BY_NAME["add"].is_control_flow


# Hypothesis strategies for operand fields.
reg = st.integers(min_value=0, max_value=31)
imm12 = st.integers(min_value=-2048, max_value=2047)
imm13_even = st.integers(min_value=-2048, max_value=2047).map(lambda v: v * 2)
imm21_even = st.integers(min_value=-(1 << 19), max_value=(1 << 19) - 1).map(
    lambda v: v * 2
)


class TestEncodeDecodeRoundTrip:
    @given(rd=reg, rs1=reg, rs2=reg)
    def test_r_type(self, rd, rs1, rs2):
        word = encode("add", rd=rd, rs1=rs1, rs2=rs2)
        decoded = decode(word)
        assert (decoded.name, decoded.rd, decoded.rs1, decoded.rs2) == (
            "add", rd, rs1, rs2,
        )

    @given(rd=reg, rs1=reg, imm=imm12)
    def test_i_type(self, rd, rs1, imm):
        decoded = decode(encode("addi", rd=rd, rs1=rs1, imm=imm))
        assert (decoded.rd, decoded.rs1, decoded.imm) == (rd, rs1, imm)

    @given(rs1=reg, rs2=reg, imm=imm12)
    def test_s_type(self, rs1, rs2, imm):
        decoded = decode(encode("sd", rs1=rs1, rs2=rs2, imm=imm))
        assert (decoded.rs1, decoded.rs2, decoded.imm) == (rs1, rs2, imm)

    @given(rs1=reg, rs2=reg, imm=imm13_even)
    def test_b_type(self, rs1, rs2, imm):
        decoded = decode(encode("bne", rs1=rs1, rs2=rs2, imm=imm))
        assert (decoded.rs1, decoded.rs2, decoded.imm) == (rs1, rs2, imm)

    @given(rd=reg, imm=imm21_even)
    def test_j_type(self, rd, imm):
        decoded = decode(encode("jal", rd=rd, imm=imm))
        assert (decoded.rd, decoded.imm) == (rd, imm)

    @given(rd=reg, imm=st.integers(min_value=0, max_value=(1 << 20) - 1))
    def test_u_type(self, rd, imm):
        decoded = decode(encode("lui", rd=rd, imm=imm << 12))
        assert decoded.rd == rd
        assert (decoded.imm >> 12) & 0xFFFFF == imm

    @given(rd=reg, rs1=reg, shamt=st.integers(min_value=0, max_value=63))
    def test_shift(self, rd, rs1, shamt):
        decoded = decode(encode("srai", rd=rd, rs1=rs1, shamt=shamt))
        assert (decoded.rd, decoded.rs1, decoded.shamt) == (rd, rs1, shamt)

    @given(rd=reg, rs1=reg, rs2=reg, rs3=reg,
           rm=st.sampled_from([0, 1, 2, 3, 4, 7]))
    def test_r4_type(self, rd, rs1, rs2, rs3, rm):
        decoded = decode(
            encode("fmadd.d", rd=rd, rs1=rs1, rs2=rs2, rs3=rs3, rm=rm)
        )
        assert (decoded.rd, decoded.rs1, decoded.rs2, decoded.rs3,
                decoded.rm) == (rd, rs1, rs2, rs3, rm)

    @settings(max_examples=30)
    @given(data=st.data())
    def test_every_spec_roundtrips_with_zero_operands(self, data):
        spec = data.draw(st.sampled_from(SPECS))
        word = encode(spec.name)
        decoded = decode(word)
        assert decoded.name == spec.name


class TestDecoder:
    def test_illegal_word_raises(self):
        with pytest.raises(IllegalInstruction):
            decode(0x0000_0000)

    def test_compressed_length_rejected(self):
        with pytest.raises(IllegalInstruction):
            decode(0x0000_0001)

    def test_try_decode_returns_none(self):
        assert try_decode(0) is None
        assert try_decode(encode("add", rd=1, rs1=2, rs2=3)).name == "add"

    def test_decode_is_cached(self):
        word = encode("xor", rd=3, rs1=4, rs2=5)
        assert decode(word) is decode(word)

    @given(word=st.integers(min_value=0, max_value=(1 << 32) - 1))
    @settings(max_examples=200)
    def test_decode_never_crashes(self, word):
        result = try_decode(word)
        if result is not None:
            assert result.word == word & 0xFFFFFFFF


class TestAssembler:
    @pytest.mark.parametrize("text", [
        "add x1, x2, x3",
        "addi a0, a1, -42",
        "lw t0, 16(sp)",
        "sd s1, -8(a0)",
        "beq a0, a1, 64",
        "jal ra, -2048",
        "jalr zero, ra, 0",
        "lui gp, 0x12345",
        "auipc t1, 0x1000",
        "slli t2, t3, 13",
        "sraiw a2, a3, 7",
        "mul a4, a5, a6",
        "divu s2, s3, s4",
        "csrrw t0, 0x300, t1",
        "csrrsi t0, 0x003, 5",
        "fadd.d ft0, ft1, ft2",
        "fadd.s fa0, fa1, fa2, rtz",
        "fmadd.s ft0, ft1, ft2, ft3",
        "fsqrt.d ft4, ft5",
        "fld fs0, 24(a0)",
        "fsw fa0, -4(sp)",
        "feq.d a0, ft0, ft1",
        "fclass.s a1, ft2",
        "fcvt.w.d a2, ft3",
        "fcvt.d.l ft6, a3",
        "fmv.x.d a4, ft7",
        "amoadd.w t0, t1, (a2)",
        "lr.d t3, (a4)",
        "sc.w t5, t6, (a5)",
        "fence",
        "ecall",
        "ebreak",
        "mret",
    ])
    def test_assemble_disassemble_decode(self, text):
        word = assemble(text)
        decoded = decode(word)
        assert decoded.name == text.split()[0]
        # Disassembly must re-assemble to the same word (modulo rm syntax).
        rendered = disassemble(word)
        assert rendered.split()[0] == decoded.name

    def test_assemble_rejects_unknown_mnemonic(self):
        with pytest.raises(EncodeError):
            assemble("bogus x1, x2, x3")

    def test_assemble_rejects_bad_immediate(self):
        with pytest.raises(EncodeError):
            assemble("addi x1, x2, 99999")

    def test_assemble_all_skips_comments_and_blanks(self):
        words = assemble_all([
            "# comment only",
            "",
            "addi x1, x0, 1  # trailing",
            "add x2, x1, x1",
        ])
        assert len(words) == 2

    def test_disassemble_illegal(self):
        assert disassemble(0).startswith(".word")


# -- an independent decoder ------------------------------------------------------
# Field positions and immediate layouts transcribed from the RISC-V
# Unprivileged ISA manual (base formats R/I/S/B/U/J, R4 for fused
# multiply-add, Zicsr's csr/uimm fields); nothing here is shared with
# ``repro.isa``'s decoder or encoder.  Which fields an operand format
# carries is the spec table's convention (``repro.isa.instructions``).

def _slice(word, hi, lo):
    return (word >> lo) & ((1 << (hi - lo + 1)) - 1)


def _signed(value, width):
    return value - (1 << width) if value >> (width - 1) else value


_ORACLE_FIELDS = {
    "rd": lambda w: _slice(w, 11, 7),
    "rs1": lambda w: _slice(w, 19, 15),
    "rs2": lambda w: _slice(w, 24, 20),
    "rs3": lambda w: _slice(w, 31, 27),
    "rm": lambda w: _slice(w, 14, 12),
    "csr": lambda w: _slice(w, 31, 20),
    "zimm": lambda w: _slice(w, 19, 15),
    "shamt6": lambda w: _slice(w, 25, 20),
    "shamt5": lambda w: _slice(w, 24, 20),
    "imm_i": lambda w: _signed(_slice(w, 31, 20), 12),
    "imm_s": lambda w: _signed((_slice(w, 31, 25) << 5) | _slice(w, 11, 7), 12),
    "imm_b": lambda w: _signed(
        (_slice(w, 31, 31) << 12) | (_slice(w, 7, 7) << 11)
        | (_slice(w, 30, 25) << 5) | (_slice(w, 11, 8) << 1), 13),
    "imm_u": lambda w: _signed(_slice(w, 31, 12) << 12, 32),
    "imm_j": lambda w: _signed(
        (_slice(w, 31, 31) << 20) | (_slice(w, 19, 12) << 12)
        | (_slice(w, 20, 20) << 11) | (_slice(w, 30, 21) << 1), 21),
}

_FORMAT_OPERANDS = {
    "R": ("rd", "rs1", "rs2"), "FRN": ("rd", "rs1", "rs2"),
    "FCMP": ("rd", "rs1", "rs2"), "AMO": ("rd", "rs1", "rs2"),
    "I": ("rd", "rs1", "imm_i"), "L": ("rd", "rs1", "imm_i"),
    "FL": ("rd", "rs1", "imm_i"),
    "R_SH": ("rd", "rs1", "shamt6"), "R_SHW": ("rd", "rs1", "shamt5"),
    "S": ("rs1", "rs2", "imm_s"), "FS": ("rs1", "rs2", "imm_s"),
    "B": ("rs1", "rs2", "imm_b"),
    "U": ("rd", "imm_u"), "J": ("rd", "imm_j"),
    "CSR": ("rd", "rs1", "csr"), "CSRI": ("rd", "zimm", "csr"),
    "FR": ("rd", "rs1", "rs2", "rm"), "R4": ("rd", "rs1", "rs2", "rs3", "rm"),
    "FR1": ("rd", "rs1", "rm"), "FCVT_IF": ("rd", "rs1", "rm"),
    "FCVT_FI": ("rd", "rs1", "rm"),
    "LR": ("rd", "rs1"), "NONE": ("rd", "rs1"), "FENCE": ("rd", "rs1"),
}

# DecodedInstr attribute -> the oracle fields that may fill it.
_DECODED_SLOTS = {
    "rd": ("rd",), "rs1": ("rs1",), "rs2": ("rs2",), "rs3": ("rs3",),
    "imm": ("imm_i", "imm_s", "imm_b", "imm_u", "imm_j"), "csr": ("csr",),
    "shamt": ("shamt6", "shamt5"), "rm": ("rm",), "zimm": ("zimm",),
}


def oracle_decode(word):
    """First spec whose mask/match accepts ``word`` and its operand fields
    (absent ones 0), or None for a word no spec accepts."""
    for spec in SPECS:
        if word & spec.mask == spec.match:
            carried = _FORMAT_OPERANDS[spec.fmt]
            fields = {"spec": spec, "word": word}
            for slot, sources in _DECODED_SLOTS.items():
                present = [source for source in sources if source in carried]
                fields[slot] = _ORACLE_FIELDS[present[0]](word) if present else 0
            return fields
    return None


def assert_decoder_agrees(word):
    expected = oracle_decode(word)
    decoded = try_decode(word)
    if expected is None:
        assert decoded is None, f"{word:#010x} decoded as {decoded!r}"
        with pytest.raises(IllegalInstruction):
            decode(word)
        return
    assert decoded is not None, f"{word:#010x} ({expected['spec'].name}) rejected"
    assert decode(word) is decoded
    actual = {name: getattr(decoded, name) for name in expected}
    assert actual == expected, f"{word:#010x}"


class TestDecoderOracle:
    """``decode`` agrees field for field with an independent first-match
    decoder, or both reject."""

    @settings(max_examples=1500)
    @given(spec=st.sampled_from(SPECS),
           operand_bits=st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_every_spec_under_random_operand_bits(self, spec, operand_bits):
        word = spec.match | (operand_bits & ~spec.mask & 0xFFFF_FFFF)
        assert oracle_decode(word)["spec"] is spec
        assert_decoder_agrees(word)

    @settings(max_examples=1500)
    @given(word=st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_raw_words(self, word):
        assert_decoder_agrees(word)


class TestSpecOf:
    """``spec_of`` names the spec ``try_decode`` decodes a word to, or
    ``None`` for an illegal word."""

    @settings(max_examples=1500)
    @given(word=st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_raw_words(self, word):
        decoded = try_decode(word)
        assert spec_of(word) is (None if decoded is None else decoded.spec)

    @settings(max_examples=1500)
    @given(spec=st.sampled_from(SPECS),
           operand_bits=st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_every_spec_under_random_operand_bits(self, spec, operand_bits):
        word = spec.match | (operand_bits & ~spec.mask & 0xFFFF_FFFF)
        assert spec_of(word) is spec
        assert try_decode(word).spec is spec
