"""Fuzzer components: LFSR, instruction library, blocks, corpus, mutation."""

import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.cascade import CascadeConfig, CascadeFuzzer
from repro.baselines.difuzzrtl import DifuzzRtlConfig, DifuzzRtlFuzzer
from repro.deepexplore.bbv import IntervalRecord
from repro.deepexplore.intervals import build_init_words, build_interval_seed
from repro.fuzzer import (
    Corpus,
    InstructionLibrary,
    Lfsr,
    Seed,
    TurboFuzzConfig,
    TurboFuzzer,
)
from repro.fuzzer.blocks import (
    EMITTERS,
    MAX_EMIT_DRAWS,
    PATCH_KINDS,
    InstructionBlock,
    pack_flags,
)
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
    MemoryLayout,
    draw_odds,
)
from repro.fuzzer.lfsr import AHEAD, lookahead
from repro.fuzzer.mutation import MutationEngine
from repro.isa.decoder import decode, try_decode
from repro.isa.encoder import encode
from repro.isa.instructions import Category, Extension, SPECS_BY_NAME


class TestLfsr:
    def test_deterministic(self):
        assert [Lfsr(5).next() for _ in range(10)] == [
            Lfsr(5).next() for _ in range(10)
        ]

    def test_zero_seed_not_absorbing(self):
        lfsr = Lfsr(0)
        assert lfsr.next() != 0

    def test_bits_width(self):
        lfsr = Lfsr(1)
        for count in (1, 8, 32, 64, 96):
            assert 0 <= lfsr.bits(count) < (1 << count)

    def test_below_bound(self):
        lfsr = Lfsr(3)
        assert all(0 <= lfsr.below(7) < 7 for _ in range(200))

    def test_chance_requires_pow2_denominator(self):
        with pytest.raises(ValueError):
            Lfsr(1).chance((1, 3))

    def test_chance_rate(self):
        lfsr = Lfsr(11)
        hits = sum(lfsr.chance((7, 16)) for _ in range(4000))
        assert 0.35 < hits / 4000 < 0.52

    def test_consecutive_draws_are_independent(self):
        """Regression: a plain Galois LFSR made some (chance, roll) pairs
        unreachable — retain ops never fired."""
        lfsr = Lfsr(0xC0FFEE)
        seen_after_pass = set()
        for _ in range(5000):
            if lfsr.chance((7, 16)):
                seen_after_pass.add(lfsr.next() & 15)
        assert seen_after_pass == set(range(16))

    def test_fill_bytes(self):
        blob = Lfsr(9).fill_bytes(100)
        assert len(blob) == 100 and len(set(blob)) > 10

    def test_fork_diverges(self):
        lfsr = Lfsr(9)
        fork = lfsr.fork()
        assert [lfsr.next() for _ in range(5)] != [fork.next() for _ in range(5)]

    @given(state=st.integers(min_value=1, max_value=(1 << 64) - 1),
           draws=st.integers(min_value=0, max_value=AHEAD))
    @settings(max_examples=60, deadline=None)
    def test_lookahead_is_the_stream(self, state, draws):
        """The lookahead is the state and the next AHEAD states, and a
        state written back after ``draws`` of them continues the stream
        exactly."""
        ahead = lookahead(state)
        stepped = Lfsr(1)
        stepped.state = state
        assert ahead == [state] + stepped.fill_words(AHEAD)
        resumed, reference = Lfsr(ahead[draws]), Lfsr(1)
        reference.state = state
        for _ in range(draws):
            reference.next()
        assert [resumed.next() for _ in range(5)] == [
            reference.next() for _ in range(5)]


class TestInstructionLibrary:
    def test_excludes_environment_instructions(self):
        library = InstructionLibrary()
        names = {spec.name for spec in library.active_specs}
        assert "ecall" not in names and "mret" not in names
        assert "ebreak" in names

    def test_disable_extension(self):
        library = InstructionLibrary()
        library.disable(Extension.F)
        library.disable(Extension.D)
        assert not any(spec.is_fp for spec in library.active_specs)
        library.enable(Extension.F)
        assert any(spec.name == "fadd.s" for spec in library.active_specs)

    def test_sample_weighted_respects_zero(self):
        library = InstructionLibrary()
        lfsr = Lfsr(1)
        weights = {category: 0 for category in Category}
        weights[Category.ALU] = 1
        for _ in range(50):
            spec = lfsr.choice(library.weighted_specs(weights))
            assert spec.category is Category.ALU

    def test_sample_category(self):
        library = InstructionLibrary()
        spec = Lfsr(1).choice(library.specs_in_category(Category.BRANCH))
        assert spec.category is Category.BRANCH

    def test_contains(self):
        library = InstructionLibrary()
        assert "fdiv.d" in library


class Generator:
    """An LFSR and the odds a generator draws with."""

    def __init__(self, seed, config=None):
        config = config or TurboFuzzConfig()
        self.lfsr = Lfsr(seed)
        self.odds = draw_odds(config.invalid_rm_prob, config.data_segment_prob)


@pytest.fixture
def generator():
    return Generator(7)


def build(generator, spec, index, total, window):
    """One block from ``spec``'s emitter, drawing from a lookahead of the
    generator's LFSR, which then goes on after the block's draws."""
    lfsr = generator.lfsr
    ahead = lookahead(lfsr.state)
    pos, block = EMITTERS[spec.name](ahead, 0, index, total, window,
                                     generator.odds)
    assert pos <= MAX_EMIT_DRAWS, spec.name
    lfsr.state = ahead[pos]
    return block


def entries(block):
    """``(word, is_prime, needs_target_patch, patch_kind)`` per entry."""
    return [(entry["word"], entry["is_prime"], entry["needs_target_patch"],
             entry["patch_kind"]) for entry in block.state_dict()["entries"]]


class TestBlockBuilder:
    def test_load_block_uses_base_registers(self, generator):
        block = build(generator, SPECS_BY_NAME["ld"], 0, 100, 4)
        decoded = decode(block.words[0])
        assert decoded.rs1 in (5, 6)
        assert decoded.imm % 8 == 0

    def test_store_block_targets_data_segment(self, generator):
        for _ in range(20):
            block = build(generator, SPECS_BY_NAME["sd"], 0, 100, 4)
            assert decode(block.words[0]).rs1 == REG_DATA_BASE

    def test_amo_block_has_affiliated_setup(self, generator):
        block = build(generator, SPECS_BY_NAME["amoadd.d"], 0, 100, 4)
        assert block.size == 2
        setup = decode(block.words[0])
        assert setup.name == "addi" and setup.imm % 8 == 0
        assert not entries(block)[0][1]

    def test_jalr_block_structure(self, generator):
        block = build(generator, SPECS_BY_NAME["jalr"], 0, 100, 4)
        assert block.cf_kind == "jalr" and block.size == 3
        assert block.target_block is not None

    def test_branch_block_records_target(self, generator):
        block = build(generator, SPECS_BY_NAME["beq"], 10, 100, 4)
        assert block.cf_kind == "branch"
        assert 11 <= block.target_block <= 14

    def test_unbounded_window(self, generator):
        targets = set()
        for _ in range(60):
            block = build(generator, SPECS_BY_NAME["jal"], 0, 1000, None)
            targets.add(block.target_block)
        assert max(targets) > 100  # unbounded jumps roam far

    @given(seed=st.integers(min_value=1, max_value=1 << 30))
    @settings(max_examples=25, deadline=None)
    def test_every_generated_word_decodes(self, seed):
        generator = Generator(seed)
        library = InstructionLibrary()
        for _ in range(30):
            spec = generator.lfsr.choice(library.active_specs)
            block = build(generator, spec, 0, 100, 4)
            for word, _, needs_patch, _ in entries(block):
                if not needs_patch:
                    assert try_decode(word) is not None


_ACCESS_SIZES = {"b": 1, "h": 2, "w": 4, "d": 8}


def _access_size(name):
    """Bytes a load/store moves, from its mnemonic (``lbu`` -> 1)."""
    return _ACCESS_SIZES[name[-1] if name[-1] in _ACCESS_SIZES else name[-2]]


def entry_state(word, is_prime=True, needs_target_patch=False,
                patch_kind=""):
    """The corpus JSON of one entry, transcribed from the encoder blocks
    had when each entry was an object (``StimulusEntry``)."""
    return {"word": word, "is_prime": is_prime,
            "needs_target_patch": needs_target_patch,
            "patch_kind": patch_kind}


def block_state(prime_name, entry_states, cf_kind="", target_block=None,
                generated=True):
    """The corpus JSON of one block, transcribed the same way: the packed
    block must encode to exactly this."""
    return {"prime_name": prime_name, "entries": list(entry_states),
            "cf_kind": cf_kind, "target_block": target_block,
            "generated": generated}


def two_pass_from_state(state):
    """``InstructionBlock.from_state`` before its one-pass decoder,
    transcribed: the words in one pass, then the coerced entry triples
    through ``pack_flags``."""
    target = state["target_block"]
    entries = state["entries"]
    return InstructionBlock(
        str(state["prime_name"]),
        tuple([int(entry["word"]) for entry in entries]),
        pack_flags([(bool(entry["is_prime"]),
                     bool(entry["needs_target_patch"]),
                     str(entry["patch_kind"])) for entry in entries]),
        str(state["cf_kind"]),
        None if target is None else int(target),
        bool(state["generated"]),
    )


def reference_block(lfsr, config, spec, index, total, window):
    """The block generation rules written out with one ``Lfsr`` call per
    operand and ``encode()`` per word, as the corpus JSON of the block:
    the reference the emitters must match word for word and draw for
    draw."""
    def rd():
        return lfsr.choice(RD_POOL)

    def rs():
        return lfsr.choice(RS_POOL)

    def freg():
        return lfsr.below(32)

    def imm12():
        return lfsr.bits(12) - 2048

    def rm():
        if lfsr.chance(config.invalid_rm_prob):
            return lfsr.choice(INVALID_RMS)
        return lfsr.choice(VALID_RMS)

    def offset(size):
        return (lfsr.bits(11) - 1024) & ~(size - 1)

    def target():
        if index + 1 >= total:
            return None
        last = total - 1 if window is None else min(total - 1, index + window)
        return index + 1 + lfsr.below(last - index)

    name, fmt = spec.name, spec.fmt
    if spec.category is Category.BRANCH or name == "jal":
        kind = "jal" if name == "jal" else "branch"
        word = (encode(name, rd=rd(), imm=4) if kind == "jal"
                else encode(name, rs1=rs(), rs2=rs(), imm=4))
        jump = target()
        return block_state(name, [entry_state(
            word, True, jump is not None, kind)], kind, jump)
    if name == "jalr":
        jump = target()
        if jump is None:
            return block_state("addi", [entry_state(
                encode("addi", rd=rd(), rs1=0, imm=imm12()))])
        return block_state("jalr", [
            entry_state(0, False, True, "lui"),
            entry_state(0, False, True, "addi"),
            entry_state(encode("jalr", rd=rd(), rs1=REG_JALR_TEMP))],
            "jalr", jump)
    if fmt in ("AMO", "LR"):
        size = 8 if name.endswith(".d") else 4
        setup = encode("addi", rd=REG_JALR_TEMP, rs1=REG_DATA_BASE,
                       imm=lfsr.bits(10) * size % 2048)
        fields = {"rd": rd()}
        if fmt == "AMO":
            fields["rs2"] = rs()
        return block_state(name, [
            entry_state(setup, False),
            entry_state(encode(name, rs1=REG_JALR_TEMP, **fields))])
    rm_formats = ("FR", "R4", "FR1", "FCVT_IF", "FCVT_FI")
    operands = {
        "R": lambda: dict(rd=rd(), rs1=rs(), rs2=rs()),
        "I": lambda: dict(rd=rd(), rs1=rs(), imm=imm12()),
        "R_SH": lambda: dict(rd=rd(), rs1=rs(), shamt=lfsr.below(64)),
        "R_SHW": lambda: dict(rd=rd(), rs1=rs(), shamt=lfsr.below(32)),
        "U": lambda: dict(rd=rd(), imm=lfsr.bits(20) << 12),
        "CSR": lambda: dict(rd=rd(), rs1=rs(), csr=lfsr.choice(
            WRITABLE_CSRS if name == "csrrw" else GENERATABLE_CSRS)),
        "CSRI": lambda: dict(rd=rd(), zimm=lfsr.bits(5), csr=lfsr.choice(
            WRITABLE_CSRS if name == "csrrwi" else GENERATABLE_CSRS)),
        "L": lambda: dict(rd=rd(), rs1=(
            REG_DATA_BASE if lfsr.chance(config.data_segment_prob)
            else REG_INSTR_BASE), imm=offset(_access_size(name))),
        "FL": lambda: dict(rd=freg(), rs1=(
            REG_DATA_BASE if lfsr.chance(config.data_segment_prob)
            else REG_INSTR_BASE), imm=offset(_access_size(name))),
        "S": lambda: dict(rs2=rs(), rs1=REG_DATA_BASE,
                          imm=offset(_access_size(name))),
        "FS": lambda: dict(rs2=freg(), rs1=REG_DATA_BASE,
                           imm=offset(_access_size(name))),
        "FR": lambda: dict(rd=freg(), rs1=freg(), rs2=freg()),
        "R4": lambda: dict(rd=freg(), rs1=freg(), rs2=freg(), rs3=freg()),
        "FR1": lambda: dict(rd=freg(), rs1=freg()),
        "FRN": lambda: dict(rd=freg(), rs1=freg(), rs2=freg()),
        "FCMP": lambda: dict(rd=rd(), rs1=freg(), rs2=freg()),
        "FCVT_IF": lambda: dict(rd=rd(), rs1=freg()),
        "FCVT_FI": lambda: dict(rd=freg(), rs1=rs()),
        "NONE": dict,
        "FENCE": dict,
    }[fmt]()
    if fmt in rm_formats:
        operands["rm"] = rm()
    return block_state(name, [entry_state(encode(name, **operands))])


def decoded_fields(word):
    decoded = decode(word)
    return dict(rd=decoded.rd, rs1=decoded.rs1, rs2=decoded.rs2,
                rs3=decoded.rs3, imm=decoded.imm, csr=decoded.csr,
                shamt=decoded.shamt, rm=decoded.rm, zimm=decoded.zimm)


class TestEmitters:
    """Every spec's block emitter, over many LFSR seeds, against
    ``encode()`` and the context's operand pools."""

    LIBRARY = InstructionLibrary()
    # Both rounding-mode pools and both load bases come up often.
    CONFIG = TurboFuzzConfig(invalid_rm_prob=(1, 4),
                             data_segment_prob=(1, 2))

    @given(seed=st.integers(min_value=1, max_value=(1 << 64) - 1),
           index=st.integers(min_value=0, max_value=99),
           window=st.sampled_from((1, 2, 4, None)))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_reference_draw_for_draw(self, seed, index, window):
        """Every default-library spec's emitter encodes, word and flags,
        to the transcribed JSON of the reference block, and the JSON
        decodes back to the same packed block."""
        emitted = Generator(seed, self.CONFIG)
        reference = Lfsr(seed)
        for spec in self.LIBRARY.active_specs:
            block = build(emitted, spec, index, 100, window)
            expected = reference_block(reference, self.CONFIG, spec, index,
                                       100, window)
            assert block.state_dict() == expected, spec.name
            assert InstructionBlock.from_state(expected) == block, spec.name
            assert emitted.lfsr.state == reference.state, spec.name

    @given(seed=st.integers(min_value=1, max_value=(1 << 64) - 1))
    @settings(max_examples=40, deadline=None)
    def test_every_word_encodes_its_decoded_fields(self, seed):
        generator = Generator(seed, self.CONFIG)
        for spec in self.LIBRARY.active_specs:
            block = build(generator, spec, 3, 100, 4)
            for word, is_prime, needs_patch, _ in entries(block):
                if needs_patch and not is_prime:
                    assert word == 0  # jalr's lui/addi placeholders
                    continue
                decoded = decode(word)
                if is_prime:
                    assert decoded.spec is spec
                assert encode(decoded.name, **decoded_fields(word)) == word

    @given(seed=st.integers(min_value=1, max_value=(1 << 64) - 1))
    @settings(max_examples=40, deadline=None)
    def test_every_operand_lies_in_its_pool(self, seed):
        generator = Generator(seed, self.CONFIG)
        int_dest = {"R", "I", "R_SH", "R_SHW", "U", "CSR", "CSRI", "L",
                    "FCMP", "FCVT_IF", "AMO", "LR", "J"}
        rs_sources = {"R", "I", "R_SH", "R_SHW", "CSR", "FCVT_FI"}
        for spec in self.LIBRARY.active_specs:
            block = build(generator, spec, 3, 100, 4)
            prime = decode(block.words[-1])
            fmt = spec.fmt
            if fmt in int_dest or spec.name == "jalr":
                assert prime.rd in RD_POOL, spec.name
            elif fmt not in ("S", "FS", "B", "NONE", "FENCE"):
                assert prime.rd in FREG_POOL, spec.name
            if fmt in rs_sources:
                assert prime.rs1 in RS_POOL, spec.name
            if fmt in ("R", "S", "B", "AMO"):
                assert prime.rs2 in RS_POOL, spec.name
            if fmt in ("L", "FL"):
                assert prime.rs1 in (REG_DATA_BASE, REG_INSTR_BASE)
            if fmt in ("S", "FS"):
                assert prime.rs1 == REG_DATA_BASE
            if fmt in ("L", "FL", "S", "FS"):
                assert -1024 <= prime.imm < 1024
                assert prime.imm % _access_size(spec.name) == 0
            if fmt in ("AMO", "LR") or spec.name == "jalr":
                assert prime.rs1 == REG_JALR_TEMP
            if fmt in ("AMO", "LR"):
                setup = decode(block.words[0])
                size = 8 if spec.name.endswith(".d") else 4
                assert (setup.name, setup.rd, setup.rs1) == (
                    "addi", REG_JALR_TEMP, REG_DATA_BASE)
                assert 0 <= setup.imm < 2048 and setup.imm % size == 0
            if fmt in ("CSR", "CSRI"):
                writable = spec.name in ("csrrw", "csrrwi")
                assert prime.csr in (WRITABLE_CSRS if writable
                                     else GENERATABLE_CSRS)
            if fmt in ("FR", "R4", "FR1") or (
                    fmt in ("FCVT_IF", "FCVT_FI") and not spec.mask & 0x7000):
                assert prime.rm in VALID_RMS + INVALID_RMS, spec.name

    def test_block_shapes_and_flags(self, generator):
        amo = build(generator, SPECS_BY_NAME["amoswap.w"], 0, 10, 2)
        assert [entry[1:3] for entry in entries(amo)] == [
            (False, False), (True, False)]
        assert (amo.cf_kind, amo.target_block) == ("", None)
        jalr = build(generator, SPECS_BY_NAME["jalr"], 4, 10, 2)
        assert [entry[1:] for entry in entries(jalr)] == [
            (False, True, "lui"), (False, True, "addi"), (True, False, "")]
        assert jalr.cf_kind == "jalr" and jalr.target_block in (5, 6)
        last = build(generator, SPECS_BY_NAME["jalr"], 9, 10, 2)
        assert last.prime_name == "addi" and last.size == 1
        assert decode(last.words[0]).rs1 == 0
        for name, kind in (("bltu", "branch"), ("jal", "jal")):
            block = build(generator, SPECS_BY_NAME[name], 4, 10, 2)
            ((_, *flags),) = entries(block)
            assert flags == [True, True, kind]
            assert block.cf_kind == kind and block.target_block in (5, 6)
            dangling = build(generator, SPECS_BY_NAME[name], 9, 10, 2)
            assert dangling.target_block is None
            assert entries(dangling)[0][1:] == (True, False, kind)


class TestPackedBlocks:
    """Blocks of every producer encode to the transcribed JSON of the
    entry-object blocks, decode back to themselves, and cost the garbage
    collector one object each."""

    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_difuzzrtl_blocks(self, seed):
        fuzzer = DifuzzRtlFuzzer(DifuzzRtlConfig(
            seed=seed, instructions_per_iteration=200))
        prime_names = {"": "addi", "jal": "jal", "branch": "beq"}
        for round_index in range(6):  # stored and mutated seeds too
            iteration = fuzzer.generate_iteration()
            for block in iteration.blocks:
                kind, target = block.cf_kind, block.target_block
                expected = block_state(prime_names[kind], [entry_state(
                    block.words[0], True, kind != "" and target is not None,
                    kind)], kind, target)
                assert block.state_dict() == expected
                assert InstructionBlock.from_state(expected) == block
            fuzzer.feedback(iteration, round_index % 2)
        assert fuzzer.corpus

    @pytest.mark.parametrize("seed", (1, 2))
    def test_cascade_blocks_draw_for_draw(self, seed):
        """Cascade's block loop against the reference: one spec choice,
        then the reference block, per block; then the data seed."""
        fuzzer = CascadeFuzzer(CascadeConfig(
            seed=seed, instructions_per_iteration=300))
        for _ in range(2):
            reference = Lfsr(fuzzer.lfsr.state)
            specs = fuzzer.direct.specs()
            iteration = fuzzer.generate_iteration()
            for index, block in enumerate(iteration.blocks):
                expected = reference_block(
                    reference, TurboFuzzConfig(invalid_rm_prob=(0, 2)),
                    reference.choice(specs), index, 300,
                    fuzzer.config.jump_window_blocks)
                assert block.state_dict() == expected
                assert InstructionBlock.from_state(expected) == block
            assert iteration.data_seed == reference.next()

    def test_interval_blocks(self):
        snapshot = {"xregs": list(range(32)), "fregs": [7] * 32,
                    "csrs": {}}
        interval = IntervalRecord(0, {}, snapshot, min_pc=0x1008,
                                  max_pc=0x1040)
        code = [encode("addi", rd=7, rs1=7, imm=step) for step in range(40)]
        blocks, _ = build_interval_seed(interval, code, 0x1000,
                                        MemoryLayout())
        init_words, _ = build_init_words(snapshot, MemoryLayout())
        expected = [block_state("addi", map(entry_state, init_words),
                                generated=False)] + [
            block_state("addi", [entry_state(word)], generated=False)
            for word in code[2:17]]
        assert [block.state_dict() for block in blocks] == expected
        assert [InstructionBlock.from_state(state)
                for state in expected] == blocks

    def test_unknown_patch_kind_is_rejected(self):
        state = block_state("beq", [entry_state(0x63, True, True, "far")])
        with pytest.raises(ValueError):
            InstructionBlock.from_state(state)

    @pytest.mark.parametrize("field, value", (
        ("word", True), ("word", 19.0), ("word", 1 << 32),
        ("is_prime", 1), ("needs_target_patch", 0), ("patch_kind", None),
    ))
    def test_entry_field_of_the_wrong_type_is_rejected(self, field, value):
        state = block_state("addi", [entry_state(0x13)])
        state["entries"][0][field] = value
        with pytest.raises((TypeError, ValueError)):
            InstructionBlock.from_state(state)

    @pytest.mark.parametrize("field, value", (
        ("generated", 1), ("target_block", True), ("target_block", 2.0),
        ("entries", (entry_state(0x13),)), ("prime_name", None),
    ))
    def test_block_field_of_the_wrong_type_is_rejected(self, field, value):
        state = block_state("addi", [entry_state(0x13)])
        state[field] = value
        with pytest.raises((TypeError, ValueError)):
            InstructionBlock.from_state(state)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_one_pass_decoder_matches_the_two_pass_one(self, data):
        """On valid blocks (one entry or several, every patch kind, jalr's
        patched lui/addi pair before its prime) the one-pass decoder
        builds the block the two-pass decoder it replaced built, and the
        block encodes back to its state."""
        entry = st.builds(entry_state, st.integers(0, (1 << 32) - 1),
                          st.booleans(), st.booleans(),
                          st.sampled_from(PATCH_KINDS))
        words = st.integers(0, (1 << 32) - 1)
        jalr = st.builds(lambda lui, addi, prime: [
            entry_state(lui, False, True, "lui"),
            entry_state(addi, False, True, "addi"),
            entry_state(prime)], words, words, words)
        entries = data.draw(st.one_of(st.lists(entry, min_size=1, max_size=1),
                                      st.lists(entry, min_size=2, max_size=9),
                                      jalr))
        state = block_state(
            data.draw(st.sampled_from(sorted(SPECS_BY_NAME))), entries,
            data.draw(st.sampled_from(("", "branch", "jal", "jalr"))),
            data.draw(st.none() | st.integers(0, 4000)),
            data.draw(st.booleans()))
        block = InstructionBlock.from_state(state)
        assert block == two_pass_from_state(state)
        assert block.state_dict() == state

    def test_decoded_seed_adds_one_tracked_object_per_block(self):
        """A decoded seed is the seed, its block list and one object per
        block: the words tuples hold no references the collector scans."""
        fuzzer = TurboFuzzer(TurboFuzzConfig(
            seed=3, instructions_per_iteration=400))
        fuzzer.feedback(fuzzer.generate_iteration(), 5)
        state = fuzzer.corpus.seeds[0].state_dict()
        gc.collect()
        before = len(gc.get_objects())
        seed = Seed.from_state(state)
        gc.collect()
        added = len(gc.get_objects()) - before
        assert len(seed.blocks) == len(state["blocks"]) > 300
        assert added <= len(state["blocks"]) + 2


class TestIterationAssembly:
    def test_forward_only_control_flow(self):
        """Property: every patched branch/jal displacement is positive."""
        fuzzer = TurboFuzzer(TurboFuzzConfig(
            instructions_per_iteration=500, seed=123))
        iteration = fuzzer.generate_iteration()
        fuzzer.feedback(iteration, 50)
        for _ in range(3):
            iteration = fuzzer.generate_iteration()
            fuzzer.feedback(iteration, 10)
            base = iteration.fuzz_base
            for offset, word in enumerate(iteration.words):
                decoded = try_decode(word)
                if decoded is None:
                    continue
                if decoded.spec.category is Category.BRANCH:
                    assert decoded.imm > 0
                elif decoded.name == "jal":
                    assert decoded.imm > 0

    def test_iteration_meets_budget(self):
        fuzzer = TurboFuzzer(TurboFuzzConfig(instructions_per_iteration=777))
        iteration = fuzzer.generate_iteration()
        assert iteration.total_instructions >= 777
        assert len(iteration.words) == sum(
            block.size for block in iteration.blocks) + 1  # + ecall

    def test_iteration_ends_with_ecall(self):
        fuzzer = TurboFuzzer(TurboFuzzConfig(instructions_per_iteration=50))
        iteration = fuzzer.generate_iteration()
        assert decode(iteration.words[-1]).name == "ecall"

    def test_block_bases_are_monotonic(self):
        fuzzer = TurboFuzzer(TurboFuzzConfig(instructions_per_iteration=200))
        iteration = fuzzer.generate_iteration()
        bases = iteration.block_bases
        assert all(b2 > b1 for b1, b2 in zip(bases, bases[1:]))

    def test_determinism(self):
        a = TurboFuzzer(TurboFuzzConfig(seed=5,
                                        instructions_per_iteration=100))
        b = TurboFuzzer(TurboFuzzConfig(seed=5,
                                        instructions_per_iteration=100))
        assert a.generate_iteration().words == b.generate_iteration().words

    def test_setup_words_shift_fuzz_base(self):
        from repro.fuzzer.blocks import Iteration

        block = InstructionBlock("addi", (0x13,))
        iteration = Iteration(blocks=[block], layout=MemoryLayout(),
                              setup_words=[0x13, 0x13])
        iteration.assemble()
        assert iteration.fuzz_base == iteration.layout.blocks + 8
        assert iteration.total_instructions == 3


class TestCorpus:
    def _seed(self, increment):
        return Seed([InstructionBlock("addi", (0x13,))],
                    coverage_increment=increment)

    def test_fifo_evicts_oldest(self):
        corpus = Corpus(capacity=2, policy="fifo")
        first, second, third = (self._seed(i) for i in (10, 20, 30))
        corpus.add(first), corpus.add(second), corpus.add(third)
        assert first not in corpus.seeds and third in corpus.seeds

    def test_coverage_evicts_lowest_increment(self):
        corpus = Corpus(capacity=2, policy="coverage")
        low, high, mid = self._seed(1), self._seed(100), self._seed(50)
        corpus.add(low), corpus.add(high)
        assert corpus.add(mid) is True
        assert low not in corpus.seeds
        assert high in corpus.seeds and mid in corpus.seeds

    def test_coverage_rejects_weaker_newcomer(self):
        corpus = Corpus(capacity=2, policy="coverage")
        corpus.add(self._seed(10)), corpus.add(self._seed(20))
        assert corpus.add(self._seed(5)) is False
        assert corpus.rejected == 1

    def test_selection_prefers_best(self):
        corpus = Corpus(capacity=8, policy="coverage", priority_prob=(4, 4))
        best = self._seed(99)
        corpus.add(self._seed(1)), corpus.add(best), corpus.add(self._seed(2))
        lfsr = Lfsr(3)
        assert all(corpus.select(lfsr) is best for _ in range(10))

    def test_random_selection_reaches_all(self):
        corpus = Corpus(capacity=8, policy="coverage", priority_prob=(0, 4))
        seeds = [self._seed(i) for i in range(4)]
        for seed in seeds:
            corpus.add(seed)
        lfsr = Lfsr(3)
        selected = {corpus.select(lfsr).seed_id for _ in range(100)}
        assert len(selected) == 4

    def test_update_increment(self):
        corpus = Corpus(capacity=2)
        seed = self._seed(10)
        corpus.add(seed)
        corpus.update_increment(seed, 77)
        assert seed.coverage_increment == 77

    def test_empty_select_returns_none(self):
        assert Corpus().select(Lfsr(1)) is None

    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            Corpus(policy="lru")


class TestMutationEngine:
    def _engine(self, seed=3):
        return MutationEngine(TurboFuzzConfig(seed=seed)), lookahead(seed)

    def test_block_op_distribution(self):
        """Mutation-mode block operations split 3/16 generate, 11/16
        delete, 2/16 retain.  Every position is in mutation mode while the
        seed lasts, and a retain streams one block, so the counters count
        the operations."""
        fuzzer = TurboFuzzer(TurboFuzzConfig(
            seed=3, instructions_per_iteration=2000,
            mutation_mode_prob=(16, 16), retain_run_blocks=1))
        for _ in range(6):
            fuzzer.feedback(fuzzer.generate_iteration(), 10)
        stats = fuzzer.stats
        counts = {
            "generate": stats.mode_counts["mutation"] - stats.blocks_retained,
            "delete": stats.blocks_deleted,
            "retain": stats.blocks_retained,
        }
        total = sum(counts.values())
        assert total > 8000
        assert abs(counts["generate"] / total - 3 / 16) < 0.03
        assert abs(counts["delete"] / total - 11 / 16) < 0.03
        assert abs(counts["retain"] / total - 2 / 16) < 0.03

    def test_retain_preserves_relative_target(self):
        engine, ahead = self._engine()
        block = InstructionBlock("jal", (0x6F,), pack_flags(
            [(True, True, "jal")]), cf_kind="jal", target_block=12)
        _, _, retained = engine.retain_block(ahead, 0, block, old_index=10,
                                             new_index=50)
        assert retained.target_block == 52  # delta of 2 preserved
        assert retained.generated is False

    def test_mutated_words_still_decode(self):
        engine, ahead = self._engine()
        word = decode(0x00B50533).word  # add a0, a0, a1
        pos = 0
        for _ in range(50):
            pos, mutated = engine._mutate_word(ahead, pos, word)
            if mutated is not None:
                assert try_decode(mutated) is not None

    def test_csr_words_never_mutated(self):
        engine, ahead = self._engine()
        from repro.isa.encoder import encode

        word = encode("csrrw", rd=1, csr=0x340, rs1=2)
        assert engine._mutate_word(ahead, 0, word) == (0, None)

    def test_control_flow_blocks_not_rebound(self):
        """A control-flow block keeps its words however the rebind
        chance falls."""
        block = InstructionBlock("jalr", (0, 0, 0x000E80E7), pack_flags([
            (False, True, "lui"), (False, True, "addi"), (True, False, ""),
        ]), cf_kind="jalr", target_block=5)
        engine = MutationEngine(TurboFuzzConfig(operand_mutation_prob=(2, 2)))
        _, _, retained = engine.retain_block(lookahead(3), 0, block, 0, 0)
        assert retained.words == block.words
        assert retained.flags == block.flags


class TestTurboFuzzerTop:
    def test_feedback_only_stores_improving(self):
        fuzzer = TurboFuzzer(TurboFuzzConfig(instructions_per_iteration=50))
        iteration = fuzzer.generate_iteration()
        fuzzer.feedback(iteration, 0)
        assert len(fuzzer.corpus) == 0
        iteration = fuzzer.generate_iteration()
        fuzzer.feedback(iteration, 10)
        assert len(fuzzer.corpus) == 1

    def test_mutation_updates_parent_increment(self):
        fuzzer = TurboFuzzer(TurboFuzzConfig(instructions_per_iteration=50))
        iteration = fuzzer.generate_iteration()
        fuzzer.feedback(iteration, 100)
        parent = fuzzer.corpus.seeds[0]
        iteration = fuzzer.generate_iteration()
        fuzzer.feedback(iteration, 33)
        assert parent.coverage_increment == 33

    def test_interval_seed_with_patch(self):
        fuzzer = TurboFuzzer(TurboFuzzConfig(instructions_per_iteration=50))
        blocks = [InstructionBlock("addi", (0x13,))]
        fuzzer.add_interval_seed(blocks, 500, data_patch=(0x100, b"\x01\x02"))
        assert fuzzer.corpus.seeds[0].origin == "interval"
        iteration = fuzzer.generate_iteration()
        assert (0x100, b"\x01\x02") in iteration.data_patches

    def test_stats_accumulate(self):
        fuzzer = TurboFuzzer(TurboFuzzConfig(instructions_per_iteration=100))
        fuzzer.generate_iteration()
        assert fuzzer.stats.iterations == 1
        assert fuzzer.stats.instructions_generated >= 100


class TestCorpusPressure:
    """Eviction behaviour under sustained capacity pressure (Fig. 9's
    regime): ordering, re-ranking after mutation feedback, and interval
    seeds surviving by recorded increment."""

    def _seed(self, increment, origin="direct"):
        return Seed([InstructionBlock("addi", (0x13,))],
                    coverage_increment=increment, origin=origin)

    def test_fifo_eviction_order_is_insertion_order(self):
        corpus = Corpus(capacity=3, policy="fifo")
        seeds = [self._seed(i) for i in (5, 50, 500)]
        for seed in seeds:
            corpus.add(seed)
        evicted = []
        for increment in (1, 2, 3):
            newcomer = self._seed(increment)
            survivors_before = list(corpus.seeds)
            corpus.add(newcomer)
            gone = [s for s in survivors_before if s not in corpus.seeds]
            evicted.extend(gone)
        # FIFO ignores quality entirely: the original seeds leave in
        # insertion order, even the 500-increment one.
        assert evicted == seeds
        assert corpus.evictions == 3

    def test_coverage_eviction_order_is_increment_order(self):
        corpus = Corpus(capacity=3, policy="coverage")
        low, mid, high = (self._seed(i) for i in (10, 20, 30))
        for seed in (high, low, mid):  # insertion order must not matter
            corpus.add(seed)
        assert corpus.add(self._seed(15)) is True   # evicts low (10)
        assert low not in corpus.seeds
        assert corpus.add(self._seed(25)) is True   # evicts the 15 newcomer
        increments = sorted(corpus.increments())
        assert increments == [20, 25, 30]
        # Anything at-or-below the current floor bounces.
        assert corpus.add(self._seed(20)) is False
        assert corpus.rejected == 1

    def test_update_increment_reranks_victim_choice(self):
        corpus = Corpus(capacity=2, policy="coverage")
        stale, fresh = self._seed(90), self._seed(40)
        corpus.add(stale), corpus.add(fresh)
        # Mutation-mode feedback demotes the once-great seed...
        corpus.update_increment(stale, 5)
        # ...so the next insertion evicts it instead of the 40.
        assert corpus.add(self._seed(60)) is True
        assert stale not in corpus.seeds and fresh in corpus.seeds

    def test_interval_seeds_pinned_by_recorded_increment(self):
        """deepExplore's interval seeds survive capacity pressure exactly
        as long as their recorded coverage increment keeps them off the
        eviction floor."""
        fuzzer = TurboFuzzer(TurboFuzzConfig(corpus_capacity=4))
        interval = fuzzer.add_interval_seed(
            [InstructionBlock("addi", (0x13,))],
            coverage_increment=1000,
        )
        assert interval in fuzzer.corpus.seeds
        corpus = fuzzer.corpus
        for increment in (200, 300, 400, 500, 600, 700):
            corpus.add(self._seed(increment))
        assert interval in corpus.seeds  # outranked every direct seed
        # Once re-ranked below the floor it is evictable like any other.
        corpus.update_increment(interval, 1)
        corpus.add(self._seed(650))
        assert interval not in corpus.seeds

    def test_fifo_evicts_interval_seeds_regardless_of_increment(self):
        corpus = Corpus(capacity=2, policy="fifo")
        interval = self._seed(10_000, origin="interval")
        corpus.add(interval)
        corpus.add(self._seed(1)), corpus.add(self._seed(2))
        assert interval not in corpus.seeds
