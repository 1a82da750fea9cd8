"""DUT cores: netlists, stepping, latency, caches, microarch domains."""

import pytest

from repro.campaign import CampaignSpec, build_session
from repro.coverage import instrument_design
from repro.dut import BoomCore, Cva6Core, RocketCore, make_core
from repro.dut.caches import DirectMappedCache
from repro.harness.image import build_image
from repro.isa.encoder import assemble_all
from repro.isa.instructions import Category
from repro.rtl import estimate_area
from repro.rtl.netlist import control_registers

CORES = [RocketCore, Cva6Core, BoomCore]


@pytest.fixture(params=CORES, ids=[cls.name for cls in CORES])
def core(request):
    return request.param()


PROGRAM = assemble_all([
    "addi a0, zero, 100",
    "addi a1, zero, 7",
    "div a2, a0, a1",
    "mul a3, a0, a1",
    "fcvt.d.w ft0, a0",
    "fcvt.d.w ft1, a1",
    "fdiv.d ft2, ft0, ft1",
    "lui t0, 0x10",
    "sd a2, 0(t0)",
    "ld a4, 0(t0)",
    "beq a4, a2, 8",
    "ebreak",
    "csrrs a5, 0xb02, zero",
    "fence",
    "ecall",
])


class TestCoreConstruction:
    def test_make_core_by_name(self):
        assert make_core("rocket").name == "rocket"
        assert make_core("CVA6").name == "cva6"
        with pytest.raises(ValueError):
            make_core("z80")

    def test_netlist_has_common_modules(self, core):
        names = {module.name for module in core.top.walk()}
        for expected in ("Frontend", "Decode", "Execute", "MulDiv", "FPU",
                         "LSU", "CSRFile", "PTW"):
            assert expected in names

    def test_boom_has_ooo_modules(self):
        names = {module.name for module in BoomCore().top.walk()}
        assert {"ROB", "Rename", "IssueQueue", "LSQ"} <= names

    def test_cva6_has_scoreboard(self):
        names = {module.name for module in Cva6Core().top.walk()}
        assert "Scoreboard" in names

    def test_control_registers_exist_per_module(self, core):
        for name in ("Frontend", "FPU", "CSRFile"):
            module = next(m for m in core.top.walk() if m.name == name)
            assert control_registers(module)

    def test_area_is_positive(self, core):
        area = estimate_area(core.top)
        assert area.luts > 10_000 and area.registers > 10_000


class TestExecution:
    def test_program_runs_to_ecall(self, core):
        core.load_program(core.reset_pc, PROGRAM)
        records = core.run(100, stop_on=lambda r: r.trap is not None
                           and r.trap.cause == 11)
        assert records[-1].trap is not None
        assert core.retired == len(records)
        assert core.cycles > len(records)  # multi-cycle ops accrued

    def test_reset_clears_state(self, core):
        core.load_program(core.reset_pc, PROGRAM)
        core.run(5)
        core.reset()
        assert core.cycles == 0 and core.retired == 0
        assert all(value == 0 for value in core.vals.values())

    def test_div_costs_more_than_add(self, core):
        core.load_program(core.reset_pc, assemble_all(
            ["addi a0, zero, 9", "addi a1, zero, 3"]))
        core.run(2)
        add_cycles = core.cycles
        core.reset()
        core.load_program(core.reset_pc, assemble_all(
            ["div a2, a0, a1", "div a3, a0, a1"]))
        core.run(2)
        assert core.cycles > add_cycles

    def test_seconds_elapsed(self, core):
        core.load_program(core.reset_pc, PROGRAM)
        core.run(5)
        assert core.seconds_elapsed() == pytest.approx(
            core.cycles / 100e6
        )

    def test_microarch_values_stay_in_domains(self, core):
        cov = instrument_design(core.top, max_state_size=15)
        core.attach_coverage(cov)
        core.load_program(core.reset_pc, PROGRAM)
        core.run(30, stop_on=lambda r: r.trap is not None
                 and r.trap.cause == 11)
        for name, register in core.regs.items():
            if register.domain is None or name not in core.vals:
                continue
            assert core.vals[name] in register.domain, (
                f"{name}={core.vals[name]} outside domain"
            )

    def test_coverage_accumulates(self, core):
        cov = instrument_design(core.top, max_state_size=15)
        core.attach_coverage(cov)
        core.load_program(core.reset_pc, PROGRAM)
        core.run(len(PROGRAM))
        assert cov.total_points > 5


class TestCaches:
    def test_direct_mapped_hit_miss(self):
        cache = DirectMappedCache(sets=4, line_shift=4)
        assert cache.access(0x100) is False
        assert cache.access(0x104) is True  # same line
        assert cache.access(0x100 + 4 * 16) is False  # conflict: same set
        assert cache.misses == 2 and cache.hits == 1

    def test_flush(self):
        cache = DirectMappedCache(sets=4)
        cache.access(0)
        cache.flush()
        assert cache.access(0) is False

    def test_miss_rate(self):
        cache = DirectMappedCache(sets=16)
        for address in range(0, 1 << 12, 64):
            cache.access(address)
        assert cache.miss_rate > 0


def _reference_latency(core, record, icache, dcache, predictor):
    """One instruction's cycles as the latency model computed them before
    the DUT loop inlined it, over :class:`DirectMappedCache` models and a
    copy of BOOM's predictor: the sums are formed in the same order."""
    timing = core.timing
    decoded = record.decoded
    category = decoded.spec.category if decoded is not None else None
    cycles = timing.base
    if not icache.access(record.pc):
        cycles += timing.icache_miss
    if record.trap is not None:
        cycles += timing.trap
    elif category is Category.BRANCH:
        if record.next_pc != record.pc + 4:
            cycles += timing.branch_taken
    elif category in (Category.STORE, Category.FP_STORE):
        hit = dcache.access(record.mem_addr)
        cycles += timing.store_hit if hit else timing.cache_miss
    elif category in (Category.LOAD, Category.FP_LOAD):
        hit = dcache.access(record.pc)  # a load records no address
        cycles += timing.load_hit if hit else timing.cache_miss
    elif category in _FIXED_EXTRA:
        cycles += getattr(timing, _FIXED_EXTRA[category])
    if predictor is not None and category is Category.BRANCH:
        taken = record.next_pc != record.pc + 4
        counter = predictor.get(record.pc, 1)
        if (counter >= 2) != taken:
            cycles += timing.extra["mispredict"]
        predictor[record.pc] = min(3, counter + 1) if taken else max(0, counter - 1)
    return cycles


# Categories with a fixed extra latency -> its CoreTiming field.
_FIXED_EXTRA = {
    Category.JUMP: "jump", Category.MUL: "mul", Category.DIV: "div",
    Category.AMO: "amo", Category.FP_DIV: "fp_div", Category.FP_FMA: "fp_fma",
    Category.FP_ARITH: "fp_arith", Category.FP_CVT: "fp_arith",
    Category.FP_CMP: "fp_arith", Category.FP_MOVE: "fp_arith", Category.CSR: "csr",
}


class TestLatencyModel:
    @pytest.mark.parametrize("name", [cls.name for cls in CORES])
    def test_loop_matches_the_reference_latency(self, name):
        """On a fuzzing iteration, the loop's cycles (BOOM's 0.55 base
        included), cache counters, cache tags and branch predictor equal
        the reference latency model's, sum for sum."""
        session = build_session(CampaignSpec()
                                .with_fuzzer("turbofuzz", instructions_per_iteration=300)
                                .with_core(name).with_seed(5))
        session.run_iterations(2)
        core = session.core
        image = build_image(session.fuzzer.generate_iteration())
        core.reset_pc = image.layout.reset
        core.reset()
        image.install(core.memory)
        icache, dcache = DirectMappedCache(sets=256), DirectMappedCache(sets=256)
        for model, cache in ((icache, core.icache), (dcache, core.dcache)):
            model.restore(cache.snapshot())
        predictor = (dict(core._branch_predictor) if isinstance(core, BoomCore)
                     else None)
        start = core.cycles
        cycles = start
        for record in core.run(2000, stop_on=lambda r: r.next_pc == image.layout.done):
            cycles += _reference_latency(core, record, icache, dcache, predictor)
        assert cycles - start > 300
        assert core.cycles == cycles
        assert core.icache.snapshot() == icache.snapshot()
        assert core.dcache.snapshot() == dcache.snapshot()
        if predictor is not None:
            assert core._branch_predictor == predictor


class TestBoomSpecifics:
    def test_mispredict_penalty(self):
        core = BoomCore()
        # A loop whose branch alternates: the 2-bit predictor mispredicts.
        program = assemble_all([
            "addi a0, zero, 8",
            "andi a1, a0, 1",
            "bne a1, zero, 4",
            "addi a0, a0, -1",
            "bne a0, zero, -12",
            "ecall",
        ])
        core.load_program(core.reset_pc, program)
        core.run(100, stop_on=lambda r: r.trap is not None)
        assert core._mispredicts > 0

    def test_rob_occupancy_tracks_long_ops(self):
        core = BoomCore()
        program = assemble_all(["div a2, a0, a1"] * 4 + ["ecall"])
        core.load_program(core.reset_pc, program)
        core.run(4)
        assert core.vals["rob_occupancy"] > 0
