"""RTL-IR, control-register extraction, layouts, reachability, maps."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.coverage import (
    CoverageMap,
    FeedbackWeights,
    LegacyLayout,
    OptimizedLayout,
    achievable_points,
    instrument_design,
    make_layout,
    reachability_report,
)
from repro.coverage.layout import _rotl
from repro.rtl import Module, estimate_area
from repro.rtl.netlist import control_registers
from tests.helpers import reference_index


def _toy_module(domains=(None, None, None), widths=(3, 2, 4)):
    top = Module("Top")
    sub = top.submodule("Unit")
    registers = [
        sub.register(f"r{i}", widths[i], domain=domains[i])
        for i in range(len(widths))
    ]
    glue = sub.logic("glue", 2, sources=registers)
    sub.mux("out_mux", select=glue, width=8)
    return top, sub, registers


class TestNetlistExtraction:
    def test_trace_through_logic_to_registers(self):
        top, sub, registers = _toy_module()
        found = control_registers(sub)
        assert {r.name for r in found} == {"r0", "r1", "r2"}

    def test_trace_stops_at_ports(self):
        top = Module("Top")
        sub = top.submodule("U")
        port = sub.port("in_sel", 2)
        reg = sub.register("state", 2)
        glue = sub.logic("g", 2, sources=[port, reg])
        sub.mux("m", select=glue)
        found = control_registers(sub)
        assert [r.name for r in found] == ["state"]

    def test_trace_does_not_cross_registers(self):
        top = Module("Top")
        sub = top.submodule("U")
        deep = sub.register("deep", 2)
        front = sub.register("front", 2, sources=[deep])
        sub.mux("m", select=front)
        found = control_registers(sub)
        assert [r.name for r in found] == ["front"]

    def test_deterministic_order(self):
        top, sub, _ = _toy_module()
        assert [r.uid for r in control_registers(sub)] == sorted(
            r.uid for r in control_registers(sub)
        )

    def test_module_paths(self):
        top, sub, registers = _toy_module()
        assert registers[0].path == "Top.Unit.r0"

    def test_find_register(self):
        top, sub, _ = _toy_module()
        assert top.find_register("r1").width == 2
        with pytest.raises(KeyError):
            top.find_register("nope")


class TestLayouts:
    def test_rotl(self):
        assert _rotl(0b1, 3, 8) == 0b1000
        assert _rotl(0b1000_0000, 1, 8) == 1
        assert _rotl(0b101, 0, 8) == 0b101

    def test_optimized_offsets_follow_eq2(self):
        top, sub, registers = _toy_module(widths=(6, 6, 6))
        layout = OptimizedLayout(control_registers(sub), max_state_size=15)
        offsets = layout.placements
        assert offsets[0] == 0
        for i in range(1, len(offsets)):
            width = layout.registers[i - 1].width
            assert offsets[i] == (offsets[i - 1] + width) % 15

    def test_legacy_shift_in_range_and_seed_deterministic(self):
        top, sub, registers = _toy_module()
        a = LegacyLayout(control_registers(sub), 10, seed=3)
        b = LegacyLayout(control_registers(sub), 10, seed=3)
        c = LegacyLayout(control_registers(sub), 10, seed=4)
        assert a.placements == b.placements
        assert all(0 <= s < 10 for s in a.placements)
        assert a.placements != c.placements  # overwhelmingly likely

    def test_index_is_xor_of_contributions(self):
        top, sub, registers = _toy_module()
        layout = OptimizedLayout(control_registers(sub), 10)
        values = (5, 2, 9)
        expected = 0
        for position, value in enumerate(values):
            expected ^= layout.contribution(position, value)
        assert layout.index(values) == expected

    def test_legacy_instruments_full_space(self):
        top, sub, _ = _toy_module(widths=(2, 2, 2))
        layout = LegacyLayout(control_registers(sub), 12)
        assert layout.instrumented_points == 1 << 12

    def test_optimized_instruments_domain_product(self):
        top, sub, _ = _toy_module(
            widths=(3, 2, 4), domains=((0, 1, 2), None, None),
        )
        layout = OptimizedLayout(control_registers(sub), 15)
        assert layout.instrumented_points == 3 * 4 * 16

    def test_make_layout_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_layout("bogus", [], 10)

    @given(
        widths=st.lists(st.integers(min_value=1, max_value=6), min_size=1,
                        max_size=4),
        style=st.sampled_from(["legacy", "optimized"]),
        bits=st.integers(min_value=4, max_value=10),
        seed=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=40, deadline=None)
    def test_covered_positions_exact_against_brute_force(self, widths, style,
                                                         bits, seed):
        """covered_positions == OR of every value's contribution bits."""
        top = Module("T")
        sub = top.submodule("U")
        registers = [sub.register(f"r{i}", w) for i, w in enumerate(widths)]
        glue = sub.logic("g", 1, sources=registers)
        sub.mux("m", select=glue)
        layout = make_layout(style, registers, bits, seed=seed)
        brute = 0
        for position, register in enumerate(registers):
            for value in range(1 << register.width):
                brute |= layout.contribution(position, value)
        assert layout.covered_positions() == brute

    def test_instrumentation_registry_extension(self):
        from repro.coverage import (INSTRUMENTATIONS, InstrumentationLayout,
                                    register_instrumentation)

        @register_instrumentation("identity")
        class IdentityLayout(InstrumentationLayout):
            style = "identity"

            def _place(self):
                return [0] * len(self.registers)

            def contribution(self, position, value):
                width = self.registers[position].width
                return value & (1 << width) - 1 & self.mask

            @property
            def instrumented_points(self):
                return 1 << self.max_state_size if self.registers else 0

        try:
            top, sub, _ = _toy_module()
            layout = make_layout("identity", control_registers(sub), 10)
            assert isinstance(layout, IdentityLayout)
            assert "identity" in INSTRUMENTATIONS
        finally:
            INSTRUMENTATIONS.unregister("identity")
        with pytest.raises(ValueError, match="identity"):
            make_layout("identity", [], 10)


class TestReachability:
    def _brute_force(self, layout):
        spaces = [reg.domain_values() for reg in layout.registers]
        return len({
            layout.index(values) for values in itertools.product(*spaces)
        })

    @given(
        widths=st.lists(st.integers(min_value=1, max_value=4), min_size=1,
                        max_size=4),
        style=st.sampled_from(["legacy", "optimized"]),
        bits=st.integers(min_value=4, max_value=8),
        seed=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=40, deadline=None)
    def test_exact_against_brute_force_full_domains(self, widths, style,
                                                    bits, seed):
        top = Module("T")
        sub = top.submodule("U")
        registers = [sub.register(f"r{i}", w) for i, w in enumerate(widths)]
        glue = sub.logic("g", 1, sources=registers)
        sub.mux("m", select=glue)
        layout = make_layout(style, registers, bits, seed=seed)
        assert achievable_points(layout) == self._brute_force(layout)

    def test_restricted_domain_against_brute_force(self):
        top = Module("T")
        sub = top.submodule("U")
        registers = [
            sub.register("fsm", 3, domain=(0, 1, 2, 4)),
            sub.register("flag", 1),
            sub.register("cnt", 3, domain=(0, 1, 2, 3, 5)),
        ]
        glue = sub.logic("g", 1, sources=registers)
        sub.mux("m", select=glue)
        for style in ("legacy", "optimized"):
            layout = make_layout(style, registers, 7, seed=9)
            assert achievable_points(layout) == self._brute_force(layout)

    def test_optimized_fully_reachable_with_enough_bits(self):
        top = Module("T")
        sub = top.submodule("U")
        registers = [sub.register(f"r{i}", 6) for i in range(4)]
        glue = sub.logic("g", 1, sources=registers)
        sub.mux("m", select=glue)
        layout = OptimizedLayout(registers, 12)
        report = reachability_report(layout)
        assert report["fraction"] == 1.0

    def test_legacy_leaves_unreachable_points(self):
        top = Module("T")
        sub = top.submodule("U")
        registers = [sub.register("only", 3)]
        glue = sub.logic("g", 1, sources=registers)
        sub.mux("m", select=glue)
        layout = LegacyLayout(registers, 12, seed=0)
        report = reachability_report(layout)
        assert report["fraction"] < 0.01  # 8 values in a 4096 space


class TestCoverageMap:
    def test_observe_reports_new(self):
        cmap = CoverageMap(16)
        assert cmap.observe(3) is True
        assert cmap.observe(3) is False
        assert cmap.count == 1

    def test_merge(self):
        a, b = CoverageMap(16), CoverageMap(16)
        a.observe(1), b.observe(1), b.observe(2)
        assert a.merge(b) == 1
        assert a.count == 2

    def test_density(self):
        cmap = CoverageMap(10)
        cmap.observe_many([1, 2, 3])
        assert cmap.density == 0.3

    def test_copy_is_independent(self):
        a = CoverageMap(16)
        a.observe(1)
        b = a.copy()
        b.observe(2)
        assert a.count == 1 and b.count == 2


class TestWeights:
    def test_shift_amplifies_and_attenuates(self):
        weights = FeedbackWeights({"A": 2, "B": -1})
        assert weights.weighted("A", 3) == 12
        assert weights.weighted("B", 9) == 4
        assert weights.weighted("C", 7) == 7

    def test_weighted_total(self):
        weights = FeedbackWeights({"MulDiv": -2})
        total = weights.weighted_total({"MulDiv": 8, "FPU": 3})
        assert total == 2 + 3

    def test_paper_policy(self):
        weights = FeedbackWeights.attenuate_arithmetic()
        assert weights.shift_for("MulDiv") < 0


class TestInstrumentDesign:
    def test_default_selects_mux_owning_modules(self):
        top, sub, _ = _toy_module()
        design = instrument_design(top, max_state_size=10)
        assert [cov.name for cov in design.modules] == ["Unit"]

    def test_named_selection(self):
        top, sub, _ = _toy_module()
        design = instrument_design(top, module_names=["Unit"],
                                   max_state_size=10)
        assert len(design.modules) == 1

    def test_reference_observation_is_new_once(self):
        top, sub, registers = _toy_module()
        design = instrument_design(top, max_state_size=10)
        module_cov = design.modules[0]
        index = reference_index(module_cov.layout, (1, 1, 1))
        assert module_cov.map.observe(index) is True
        assert module_cov.map.observe(index) is False
        assert module_cov.count == 1

    def test_partial_positions(self):
        top, sub, registers = _toy_module()
        design = instrument_design(top, max_state_size=10)
        module_cov = design.modules[0]
        full = module_cov.layout.index((0, 3, 0))
        module_cov.map.observe(
            reference_index(module_cov.layout, (3,), positions=(1,)))
        assert full in module_cov.map


class TestAreaEstimator:
    def test_registers_count_ffs(self):
        top = Module("T")
        top.register("r", 64)
        assert estimate_area(top).registers == 64

    def test_memory_brams(self):
        top = Module("T")
        top.memory("big", depth=4096, width=36)  # 147456 bits -> 4 BRAMs
        assert estimate_area(top).brams == 4

    def test_small_memory_is_distributed(self):
        top = Module("T")
        top.memory("small", depth=16, width=8)
        assert estimate_area(top).brams == 0

    def test_explicit_lut_cost(self):
        top = Module("T")
        top.logic("blob", width=1, lut_cost=12345)
        assert estimate_area(top).luts == 12345

    def test_estimates_add(self):
        top = Module("T")
        top.register("r", 8)
        child = top.submodule("C")
        child.register("r2", 8)
        assert estimate_area(top).registers == 16
