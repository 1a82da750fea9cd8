"""Design-level instrumentation: one coverage collector per module.

``instrument_design`` runs the control-register extraction pass over the
chosen top-level modules of a DUT netlist (the paper lets users pick the
modules to instrument) and builds one :class:`ModuleCoverage` per module.

A collector owns its module's layout, contribution tables and coverage
map, but computes no index itself: the DUT cores (:mod:`repro.dut.core`)
fold the contribution tables into per-register-group tables when coverage
is attached and produce each module's index where they produce the
register values, the way the hardware instrumentation computes the index
combinationally for free.  :meth:`ModuleCoverage.observe_state_reference`
is the table-independent oracle they are checked against.
"""

from repro.coverage.layout import make_layout
from repro.coverage.map import CoverageMap
from repro.coverage.weighting import FeedbackWeights
from repro.rtl.netlist import control_registers

_MEMO_LIMIT = 1 << 20


class ModuleCoverage:
    """Instrumentation + collection state for one module."""

    __slots__ = ("module", "name", "layout", "map", "tables", "value_masks",
                 "_reference_memo")

    # A pure lookup cache of the reference observer — deliberately absent
    # from state_dict().
    _checkpoint_transient = frozenset({"_reference_memo"})

    def __init__(self, module, layout):
        self.module = module
        self.name = module.name
        self.layout = layout
        self.map = CoverageMap(layout.instrumented_points)
        # Shared per-layout lookup tables: the DUT cores build their group
        # tables from ``tables[position][value & value_masks[position]]``.
        self.tables = layout.contribution_tables()
        self.value_masks = layout.value_masks()
        self._reference_memo = {}

    def observe_state_reference(self, values, positions=None):
        """The pre-overhaul observation path, preserved verbatim.

        ``positions`` maps each element of ``values`` to its register
        position in the layout; ``None`` means the tuple covers all
        registers in order.  Registers not covered contribute their reset
        value of zero (static structural state).

        Value-tuple memo key, per-observation ``layout.contribution()``
        calls, wholesale ``clear()`` at the bound.  It reads no
        contribution table, which makes it the oracle the equivalence
        suite (and ``DutCore.use_reference_observer``) checks the
        table-driven observers against.
        """
        index = self._reference_memo.get(values)
        if index is None:
            layout = self.layout
            if positions is None:
                index = layout.index(values)
            else:
                index = 0
                contribution = layout.contribution
                for position, value in zip(positions, values):
                    index ^= contribution(position, value)
            if len(self._reference_memo) >= _MEMO_LIMIT:
                self._reference_memo.clear()
            self._reference_memo[values] = index
        return self.map.observe(index)

    @property
    def count(self):
        return self.map.count

    # -- checkpoint protocol ---------------------------------------------------
    def state_dict(self, mark=None):
        """Observed-coverage snapshot: the observed point set is the only
        state that outlives an iteration (see :meth:`CoverageMap.state_dict`
        for ``mark``)."""
        return {"map": self.map.state_dict(mark)}

    def prepare_state(self, state):
        """Check a :meth:`state_dict`; returns the function that adds its
        points."""
        return self.map.prepare_state(state["map"])


class DesignCoverage:
    """All instrumented modules of one DUT plus weighting and totals."""

    def __init__(self, module_coverages, weights=None):
        self.modules = list(module_coverages)
        self.by_name = {cov.name: cov for cov in self.modules}
        self.weights = weights or FeedbackWeights()

    # -- totals -----------------------------------------------------------------
    @property
    def total_points(self):
        """Raw covered points across all modules."""
        return sum(cov.count for cov in self.modules)

    @property
    def total_instrumented(self):
        return sum(cov.layout.instrumented_points for cov in self.modules)

    def weighted_feedback(self):
        """The shifted N_cov total the fuzzer consumes as feedback."""
        return self.weights.weighted_total(
            {cov.name: cov.count for cov in self.modules}
        )

    def counts_by_module(self):
        return {cov.name: cov.count for cov in self.modules}

    # -- checkpoint protocol -----------------------------------------------------
    def delta_mark(self):
        """Each module's observed set, for :meth:`state_dict`."""
        return {cov.name: cov.map.delta_mark() for cov in self.modules}

    def state_dict(self, mark=None):
        """Per-module observed coverage, keyed by module name; with a
        :meth:`delta_mark`, each module's points observed since it."""
        return {"modules": {
            cov.name: cov.state_dict(None if mark is None else mark[cov.name])
            for cov in self.modules}}

    def prepare_state(self, state):
        """Check a :meth:`state_dict` against this design; returns the
        function that adds its points (checking changes nothing).  Raises
        if the module sets differ: a checkpoint only fits an identically
        instrumented design."""
        recorded = state["modules"]
        missing = set(recorded) - set(self.by_name)
        extra = set(self.by_name) - set(recorded)
        if missing or extra:
            raise ValueError(
                "coverage checkpoint does not match this design "
                f"(checkpoint-only modules: {sorted(missing) or '-'}, "
                f"design-only modules: {sorted(extra) or '-'})"
            )
        applies = [cov.prepare_state(recorded[cov.name])
                   for cov in self.modules]

        def apply():
            for apply_module in applies:
                apply_module()
        return apply


def instrument_design(top, module_names=None, style="optimized",
                      max_state_size=15, seed=0, weights=None):
    """Instrument a DUT netlist and return a :class:`DesignCoverage`.

    ``module_names`` picks the top-level modules to instrument (``None``
    instruments every module that owns at least one mux); ``style`` selects
    the legacy or optimized layout; ``max_state_size`` is the per-module
    threshold (the paper's cov1/cov2/cov3 = 13/14/15 bits).
    """
    selected = []
    if module_names is None:
        # Default: instrument every module that directly owns muxes (the
        # paper's per-module instrumentation granularity).
        for module in top.walk():
            if module.muxes(recursive=False) and control_registers(module):
                selected.append(module)
    else:
        chosen = set(module_names)
        for module in top.walk():
            if module.name in chosen and control_registers(module):
                selected.append(module)
    coverages = []
    for order, module in enumerate(selected):
        registers = control_registers(module, recursive=True)
        layout = make_layout(style, registers, max_state_size, seed=seed + order)
        coverages.append(ModuleCoverage(module, layout))
    return DesignCoverage(coverages, weights=weights)
