"""Design-level instrumentation: per-module collectors with running indices.

``instrument_design`` runs the control-register extraction pass over the
chosen top-level modules of a DUT netlist (the paper lets users pick the
modules to instrument) and builds one :class:`ModuleCoverage` per module.

Collectors keep a *running* XOR index updated register-by-register, so the
per-cycle cost is proportional to the number of registers that changed —
this mirrors how the hardware instrumentation computes the index
combinationally for free.
"""

from repro.analyze.markers import hot_path
from repro.coverage.layout import make_layout
from repro.coverage.map import CoverageMap
from repro.coverage.weighting import FeedbackWeights
from repro.perf.evict import evict_half
from repro.rtl.netlist import control_registers

_MEMO_LIMIT = 1 << 20


class ModuleCoverage:
    """Instrumentation + collection state for one module."""

    __slots__ = ("module", "name", "layout", "map", "tables", "pack_shifts",
                 "value_masks", "_positions", "_contribs", "index", "_memo",
                 "_reference_memo")

    # Runtime caches rebuilt deterministically by execution (the running
    # index is recomputed from register values on reset; the memo tables
    # are pure lookup caches) — deliberately absent from state_dict().
    _checkpoint_transient = frozenset({
        "index", "_contribs", "_memo", "_reference_memo",
    })

    def __init__(self, module, layout):
        self.module = module
        self.name = module.name
        self.layout = layout
        self.map = CoverageMap(layout.instrumented_points)
        # Shared per-layout lookup tables: the collectors and the DUT
        # cores' slot bindings replace contribution() calls with
        # ``tables[position][value & value_masks[position]]``.
        self.tables = layout.contribution_tables()
        self.pack_shifts = layout.pack_shifts()
        self.value_masks = layout.value_masks()
        self._positions = {
            register.uid: position
            for position, register in enumerate(layout.registers)
        }
        self._contribs = [
            layout.contribution(position, register.value)
            for position, register in enumerate(layout.registers)
        ]
        self.index = 0
        for contribution in self._contribs:
            self.index ^= contribution
        self._memo = {}
        self._reference_memo = {}

    @hot_path
    def observe_state(self, values, positions=None):
        """Observe a per-register value tuple (compatibility slow path).

        ``positions`` maps each element of ``values`` to its register
        position in the layout; ``None`` means the tuple covers all
        registers in order.  Registers not covered contribute their reset
        value of zero (static structural state).  States are memoized under
        a single packed-int key (values masked to their widths and packed
        at the layout's bit offsets) — ints hash and compare much faster
        than value tuples, and the packing is injective on masked states so
        different position subsets share one table safely.  The memo is
        bounded with an evict-half policy instead of the old wholesale
        clear, which re-missed on every state right after the cliff.

        The per-instruction hot path no longer funnels through here: DUT
        cores keep a running XOR index per module (see
        ``DutCore.attach_coverage``) and only sample it into the map.
        """
        memo = self._memo
        masks = self.value_masks
        shifts = self.pack_shifts
        key = 0
        if positions is None:
            for position, value in enumerate(values):
                key |= (value & masks[position]) << shifts[position]
        else:
            for position, value in zip(positions, values):
                key |= (value & masks[position]) << shifts[position]
        index = memo.get(key)
        if index is None:
            tables = self.tables
            index = 0
            if positions is None:
                for position, value in enumerate(values):
                    index ^= tables[position][value & masks[position]]
            else:
                for position, value in zip(positions, values):
                    index ^= tables[position][value & masks[position]]
            if len(memo) >= _MEMO_LIMIT:
                evict_half(memo)
            memo[key] = index
        return self.map.observe(index)

    def observe_state_reference(self, values, positions=None):
        """The pre-overhaul observation path, preserved verbatim.

        Value-tuple memo key, per-observation ``layout.contribution()``
        calls, wholesale ``clear()`` at the bound — exactly the
        implementation this PR replaced.  It is the oracle the
        equivalence suite (and ``DutCore.use_reference_observer``) runs
        against, and the denominator of the perf harness's
        ``speedup_vs_reference`` ratio.
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

    def update(self, register, value):
        """Register value changed: refresh the running index (update-on-
        write; :meth:`tick` samples the result once per clock edge)."""
        position = self._positions.get(register.uid)
        if position is None:
            return
        register.set(value)
        new_contribution = self.tables[position][register.value]
        self.index ^= self._contribs[position] ^ new_contribution
        self._contribs[position] = new_contribution

    def tick(self):
        """Sample the current index (one clock edge); True if new point."""
        return self.map.observe(self.index)

    @property
    def count(self):
        return self.map.count

    # -- checkpoint protocol ---------------------------------------------------
    def state_dict(self):
        """Observed-coverage snapshot.  The running index and memo table are
        runtime caches rebuilt deterministically by execution; the observed
        point set is the only state that outlives an iteration."""
        return {"map": self.map.state_dict()}

    def load_state(self, state):
        self.map.load_state(state["map"])
        self._memo.clear()
        self._reference_memo.clear()

    def reset_runtime(self):
        """Zero register values and rebuild the running index (DUT reset)."""
        for register in self.layout.registers:
            register.value = 0
        tables = self.tables
        self._contribs = [table[0] for table in tables]
        self.index = 0
        for contribution in self._contribs:
            self.index ^= contribution

    def zero_index(self):
        """The running index of the all-zero (reset) state — the base the
        DUT cores' slot bindings diff from after every reset."""
        index = 0
        for table in self.tables:
            index ^= table[0]
        return index


class DesignCoverage:
    """All instrumented modules of one DUT plus weighting and totals."""

    def __init__(self, module_coverages, weights=None):
        self.modules = list(module_coverages)
        self.by_name = {cov.name: cov for cov in self.modules}
        self.weights = weights or FeedbackWeights()
        self._register_owners = {}
        for cov in self.modules:
            for register in cov.layout.registers:
                self._register_owners.setdefault(register.uid, []).append(cov)

    # -- runtime API used by DUT cores -----------------------------------------
    def update(self, register, value):
        """Route a register update to every collector that instruments it."""
        owners = self._register_owners.get(register.uid)
        if owners:
            for owner in owners:
                owner.update(register, value)
        else:
            register.set(value)

    def tick_all(self):
        """Clock edge across the whole design; returns new-point count."""
        new_points = 0
        for cov in self.modules:
            if cov.tick():
                new_points += 1
        return new_points

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

    def reset_runtime(self):
        for cov in self.modules:
            cov.reset_runtime()

    def clear(self):
        """Forget all observed coverage (new campaign)."""
        for cov in self.modules:
            cov.map.clear()

    # -- checkpoint protocol -----------------------------------------------------
    def state_dict(self):
        """Per-module observed coverage, keyed by module name."""
        return {"modules": {cov.name: cov.state_dict()
                            for cov in self.modules}}

    def load_state(self, state):
        """Restore per-module coverage; raises if the module sets differ
        (a checkpoint only fits an identically instrumented design)."""
        recorded = state["modules"]
        missing = set(recorded) - set(self.by_name)
        extra = set(self.by_name) - set(recorded)
        if missing or extra:
            raise ValueError(
                "coverage checkpoint does not match this design "
                f"(checkpoint-only modules: {sorted(missing) or '-'}, "
                f"design-only modules: {sorted(extra) or '-'})"
            )
        for name, module_state in recorded.items():
            self.by_name[name].load_state(module_state)

    # -- slice deltas ------------------------------------------------------------
    def delta_mark(self):
        """Each module's observed set at a slice start."""
        return {cov.name: cov.map.delta_mark() for cov in self.modules}

    def state_delta(self, mark):
        """Per-module points observed since ``mark``, sorted."""
        return {"modules": {cov.name: cov.map.state_delta(mark[cov.name])
                            for cov in self.modules}}

    def prepare_delta(self, delta):
        """Validate a :meth:`state_delta` against this design; returns the
        function that adds its points (validation changes nothing)."""
        recorded = delta["modules"]
        if set(recorded) != set(self.by_name):
            raise ValueError("coverage delta does not match this design")
        for name, points in recorded.items():
            if not (isinstance(points, list)
                    and all(type(point) is int for point in points)):
                raise TypeError(f"coverage delta of {name!r} must list ints")

        def apply():
            for name, points in recorded.items():
                self.by_name[name].map.observe_many(points)
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
