"""The dynamically configurable instruction library (paper Section IV-B.2).

Individual ISA subsets (RISC-V I, M, F, A, Zicsr, ...) are organized into
categories and can be activated or deactivated at runtime — the paper does
this through VIO configuration interfaces; here it is a plain API that the
:mod:`repro.fpga.vio` model drives.
"""

from repro.isa.instructions import (
    Extension,
    SPECS,
)

# Instructions the generator must not emit freely: they would tear down the
# execution environment (ecall ends the iteration, mret corrupts the trap
# flow, wfi stalls).  ebreak stays: the exception template skips over it and
# it exercises the breakpoint path (and bug R1).
_EXCLUDED_NAMES = frozenset({"ecall", "mret", "wfi"})


class InstructionLibrary:
    """Runtime-toggleable repository of generatable instruction specs."""

    # Everything below is a pure function of (_enabled, _excluded_names):
    # _rebuild() reconstructs it after prepare_state, and version is a
    # process-local cache key that must not travel (a restored process's
    # samplers must re-expand their caches regardless).
    _checkpoint_transient = frozenset({
        "_active", "_by_category", "version",
    })

    def __init__(self, extensions=None, exclude=()):
        self._enabled = set(
            extensions
            if extensions is not None
            else (Extension.I, Extension.M, Extension.A, Extension.F,
                  Extension.D, Extension.ZICSR, Extension.SYSTEM)
        )
        self._excluded_names = _EXCLUDED_NAMES | frozenset(exclude)
        self._rebuild()

    def _rebuild(self):
        self._active = [
            spec
            for spec in SPECS
            if spec.extension in self._enabled
            and spec.name not in self._excluded_names
        ]
        self._by_category = {}
        for spec in self._active:
            self._by_category.setdefault(spec.category, []).append(spec)
        # Bumped on every active-set change; samplers that cache expanded
        # weighted lists (DirectGenerator) key their cache on this.
        self.version = getattr(self, "version", 0) + 1

    # -- VIO-style configuration -----------------------------------------------
    def enable(self, extension):
        """Activate an ISA subset."""
        self._enabled.add(Extension(extension))
        self._rebuild()

    def disable(self, extension):
        """Deactivate an ISA subset."""
        self._enabled.discard(Extension(extension))
        self._rebuild()

    @property
    def enabled_extensions(self):
        return frozenset(self._enabled)

    # -- sampling -----------------------------------------------------------------
    @property
    def active_specs(self):
        """All currently generatable instruction specs."""
        return list(self._active)

    def categories(self):
        return list(self._by_category)

    def specs_in_category(self, category):
        return list(self._by_category.get(category, ()))

    def weighted_specs(self, weights):
        """The expanded spec list for per-category integer weights
        (default weight 1): each spec ``weight`` times, so that
        ``lfsr.choice`` over it samples with the weights.

        ``weights`` maps :class:`Category` to a non-negative integer; this
        is how the DifuzzRTL-style baseline biases toward control flow and
        how TurboFuzz keeps the paper's roughly 1:5 control-flow ratio.
        The list is invariant per (active set, weights), and its caller,
        :meth:`~repro.fuzzer.direct.DirectGenerator.specs`, keeps it until
        :attr:`version` or the weights change.
        """
        expanded = []
        for category, specs in self._by_category.items():
            weight = weights.get(category, 1)
            if weight > 0:
                expanded.extend(specs * weight)
        if not expanded:
            raise ValueError("no instructions active after weighting")
        return expanded

    # -- checkpoint protocol ---------------------------------------------------
    def state_dict(self):
        """JSON-round-trippable snapshot of the VIO-style configuration.

        Without this, mid-campaign ``enable``/``disable`` toggles were
        silently lost across a checkpoint/resume: the resumed library came
        back with its constructor defaults and the instruction stream
        diverged from the uninterrupted run.
        """
        return {"enabled": sorted(ext.name for ext in self._enabled)}

    def prepare_state(self, state):
        """Decode a :meth:`state_dict`; returns the function that restores
        the active-extension set (derived tables are rebuilt)."""
        enabled = {Extension[name] for name in state["enabled"]}

        def apply():
            self._enabled = enabled
            self._rebuild()
        return apply

    def __len__(self):
        return len(self._active)

    def __contains__(self, name):
        return any(spec.name == name for spec in self._active)
