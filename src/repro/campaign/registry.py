"""Pluggable registries for fuzzers, cores, and timing models.

The registries turn every fuzzer/core/timing combination into data.  A
third-party scenario registers its pieces with a decorator and every
campaign driver can name them in a :class:`CampaignSpec` without
touching core files::

    from repro.campaign import register_fuzzer, register_timing

    MY_TIMING = register_timing(IterationTiming(name="myfuzz", ...))

    @register_fuzzer("myfuzz", config_class=MyConfig, timing="myfuzz")
    class MyFuzzer:
        def generate_iteration(self): ...
        def feedback(self, iteration, increment): ...

Built-in fuzzers (turbofuzz / difuzzrtl / cascade), cores (rocket / cva6 /
boom), and timing presets are pre-registered on import.  The
:data:`INSTRUMENTATIONS` registry (coverage layout styles; built-ins
``legacy``/``optimized``) lives in :mod:`repro.coverage.layout` — below
this package, so the coverage pass can consult it without an import cycle
— and is re-exported here so campaign callers register every plugin kind
from one place.  Execution backends register in
:data:`repro.campaign.backends.BACKENDS`.
"""

from dataclasses import dataclass, field

from repro.baselines.cascade import CascadeConfig, CascadeFuzzer
from repro.baselines.difuzzrtl import DifuzzRtlConfig, DifuzzRtlFuzzer
from repro.coverage.layout import INSTRUMENTATIONS, register_instrumentation
from repro.dut import CORE_CLASSES
from repro.fuzzer import TurboFuzzConfig, TurboFuzzer
from repro.harness.timing import TIMING_PRESETS
from repro.isa.instructions import Category
from repro.registry import Registry

__all__ = [
    "Registry",
    "FUZZERS", "CORES", "TIMINGS", "INSTRUMENTATIONS",
    "FuzzerPlugin",
    "register_fuzzer", "register_core", "register_timing",
    "register_instrumentation",
]

FUZZERS = Registry("fuzzer")
CORES = Registry("core")
TIMINGS = Registry("timing model")


@dataclass(frozen=True)
class FuzzerPlugin:
    """Everything a campaign needs to know about one fuzzer kind.

    ``factory`` is called with a config instance and must return an object
    implementing the fuzzer protocol (``generate_iteration()`` /
    ``feedback()``).  ``timing`` names a :data:`TIMINGS` preset used when a
    spec does not pick one explicitly.  ``stop_on_trap`` is the runner
    default for this fuzzer (DifuzzRTL-style harnesses abort at the first
    trap).  ``tweaks`` maps tweak names (e.g. ``allow_ebreak``) to
    ``fn(fuzzer)`` callables applied after construction.
    ``coarse_detection`` is the ``(num, den)`` chance that the fuzzer's
    end-of-iteration comparison still sees an injected bug that fired:
    DifuzzRTL's "coarse-grained comparisons between the DUT and REF after
    thousands of instructions" (paper Section I) miss divergences that
    register overwrites mask.  ``None`` is instruction-level checking,
    which sees every firing.
    """

    name: str
    factory: object
    config_class: type
    timing: str
    stop_on_trap: bool = False
    tweaks: dict = field(default_factory=dict)
    coarse_detection: tuple = None

    def build_config(self, options):
        """Instantiate the config class from a plain options dict."""
        return self.config_class(**dict(options or {}))

    def build(self, options=None):
        """Construct the fuzzer from a plain ``options`` dict."""
        return self.factory(self.build_config(options))

    def apply_tweak(self, fuzzer, name):
        try:
            tweak = self.tweaks[name]
        except KeyError:
            raise ValueError(
                f"fuzzer {self.name!r} has no tweak {name!r} "
                f"(available: {sorted(self.tweaks) or '<none>'})"
            ) from None
        tweak(fuzzer)


def register_fuzzer(name, *, config_class, timing, stop_on_trap=False,
                    tweaks=None, coarse_detection=None, factory=None,
                    replace=False):
    """Register a fuzzer kind; usable directly or as a class decorator."""
    def _register(cls_or_factory):
        FUZZERS.register(
            name,
            FuzzerPlugin(
                name=name,
                factory=cls_or_factory,
                config_class=config_class,
                timing=timing,
                stop_on_trap=stop_on_trap,
                tweaks=dict(tweaks or {}),
                coarse_detection=coarse_detection,
            ),
            replace=replace,
        )
        return cls_or_factory

    if factory is not None:
        return _register(factory)
    return _register


def register_core(name, core_class=None, replace=False):
    """Register a DUT core class; usable directly or as a decorator."""
    return CORES.register(name, core_class, replace=replace)


def register_timing(timing, name=None, replace=False):
    """Register an :class:`~repro.harness.timing.IterationTiming` preset."""
    return TIMINGS.register(name or timing.name, timing, replace=replace)


# ---------------------------------------------------------------------------
# Built-in registrations
# ---------------------------------------------------------------------------
def _allow_ebreak(fuzzer):
    fuzzer.direct.category_weights[Category.SYSTEM] = 1


for _timing in TIMING_PRESETS.values():
    register_timing(_timing)

register_fuzzer(
    "turbofuzz", config_class=TurboFuzzConfig, timing="turbofuzz",
    tweaks={"allow_ebreak": _allow_ebreak},
    factory=TurboFuzzer,
)
register_fuzzer(
    "difuzzrtl", config_class=DifuzzRtlConfig, timing="difuzzrtl-fpga",
    stop_on_trap=True,
    tweaks={"allow_ebreak": _allow_ebreak},
    # The end-of-program comparison masks transient divergences: half
    # the triggering iterations surface the bug.
    coarse_detection=(1, 2),
    factory=DifuzzRtlFuzzer,
)
register_fuzzer(
    "cascade", config_class=CascadeConfig, timing="cascade",
    tweaks={"allow_ebreak": _allow_ebreak},
    factory=CascadeFuzzer,
)

for _name, _cls in CORE_CLASSES.items():
    register_core(_name, _cls)
