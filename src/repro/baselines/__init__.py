"""Software-fuzzer baselines the paper compares against.

Both implement the same fuzzer protocol as :class:`~repro.fuzzer.TurboFuzzer`
(``generate_iteration()`` / ``feedback()``) so a
:class:`~repro.campaign.session.CampaignSession` can drive any of the three
with the matching per-iteration timing model from :mod:`repro.harness.timing`.
"""

from repro.baselines.difuzzrtl import DifuzzRtlFuzzer, DifuzzRtlConfig
from repro.baselines.cascade import CascadeFuzzer, CascadeConfig

__all__ = [
    "DifuzzRtlFuzzer",
    "DifuzzRtlConfig",
    "CascadeFuzzer",
    "CascadeConfig",
]
