"""The Campaign API: declarative, pluggable, multi-session fuzzing.

This package turns the monolithic session factory into a layered API:

* :class:`CampaignSpec` — a declarative, JSON-round-trippable description
  of one campaign (:mod:`repro.campaign.spec`),
* registries + ``@register_fuzzer`` / ``@register_core`` /
  ``register_timing`` / ``@register_instrumentation`` — third-party
  fuzzers, cores, timing models, and coverage layouts plug in without
  touching core files (:mod:`repro.campaign.registry`),
* :class:`EventBus` — ``iteration`` / ``new_coverage`` / ``mismatch`` /
  ``milestone`` observers replace driver-loop special cases
  (:mod:`repro.campaign.events`),
* :class:`CampaignSession` / :func:`build_session` — spec -> running
  campaign (:mod:`repro.campaign.session`),
* :class:`CampaignCheckpoint` — (spec, session state) bundles that
  round-trip through JSON for preempt/resume and for shipping shards to
  worker processes (:mod:`repro.campaign.checkpoint`),
* :data:`BACKENDS` + :class:`SerialBackend` /
  :class:`SupervisedQueueBackend` — pluggable shard-execution
  mechanisms, the latter parallel and fault-tolerant with heartbeats,
  re-dispatch, and quarantine (:mod:`repro.campaign.backends`),
* :class:`FaultPolicy` / :class:`FaultInjector` / :class:`ShardRecovery`
  — failure-handling policy, deterministic chaos injection, and the
  shared recovery path (:mod:`repro.campaign.resilience`),
* :class:`CampaignOrchestrator` — N specs as shards: slices on a shared
  virtual-time axis, per-shard deterministic seeding, a shared
  :class:`InstrumentationCache`, checkpoint/resume, aggregate reporting
  (:mod:`repro.campaign.orchestrator`),
* :mod:`repro.campaign.report` — JSON export of figure data.
"""

from repro.campaign.backends import (
    BACKENDS,
    ExecutionBackend,
    SerialBackend,
    SupervisedQueueBackend,
    register_backend,
    resolve_backend,
)
from repro.campaign.cache import InstrumentationCache
from repro.campaign.checkpoint import (
    CampaignCheckpoint,
    CheckpointError,
    checkpoint_session,
    resume_session,
)
from repro.campaign.events import EventBus
from repro.campaign.orchestrator import (
    CampaignOrchestrator,
    coverage_at_time,
    derive_seed,
)
from repro.campaign.registry import (
    CORES,
    FUZZERS,
    INSTRUMENTATIONS,
    TIMINGS,
    FuzzerPlugin,
    Registry,
    register_core,
    register_fuzzer,
    register_instrumentation,
    register_timing,
)
from repro.campaign.report import campaign_report, dump_json, to_jsonable
from repro.campaign.resilience import (
    FAULTS,
    FaultInjector,
    FaultPolicy,
    ShardRecovery,
    register_fault,
)
from repro.campaign.session import (
    CampaignSession,
    IterationOutcome,
    build_session,
)
from repro.campaign.spec import CampaignSpec

__all__ = [
    "CampaignSpec",
    "CampaignSession",
    "CampaignOrchestrator",
    "CampaignCheckpoint",
    "IterationOutcome",
    "InstrumentationCache",
    "EventBus",
    "Registry",
    "FuzzerPlugin",
    "ExecutionBackend",
    "SerialBackend",
    "SupervisedQueueBackend",
    "CheckpointError",
    "FaultPolicy",
    "FaultInjector",
    "ShardRecovery",
    "FUZZERS",
    "CORES",
    "TIMINGS",
    "INSTRUMENTATIONS",
    "BACKENDS",
    "FAULTS",
    "register_fuzzer",
    "register_core",
    "register_timing",
    "register_instrumentation",
    "register_backend",
    "register_fault",
    "resolve_backend",
    "build_session",
    "checkpoint_session",
    "resume_session",
    "derive_seed",
    "coverage_at_time",
    "campaign_report",
    "dump_json",
    "to_jsonable",
]
