"""repro.analyze — invariant-enforcing static analysis.

The repo's three load-bearing invariants — bit-identical checkpoint
resume, bit-identical hot-path semantics, and registry-driven
pluggability — were historically enforced only at runtime, and the PR-5
BOOM-predictor incident (cross-iteration state silently absent from
``core_state_dict()`` for three PRs) showed that runtime tests alone let
whole bug classes ship.  This package is the lint-time complement: a
custom AST/introspection rule engine with four rule families,

* **checkpoint** (``CHK*``) — audits every ``state_dict()`` /
  ``load_state()`` (and ``core_state_dict()`` / ``prepare_core_state()``)
  implementation: mutable attributes that do not travel, asymmetric
  save/load key sets, missing protocol halves, stale transient
  declarations;
* **determinism** (``DET*``) — forbids wall-clock, stdlib ``random``,
  ``id()``-keyed lookups, set-iteration feeding ordered output, and
  environment-dependent behaviour inside the reproducible path
  (``ref/``, ``dut/``, ``fuzzer/``, ``coverage/``, ``campaign/``);
* **hotpath** (``HOT*``) — functions marked :func:`hot_path` must stay
  free of per-call allocations (comprehensions, collection displays and
  constructors, closures, f-strings, try/except control flow);
* **registry** (``REG*``) — every ``@register_*`` target importable and
  top-level, names unique, spec/config classes JSON-round-trippable.

Use as a library (:func:`analyze_paths`) or via the CLI::

    python -m repro.analyze check src/
    python -m repro.analyze report --select HOT --json src/

Findings are suppressed inline with ``# analyze: ignore[RULE] reason``
(same line or the line above) or accepted wholesale in the committed
baseline file ``.analyze-baseline.json`` (see ``docs/ANALYSIS.md``).
"""

from repro.analyze.baseline import (
    BASELINE_FILENAME,
    load_baseline,
    save_baseline,
    split_by_baseline,
)
from repro.analyze.engine import (
    RULES,
    Rule,
    SourceModule,
    analyze_paths,
    collect_modules,
    register_rule,
    rule_catalog,
)
from repro.analyze.findings import Finding
from repro.analyze.markers import hot_path

__all__ = [
    "BASELINE_FILENAME",
    "Finding",
    "RULES",
    "Rule",
    "SourceModule",
    "analyze_paths",
    "collect_modules",
    "hot_path",
    "load_baseline",
    "register_rule",
    "rule_catalog",
    "save_baseline",
    "split_by_baseline",
]
