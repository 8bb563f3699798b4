"""Repo-specific static analysis and runtime contracts.

BLoc's correctness rests on invariants the Python type system cannot
express: phase math must stay complex128 end-to-end, physics code must be
deterministic under an injected RNG, and the service's threaded
request paths must not mutate shared state unlocked.  This package holds the
tooling that enforces those invariants *before* they show up as a bench
regression:

* :mod:`repro.analysis.linting` -- an AST lint engine with pluggable
  rules and per-line ``# repro: noqa[RULE]`` suppression, driven by the
  ``repro lint`` CLI subcommand.
* :mod:`repro.analysis.rules` -- the RPR rule set (RPR001..RPR010,
  RPR012, RPR013 guarded-field access and RPR015 resource lifetime),
  each one grounded in a real hazard of this codebase (see DESIGN.md).
* :mod:`repro.analysis.runtime_locks` -- the ``make_lock`` factory and
  the runtime lock-order checker (zero cost unless ``REPRO_LOCK_CHECKS``
  is set; the test suite enables it), plus the ``@guarded_by``
  declaration RPR013 reads.
* :mod:`repro.analysis.contracts` -- the env-gated ``@shaped`` runtime
  shape/dtype contract decorator applied to the hottest core/rf
  signatures (zero cost unless ``REPRO_CONTRACTS`` is set; the test
  suite enables it).
* :mod:`repro.analysis.ratchet` -- the typing ratchet: per-module error
  counts (mypy when available, a built-in annotation-coverage checker
  otherwise) compared against the committed ``typing_baseline.json`` so
  annotation coverage only moves forward.
"""

from typing import Any

from repro._lazy import export_table, load_export

_EXPORTS = export_table(
    {
        "repro.analysis.contracts": (
            "CONTRACTS_ENV_VAR",
            "ArraySpec",
            "arr",
            "contracts_enabled",
            "shaped",
        ),
        "repro.analysis.linting": (
            "Finding",
            "LintEngine",
            "LintReport",
            "Rule",
            "parse_noqa",
        ),
        "repro.analysis.rules": ("ALL_RULES", "default_rules"),
    }
)

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    return load_export(__name__, _EXPORTS, name)
