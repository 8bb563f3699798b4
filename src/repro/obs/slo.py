"""Declarative SLOs over the bench JSON and the run ledger.

One TOML file (``slo.toml`` at the repository root) is the single
source of truth for every performance threshold: ``repro obs slo``
evaluates every ``[slo.<name>]`` rule against the latest
``BENCH_localize.json`` and ``runs.ndjson`` records and exits nonzero
on any violation, which is the only performance gate CI runs.  The
benchmarks only measure, write the bench JSON and check correctness;
no speed or overhead bound lives in their code.

Spec format::

    [slo.warm_fix_s]
    source = "bench"                        # value from the bench JSON
    key = "steering_cache.warm_s_per_fix"   # dotted path into it
    max = 0.1                               # seconds (ceiling)

    [slo.cache_hit_rate]
    source = "ledger"           # value from the latest ledger record
    kind = "ratio"              # num / sum(den) of scalar_view keys
    num = "metric:engine.cache_hits"
    den = ["metric:engine.cache_hits", "metric:engine.cache_misses"]
    min = 0.5                   # floor
    required = false            # skip (not fail) when data is absent

``source = "ledger"`` keys use the namespaced scalar view of
:func:`repro.obs.ledger.scalar_view` (``metric:...``, ``span:...``,
``result:...``); the newest record containing the key wins.  Ratio
rules read the ledger only.  The loader rejects what it cannot
evaluate: a top-level table other than ``[slo]``, a rule field outside
:data:`_RULE_FIELDS` and a bench-source ratio all raise.  Parsed
with :mod:`tomllib` where available (Python >= 3.11) and a built-in
minimal TOML-subset parser otherwise -- no new dependencies.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError
from repro.obs.ledger import scalar_view

try:  # Python >= 3.11
    import tomllib as _tomllib
except ImportError:  # pragma: no cover - exercised on 3.10 runners
    _tomllib = None

#: Default spec location, relative to the repository root.
DEFAULT_SLO_PATH = Path(__file__).resolve().parents[3] / "slo.toml"

#: Valid rule sources.
_SOURCES = ("bench", "ledger")

#: Fields an ``[slo.<name>]`` table may set.
_RULE_FIELDS = (
    "source", "key", "kind", "num", "den", "min", "max", "required"
)


# ---------------------------------------------------------------------------
# Minimal TOML-subset parser (fallback for Python 3.10)
# ---------------------------------------------------------------------------


def _parse_scalar(token: str) -> Union[str, bool, int, float]:
    token = token.strip()
    if token.startswith('"') and token.endswith('"') and len(token) >= 2:
        return token[1:-1]
    if token in ("true", "false"):
        return token == "true"
    try:
        return json.loads(token)  # ints and floats
    except json.JSONDecodeError:
        raise ConfigurationError(
            f"slo spec: cannot parse value {token!r}"
        ) from None


def parse_toml_minimal(text: str) -> dict:
    """Parse the TOML subset the SLO spec uses (fallback parser).

    Supports ``[dotted.tables]``, ``key = scalar`` and
    ``key = [scalar, ...]`` with ``#`` comments; multi-line values,
    inline tables and escapes are out of scope -- the real
    :mod:`tomllib` handles those on 3.11+, and the committed spec stays
    inside the subset so both parsers agree.
    """
    root: Dict[str, Any] = {}
    table = root
    for line_number, raw in enumerate(text.splitlines(), 1):
        # Comments strip at the first '#'; subset strings never embed one.
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            table = root
            for part in line[1:-1].strip().split("."):
                table = table.setdefault(part.strip(), {})
            continue
        if "=" not in line:
            raise ConfigurationError(
                f"slo spec line {line_number}: expected key = value, "
                f"got {raw!r}"
            )
        key, _, value = line.partition("=")
        value = value.strip()
        if value.startswith("[") and value.endswith("]"):
            inner = value[1:-1].strip()
            parsed: Any = (
                [_parse_scalar(tok) for tok in inner.split(",") if tok.strip()]
                if inner
                else []
            )
        else:
            parsed = _parse_scalar(value)
        table[key.strip()] = parsed
    return root


def _load_toml(path: Path) -> dict:
    text = path.read_text(encoding="utf-8")
    if _tomllib is not None:
        try:
            return _tomllib.loads(text)
        except _tomllib.TOMLDecodeError as exc:
            raise ConfigurationError(
                f"{path}: invalid TOML: {exc}"
            ) from exc
    return parse_toml_minimal(text)


# ---------------------------------------------------------------------------
# Spec model
# ---------------------------------------------------------------------------


@dataclass
class SloRule:
    """One declarative objective.

    Attributes:
        name: rule name (the ``[slo.<name>]`` table key).
        source: ``"bench"`` (dotted path into BENCH_localize.json) or
            ``"ledger"`` (scalar-view key of the newest run record).
        key: the value to read (unused for ``kind="ratio"``).
        kind: ``"value"`` or ``"ratio"`` (``num / sum(den)``).
        num / den: scalar-view keys for ratio rules.
        min / max: floor / ceiling; at least one must be set.
        required: when True, missing data fails the rule instead of
            skipping it.
    """

    name: str
    source: str
    key: Optional[str] = None
    kind: str = "value"
    num: Optional[str] = None
    den: Tuple[str, ...] = ()
    min: Optional[float] = None
    max: Optional[float] = None
    required: bool = True


@dataclass
class SloSpec:
    """The parsed spec: where it came from plus the rule list."""

    path: Optional[Path] = None
    rules: List[SloRule] = field(default_factory=list)


def load_slo_spec(path: Union[str, Path, None] = None) -> SloSpec:
    """Load and validate an ``slo.toml`` spec.

    Raises:
        ConfigurationError: unreadable file, unknown table or rule
            field, or a malformed rule.
    """
    spec_path = Path(path) if path is not None else DEFAULT_SLO_PATH
    try:
        data = _load_toml(spec_path)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read SLO spec {spec_path}: {exc}"
        ) from exc
    unknown_tables = sorted(set(data) - {"slo"})
    if unknown_tables:
        raise ConfigurationError(
            f"{spec_path}: unknown top-level table(s) {unknown_tables}; "
            "every threshold is an [slo.<name>] rule"
        )
    spec = SloSpec(path=spec_path)
    for name, body in (data.get("slo") or {}).items():
        if not isinstance(body, dict):
            raise ConfigurationError(
                f"{spec_path}: [slo.{name}] must be a table"
            )
        unknown_fields = sorted(set(body) - set(_RULE_FIELDS))
        if unknown_fields:
            raise ConfigurationError(
                f"{spec_path}: [slo.{name}] unknown field(s) "
                f"{unknown_fields}; expected a subset of {_RULE_FIELDS}"
            )
        rule = SloRule(
            name=name,
            source=str(body.get("source", "bench")),
            key=body.get("key"),
            kind=str(body.get("kind", "value")),
            num=body.get("num"),
            den=tuple(body.get("den") or ()),
            min=(
                float(body["min"]) if body.get("min") is not None else None
            ),
            max=(
                float(body["max"]) if body.get("max") is not None else None
            ),
            required=bool(body.get("required", True)),
        )
        if rule.source not in _SOURCES:
            raise ConfigurationError(
                f"{spec_path}: [slo.{name}] source must be one of "
                f"{_SOURCES}, got {rule.source!r}"
            )
        if rule.kind not in ("value", "ratio"):
            raise ConfigurationError(
                f"{spec_path}: [slo.{name}] kind must be 'value' or "
                f"'ratio', got {rule.kind!r}"
            )
        if rule.kind == "value" and not rule.key:
            raise ConfigurationError(
                f"{spec_path}: [slo.{name}] needs a key"
            )
        if rule.kind == "ratio" and (not rule.num or not rule.den):
            raise ConfigurationError(
                f"{spec_path}: [slo.{name}] ratio needs num and den"
            )
        if rule.kind == "ratio" and rule.source != "ledger":
            raise ConfigurationError(
                f"{spec_path}: [slo.{name}] ratio rules read the ledger; "
                f"source {rule.source!r} cannot evaluate one"
            )
        if rule.min is None and rule.max is None:
            raise ConfigurationError(
                f"{spec_path}: [slo.{name}] needs min and/or max"
            )
        spec.rules.append(rule)
    return spec


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


@dataclass
class SloResult:
    """Outcome of one rule: ``ok``, ``fail`` or ``skip`` plus detail."""

    rule: SloRule
    status: str
    value: Optional[float] = None
    detail: str = ""


def _lookup_bench(payload: dict, dotted: str) -> Optional[float]:
    node: Any = payload
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return None
    return float(node)


def _lookup_ledger(
    records: Sequence[dict], rule: SloRule
) -> Optional[float]:
    """The rule's value from the newest record that can answer it."""
    for record in reversed(list(records)):
        view = scalar_view(record)
        if rule.kind == "ratio":
            num = view.get(rule.num or "")
            den = [view.get(k) for k in rule.den]
            if num is None or any(v is None for v in den):
                continue
            total = sum(den)
            if math.isclose(total, 0.0):
                continue
            return num / total
        value = view.get(rule.key or "")
        if value is not None:
            return value
    return None


def _bound_text(rule: SloRule) -> str:
    bounds = []
    if rule.min is not None:
        bounds.append(f">= {rule.min:g}")
    if rule.max is not None:
        bounds.append(f"<= {rule.max:g}")
    return " and ".join(bounds)


def evaluate_slos(
    spec: SloSpec,
    bench: Optional[dict] = None,
    ledger_records: Optional[Sequence[dict]] = None,
) -> List[SloResult]:
    """Evaluate every rule; missing data skips or fails per ``required``."""
    results: List[SloResult] = []
    for rule in spec.rules:
        if rule.source == "bench":
            value = (
                _lookup_bench(bench, rule.key or "")
                if bench is not None
                else None
            )
            missing_reason = (
                "bench payload not provided"
                if bench is None
                else f"bench key {rule.key!r} missing or non-numeric"
            )
        else:
            value = _lookup_ledger(ledger_records or (), rule)
            missing_reason = (
                "no ledger record answers "
                + (rule.key or f"{rule.num}/{rule.den}")
            )
        if value is None:
            status = "fail" if rule.required else "skip"
            results.append(
                SloResult(rule=rule, status=status, detail=missing_reason)
            )
            continue
        violations = []
        if rule.min is not None and value < rule.min:
            violations.append(f"{value:g} < floor {rule.min:g}")
        if rule.max is not None and value > rule.max:
            violations.append(f"{value:g} > ceiling {rule.max:g}")
        results.append(
            SloResult(
                rule=rule,
                status="fail" if violations else "ok",
                value=value,
                detail=(
                    "; ".join(violations)
                    if violations
                    else f"within {_bound_text(rule)}"
                ),
            )
        )
    return results


def slo_exit_code(results: Sequence[SloResult]) -> int:
    """0 when every rule passed or was skipped, 1 otherwise."""
    return 1 if any(r.status == "fail" for r in results) else 0


def render_slo_results(results: Sequence[SloResult]) -> str:
    """Gate report table plus a one-line verdict."""
    from repro.obs.export import format_table

    if not results:
        return "(no SLO rules defined)"
    rows = []
    for result in results:
        rule = result.rule
        rows.append(
            [
                rule.name,
                rule.source,
                (
                    f"{result.value:.6g}"
                    if result.value is not None
                    else "-"
                ),
                _bound_text(rule),
                result.status.upper(),
                result.detail,
            ]
        )
    failed = sum(1 for r in results if r.status == "fail")
    skipped = sum(1 for r in results if r.status == "skip")
    verdict = (
        f"SLO gate: {len(results) - failed - skipped} ok, "
        f"{failed} failed, {skipped} skipped"
    )
    return (
        format_table(
            ["slo", "source", "value", "bound", "status", "detail"], rows
        )
        + "\n"
        + verdict
    )
