"""The RPR rule set: repo-specific hazards, one rule each.

Every rule here encodes a way this codebase has been (or could
realistically be) broken -- see DESIGN.md's "Static analysis" section
for the physics/concurrency story behind each one.  Rules are pure AST
checks: no imports of the linted code, no execution.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Sequence, Set, Tuple

from repro.analysis.linting import FileContext, Finding, Rule

# ---------------------------------------------------------------------------
# Shared AST helpers
# ---------------------------------------------------------------------------


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, None for anything else."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def root_name(node: ast.AST) -> Optional[str]:
    """The base variable of an attribute/subscript/call chain.

    ``alpha[i].real`` -> ``alpha``; ``self.alpha.copy()`` -> ``alpha``
    (the leading ``self`` is skipped so instance state matches too).
    """
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Call)):
        node = node.func if isinstance(node, ast.Call) else node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _attr_root(node: ast.AST) -> Optional[str]:
    """Like :func:`root_name` but also looks through ``self.<name>``."""
    name = dotted_name(node)
    if name is None:
        return root_name(node)
    parts = name.split(".")
    if parts[0] in ("self", "cls") and len(parts) > 1:
        return parts[1]
    return parts[0]


def enclosing_function(
    ctx: FileContext, node: ast.AST
) -> Optional[ast.AST]:
    """The innermost FunctionDef/AsyncFunctionDef containing the node."""
    for ancestor in ctx.ancestors(node):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return ancestor
    return None


def qualname(ctx: FileContext, func: ast.AST) -> str:
    """``Class.method`` / ``function`` for a FunctionDef node."""
    parts = [func.name]
    for ancestor in ctx.ancestors(func):
        if isinstance(
            ancestor, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            parts.append(ancestor.name)
    return ".".join(reversed(parts))


# ---------------------------------------------------------------------------
# RPR001 -- complex-dtype loss on CSI arrays
# ---------------------------------------------------------------------------

#: Variable names that (in core/ and rf/) hold complex CSI / corrected
#: channel data.  The whole point of Eq. 10 is that these stay complex128
#: until an explicitly whitelisted magnitude/phase sink.
CSI_NAMES: Set[str] = {
    "alpha",
    "alpha_anchor",
    "csi",
    "h",
    "h_hat",
    "hhat",
    "channels",
    "tag",
    "tag_to_anchor",
    "master_to_anchor",
}

#: Dtypes that silently narrow complex128 phase math.
_NARROWING_DTYPES: Set[str] = {
    "float32",
    "float16",
    "half",
    "single",
    "complex64",
    "csingle",
    "np.float32",
    "np.float16",
    "np.half",
    "np.single",
    "np.complex64",
    "np.csingle",
    "numpy.float32",
    "numpy.float16",
    "numpy.half",
    "numpy.single",
    "numpy.complex64",
    "numpy.csingle",
}

#: Dtypes that are real-valued (dropping the imaginary part entirely).
_REAL_DTYPES: Set[str] = {
    "float",
    "float64",
    "double",
    "np.float64",
    "np.double",
    "np.floating",
    "numpy.float64",
    "numpy.double",
}


def _dtype_token(node: ast.AST) -> Optional[str]:
    """A comparable string for a dtype expression (name or literal)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return dotted_name(node)


class ComplexDtypeLoss(Rule):
    """RPR001: complex CSI data narrowed or realified in phase paths."""

    id = "RPR001"
    title = "complex-dtype loss on CSI arrays"
    rationale = (
        "A float32/complex64 narrowing or a real-part cast inside the "
        "core/rf phase paths silently wrecks the Eq. 10 triple-product "
        "correction; magnitude sinks must be explicit and whitelisted."
    )
    scopes = ("core", "rf")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            # np.float32(x) / np.complex64(x) constructor-style casts.
            if name in _NARROWING_DTYPES:
                yield ctx.finding(
                    self.id,
                    node,
                    f"narrowing cast {name}() in a phase path; CSI math "
                    f"must stay complex128",
                )
                continue
            # np.abs / np.real / np.imag directly on a CSI-named array.
            if name in ("np.abs", "numpy.abs", "np.real", "numpy.real",
                        "np.imag", "numpy.imag") and node.args:
                target = _attr_root(node.args[0])
                if target in CSI_NAMES:
                    op = name.split(".")[-1]
                    yield ctx.finding(
                        self.id,
                        node,
                        f"np.{op}({target}) discards CSI phase/complex "
                        f"structure outside a whitelisted sink",
                    )
                continue
            # x.astype(<real or narrowing dtype>)
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "astype"
            ):
                dtype_arg: Optional[ast.AST] = None
                if node.args:
                    dtype_arg = node.args[0]
                for kw in node.keywords:
                    if kw.arg == "dtype":
                        dtype_arg = kw.value
                token = _dtype_token(dtype_arg) if dtype_arg is not None else None
                if token in _NARROWING_DTYPES:
                    yield ctx.finding(
                        self.id,
                        node,
                        f"astype({token}) narrows precision in a phase path",
                    )
                elif token in _REAL_DTYPES:
                    target = _attr_root(node.func.value)
                    if target in CSI_NAMES:
                        yield ctx.finding(
                            self.id,
                            node,
                            f"{target}.astype({token}) drops the imaginary "
                            f"part of a CSI array",
                        )
                continue
            # dtype=<narrowing> keyword on any numpy constructor.
            for kw in node.keywords:
                if kw.arg == "dtype":
                    token = _dtype_token(kw.value)
                    if token in _NARROWING_DTYPES:
                        yield ctx.finding(
                            self.id,
                            node,
                            f"dtype={token} narrows precision in a phase "
                            f"path",
                        )


# ---------------------------------------------------------------------------
# RPR002 -- nondeterminism in physics code
# ---------------------------------------------------------------------------

#: ``np.random`` members that are fine: Generator construction, not draws.
_ALLOWED_NP_RANDOM: Set[str] = {"default_rng", "Generator", "SeedSequence"}


class NondeterministicCall(Rule):
    """RPR002: global-RNG draws or wall-clock reads in physics code."""

    id = "RPR002"
    title = "nondeterminism in physics code"
    rationale = (
        "Physics and protocol code must be reproducible from a seed: "
        "randomness comes from an injected np.random.Generator "
        "(utils.rng), time from an injected clock.  Global-RNG draws "
        "and time.time() make reruns and CI non-comparable."
    )
    scopes = ("core", "rf", "sim", "ble", "sdr", "experiments", "baselines")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        imports_random = any(
            (isinstance(node, ast.Import)
             and any(a.name == "random" for a in node.names))
            or (isinstance(node, ast.ImportFrom)
                and node.module == "random")
            for node in ast.walk(ctx.tree)
        )
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            for prefix in ("np.random.", "numpy.random."):
                if name.startswith(prefix):
                    member = name[len(prefix):].split(".")[0]
                    if member not in _ALLOWED_NP_RANDOM:
                        yield ctx.finding(
                            self.id,
                            node,
                            f"{name}() draws from the global RNG; inject "
                            f"a np.random.Generator (utils.rng.make_rng)",
                        )
                    break
            else:
                if imports_random and name.startswith("random."):
                    yield ctx.finding(
                        self.id,
                        node,
                        f"{name}() uses the stdlib global RNG; inject a "
                        f"np.random.Generator instead",
                    )
                elif name == "time.time":
                    yield ctx.finding(
                        self.id,
                        node,
                        "time.time() in physics/experiment code; use "
                        "time.perf_counter() for durations or inject a "
                        "clock",
                    )


# ---------------------------------------------------------------------------
# RPR003 -- unlocked mutation of module-level mutable state
# ---------------------------------------------------------------------------

_MUTATOR_METHODS: Set[str] = {
    "append",
    "extend",
    "insert",
    "add",
    "update",
    "setdefault",
    "pop",
    "popitem",
    "remove",
    "discard",
    "clear",
}

_MUTABLE_FACTORIES: Set[str] = {
    "list",
    "dict",
    "set",
    "OrderedDict",
    "defaultdict",
    "deque",
    "collections.OrderedDict",
    "collections.defaultdict",
    "collections.deque",
}


class UnlockedSharedMutation(Rule):
    """RPR003: module-level mutable state mutated without a lock."""

    id = "RPR003"
    title = "unlocked mutation of module-level mutable state"
    rationale = (
        "`repro serve` runs each request on its own ThreadingHTTPServer "
        "thread and the sampling profiler runs on a thread of its own; "
        "any module-level dict/list a function reachable from those "
        "threads mutates without holding a lock is a data race "
        "(lost updates, torn iteration).  Mutations must sit inside "
        "`with <lock>:` or be explicitly waived with a justification."
    )
    scopes = ("core", "obs", "sim", "rf")

    def _module_mutables(self, ctx: FileContext) -> Set[str]:
        names: Set[str] = set()
        for stmt in ctx.tree.body:
            targets: Sequence[ast.AST] = ()
            value: Optional[ast.AST] = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = (stmt.target,), stmt.value
            if value is None:
                continue
            is_mutable = isinstance(
                value,
                (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                 ast.SetComp),
            ) or (
                isinstance(value, ast.Call)
                and dotted_name(value.func) in _MUTABLE_FACTORIES
            )
            if not is_mutable:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith(
                    "__"
                ):
                    names.add(target.id)
        return names

    @staticmethod
    def _under_lock(ctx: FileContext, node: ast.AST) -> bool:
        for ancestor in ctx.ancestors(node):
            if isinstance(ancestor, (ast.With, ast.AsyncWith)):
                for item in ancestor.items:
                    name = dotted_name(item.context_expr) or dotted_name(
                        getattr(item.context_expr, "func", ast.Pass())
                    )
                    if name is not None and "lock" in name.lower():
                        return True
        return False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        mutables = self._module_mutables(ctx)
        if not mutables:
            return
        for node in ast.walk(ctx.tree):
            if enclosing_function(ctx, node) is None:
                continue  # module-level init writes are fine
            target_name: Optional[str] = None
            what = ""
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Subscript):
                        base = root_name(target.value)
                        if base in mutables:
                            target_name, what = base, "item assignment"
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in _MUTATOR_METHODS:
                    base = root_name(node.func.value)
                    if base in mutables:
                        target_name = base
                        what = f".{node.func.attr}()"
            elif isinstance(node, ast.Global):
                func = enclosing_function(ctx, node)
                for name in node.names:
                    if name in mutables or _assigns_global(func, name):
                        target_name, what = name, "global rebind"
            if target_name is None:
                continue
            if self._under_lock(ctx, node):
                continue
            yield ctx.finding(
                self.id,
                node,
                f"module-level mutable {target_name!r} mutated "
                f"({what}) outside a lock; request threads reach this "
                f"module",
            )


def _assigns_global(func: Optional[ast.AST], name: str) -> bool:
    """Whether a function body assigns the given (global) name."""
    if func is None:
        return False
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return True
        elif isinstance(node, ast.AugAssign):
            if (
                isinstance(node.target, ast.Name)
                and node.target.id == name
            ):
                return True
    return False


# ---------------------------------------------------------------------------
# RPR004 -- unbalanced Span usage
# ---------------------------------------------------------------------------


class UnbalancedSpan(Rule):
    """RPR004: `.span(...)` created but not entered as a context manager."""

    id = "RPR004"
    title = "span created without a context manager"
    rationale = (
        "A Span only records its duration and pops the thread-local "
        "stack on __exit__; a span created as a bare statement (or "
        "parked in a variable) never finishes, corrupting the parent "
        "chain of every later span on that thread."
    )
    scopes = None  # observability is used everywhere

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "span"
            ):
                continue
            parent = ctx.parent(node)
            # `with obs.span(...):` -- correct usage.
            if isinstance(parent, ast.withitem):
                continue
            # `return self.tracer.span(...)` -- factory delegation.
            if isinstance(parent, ast.Return):
                continue
            if isinstance(parent, ast.Expr):
                yield ctx.finding(
                    self.id,
                    node,
                    "span created and discarded; enter it with "
                    "`with ...span(...):`",
                )
            elif isinstance(parent, (ast.Assign, ast.AnnAssign)):
                yield ctx.finding(
                    self.id,
                    node,
                    "span parked in a variable; enter it directly with "
                    "`with ...span(...):` so it always closes",
                )


# ---------------------------------------------------------------------------
# RPR005 -- metric-name convention
# ---------------------------------------------------------------------------

#: Registered metric namespaces (first dotted segment).
METRIC_NAMESPACES: Set[str] = {
    "anchor",
    "bench",
    "ble",
    "correction",
    "diag",
    "engine",
    "eval",
    "fix",
    "health",
    "obs",
    "peaks",
    "service",
    "telemetry",
}

_METRIC_FACTORIES: Set[str] = {"counter", "gauge", "histogram"}


class MetricNameConvention(Rule):
    """RPR005: metric names must be dotted and namespaced."""

    id = "RPR005"
    title = "metric name outside the registered namespaces"
    rationale = (
        "Dashboards and the SLO gate key on stable metric "
        "names; free-form names silently fork the timeseries.  Names "
        "must be `namespace.snake_case[...]` with a registered "
        "namespace (see METRIC_NAMESPACES)."
    )
    scopes = None

    @staticmethod
    def _literal_prefix(node: ast.AST) -> Optional[Tuple[str, bool]]:
        """(literal text, is_complete) for a str/f-string first arg."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value, True
        if isinstance(node, ast.JoinedStr):
            prefix = []
            for part in node.values:
                if isinstance(part, ast.Constant) and isinstance(
                    part.value, str
                ):
                    prefix.append(part.value)
                else:
                    return "".join(prefix), False
            return "".join(prefix), True
        return None

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _METRIC_FACTORIES
                and node.args
            ):
                continue
            extracted = self._literal_prefix(node.args[0])
            if extracted is None:
                continue  # dynamic name: cannot check statically
            literal, complete = extracted
            segments = literal.split(".")
            namespace = segments[0]
            problem: Optional[str] = None
            if namespace not in METRIC_NAMESPACES:
                problem = (
                    f"namespace {namespace!r} is not registered "
                    f"(allowed: {', '.join(sorted(METRIC_NAMESPACES))})"
                )
            elif complete and len(segments) < 2:
                problem = "name needs at least `namespace.metric`"
            else:
                checkable = segments[1:] if complete else segments[1:-1]
                for segment in checkable:
                    if segment and not all(
                        c.islower() or c.isdigit() or c == "_"
                        for c in segment
                    ):
                        problem = (
                            f"segment {segment!r} is not lower_snake_case"
                        )
                        break
                else:
                    if complete and any(not s for s in segments):
                        problem = "empty dotted segment"
            if problem is not None:
                yield ctx.finding(
                    self.id,
                    node,
                    f"metric name {literal!r}: {problem}",
                )


# ---------------------------------------------------------------------------
# RPR006 -- float equality
# ---------------------------------------------------------------------------


class FloatEquality(Rule):
    """RPR006: `==` / `!=` against a float literal."""

    id = "RPR006"
    title = "exact equality against a float literal"
    rationale = (
        "Phase math accumulates rounding; `x == 0.3`-style comparisons "
        "flip on the last ulp.  Use math.isclose/np.isclose, an "
        "inequality, or an integer representation."
    )
    scopes = None

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, (left, right) in zip(
                node.ops, zip(operands, operands[1:])
            ):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                for side in (left, right):
                    if isinstance(side, ast.Constant) and isinstance(
                        side.value, float
                    ):
                        yield ctx.finding(
                            self.id,
                            node,
                            f"float literal {side.value!r} compared with "
                            f"==/!=; use isclose or an inequality",
                        )
                        break


# ---------------------------------------------------------------------------
# RPR007 -- mutable default arguments
# ---------------------------------------------------------------------------


class MutableDefaultArg(Rule):
    """RPR007: list/dict/set literals as parameter defaults."""

    id = "RPR007"
    title = "mutable default argument"
    rationale = (
        "Defaults are evaluated once at import; a mutable default is "
        "shared across every call *and every thread*.  Use None "
        "plus an in-function default, or dataclass field factories."
    )
    scopes = None

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            defaults = [
                *node.args.defaults,
                *[d for d in node.args.kw_defaults if d is not None],
            ]
            for default in defaults:
                mutable = isinstance(
                    default,
                    (ast.List, ast.Dict, ast.Set, ast.ListComp,
                     ast.DictComp, ast.SetComp),
                ) or (
                    isinstance(default, ast.Call)
                    and dotted_name(default.func) in _MUTABLE_FACTORIES
                )
                if mutable:
                    yield ctx.finding(
                        self.id,
                        default,
                        f"mutable default in {node.name}(); use None and "
                        f"default inside the body",
                    )


# ---------------------------------------------------------------------------
# RPR008 -- bare / overbroad except
# ---------------------------------------------------------------------------


class OverbroadExcept(Rule):
    """RPR008: `except:` / `except Exception:` hides real failures."""

    id = "RPR008"
    title = "bare or overbroad except clause"
    rationale = (
        "The library has a single-root exception hierarchy (ReproError) "
        "precisely so callers never need `except Exception`; an "
        "overbroad clause swallows programming errors (and "
        "KeyboardInterrupt, for bare excepts) and turns them into bogus "
        "data points."
    )
    scopes = None

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield ctx.finding(
                    self.id, node, "bare `except:`; catch ReproError or a "
                    "specific exception",
                )
                continue
            names = []
            exprs = (
                node.type.elts
                if isinstance(node.type, ast.Tuple)
                else [node.type]
            )
            for expr in exprs:
                name = dotted_name(expr)
                if name in ("Exception", "BaseException"):
                    names.append(name)
            for name in names:
                yield ctx.finding(
                    self.id,
                    node,
                    f"`except {name}` is overbroad; catch ReproError or "
                    f"a specific exception",
                )


# ---------------------------------------------------------------------------
# RPR009 -- hard-coded BLE constants
# ---------------------------------------------------------------------------

#: Literal value -> the repro.constants name that should be used instead.
#: This table must hold the raw values (it *defines* what RPR009 looks
#: for), so each entry suppresses the rule on itself.
BLE_CONSTANT_VALUES: Dict[float, str] = {
    299_792_458.0: "SPEED_OF_LIGHT",  # repro: noqa[RPR009]
    2.402e9: "BLE_BAND_START_HZ",  # repro: noqa[RPR009]
    2.480e9: "BLE_BAND_END_HZ",  # repro: noqa[RPR009]
    2.404e9: "BLE_DATA_LOW_BASE_HZ",  # repro: noqa[RPR009]
    2.426e9: "BLE_CHANNEL_38_FREQ_HZ",  # repro: noqa[RPR009]
    2.428e9: "BLE_DATA_HIGH_BASE_HZ",  # repro: noqa[RPR009]
    80.0e6: "BLE_TOTAL_SPAN_HZ",  # repro: noqa[RPR009]
    float(0x8E89BED6): "BLE_ADVERTISING_ACCESS_ADDRESS",  # repro: noqa[RPR009]
    float(0x555555): "BLE_CRC_INIT_ADVERTISING",  # repro: noqa[RPR009]
    float(0x00065B): "BLE_CRC_POLYNOMIAL",  # repro: noqa[RPR009]
    251.0: "BLE_MAX_PAYLOAD_OCTETS",  # repro: noqa[RPR009]
}


class MagicBleConstant(Rule):
    """RPR009: BLE magic numbers that exist in repro/constants.py."""

    id = "RPR009"
    title = "hard-coded BLE constant"
    rationale = (
        "The 37/40-band stitch, the 2 MHz lattice, and the ch-38 gap "
        "all hang off a handful of spectrum constants; a drifted local "
        "copy desynchronises the band plan from the steering engine.  "
        "Single source of truth: repro/constants.py."
    )
    scopes = None

    def applies_to(self, ctx: FileContext) -> bool:
        if ctx.rel.replace("\\", "/").endswith("repro/constants.py"):
            return False  # the definitions themselves
        return super().applies_to(ctx)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Constant):
                continue
            if isinstance(node.value, bool) or not isinstance(
                node.value, (int, float)
            ):
                continue
            name = BLE_CONSTANT_VALUES.get(float(node.value))
            if name is not None:
                yield ctx.finding(
                    self.id,
                    node,
                    f"magic number {node.value!r}; use "
                    f"repro.constants.{name}",
                )


# ---------------------------------------------------------------------------
# RPR010 -- missing thread-safety tag on worker-reachable functions
# ---------------------------------------------------------------------------

#: Functions reachable from concurrent threads (the service's request
#: threads and the profiler thread) that must document their
#: thread-safety contract, keyed by path suffix.
WORKER_REACHABLE: Dict[str, Tuple[str, ...]] = {
    "repro/baselines/aoa.py": ("AoaLocalizer.anchor_spectrum",),
    "repro/core/engine.py": (
        "LruCache.get_or_build",
        "SteeringCache.entry_for",
    ),
    "repro/core/localizer.py": ("BlocLocalizer.locate",),
    "repro/obs/metrics.py": (
        "Counter.inc",
        "Gauge.set",
        "Histogram.observe",
        "MetricsRegistry.counter",
        "MetricsRegistry.histogram",
    ),
    "repro/obs/ledger.py": ("RunLedger.append",),
    "repro/obs/prof.py": (
        "SamplingProfiler.sample_once",
        "SamplingProfiler.stop",
    ),
    "repro/obs/trace.py": (
        "Tracer.active_stacks",
    ),
}

_THREAD_TAG_WORDS = ("thread-safe", "thread-safety", "thread safety")


class MissingThreadSafetyTag(Rule):
    """RPR010: worker-reachable function without a thread-safety tag."""

    id = "RPR010"
    title = "worker-reachable function lacks a thread-safety docstring tag"
    rationale = (
        "the service's ThreadingHTTPServer request threads and the "
        "sampling profiler thread call these functions concurrently; "
        "their docstrings must state the thread-safety contract "
        "(lock-protected, thread-local, or caller-serialised) so the "
        "next concurrency change knows what it may assume."
    )
    scopes = None

    def __init__(self, required: Optional[Dict[str, Tuple[str, ...]]] = None):
        super().__init__()
        self.required = WORKER_REACHABLE if required is None else required

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        wanted: Optional[Tuple[str, ...]] = None
        for suffix, names in self.required.items():
            if ctx.rel.endswith(suffix):
                wanted = names
                break
        if wanted is None:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            qual = qualname(ctx, node)
            if qual not in wanted:
                continue
            docstring = ast.get_docstring(node) or ""
            lowered = docstring.lower()
            if not any(tag in lowered for tag in _THREAD_TAG_WORDS):
                yield ctx.finding(
                    self.id,
                    node,
                    f"{qual} is reachable from concurrent threads "
                    f"but its docstring does not document "
                    f"thread-safety",
                )


# ---------------------------------------------------------------------------
# RPR012 -- service request handlers must open a trace-carrying span
# ---------------------------------------------------------------------------


class UntracedServiceHandler(Rule):
    """RPR012: a service request handler without a trace_id-bearing span."""

    id = "RPR012"
    title = "service request handler does not open a span with a trace_id"
    rationale = (
        "Every HTTP handler anchors its request's distributed trace: "
        "the span it opens with an explicit trace_id= is what makes "
        "`repro obs trace <id>` reconstruct the request and what feeds "
        "the /metrics exemplars.  A handler that skips it (or lets the "
        "tracer invent a fresh root id) produces orphaned spans that "
        "no response trace_id can find."
    )
    scopes = None

    #: Handlers this rule covers, by (path suffix, name prefix).
    handler_files: Tuple[str, ...] = ("repro/service/app.py",)
    handler_prefix = "handle_"

    def applies_to(self, ctx: FileContext) -> bool:
        rel = ctx.rel.replace("\\", "/")
        if not any(rel.endswith(f) for f in self.handler_files):
            return False
        return super().applies_to(ctx)

    def _opens_traced_span(self, func: ast.AST) -> bool:
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            # Match any `<expr>.span(...)` -- the receiver is often a
            # call chain (`get_observer().span(...)`), which a dotted
            # name match would miss.
            if not (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "span"
            ):
                continue
            if any(kw.arg == "trace_id" for kw in node.keywords):
                return True
        return False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            if not node.name.startswith(self.handler_prefix):
                continue
            if not self._opens_traced_span(node):
                yield ctx.finding(
                    self.id,
                    node,
                    f"{qualname(ctx, node)} handles a service request "
                    f"but never opens a span with an explicit "
                    f"trace_id= -- its spans would be orphaned from "
                    f"the request's trace",
                )


# ---------------------------------------------------------------------------
# RPR013 -- guarded fields accessed without their lock
# ---------------------------------------------------------------------------


def _guarded_fields(cls: ast.ClassDef) -> Dict[str, str]:
    """``field -> lock attr`` from a class's ``@guarded_by`` decorators."""
    guards: Dict[str, str] = {}
    for dec in cls.decorator_list:
        if not isinstance(dec, ast.Call):
            continue
        func = dotted_name(dec.func)
        if func is None or func.split(".")[-1] != "guarded_by":
            continue
        names = [
            arg.value
            for arg in dec.args
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
        ]
        for field_name in names[1:]:
            guards[field_name] = names[0]
    return guards


def _self_attr(node: ast.AST) -> Optional[str]:
    """``X`` when the node is exactly ``self.X``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _with_holds(ctx: FileContext, node: ast.AST, lock_expr: str) -> bool:
    """Whether an ancestor ``with`` statement acquires ``lock_expr``."""
    for ancestor in ctx.ancestors(node):
        if isinstance(ancestor, ast.With):
            for item in ancestor.items:
                if dotted_name(item.context_expr) == lock_expr:
                    return True
    return False


class GuardedFieldDiscipline(Rule):
    """RPR013: guarded fields touched outside their lock."""

    id = "RPR013"
    title = "guarded field accessed without its declared lock held"
    rationale = (
        "@guarded_by declarations are the thread-safety contract; a "
        "read, write or in-place mutation outside 'with self._lock:' is "
        "a data race waiting for traffic."
    )
    scopes = None

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(ctx, node)

    def _check_class(
        self, ctx: FileContext, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        guards = _guarded_fields(cls)
        if not guards:
            return
        for node in ast.walk(cls):
            field_name = _self_attr(node)
            if field_name is None or field_name not in guards:
                continue
            lock_attr = guards[field_name]
            func = enclosing_function(ctx, node)
            if func is None:
                continue  # class-level default, not instance state
            if func.name in ("__init__", "__post_init__"):
                continue  # construction happens-before sharing
            if _with_holds(ctx, node, f"self.{lock_attr}"):
                continue
            verb = (
                "written"
                if isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del))
                else "read"
            )
            yield ctx.finding(
                self.id,
                node,
                f"{cls.name}.{field_name} is guarded by "
                f"{lock_attr!r} but {verb} in {qualname(ctx, func)} "
                f"without 'with self.{lock_attr}:'",
            )


# ---------------------------------------------------------------------------
# RPR015 -- resource lifetime
# ---------------------------------------------------------------------------

#: Method names that release a resource for RPR015 purposes.
_CLOSER_METHODS: Set[str] = {
    "close",
    "shutdown",
    "terminate",
    "release",
    "stop",
    "join",
}

#: Callables whose result owns a releasable OS resource.
_ACQUIRING_NAMES: Set[str] = {"open", "socket", "os.fdopen", "socket.socket"}


def _contains(tree: ast.AST, needle: ast.AST) -> bool:
    return any(node is needle for node in ast.walk(tree))


class ResourceLifetime(Rule):
    """RPR015: acquired OS resources not released on all paths."""

    id = "RPR015"
    title = "resource not closed on all paths"
    rationale = (
        "an open()/socket() whose close lives outside a 'with' or "
        "'finally' leaks the handle on the exception path -- under real "
        "traffic that is fd exhaustion"
    )
    scopes = None

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield from self._check_function(ctx, node)

    def _acquires(self, call: ast.Call) -> Optional[str]:
        """The resource kind a call acquires, or None."""
        name = dotted_name(call.func)
        if name in _ACQUIRING_NAMES:
            return name
        if isinstance(call.func, ast.Attribute) and call.func.attr == "open":
            return "*.open"
        return None

    def _check_function(
        self, ctx: FileContext, func: ast.AST
    ) -> Iterator[Finding]:
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            if enclosing_function(ctx, node) is not func:
                continue  # belongs to a nested def
            kind = self._acquires(node)
            if kind is None:
                continue
            parent = ctx.parent(node)
            if self._transferred(ctx, node, parent):
                continue
            if isinstance(parent, ast.Assign):
                yield from self._check_assigned(
                    ctx, func, node, parent, kind
                )
                continue
            yield ctx.finding(
                self.id,
                node,
                f"{kind}(...) result in {qualname(ctx, func)} is never "
                f"closed (not a 'with' target, not handed off)",
            )

    @staticmethod
    def _transferred(
        ctx: FileContext, call: ast.Call, parent: Optional[ast.AST]
    ) -> bool:
        """Whether the fresh resource immediately leaves our hands."""
        if isinstance(parent, ast.withitem):
            return True
        if isinstance(parent, (ast.Return, ast.Yield, ast.YieldFrom)):
            return True
        if isinstance(parent, ast.Call) and parent is not call:
            return True  # argument: ownership transferred to the callee
        if isinstance(parent, ast.Attribute):
            return True  # immediately chained (e.g. Path(...).open handled)
        if isinstance(parent, (ast.Assign, ast.AnnAssign)):
            targets = (
                parent.targets
                if isinstance(parent, ast.Assign)
                else [parent.target]
            )
            for target in targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    return True  # stored on an object: object's lifetime
        return False

    def _check_assigned(
        self,
        ctx: FileContext,
        func: ast.AST,
        call: ast.Call,
        assign: ast.Assign,
        kind: str,
    ) -> Iterator[Finding]:
        target = assign.targets[0]
        if not isinstance(target, ast.Name):
            return
        name = target.id
        closed_in_finally = False
        closed_elsewhere = False
        for node in ast.walk(func):
            if node is call:
                continue
            if self._is_closer(node, name):
                if self._in_finally(ctx, node, func):
                    closed_in_finally = True
                else:
                    closed_elsewhere = True
            elif self._escapes(node, name, assign):
                return  # handed off / with-managed: not ours to close
        if closed_in_finally:
            return
        if closed_elsewhere:
            yield ctx.finding(
                self.id,
                call,
                f"{kind}(...) bound to {name!r} in {qualname(ctx, func)} "
                f"is closed only on the success path (use 'with' or "
                f"'try/finally')",
            )
        else:
            yield ctx.finding(
                self.id,
                call,
                f"{kind}(...) bound to {name!r} in {qualname(ctx, func)} "
                f"is never closed",
            )

    @staticmethod
    def _is_closer(node: ast.AST, name: str) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _CLOSER_METHODS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == name
        )

    @staticmethod
    def _in_finally(
        ctx: FileContext, node: ast.AST, func: ast.AST
    ) -> bool:
        child = node
        for ancestor in ctx.ancestors(node):
            if isinstance(ancestor, ast.Try) and any(
                child is stmt or _contains(stmt, child)
                for stmt in ancestor.finalbody
            ):
                return True
            if ancestor is func:
                return False
            child = ancestor
        return False

    @staticmethod
    def _escapes(node: ast.AST, name: str, assign: ast.Assign) -> bool:
        """Whether the named resource is handed off after acquisition."""
        if isinstance(node, ast.withitem):
            expr = node.context_expr
            if isinstance(expr, ast.Name) and expr.id == name:
                return True
        if isinstance(node, (ast.Return, ast.Yield)) and node is not assign:
            value = node.value
            if isinstance(value, ast.Name) and value.id == name:
                return True
        if isinstance(node, ast.Call):
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                if isinstance(arg, ast.Name) and arg.id == name:
                    return True
        if isinstance(node, ast.Assign) and node is not assign:
            if isinstance(node.value, ast.Name) and node.value.id == name:
                for target in node.targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        return True
        return False


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

ALL_RULES = (
    ComplexDtypeLoss,
    NondeterministicCall,
    UnlockedSharedMutation,
    UnbalancedSpan,
    MetricNameConvention,
    FloatEquality,
    MutableDefaultArg,
    OverbroadExcept,
    MagicBleConstant,
    MissingThreadSafetyTag,
    UntracedServiceHandler,
    GuardedFieldDiscipline,
    ResourceLifetime,
)


def default_rules() -> list:
    """Fresh instances of every rule, in id order."""
    return [rule_cls() for rule_cls in ALL_RULES]
