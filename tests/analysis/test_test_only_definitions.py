"""Guard: every definition in ``src/`` is used by the program itself.

A definition that only its own tests call shows nothing about the
program: the tests would pass just as well without it in ``src/``.
This scan collects every top-level function and class and every public
method in ``src/`` and looks for its name anywhere else in the program
trees (``src/``, ``benchmarks/``, ``perfbench/``, ``examples/``): code,
strings and comments alike, so it can miss dead code but never flags
live code.  Package export tables do not count as a use, and a
definition referenced only from other unused definitions is unused too
(the scan iterates to a fixpoint).  ``tests/`` is never searched.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[2]
PROGRAM_TREES = ("src", "benchmarks", "perfbench", "examples")
SRC = ROOT / "src"

#: Definitions the program does not call that stay in ``src/``, each
#: with the reason it stays.
KEEP = {
    # Ground truth for the measured channels in tests/sim/test_measurement.py.
    "repro.rf.channel_model.ChannelSimulator.channels_to_anchor",
    # The Eq. 17 test oracle (tests/eq17_oracle.py) references it.
    "repro.core.correction.CorrectedChannels.master_reference_position",
    # The service and engine test fixtures coarsen the serving grid.
    "repro.utils.gridmap.Grid2D.coarsened",
    # runtime_locks test hooks: the lock-order tests read the registry.
    "repro.analysis.runtime_locks.LockOrderRegistry.held_names",
    # runtime_locks test hooks: the lock-order tests read the registry.
    "repro.analysis.runtime_locks.LockOrderRegistry.observed_edges",
    # runtime_locks test hooks: the lock-order tests reset the registry.
    "repro.analysis.runtime_locks.default_registry",
    # Locked read of the capture, used to test its synchronisation.
    "repro.sim.runner.DiagnosticsCapture.diagnostics_for",
    # Benchmarks and examples call it.
    "repro.baselines.rssi.RssiTrilateration.calibrate",
    # Benchmarks and examples call it.
    "repro.ble.channels.ChannelMap.from_blacklist",
    # The tests' reader of live /metrics output.
    "repro.obs.promexport.parse_exposition",
    # The tests' reader of live /metrics output.
    "repro.obs.promexport.exemplar_trace_ids",
    # ROADMAP item 5 derives its search step from c/B.
    "repro.core.steering.range_resolution_m",
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_EXPORT_TABLES = {"__all__", "_EXPORTS"}


@dataclass(frozen=True)
class Definition:
    """One scanned definition and the lines it spans."""

    path: Path
    dotted: str
    qualname: str
    name: str
    start: int
    end: int


def _span(node: ast.AST) -> Tuple[int, int]:
    decorators = getattr(node, "decorator_list", [])
    start = min([node.lineno] + [d.lineno for d in decorators])
    return start, node.end_lineno


def definitions(path: Path, src: Path) -> List[Definition]:
    """Top-level functions and classes plus public methods of classes."""
    module = ".".join(path.relative_to(src).with_suffix("").parts)
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []

    def add(node, qualname):
        found.append(
            Definition(
                path, f"{module}.{qualname}", qualname, node.name, *_span(node)
            )
        )

    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if not isinstance(node, functions + (ast.ClassDef,)):
            continue
        add(node, node.name)
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, functions) and not sub.name.startswith("_"):
                    add(sub, f"{node.name}.{sub.name}")
    return found


def _export_spans(path: Path, tree: ast.Module) -> Tuple[list, list]:
    """Lines that only re-export names: ``(tables, imports)``.

    ``__all__`` and ``_EXPORTS`` tables list names as strings, and a
    package ``__init__`` imports names only to re-export them.
    """
    tables, imports = [], []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = {t.id for t in node.targets if isinstance(t, ast.Name)}
            if targets & _EXPORT_TABLES:
                tables.append((node.lineno, node.end_lineno))
        elif isinstance(node, ast.ImportFrom) and path.name == "__init__.py":
            imports.append((node.lineno, node.end_lineno))
    return tables, imports


def _inside(line: int, spans: Iterable[Tuple[int, int]]) -> bool:
    return any(start <= line <= end for start, end in spans)


def name_occurrences(path: Path, source: str) -> Iterable[Tuple[str, int]]:
    """Every ``(word, line)`` in code, strings and comments, except the
    names an export table or a package ``__init__`` import re-exports."""
    tables, imports = _export_spans(path, ast.parse(source))
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    for token in tokens:
        line = token.start[0]
        if token.type == tokenize.NAME:
            if not _inside(line, imports):
                yield token.string, line
        elif token.type in (tokenize.STRING, tokenize.COMMENT):
            if _inside(line, tables):
                continue
            for offset, text in enumerate(token.string.split("\n")):
                for word in _WORD.findall(text):
                    yield word, line + offset


def scan(root: Path = ROOT) -> List[Definition]:
    """Definitions in ``src/`` no program tree references (fixpoint)."""
    index: Dict[str, List[Tuple[Path, int]]] = {}
    defs: List[Definition] = []
    for tree_name in PROGRAM_TREES:
        for path in sorted((root / tree_name).rglob("*.py")):
            if tree_name == "src":
                defs.extend(definitions(path, root / "src"))
            source = path.read_text(encoding="utf-8")
            for word, line in name_occurrences(path, source):
                index.setdefault(word, []).append((path, line))
    unused: Set[Definition] = set()
    while True:
        newly = [
            d
            for d in defs
            if d not in unused and not _referenced(d, index, unused)
        ]
        if not newly:
            return sorted(unused, key=lambda d: (str(d.path), d.start))
        unused.update(newly)


def _referenced(
    definition: Definition,
    index: Dict[str, List[Tuple[Path, int]]],
    unused: Set[Definition],
) -> bool:
    for path, line in index.get(definition.name, ()):
        if path == definition.path and (
            definition.start <= line <= definition.end
        ):
            continue
        if any(
            u.path == path and u.start <= line <= u.end
            for u in unused
            if u.dotted not in KEEP
        ):
            continue
        return True
    return False


def test_src_has_no_test_only_definitions():
    unused = [d for d in scan() if d.dotted not in KEEP]
    report = [
        f"{d.path.relative_to(ROOT)}:{d.start} {d.qualname}" for d in unused
    ]
    assert report == [], (
        "definitions only tests (or nothing) use; delete them or add a "
        "reasoned KEEP entry:\n" + "\n".join(report)
    )


def test_keep_list_names_existing_definitions():
    existing = {
        d.dotted for path in SRC.rglob("*.py") for d in definitions(path, SRC)
    }
    assert sorted(KEEP - existing) == []


def test_scan_flags_a_test_only_function(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from pkg.mod import live, test_only\n"
        '__all__ = ["live", "test_only"]\n'
    )
    (package / "mod.py").write_text(
        "def helper():\n    return 1\n\n\n"
        "def test_only():\n    return helper()\n\n\n"
        "def live():\n    return 2\n"
    )
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "run.py").write_text(
        "from pkg import live\n\nlive()\n"
    )
    names = [d.qualname for d in scan(tmp_path)]
    assert names == ["helper", "test_only"]
