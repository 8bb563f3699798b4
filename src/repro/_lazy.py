"""Lazy package re-exports (PEP 562).

Each package ``__init__`` lists its public names in one table, grouped
by the module that defines them, and resolves a name on first attribute
access through a module-level ``__getattr__``.  ``import repro`` and
``import repro.service`` therefore load only the modules a caller
actually touches: a server never imports the lint engine, the run
ledger or the IQ-fidelity simulator it does not run.  Every
``from repro... import X`` keeps working.
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, Mapping, Sequence


def export_table(modules: Mapping[str, Sequence[str]]) -> Dict[str, str]:
    """Invert ``{defining module: names}`` into ``{name: module}``."""
    return {
        name: module for module, names in modules.items() for name in names
    }


def load_export(package: str, table: Mapping[str, str], name: str) -> Any:
    """Import ``name`` from its defining module (a package ``__getattr__``).

    Raises:
        AttributeError: when ``name`` is not one of the package's exports.
    """
    module = table.get(name)
    if module is None:
        raise AttributeError(f"module {package!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)
