"""Every name a package exports in ``__all__`` resolves.

The package ``__init__``s re-export lazily from a table of names, so an
entry left behind after its definition is deleted would only fail when
someone first touched it.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

import repro

PACKAGES = sorted(
    ".".join(init.parent.relative_to(Path(repro.__file__).parents[1]).parts)
    for init in Path(repro.__file__).parent.rglob("__init__.py")
)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
