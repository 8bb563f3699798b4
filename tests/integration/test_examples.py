"""Smoke tests: the example scripts must import and expose main()."""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))


def load_example(path: Path):
    import sys

    name = f"example_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # Register before executing: dataclasses with string annotations look
    # the module up in sys.modules during class creation.
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        sys.modules.pop(name, None)
        raise
    return module


class TestExamples:
    def test_readme_lists_every_example(self):
        readme = (EXAMPLES_DIR.parent / "README.md").read_text("utf-8")
        listed = set(re.findall(r"`examples/(\w+)\.py`", readme))
        assert listed == {p.stem for p in EXAMPLE_FILES}

    def test_quickstart_present(self):
        names = {p.stem for p in EXAMPLE_FILES}
        assert "quickstart" in names

    @pytest.mark.parametrize(
        "path", EXAMPLE_FILES, ids=[p.stem for p in EXAMPLE_FILES]
    )
    def test_importable_with_main(self, path):
        module = load_example(path)
        assert callable(getattr(module, "main", None)), (
            f"{path.name} must expose a main()"
        )

    def test_lost_keys_zones_cover_room(self):
        module = load_example(EXAMPLES_DIR / "lost_keys.py")
        testbed = module.build_home()
        for zone in module.ZONES:
            centre = zone.centre()
            assert testbed.environment.contains(centre), zone.name

    def test_wifi_blacklist_spares_most_channels(self):
        module = load_example(EXAMPLES_DIR / "interference_survey.py")
        cm = module.blacklist_under_wifi()
        assert 8 <= cm.num_used < 37
