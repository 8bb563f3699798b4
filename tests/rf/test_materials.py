"""Tests for repro.rf.materials."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.rf.materials import (
    CONCRETE,
    MATERIALS,
    METAL,
    Material,
)


class TestMaterial:
    def test_specular_amplitude_scales_with_scatter(self):
        m = Material("m", -0.8, 0.25, 0.3, 0.0)
        assert m.specular_amplitude == pytest.approx(-0.6)
        assert m.scattered_amplitude == pytest.approx(0.2)

    def test_rejects_gain_reflection(self):
        with pytest.raises(ConfigurationError):
            Material("bad", 1.5, 0.0, 0.0, 0.0)

    def test_rejects_bad_scatter_fraction(self):
        with pytest.raises(ConfigurationError):
            Material("bad", 0.5, 1.5, 0.0, 0.0)

    def test_rejects_negative_spread(self):
        with pytest.raises(ConfigurationError):
            Material("bad", 0.5, 0.5, -1.0, 0.0)

    def test_rejects_bad_transmission(self):
        with pytest.raises(ConfigurationError):
            Material("bad", 0.5, 0.5, 0.1, 1.5)


class TestBuiltins:
    def test_metal_is_opaque_strong_reflector(self):
        assert METAL.transmission == 0.0
        assert abs(METAL.reflectivity) > abs(CONCRETE.reflectivity)

    def test_registry_complete(self):
        assert set(MATERIALS) >= {
            "concrete", "drywall", "metal", "glass", "absorber"
        }

    def test_all_builtins_passive(self):
        for material in MATERIALS.values():
            # Energy conservation: reflection + transmission <= ~1.
            assert abs(material.reflectivity) <= 1.0
            assert material.transmission <= 1.0
