"""Tests for repro.rf.imaging: the image-method ray tracer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.rf.environment import Environment
from repro.rf.imaging import ImagingConfig, trace_paths
from repro.rf.materials import GLASS, METAL, Material
from repro.rf.paths import PathKind
from repro.utils.geometry2d import Point

#: A mirror-perfect material to isolate specular behaviour.
PERFECT_MIRROR = Material(
    name="mirror",
    reflectivity=-1.0,
    scattering_fraction=0.0,
    scattering_spread_m=0.0,
    transmission=0.0,
)


@pytest.fixture()
def room():
    return Environment(width=6.0, height=5.0, origin=Point(-3.0, -2.0))


class TestConfig:
    def test_invalid_order(self):
        with pytest.raises(ConfigurationError):
            ImagingConfig(max_order=3)

    def test_invalid_min_gain(self):
        with pytest.raises(ConfigurationError):
            ImagingConfig(min_gain=-1)


class TestDirectPath:
    def test_direct_path_first_and_exact(self, room):
        tx, rx = Point(-1, 0), Point(2, 0)
        paths = trace_paths(room, tx, rx)
        direct = paths[0]
        assert direct.kind == PathKind.DIRECT
        assert direct.length_m == pytest.approx(3.0)
        assert abs(direct.gain) == pytest.approx(1.0 / 3.0)

    def test_direct_path_is_shortest(self, room):
        tx, rx = Point(-2, -1), Point(2, 2)
        paths = trace_paths(room, tx, rx)
        shortest = min(paths, key=lambda p: p.length_m)
        assert shortest.kind == PathKind.DIRECT

    def test_obstructed_direct_attenuated(self, room):
        room.add_reflector(Point(0, -1.5), Point(0, 1.5), METAL)
        paths = trace_paths(room, Point(-1, 0), Point(1, 0))
        assert abs(paths[0].gain) < 1e-9 or paths[0].kind != PathKind.DIRECT


class TestSpecular:
    def test_wall_reflection_count(self, room):
        config = ImagingConfig(include_scatter=False)
        paths = trace_paths(room, Point(-1, 0), Point(1, 0), config)
        specular = [p for p in paths if p.kind == PathKind.SPECULAR]
        # All four walls see a valid bounce for an interior pair.
        assert len(specular) == 4

    def test_reflection_length_via_image(self, room):
        config = ImagingConfig(include_scatter=False)
        tx, rx = Point(-1, 0), Point(1, 0)
        paths = trace_paths(room, tx, rx, config)
        south = [p for p in paths if p.reflector_name == "wall-south"][0]
        # Image of tx across y = -2 is (-1, -4); distance to rx:
        expected = np.hypot(2.0, 4.0)
        assert south.length_m == pytest.approx(expected)

    def test_reflection_gain_includes_material(self, room):
        config = ImagingConfig(include_scatter=False)
        paths = trace_paths(room, Point(-1, 0), Point(1, 0), config)
        south = [p for p in paths if p.reflector_name == "wall-south"][0]
        expected = (
            abs(room.wall_material.specular_amplitude) / south.length_m
        )
        assert abs(south.gain) == pytest.approx(expected)

    def test_interior_mirror_adds_path(self, room):
        room.add_reflector(Point(-0.5, 1.0), Point(0.5, 1.0), PERFECT_MIRROR)
        config = ImagingConfig(include_scatter=False)
        paths = trace_paths(room, Point(-0.4, 0), Point(0.4, 0), config)
        names = {p.reflector_name for p in paths}
        assert "" in names or len(names) >= 5  # mirror contributes

    def test_no_reflection_when_bounce_misses_face(self, room):
        room.add_reflector(Point(2.0, 2.0), Point(2.5, 2.0), PERFECT_MIRROR)
        config = ImagingConfig(include_scatter=False)
        paths = trace_paths(room, Point(-2.5, -1.5), Point(-2.0, -1.5), config)
        assert not any(p.reflector_name == "mirror" for p in paths)

    def test_endpoint_on_face_line_skipped(self, room):
        # An anchor exactly on a wall must not create a degenerate bounce.
        config = ImagingConfig(include_scatter=False)
        paths = trace_paths(room, Point(0, -2.0), Point(0, 1.0), config)
        south = [p for p in paths if p.reflector_name == "wall-south"]
        assert south == []


class TestScatterClusters:
    def test_scatter_paths_present_for_rough_material(self, room):
        room.add_reflector(Point(-1, 1.5), Point(1, 1.5), METAL, name="m")
        paths = trace_paths(room, Point(-1, 0), Point(1, 0))
        scatter = [p for p in paths if p.kind == PathKind.SCATTER]
        assert len(scatter) >= 3

    def test_scatter_spread_in_length(self, room):
        room.add_reflector(Point(-1, 1.5), Point(1, 1.5), METAL, name="m")
        paths = trace_paths(room, Point(-1, 0), Point(1, 0))
        scatter = [
            p for p in paths
            if p.kind == PathKind.SCATTER and p.reflector_name == "m"
        ]
        lengths = [p.length_m for p in scatter]
        assert max(lengths) - min(lengths) > 0.0

    def test_scatter_weaker_than_specular(self, room):
        room.add_reflector(Point(-1, 1.5), Point(1, 1.5), METAL, name="m")
        paths = trace_paths(room, Point(-1, 0), Point(1, 0))
        specular = [
            p for p in paths
            if p.kind == PathKind.SPECULAR and p.reflector_name == "m"
        ][0]
        for p in paths:
            if p.kind == PathKind.SCATTER and p.reflector_name == "m":
                assert abs(p.gain) < abs(specular.gain)

    def test_scatter_disabled(self, room):
        room.add_reflector(Point(-1, 1.5), Point(1, 1.5), METAL)
        config = ImagingConfig(include_scatter=False)
        paths = trace_paths(room, Point(-1, 0), Point(1, 0), config)
        assert all(p.kind != PathKind.SCATTER for p in paths)


class TestSecondOrder:
    def test_second_order_paths_exist(self, room):
        config = ImagingConfig(max_order=2, include_scatter=False, min_gain=1e-6)
        paths1 = trace_paths(room, Point(-1, 0), Point(1, 0.3),
                             ImagingConfig(include_scatter=False, min_gain=1e-6))
        paths2 = trace_paths(room, Point(-1, 0), Point(1, 0.3), config)
        assert len(paths2) > len(paths1)

    def test_second_order_longer_than_first(self, room):
        config = ImagingConfig(max_order=2, include_scatter=False, min_gain=1e-6)
        paths = trace_paths(room, Point(-1, 0), Point(1, 0.3), config)
        double = [p for p in paths if "+" in p.reflector_name]
        single = [
            p for p in paths
            if p.kind == PathKind.SPECULAR and "+" not in p.reflector_name
        ]
        assert double, "no wall-wall bounces found"
        assert min(p.length_m for p in double) > min(
            p.length_m for p in single
        )


class TestPruning:
    def test_min_gain_prunes(self, room):
        strict = ImagingConfig(min_gain=0.2, include_scatter=False)
        paths = trace_paths(room, Point(-2.5, -1.5), Point(2.5, 2.5), strict)
        assert all(abs(p.gain) >= 0.2 for p in paths)
