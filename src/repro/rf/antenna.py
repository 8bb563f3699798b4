"""Antenna arrays and anchor points.

Each BLoc anchor is a uniform linear array (ULA) of ``J`` antennas driven
by one oscillator (paper Section 7: USRP N210s building 4-antenna anchors).
Antenna 0 is the reference element: Eq. 14 measures relative distances with
respect to "anchor 0, antenna 0".

The default element spacing is half a wavelength at the centre of the BLE
band, the standard choice that keeps the array unambiguous over +-90 deg.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List

from repro.constants import SPEED_OF_LIGHT
from repro.errors import ConfigurationError
from repro.utils.geometry2d import Point

#: Centre of the BLE band, used to pick the default element spacing.
BLE_BAND_CENTRE_HZ = 2.441e9

#: Half-wavelength spacing at the band centre [m].
HALF_WAVELENGTH_M = SPEED_OF_LIGHT / BLE_BAND_CENTRE_HZ / 2.0


@dataclass(frozen=True)
class Anchor:
    """A multi-antenna anchor point.

    Attributes:
        position: centre of the antenna array.
        boresight_rad: direction the array faces (normal to the array
            line); angles of arrival are measured relative to it.
        num_antennas: number of ULA elements.
        spacing_m: element separation (the paper's ``l``).
        name: label used in datasets and reports.
    """

    position: Point
    boresight_rad: float = 0.0
    num_antennas: int = 4
    spacing_m: float = HALF_WAVELENGTH_M
    name: str = ""

    def __post_init__(self):
        if self.num_antennas < 1:
            raise ConfigurationError("an anchor needs at least 1 antenna")
        if self.spacing_m <= 0:
            raise ConfigurationError("antenna spacing must be > 0")

    def array_axis(self) -> Point:
        """Unit vector along the array line (boresight rotated +90 deg)."""
        return Point(
            -math.sin(self.boresight_rad), math.cos(self.boresight_rad)
        )

    def antenna_position(self, antenna_index: int) -> Point:
        """Position of element ``antenna_index`` (0-based).

        Elements are laid out symmetrically around :attr:`position`, with
        element 0 at the most negative offset along the array axis.
        """
        if not 0 <= antenna_index < self.num_antennas:
            raise ConfigurationError(
                f"antenna index {antenna_index} out of range "
                f"[0, {self.num_antennas})"
            )
        offset = (antenna_index - (self.num_antennas - 1) / 2.0) * self.spacing_m
        return self.position + self.array_axis() * offset

    def antenna_positions(self) -> List[Point]:
        """Positions of all elements, index order."""
        return [self.antenna_position(j) for j in range(self.num_antennas)]

    def with_antennas(self, num_antennas: int) -> "Anchor":
        """Copy of this anchor with a different element count, array centre
        fixed (for *designing* a deployment with another antenna count)."""
        return Anchor(
            position=self.position,
            boresight_rad=self.boresight_rad,
            num_antennas=num_antennas,
            spacing_m=self.spacing_m,
            name=self.name,
        )

    def truncated(self, num_antennas: int) -> "Anchor":
        """Anchor describing only the first ``num_antennas`` elements of
        this array, *keeping their physical positions*.

        This models the paper's Section 8.4 experiment (evaluate with 3 of
        the 4 antennas): element ``j`` of the truncated anchor sits exactly
        where element ``j`` of the original sat.
        """
        if not 1 <= num_antennas <= self.num_antennas:
            raise ConfigurationError(
                f"cannot truncate {self.num_antennas}-element array "
                f"to {num_antennas}"
            )
        shift = (
            (num_antennas - 1) / 2.0 - (self.num_antennas - 1) / 2.0
        ) * self.spacing_m
        return Anchor(
            position=self.position + self.array_axis() * shift,
            boresight_rad=self.boresight_rad,
            num_antennas=num_antennas,
            spacing_m=self.spacing_m,
            name=self.name,
        )

    def angle_to(self, target: Point) -> float:
        """Angle of ``target`` relative to boresight, in radians.

        Positive angles are towards the positive array axis, matching the
        sign convention of the steering equations (paper Fig. 2).
        """
        bearing = self.position.angle_to(target)
        angle = bearing - self.boresight_rad
        # Wrap to (-pi, pi].
        return math.atan2(math.sin(angle), math.cos(angle))


def default_anchor_ring(
    room_width: float,
    room_height: float,
    origin: Point = Point(0.0, 0.0),
    num_antennas: int = 4,
    inset_m: float = 0.1,
) -> List[Anchor]:
    """The paper's deployment: one anchor at the centre of each room edge,
    facing inwards (Fig. 7c), slightly inset from the wall.

    Returns anchors named AP1..AP4 on the south, east, north and west
    edges respectively; AP1 is the master in the default testbed.
    """
    if room_width <= 0 or room_height <= 0:
        raise ConfigurationError("room dimensions must be positive")
    cx = origin.x + room_width / 2.0
    cy = origin.y + room_height / 2.0
    placements = [
        (Point(cx, origin.y + inset_m), math.pi / 2.0),  # south, faces north
        (Point(origin.x + room_width - inset_m, cy), math.pi),  # east, faces west
        (Point(cx, origin.y + room_height - inset_m), -math.pi / 2.0),  # north
        (Point(origin.x + inset_m, cy), 0.0),  # west, faces east
    ]
    return [
        Anchor(
            position=position,
            boresight_rad=boresight,
            num_antennas=num_antennas,
            name=f"AP{k + 1}",
        )
        for k, (position, boresight) in enumerate(placements)
    ]
