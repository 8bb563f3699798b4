"""Reflector materials: reflection, scattering and transmission behaviour.

The paper's environment is "full of metallic objects, like robotic
equipment, large metal cupboards" (Section 7) -- i.e. strong but *non-ideal*
reflectors.  Section 5.4 builds on exactly that non-ideality: real
reflectors scatter, so reflected peaks are spatially spread out while the
direct path stays peaky.  A material here therefore carries:

* ``reflectivity``: complex amplitude coefficient of the specular bounce
  (negative real part models the phase inversion of a conductor).
* ``scattering_fraction``: share of the reflected energy that leaves as
  diffuse scatter around the specular point instead of in it.
* ``scattering_spread_m``: spatial extent of the scatter cluster along the
  reflector face.
* ``transmission``: amplitude coefficient of the through-path (0 for a
  metal cupboard, close to 1 for a thin partition).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Material:
    """Electromagnetic surface behaviour of a reflector or obstruction."""

    name: str
    reflectivity: complex
    scattering_fraction: float
    scattering_spread_m: float
    transmission: float

    def __post_init__(self):
        if abs(self.reflectivity) > 1.0 + 1e-9:
            raise ConfigurationError(
                f"{self.name}: |reflectivity| must be <= 1"
            )
        if not 0.0 <= self.scattering_fraction <= 1.0:
            raise ConfigurationError(
                f"{self.name}: scattering_fraction must be in [0, 1]"
            )
        if self.scattering_spread_m < 0.0:
            raise ConfigurationError(
                f"{self.name}: scattering_spread_m must be >= 0"
            )
        if not 0.0 <= self.transmission <= 1.0:
            raise ConfigurationError(
                f"{self.name}: transmission must be in [0, 1]"
            )

    @property
    def specular_amplitude(self) -> complex:
        """Amplitude coefficient of the coherent specular component."""
        return self.reflectivity * (1.0 - self.scattering_fraction)

    @property
    def scattered_amplitude(self) -> float:
        """Total amplitude budget of the diffuse scatter cluster."""
        return abs(self.reflectivity) * self.scattering_fraction


#: Reinforced concrete / brick wall: moderate reflection, some scatter,
#: strong attenuation through.
CONCRETE = Material(
    name="concrete",
    reflectivity=-0.55 + 0.0j,
    scattering_fraction=0.35,
    scattering_spread_m=0.5,
    transmission=0.12,
)

#: Interior drywall partition: weak reflector, lets most energy through.
DRYWALL = Material(
    name="drywall",
    reflectivity=-0.30 + 0.0j,
    scattering_fraction=0.30,
    scattering_spread_m=0.4,
    transmission=0.65,
)

#: Sheet metal (cupboards, robot chassis): near-perfect mirror, opaque,
#: with the surface irregularity that drives the paper's entropy insight.
METAL = Material(
    name="metal",
    reflectivity=-0.92 + 0.0j,
    scattering_fraction=0.40,
    scattering_spread_m=0.6,
    transmission=0.0,
)

#: Glass screen/window: modest reflection, mostly transparent.
GLASS = Material(
    name="glass",
    reflectivity=-0.40 + 0.0j,
    scattering_fraction=0.15,
    scattering_spread_m=0.2,
    transmission=0.80,
)

#: Human body / furniture padding: absorbs most incident energy.
ABSORBER = Material(
    name="absorber",
    reflectivity=-0.15 + 0.0j,
    scattering_fraction=0.60,
    scattering_spread_m=0.5,
    transmission=0.30,
)

#: Registry by name, for configuration files and examples.
MATERIALS = {
    m.name: m for m in (CONCRETE, DRYWALL, METAL, GLASS, ABSORBER)
}
