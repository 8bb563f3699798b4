"""Warm localizer pool keyed by scenario (anchor geometry).

The expensive part of a BLoc fix is not the warm Eq. 17 kernel -- it
is building the steering entry for a (grid, anchors, band plan) tuple:
range-profile samples plus one sparse gather per anchor, 9.4 MB at the
paper's 5 cm grid and 2.8 MB at the service's 0.1 m default.  The pool
pays that build once per scenario key and keeps the result warm: every
scenario maps to exactly one :class:`~repro.core.engine.SteeringCache`
entry in one cache shared across the pool, so concurrent requests
against the same geometry all ride the same entry and the second
request for a key never rebuilds.

Scenarios are server-side configuration (name -> testbed factory), not
request payload: a client names ``"vicon"`` and ships only channels,
which keeps request bodies small and makes geometry spoofing impossible.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.analysis.runtime_locks import guarded_by, make_lock
from repro.core.engine import SteeringCache
from repro.core.localizer import BlocConfig, BlocLocalizer
from repro.errors import LocalizationError, ReproError
from repro.obs import get_observer
from repro.service.providers import ProviderChain, QualityGates
from repro.sim.measurement import ChannelMeasurementModel
from repro.sim.testbed import Testbed, open_room_testbed, vicon_testbed
from repro.utils.geometry2d import Point

#: Grid resolution the service defaults to.  Coarser than the paper's
#: 0.05 m because a service trades a few centimetres of grid quantisation
#: for a ~4x smaller steering build per key; pass your own specs/
#: resolution to run the full-resolution grid.
DEFAULT_SERVICE_RESOLUTION_M = 0.1


class UnknownScenarioError(ReproError):
    """The request named a scenario the pool does not serve (HTTP 404)."""

    def __init__(self, name: str, known: List[str]):
        super().__init__(
            f"unknown scenario {name!r}; serving {sorted(known)}"
        )
        self.name = name
        self.known = sorted(known)


@dataclass(frozen=True)
class ScenarioSpec:
    """One servable anchor geometry.

    Attributes:
        name: the pool key clients put in requests.
        description: one line for /v1/stats and docs.
        factory: builds the scenario's testbed (called once, lazily).
    """

    name: str
    description: str
    factory: Callable[[], Testbed]


def default_scenarios() -> Dict[str, ScenarioSpec]:
    """The scenarios `repro serve` offers out of the box."""
    return {
        "vicon": ScenarioSpec(
            name="vicon",
            description=(
                "paper Section 7 VICON room: 4 anchors, metal/glass "
                "clutter, NLOS pockets"
            ),
            factory=vicon_testbed,
        ),
        "open_room": ScenarioSpec(
            name="open_room",
            description=(
                "clutter-free LOS room (the Fig. 8b microbenchmark "
                "setting)"
            ),
            factory=open_room_testbed,
        ),
    }


@dataclass
class WarmScenario:
    """A scenario after its one-time warm-up.

    Attributes:
        spec: the scenario definition.
        testbed: the built geometry (anchors/master decode requests).
        chain: the provider chain over the warm BLoc localizer.
        warmup_s: wall seconds the steering build took.
    """

    spec: ScenarioSpec
    testbed: Testbed
    chain: ProviderChain
    warmup_s: float

    def info(self) -> dict:
        """Plain-data scenario description for /v1/stats."""
        return {
            "description": self.spec.description,
            "num_anchors": len(self.testbed.anchors),
            "num_antennas": self.testbed.anchors[0].num_antennas,
            "master_index": self.testbed.master_index,
            "warmup_s": round(self.warmup_s, 4),
        }


@guarded_by("_lock", "_warm")
class LocalizerPool:
    """Lazily-built, permanently-warm localizers keyed by scenario.

    All scenarios share one :class:`SteeringCache` sized to hold every
    key simultaneously, so the pool never evicts a warm geometry to
    admit another.

    Thread-safety: ``get`` may be called concurrently from server
    threads; scenario builds are serialised by a pool lock with a
    double-check so one slow build never runs twice.
    """

    def __init__(
        self,
        scenarios: Optional[Dict[str, ScenarioSpec]] = None,
        grid_resolution_m: float = DEFAULT_SERVICE_RESOLUTION_M,
        gates: Optional[QualityGates] = None,
    ):
        self.scenarios = (
            dict(scenarios) if scenarios is not None else default_scenarios()
        )
        self.grid_resolution_m = float(grid_resolution_m)
        self.gates = gates or QualityGates()
        self.engine = SteeringCache(max_entries=max(4, len(self.scenarios)))
        self._warm: Dict[str, WarmScenario] = {}
        self._lock = make_lock("LocalizerPool._lock")

    def names(self) -> List[str]:
        """Served scenario names, sorted."""
        return sorted(self.scenarios)

    def get(self, name: str) -> WarmScenario:
        """The warm scenario for ``name``, building it on first use.

        Raises:
            UnknownScenarioError: when ``name`` is not served.
        """
        # Double-checked fast path: a stale miss only re-enters the
        # locked slow path; dict reads are atomic under the GIL.
        warm = self._warm.get(name)  # repro: noqa[RPR013] -- benign racy fast-path read, settled under the lock below
        if warm is not None:
            return warm
        if name not in self.scenarios:
            raise UnknownScenarioError(name, list(self.scenarios))
        with self._lock:
            warm = self._warm.get(name)
            if warm is None:
                warm = self._build(self.scenarios[name])
                self._warm[name] = warm
        return warm

    def prewarm(self) -> List[str]:
        """Build every scenario up front (serve-time startup)."""
        for name in self.names():
            self.get(name)
        return self.names()

    def _build(self, spec: ScenarioSpec) -> WarmScenario:
        """Build one scenario's testbed, localizer and steering entry.

        The warm-up fix runs a synthetic centre-of-room measurement
        through the BLoc path and the AoA fallback purely to populate
        their steering caches; the results are discarded.  The build
        runs inside a ``service.pool_build`` span, so a request that
        paid the cold build (rather than riding a warm entry) shows it
        in its trace.
        """
        started = time.perf_counter()
        with get_observer().span("service.pool_build", scenario=spec.name):
            testbed = spec.factory()
            bloc = BlocLocalizer(
                config=BlocConfig(
                    grid_resolution_m=self.grid_resolution_m
                ),
                engine=self.engine,
            )
            chain = ProviderChain(bloc=bloc, gates=self.gates)
            model = ChannelMeasurementModel(testbed, seed=0)
            x_min, x_max, y_min, y_max = testbed.environment.bounds()
            centre = Point((x_min + x_max) / 2.0, (y_min + y_max) / 2.0)
            warmup = model.measure(centre)
            for localizer in (bloc, chain.aoa):
                try:
                    localizer.locate(warmup, keep_map=False)
                except LocalizationError:
                    # Nothing to warm: a geometry this localizer cannot
                    # serve (one anchor) falls through the chain anyway.
                    pass
        return WarmScenario(
            spec=spec,
            testbed=testbed,
            chain=chain,
            warmup_s=time.perf_counter() - started,
        )

    def info(self) -> dict:
        """Plain-data pool statistics for /v1/stats.

        Thread-safe: snapshots under the pool lock.
        """
        with self._lock:
            warm = {
                name: scenario.info()
                for name, scenario in self._warm.items()
            }
        return {
            "scenarios": self.names(),
            "warm": warm,
            # Warmth at a glance: every served scenario -> built or not,
            # so a smoke test asserts readiness without inferring it
            # from the warm dict's keys.
            "warmth": {
                name: name in warm for name in self.names()
            },
            "grid_resolution_m": self.grid_resolution_m,
            "engine": self.engine.info(),
        }
