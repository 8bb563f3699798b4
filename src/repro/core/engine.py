"""Steering engine: amortize the Eq. 17 geometry across fixes.

Every ``locate()`` call evaluates Eq. 17 over the same candidate grid,
against the same anchor antenna geometry, on the same BLE band plan --
only the corrected channels ``alpha`` change from fix to fix.  For
antenna ``j`` of anchor ``i`` the Eq. 17 term is

    T_ij(x) = sum_k alpha_ijk * exp(1j * k_k * d_ij(x)),

which depends on the grid point ``x`` only through the scalar relative
distance ``d_ij(x) = |x - p_ij| - |x - p_00| - baseline_i``: it is a
1-D *range profile* read at ``d_ij(x)`` -- the paper's angle x
relative-distance decomposition (Section 5.3, Fig. 6b).  With ``k_c``
the mid-band wavenumber,

    T_ij(x) = exp(1j * k_c * d) * P_ij(d),
    P_ij(d) = sum_k alpha_ijk * exp(1j * (k_k - k_c) * d),

and ``P`` is band-limited to ``delta = max_k |k_k - k_c|``, so it is
smooth on the scale ``1 / delta`` (~1.2 m for the 78 MHz BLE plan)
while the carrier oscillates on the wavelength scale.  The engine
caches, per (grid, geometry, band plan):

* **a sample matrix** ``exp(1j * outer(d_l, k - k_c))`` over a uniform
  relative-distance grid ``d_l`` (step ``h``) covering every
  ``d_ij(x)``; one ``(L x K) @ (K x I*J)`` product turns a fix's
  corrected channels into every antenna's sampled profile;
* **one stacked sparse gather**: a block-diagonal CSR matrix of shape
  ``(I * N, I * J * L)`` whose row ``i * N + n`` holds the ``2 * J``
  linear-interpolation weights of the two profile samples around each
  ``d_ij(x_n)``, with the exact carrier ``exp(1j * k_c * d_ij(x))``
  folded in.

A warm fix is one small dense product plus one sparse matvec over every
anchor at once.  The method works for any band plan: nothing assumes a
lattice.

**Error bound and the choice of ``h``.**  Linear interpolation of a
(complex) function errs by at most ``h^2 / 8 * max |P''|``, and
``|P''| <= delta^2 * sum_k |alpha_k|``, so each anchor's complex sum --
and hence its likelihood magnitude -- is within
``delta^2 * h^2 / 8 * sum_jk |alpha_ijk|`` of the exact Eq. 17.  The
step is derived from :data:`PROFILE_ERROR_TARGET` through that bound
(``h <= sqrt(8 * target) / delta``), so there is no tuning knob; a
1-band plan (``delta = 0``) interpolates a constant exactly and gets the
two-sample minimum.  :meth:`SteeringEntry.error_bound` evaluates the
bound for a concrete fix.

Entries live in a :class:`SteeringCache`, an LRU keyed by the full
geometry signature, so sweeps that alternate between a handful of
configurations (bandwidth ablations, anchor subsets) stay warm while
unbounded geometry churn cannot exhaust memory.  The cache is
thread-safe: the parallel evaluation runner shares one cache across
worker threads.
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.analysis.contracts import arr, shaped
from repro.analysis.runtime_locks import guarded_by, make_lock
from repro.constants import SPEED_OF_LIGHT
from repro.core.correction import CorrectedChannels
from repro.errors import ConfigurationError
from repro.obs import LATENCY_BUCKETS_S, get_observer
from repro.rf.antenna import Anchor
from repro.utils.gridmap import Grid2D

#: Interpolation error budget of the range profile, relative to
#: ``sum |alpha|`` of an anchor (an upper bound on its Eq. 17 peak).
#: Fixes the sample step: ~1.1 cm for the full 37-band BLE plan.
PROFILE_ERROR_TARGET = 1e-5


@dataclass(frozen=True)
class EngineConfig:
    """Tuning knobs of the steering engine.

    Attributes:
        max_entries: LRU capacity in distinct geometry signatures.
    """

    max_entries: int = 4

    def __post_init__(self):
        if self.max_entries < 1:
            raise ConfigurationError("engine max_entries must be >= 1")


def steering_cache_key(
    grid: Grid2D,
    anchors: Sequence[Anchor],
    master_index: int,
    baselines_m: np.ndarray,
    frequencies_hz: np.ndarray,
) -> tuple:
    """Hashable signature of everything the steering entry depends on.

    Anchors enter through the fields that define their antenna
    positions (centre, boresight, element count and spacing), not the
    positions themselves: equal fields give equal positions, so an
    unequal key can at worst cost a rebuild, never a stale hit.

    The key is a nested tuple of plain floats/ints, so it is picklable:
    the process backend (:mod:`repro.sim.procpool`) hands it to worker
    processes together with the parent-built entry, and workers seed
    their local caches under the very same key (see
    :meth:`SteeringCache.seed`).
    """
    anchor_signature = tuple(
        (*a.position, a.boresight_rad, a.num_antennas, a.spacing_m)
        for a in anchors
    )
    return (
        (grid.x_min, grid.x_max, grid.y_min, grid.y_max, grid.resolution),
        anchor_signature,
        int(master_index),
        tuple(np.asarray(baselines_m, dtype=float).tolist()),
        tuple(np.asarray(frequencies_hz, dtype=float).tolist()),
    )


def _wavenumbers(frequencies_hz: np.ndarray) -> np.ndarray:
    return 2.0 * np.pi * np.asarray(frequencies_hz, dtype=float) / SPEED_OF_LIGHT


@dataclass
class SteeringEntry:
    """Precomputed Eq. 17 geometry for one (grid, anchors, bands) tuple.

    Attributes:
        grid: the candidate-position grid the entry covers.
        frequencies_hz: band plan, shape ``(K,)``.
        sample_step_m: relative-distance step ``h`` of the profiles.
        samples: ``exp(1j * outer(d_l, k - k_c))``, shape ``(L, K)``.
        gather: block-diagonal CSR matrix of shape
            ``(I * grid.size, I * J * L)`` mapping every anchor's stacked
            antenna profiles to its Eq. 17 sum at every grid point
            (carrier folded in); anchor ``i`` owns row block ``i``.
        build_seconds: wall-clock cost of the one-time build.
    """

    grid: Grid2D
    frequencies_hz: np.ndarray
    sample_step_m: float
    samples: np.ndarray
    gather: sparse.csr_matrix
    build_seconds: float

    @property
    def nbytes(self) -> int:
        """Memory held by every cached array of the entry."""
        g = self.gather
        return sum(
            x.nbytes for x in (self.samples, g.data, g.indices, g.indptr)
        )

    @shaped(alpha_anchor=arr(("J", "K"), np.complexfloating))
    def error_bound(self, alpha_anchor: np.ndarray) -> float:
        """Worst-case |engine - exact| of one anchor's Eq. 17 map.

        ``delta^2 * h^2 / 8 * sum |alpha|`` (see the module docstring).
        """
        wavenumbers = _wavenumbers(self.frequencies_hz)
        delta = float(wavenumbers.max() - wavenumbers.min()) / 2.0
        # Amplitude sink: the bound needs only |alpha|.
        magnitude = float(np.abs(alpha_anchor).sum())  # repro: noqa[RPR001]
        return delta**2 * self.sample_step_m**2 / 8.0 * magnitude

    @shaped(alpha_batch=arr(("B", "I", "J", "K"), np.complexfloating))
    def likelihoods(self, alpha_batch: np.ndarray) -> np.ndarray:
        """Eq. 17 for every anchor of B fixes, shape ``(B, I, size)``.

        One dense product yields every (fix, anchor, antenna) profile;
        each fix is then one matvec over the stacked gather.  (One
        product with B columns ran no faster, since the gather stays in
        cache, and its ``(I * size, B)`` temporaries page-faulted anew
        on every call.)

        Thread-safety: read-only over the immutable cached arrays, safe
        to call concurrently from evaluation workers.
        """
        alpha = np.asarray(alpha_batch)
        b, a, _, k = alpha.shape
        profiles = alpha.reshape(-1, k) @ self.samples.T
        out = np.empty((b, self.gather.shape[0]))
        for fix, profile in enumerate(profiles.reshape(b, -1)):
            np.abs(self.gather @ profile, out=out[fix])
        return out.reshape(b, a, -1)

    @shaped(alpha_anchor=arr(("J", "K"), np.complexfloating))
    def anchor_likelihood(
        self, anchor_index: int, alpha_anchor: np.ndarray
    ) -> np.ndarray:
        """Eq. 17 for one anchor of one fix, shape ``(size,)``."""
        profile = (np.asarray(alpha_anchor) @ self.samples.T).ravel()
        row, col = anchor_index * self.grid.size, anchor_index * profile.size
        block = self.gather[row:row + self.grid.size, col:col + profile.size]
        return np.abs(block @ profile)


def _profile_grid(span: float, delta: float) -> Tuple[int, float]:
    """``(num_samples, step)`` meeting :data:`PROFILE_ERROR_TARGET`."""
    if delta > 0.0:
        max_step = math.sqrt(8.0 * PROFILE_ERROR_TARGET) / delta
        num_samples = max(2, math.ceil(span / max_step) + 1)
    else:
        num_samples = 2  # a 1-band profile is constant: exact anyway
    step = span / (num_samples - 1) if span > 0.0 else 1.0
    return num_samples, step


@shaped(baselines_m=("I",), frequencies_hz=("K",))
def build_steering_entry(
    grid: Grid2D,
    anchors: Sequence[Anchor],
    master_index: int,
    baselines_m: np.ndarray,
    frequencies_hz: np.ndarray,
) -> SteeringEntry:
    """One-time build of the range-profile samples and the stacked gather.

    The relative distances ``d_ij(x)`` of every antenna are computed
    once; their range fixes the profile sample grid, and each grid
    point's position on it fixes its interpolation weights.
    """
    start = time.perf_counter()
    points = grid.points()
    reference = anchors[master_index].antenna_position(0).as_array()
    elements = np.array(
        [
            [a.antenna_position(j).as_array() for j in range(a.num_antennas)]
            for a in anchors
        ]
    )  # (I, J, 2)
    relative = (
        np.linalg.norm(points - elements[:, :, None, :], axis=-1)
        - np.linalg.norm(points - reference, axis=1)
        - np.asarray(baselines_m, dtype=float)[:, None, None]
    )  # (I, J, N)
    wavenumbers = _wavenumbers(frequencies_hz)
    centre = float(wavenumbers.max() + wavenumbers.min()) / 2.0
    low = float(relative.min())
    num_samples, step = _profile_grid(
        float(relative.max()) - low, float(wavenumbers.max()) - centre
    )
    sample_d = low + step * np.arange(num_samples)
    samples = np.exp(1j * np.outer(sample_d, wavenumbers - centre))
    num_anchors, num_antennas, size = relative.shape
    # Filled in place, one anchor at a time: data[i, n, j] holds the two
    # taps of antenna j at grid point n (row-major by stacked row).
    data = np.empty((num_anchors, size, num_antennas, 2), dtype=complex)
    indices = np.empty(data.shape, dtype=np.int32)
    offsets = (np.arange(num_antennas) * num_samples)[:, None]
    for i, anchor_relative in enumerate(relative):  # (J, N)
        position = (anchor_relative - low) / step
        left = np.clip(np.floor(position), 0, num_samples - 2)
        frac = position - left
        carrier = np.exp(1j * centre * anchor_relative)
        taps = data[i].transpose(1, 0, 2)  # (J, N, 2) view
        taps[..., 0] = (1.0 - frac) * carrier
        taps[..., 1] = frac * carrier
        columns = indices[i].transpose(1, 0, 2)
        columns[..., 0] = (i * num_antennas * num_samples + offsets) + left
        columns[..., 1] = columns[..., 0] + 1
    indptr = np.arange(0, data.size + 1, 2 * num_antennas, dtype=np.int32)
    gather = sparse.csr_matrix(
        (data.reshape(-1), indices.reshape(-1), indptr),
        shape=(num_anchors * size, num_anchors * num_antennas * num_samples),
    )
    return SteeringEntry(
        grid=grid,
        frequencies_hz=np.asarray(frequencies_hz, dtype=float).copy(),
        sample_step_m=step,
        samples=samples,
        gather=gather,
        build_seconds=time.perf_counter() - start,
    )


@guarded_by("_lock", "_entries", "hits", "misses", "evictions")
class SteeringCache:
    """Thread-safe LRU cache of :class:`SteeringEntry` objects.

    A :class:`~repro.core.localizer.BlocLocalizer` holds one of these
    across ``locate()`` calls, so a sweep over a dataset pays the
    geometry build once and every later fix runs on the cached profile
    samples and gather alone.  The cache key covers the grid
    bounds/resolution, every anchor's array geometry, the master/baseline
    configuration and the exact frequency vector, so any change that
    would alter the entry is a miss -- never a stale hit.

    Attributes:
        config: engine tuning knobs.
        hits / misses / evictions: lifetime lookup statistics.
    """

    def __init__(self, config: Optional[EngineConfig] = None):
        self.config = config or EngineConfig()
        self._entries: "OrderedDict[tuple, SteeringEntry]" = OrderedDict()
        self._lock = make_lock("SteeringCache._lock")
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def entry_for(
        self, corrected: CorrectedChannels, grid: Grid2D
    ) -> SteeringEntry:
        """The (possibly freshly built) entry for a fix's geometry.

        Thread-safety: cache-miss builds happen under the cache lock;
        concurrent workers asking for the same geometry block until the
        first build lands, then all share the one (immutable) entry.
        """
        key = steering_cache_key(
            grid,
            corrected.anchors,
            corrected.master_index,
            corrected.anchor_baselines_m,
            corrected.frequencies_hz,
        )
        observer = get_observer()
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                if observer.enabled:
                    observer.metrics.counter("engine.cache_hits").inc()
                return entry
            self.misses += 1
            if observer.enabled:
                observer.metrics.counter("engine.cache_misses").inc()
            entry = build_steering_entry(
                grid,
                corrected.anchors,
                corrected.master_index,
                corrected.anchor_baselines_m,
                corrected.frequencies_hz,
            )
            self._entries[key] = entry
            while len(self._entries) > self.config.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
                if observer.enabled:
                    observer.metrics.counter("engine.cache_evictions").inc()
            if observer.enabled:
                observer.metrics.histogram(
                    "engine.build_s", LATENCY_BUCKETS_S
                ).observe(entry.build_seconds)
            return entry

    def seed(self, key: tuple, entry: SteeringEntry) -> None:
        """Pre-insert an externally built entry under its cache key.

        Used by the process-pool backend: each worker's pool
        initializer receives the parent's built entry and seeds it
        here, so its first ``entry_for`` lookup is a warm hit instead of
        a rebuild.  The key must come from
        :func:`steering_cache_key` over the same geometry the entry was
        built for -- the cache trusts the caller on that pairing.

        Thread-safety: lock-protected like every other cache operation.
        """
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.config.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    @property
    def nbytes(self) -> int:
        """Memory held by all cached steering entries."""
        with self._lock:
            return sum(e.nbytes for e in self._entries.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop every cached entry (statistics are kept)."""
        with self._lock:
            self._entries.clear()

    def info(self) -> dict:
        """Plain-data cache statistics for reports and benchmarks.

        The whole snapshot (entries *and* counters) is taken under the
        lock so the numbers are mutually consistent -- reading the
        counters lock-free could pair a post-eviction entry count with a
        pre-eviction counter.
        """
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": sum(e.nbytes for e in self._entries.values()),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "max_entries": self.config.max_entries,
            }
