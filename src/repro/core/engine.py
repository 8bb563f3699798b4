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
* **a sparse gather per anchor**: a CSR matrix with ``2 * J`` non-zeros
  per grid point holding the linear-interpolation weights of the two
  profile samples around each ``d_ij(x)``, with the exact carrier
  ``exp(1j * k_c * d_ij(x))`` folded in.

A warm fix is one small dense product plus one sparse matvec per
anchor.  The method works for any band plan: nothing assumes a lattice.

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
from typing import List, Optional, Sequence, Tuple

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

    The key is a nested tuple of plain floats/ints, so it is picklable:
    the process backend (:mod:`repro.sim.procpool`) hands it to worker
    processes together with the parent-built entry, and workers seed
    their local caches under the very same key (see
    :meth:`SteeringCache.seed`).
    """
    anchor_signature = tuple(
        tuple(float(v) for v in anchor.antenna_array().ravel())
        for anchor in anchors
    )
    return (
        (grid.x_min, grid.x_max, grid.y_min, grid.y_max, grid.resolution),
        anchor_signature,
        int(master_index),
        tuple(float(b) for b in baselines_m),
        tuple(float(f) for f in frequencies_hz),
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
        gathers: per anchor, a CSR matrix of shape ``(grid.size, J * L)``
            mapping that anchor's stacked antenna profiles to its Eq. 17
            sum at every grid point (carrier folded in).
        build_seconds: wall-clock cost of the one-time build.
    """

    grid: Grid2D
    frequencies_hz: np.ndarray
    sample_step_m: float
    samples: np.ndarray
    gathers: List[sparse.csr_matrix]
    build_seconds: float

    @property
    def nbytes(self) -> int:
        """Memory held by every cached array of the entry."""
        return self.samples.nbytes + sum(
            g.data.nbytes + g.indices.nbytes + g.indptr.nbytes
            for g in self.gathers
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

    def _likelihoods(
        self, anchors: Sequence[int], alpha: np.ndarray
    ) -> np.ndarray:
        """The shared kernel: ``(B, A, J, K)`` channels -> ``(B, A, N)``.

        One dense product yields every (fix, anchor, antenna) profile;
        each anchor's gather then serves all B fixes as B columns.
        """
        b, a, j, k = alpha.shape
        profiles = (alpha.reshape(-1, k) @ self.samples.T).reshape(b, a, -1)
        out = np.empty((b, a, self.grid.size))
        for pos, anchor in enumerate(anchors):
            out[:, pos] = np.abs(self.gathers[anchor] @ profiles[:, pos].T).T
        return out

    @shaped(alpha_batch=arr(("B", "I", "J", "K"), np.complexfloating))
    def likelihoods(self, alpha_batch: np.ndarray) -> np.ndarray:
        """Eq. 17 for every anchor of B fixes, shape ``(B, I, size)``.

        Thread-safety: read-only over the immutable cached arrays, safe
        to call concurrently from evaluation workers.
        """
        alpha = np.asarray(alpha_batch)
        return self._likelihoods(range(alpha.shape[1]), alpha)

    @shaped(alpha_anchor=arr(("J", "K"), np.complexfloating))
    def anchor_likelihood(
        self, anchor_index: int, alpha_anchor: np.ndarray
    ) -> np.ndarray:
        """Eq. 17 for one anchor of one fix, shape ``(size,)``."""
        alpha = np.asarray(alpha_anchor)
        return self._likelihoods((anchor_index,), alpha[None, None])[0, 0]

    @shaped(alpha_batch=arr(("B", "J", "K"), np.complexfloating))
    def anchor_likelihood_batch(
        self, anchor_index: int, alpha_batch: np.ndarray
    ) -> np.ndarray:
        """Eq. 17 for one anchor over B fixes, shape ``(B, size)``.

        Row ``b`` equals ``anchor_likelihood(anchor_index,
        alpha_batch[b])`` up to floating-point reordering inside BLAS.
        """
        alpha = np.asarray(alpha_batch)
        return self._likelihoods((anchor_index,), alpha[:, None])[:, 0]


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
    """One-time build of the range-profile samples and gathers.

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
    num_antennas = relative.shape[1]
    row_nnz = 2 * num_antennas
    offsets = (np.arange(num_antennas) * num_samples)[:, None, None]
    gathers = []
    for anchor_relative in relative:  # (J, N)
        position = (anchor_relative - low) / step
        left = np.clip(np.floor(position), 0, num_samples - 2)
        frac = (position - left)[..., None]
        carrier = np.exp(1j * centre * anchor_relative)[..., None]
        weights = np.concatenate([1.0 - frac, frac], axis=-1) * carrier
        columns = offsets + left[..., None] + np.arange(2)
        # Row-major by grid point: (J, N, 2) -> (N, J, 2).
        gathers.append(
            sparse.csr_matrix(
                (
                    weights.transpose(1, 0, 2).ravel(),
                    columns.transpose(1, 0, 2).ravel().astype(np.int32),
                    np.arange(
                        0, grid.size * row_nnz + 1, row_nnz, dtype=np.int32
                    ),
                ),
                shape=(grid.size, num_antennas * num_samples),
            )
        )
    return SteeringEntry(
        grid=grid,
        frequencies_hz=np.asarray(frequencies_hz, dtype=float).copy(),
        sample_step_m=step,
        samples=samples,
        gathers=gathers,
        build_seconds=time.perf_counter() - start,
    )


@guarded_by("_lock", "_entries", "hits", "misses", "evictions")
class SteeringCache:
    """Thread-safe LRU cache of :class:`SteeringEntry` objects.

    A :class:`~repro.core.localizer.BlocLocalizer` holds one of these
    across ``locate()`` calls, so a sweep over a dataset pays the
    geometry build once and every later fix runs on the cached profile
    samples and gathers alone.  The cache key covers the grid
    bounds/resolution, every antenna position, the master/baseline
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
