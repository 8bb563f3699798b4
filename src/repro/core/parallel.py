"""Shared-memory publication of steering entries for process pools.

A steering entry (6.7 MB at the sweep's 0.06 m grid: the range-profile
sample matrix plus one sparse gather per anchor) is *read-only after
build* -- exactly the shape of data ``multiprocessing.shared_memory``
exists for.  This module is the one place in the repository that
constructs ``SharedMemory`` segments (enforced by lint rule RPR011): the
evaluation parent publishes a built
:class:`~repro.core.engine.SteeringEntry` into one segment, ships a
small picklable :class:`SharedSteeringHandle` to each worker process,
and every worker attaches zero-copy numpy views onto the same physical
pages instead of rebuilding (or copy-on-write duplicating) the cache.

Ownership rules:

* The **publishing process owns the segment**.  The owner's
  :class:`SharedSteeringSegment` is refcounted (``retain``/``close``);
  the segment is unlinked from ``/dev/shm`` when the last owner-side
  reference closes.  Sweeps close in a ``finally``, so a worker crash
  mid-sweep still unlinks -- the kernel frees the pages once the dead
  worker's mappings are gone.
* **Workers never unlink.**  :func:`attach_steering` detaches the
  attachment from Python's ``resource_tracker`` (which would otherwise
  unlink the segment when the *first* worker exits) and its ``close``
  only unmaps.
* All views are marked read-only; Eq. 17 consumers only ever multiply
  against them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy import sparse

from repro.analysis.runtime_locks import guarded_by, make_lock
from repro.core.engine import SteeringEntry
from repro.errors import ConfigurationError
from repro.utils.gridmap import Grid2D

#: Live owner-side segments of this process: name -> owning pid.
#: Guarded by _SEGMENTS_LOCK; introspected by tests via
#: :func:`active_segments` to prove sweeps leak nothing.
_SEGMENTS: Dict[str, int] = {}  # guarded-by: _SEGMENTS_LOCK
_SEGMENTS_LOCK = make_lock("parallel._SEGMENTS_LOCK")


#: Byte alignment of every packed array inside a segment.
_ALIGN = 16


def _aligned(nbytes: int) -> int:
    return -(-nbytes // _ALIGN) * _ALIGN


@dataclass(frozen=True)
class SharedSteeringHandle:
    """Everything a worker needs to attach a published steering entry.

    A handle is a small picklable value object: segment name, the
    :func:`~repro.core.engine.steering_cache_key` the entry belongs
    under, the grid/band-plan scalars to reconstruct metadata, and the
    layout of the packed arrays.

    Attributes:
        name: shared-memory segment name (attach-by-name).
        cache_key: steering-cache key of the published geometry.
        grid_params: ``(x_min, x_max, y_min, y_max, resolution)``.
        frequencies_hz: band plan of the entry.
        sample_step_m: range-profile sample step of the entry.
        layout: ``(shape, dtype)`` of each packed array, in packing
            order: the profile samples, then each anchor's gather as
            CSR ``data``, ``indices``, ``indptr``.
        gather_shape: ``(grid points, J * L)`` of every gather.
        build_seconds: build cost of the original entry (carried along
            so worker-side cache stats stay meaningful).
    """

    name: str
    cache_key: tuple
    grid_params: Tuple[float, float, float, float, float]
    frequencies_hz: Tuple[float, ...]
    sample_step_m: float
    layout: Tuple[Tuple[Tuple[int, ...], str], ...]
    gather_shape: Tuple[int, int]
    build_seconds: float

    @property
    def nbytes(self) -> int:
        """Total payload size of the segment (alignment included)."""
        return sum(
            _aligned(int(np.prod(shape)) * np.dtype(dtype).itemsize)
            for shape, dtype in self.layout
        )


def _entry_arrays(entry: SteeringEntry) -> List[np.ndarray]:
    """Every cached array of an entry, in packing order."""
    arrays = [entry.samples]
    for gather in entry.gathers:
        arrays.extend((gather.data, gather.indices, gather.indptr))
    return arrays


def _entry_from_buffer(
    handle: SharedSteeringHandle, shm: shared_memory.SharedMemory
) -> SteeringEntry:
    """Zero-copy, read-only :class:`SteeringEntry` views over a segment.

    The returned entry carries a reference to the ``SharedMemory``
    object (``_shm_keepalive``): numpy views do not pin the mapping, so
    without it a garbage-collected ``SharedMemory`` would munmap the
    pages under the live views -- a segfault, not an exception.
    """
    arrays = []
    offset = 0
    for shape, dtype in handle.layout:
        view = np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=offset)
        view.flags.writeable = False
        arrays.append(view)
        offset += _aligned(view.nbytes)
    gathers = [
        sparse.csr_matrix(
            tuple(arrays[s:s + 3]), shape=handle.gather_shape, copy=False
        )
        for s in range(1, len(arrays), 3)
    ]
    entry = SteeringEntry(
        grid=Grid2D(*handle.grid_params),
        frequencies_hz=np.asarray(handle.frequencies_hz, dtype=float),
        sample_step_m=handle.sample_step_m,
        samples=arrays[0],
        gathers=gathers,
        build_seconds=handle.build_seconds,
    )
    entry._shm_keepalive = shm
    return entry


def _release_shm(shm: shared_memory.SharedMemory) -> None:
    """Unmap a segment, tolerating still-live exported views.

    ``SharedMemory.close`` raises ``BufferError`` while any numpy view
    of the buffer is alive; the views die with the process (or the
    caller's last reference), so a failed unmap here is deferred, not
    leaked -- ``unlink`` works by name regardless.
    """
    try:
        shm.close()
    except BufferError:
        pass


class AttachedSteering:
    """A worker-side attachment to a published steering segment.

    Holds the read-only entry views plus the underlying mapping.  The
    attachment never unlinks -- only the publishing owner does -- and is
    deregistered from the resource tracker so a worker exit cannot tear
    the segment out from under its siblings.
    """

    def __init__(
        self,
        handle: SharedSteeringHandle,
        shm: shared_memory.SharedMemory,
    ):
        self.handle = handle
        self._shm: Optional[shared_memory.SharedMemory] = shm
        self.entry: Optional[SteeringEntry] = _entry_from_buffer(
            handle, shm
        )

    def close(self) -> None:
        """Drop the entry views and unmap (idempotent; never unlinks)."""
        self.entry = None
        if self._shm is not None:
            _release_shm(self._shm)
            self._shm = None


@guarded_by("_lock", "_refs", "_shm")
class SharedSteeringSegment:
    """Owner side of one published steering segment (refcounted).

    Created by :func:`publish_steering_entry` with one reference held by
    the publisher.  ``retain()`` adds owner-side references (e.g. two
    overlapping sweeps sharing one publication); ``close()`` releases
    one, and the last release unmaps and **unlinks** the segment.

    Thread-safety: the refcount is lock-protected; ``entry()`` returns
    read-only views and may be called from any thread while the segment
    is live.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        handle: SharedSteeringHandle,
    ):
        self._shm: Optional[shared_memory.SharedMemory] = shm
        self.handle = handle
        self._refs = 1
        self._lock = make_lock("SharedSteeringSegment._lock")
        with _SEGMENTS_LOCK:
            _SEGMENTS[handle.name] = os.getpid()

    def retain(self) -> "SharedSteeringSegment":
        """Add one owner-side reference; returns self for chaining.

        Thread-safety: the refcount bump happens under the instance
        lock, so concurrent ``retain``/``close`` calls never race.
        """
        with self._lock:
            if self._shm is None:
                raise ConfigurationError(
                    f"steering segment {self.handle.name} already unlinked"
                )
            self._refs += 1
        return self

    def entry(self) -> SteeringEntry:
        """Read-only entry views over the owner's own mapping."""
        with self._lock:
            if self._shm is None:
                raise ConfigurationError(
                    f"steering segment {self.handle.name} already unlinked"
                )
            return _entry_from_buffer(self.handle, self._shm)

    def close(self) -> None:
        """Release one reference; the last release unlinks the segment.

        Idempotent once fully closed.  Thread-safety: refcount under the
        instance lock, the unlink itself outside it.
        """
        with self._lock:
            if self._shm is None:
                return
            self._refs -= 1
            if self._refs > 0:
                return
            shm = self._shm
            self._shm = None
        with _SEGMENTS_LOCK:
            _SEGMENTS.pop(self.handle.name, None)
        _release_shm(shm)
        try:
            shm.unlink()
        except FileNotFoundError:
            pass  # already gone (e.g. external cleanup); nothing to leak


def publish_steering_entry(
    entry: SteeringEntry, cache_key: tuple
) -> SharedSteeringSegment:
    """Publish a built steering entry into one shared-memory segment.

    Packs the profile samples and every anchor's CSR gather arrays
    contiguously into a fresh segment and
    returns the owning (refcounted) :class:`SharedSteeringSegment`; ship
    ``segment.handle`` to workers and :func:`attach_steering` there.
    """
    arrays = _entry_arrays(entry)
    grid = entry.grid
    handle_fields = dict(
        cache_key=cache_key,
        grid_params=(
            grid.x_min, grid.x_max, grid.y_min, grid.y_max, grid.resolution
        ),
        frequencies_hz=tuple(
            float(f) for f in np.asarray(entry.frequencies_hz)
        ),
        sample_step_m=float(entry.sample_step_m),
        layout=tuple((a.shape, a.dtype.str) for a in arrays),
        gather_shape=entry.gathers[0].shape,
        build_seconds=float(entry.build_seconds),
    )
    total = sum(_aligned(a.nbytes) for a in arrays)
    shm = shared_memory.SharedMemory(create=True, size=max(total, 1))
    try:
        offset = 0
        for array in arrays:
            view = np.ndarray(
                array.shape, dtype=array.dtype, buffer=shm.buf, offset=offset
            )
            view[...] = array
            offset += _aligned(view.nbytes)
            del view  # writable views must not outlive publication
        handle = SharedSteeringHandle(name=shm.name, **handle_fields)
    except BaseException:  # repro: noqa[RPR008] -- cleanup-and-reraise; even KeyboardInterrupt must not leak the segment
        # A failed fill must not leak the freshly created segment: no
        # SharedSteeringSegment owns it yet, so nothing else ever would
        # close or unlink it (RPR015's exception-path case).
        _release_shm(shm)
        try:
            shm.unlink()
        except FileNotFoundError:
            pass
        raise
    return SharedSteeringSegment(shm, handle)


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach a segment by name without resource-tracker registration.

    Python 3.11 registers every attach with the resource tracker, which
    then *unlinks* the segment when any single attaching process exits
    -- only the owner may unlink (3.13's ``track=False`` is the real
    fix).  Registering and immediately unregistering is not enough
    either: the tracker cache is one set shared across a fork tree, so
    a second attacher's unregister would erase the *owner's* create-time
    registration and a third's would crash the tracker with a KeyError.
    Suppressing the registration call for the duration of the
    constructor sidesteps both.

    Thread-safety: the patch window is serialized by a module lock;
    concurrent attaches queue, and only ``register`` calls made from
    *this* constructor are suppressed in practice (attaches happen in
    single-threaded worker initialisation).
    """
    with _TRACKER_PATCH_LOCK:
        original = resource_tracker.register
        resource_tracker.register = _register_noop
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def _register_noop(name: str, rtype: str) -> None:
    """Stand-in for ``resource_tracker.register`` during attach."""


_TRACKER_PATCH_LOCK = make_lock("parallel._TRACKER_PATCH_LOCK")


def attach_steering(handle: SharedSteeringHandle) -> AttachedSteering:
    """Attach a published segment by name (worker side).

    The attachment is never registered with the resource tracker (see
    :func:`_attach_untracked`): exit-time cleanup belongs to the owning
    process alone, whose create-time registration stays intact.

    Raises:
        ConfigurationError: the segment no longer exists (published
            entry already unlinked).
    """
    try:
        shm = _attach_untracked(handle.name)
    except FileNotFoundError as exc:
        raise ConfigurationError(
            f"steering segment {handle.name} does not exist "
            f"(already unlinked?)"
        ) from exc
    return AttachedSteering(handle, shm)


def active_segments() -> Tuple[str, ...]:
    """Names of segments this process currently owns (for tests/debug)."""
    with _SEGMENTS_LOCK:
        return tuple(sorted(_SEGMENTS))
