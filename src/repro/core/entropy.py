"""Spatial entropy of likelihood neighbourhoods (Section 5.4).

The paper's second multipath cue: direct-path peaks are *peaky* while
reflections, coming off non-ideal scattering reflectors, are *spread out*.
It quantifies this with the "entropy" of the likelihood around each peak
and states that a flat (spread-out) neighbourhood has *low* entropy --
the opposite sign of Shannon's convention.  We therefore implement the
quantity as **negentropy** (peakiness):

    H = log(N) - shannon_entropy(normalised neighbourhood)

which is 0 for a perfectly flat window and log(N) for a delta -- high H
means "looks like a direct path", matching both the paper's prose and the
positive weight ``b`` in Eq. 18.  (DESIGN.md records this convention
choice; an ablation bench flips the sign to show it matters.)
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.analysis.contracts import shaped
from repro.constants import BLOC_ENTROPY_WINDOW
from repro.errors import ConfigurationError
from repro.utils.gridmap import Grid2D


def shannon_entropy(values: np.ndarray) -> float:
    """Shannon entropy [nats] of a non-negative array treated as a pmf."""
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise ConfigurationError("entropy of an empty window is undefined")
    if np.any(arr < 0):
        raise ConfigurationError("likelihood values must be non-negative")
    total = arr.sum()
    if total <= 0:
        # An all-zero window carries no information: maximally flat.
        return float(np.log(arr.size))
    p = arr / total
    nonzero = p[p > 0]
    return float(-np.sum(nonzero * np.log(nonzero)))


def negentropy(values: np.ndarray) -> float:
    """Peakiness ``log(N) - shannon_entropy`` of a window, in [0, log N]."""
    arr = np.asarray(values, dtype=float)
    return float(np.log(arr.size)) - shannon_entropy(arr)


def _check_window(window: int) -> None:
    if window < 3 or window % 2 == 0:
        raise ConfigurationError("entropy window must be odd and >= 3")


def _row_sums(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``values[p][mask[p]].sum()`` for every row ``p``, bit for bit.

    The masked entries are compacted with the rows sorted by count, so
    rows of one count are adjacent and share one ``(rows, count)``
    reduction, which adds in the order of each compacted row's 1-D sum.
    """
    counts = np.count_nonzero(mask, axis=1)
    order = np.argsort(counts, kind="stable")
    compact = values[order][mask[order]]
    sums = np.empty(len(values))
    start = row = 0
    for count, group in itertools.groupby(counts[order].tolist()):
        rows = len(list(group))
        block = compact[start:start + rows * count].reshape(rows, count)
        sums[row:row + rows] = block.sum(axis=1)
        start, row = start + rows * count, row + rows
    out = np.empty_like(sums)
    out[order] = sums
    return out


@shaped(values=("H", "W"), rows=("P",), cols=("P",))
def neighborhood_negentropy(
    values: np.ndarray,
    grid: Grid2D,
    rows: np.ndarray,
    cols: np.ndarray,
    window: int = BLOC_ENTROPY_WINDOW,
) -> np.ndarray:
    """The paper's ``H`` for P peaks from one stacked window, ``(P,)``.

    Each ``window x window`` neighbourhood is clipped at the map borders
    as :meth:`Grid2D.window` clips it and reduced in the order
    :func:`negentropy` reduces it, so every ``H`` equals the per-peak
    value bit for bit.
    """
    _check_window(window)
    arr = np.asarray(values, dtype=float)
    if arr.shape != grid.shape:
        raise ConfigurationError(
            f"values shape {arr.shape} does not match grid {grid.shape}"
        )
    offsets = np.arange(window) - window // 2
    r = np.asarray(rows)[:, None] + offsets  # (P, w)
    c = np.asarray(cols)[:, None] + offsets
    on_r = np.minimum(np.maximum(r, 0), grid.num_y - 1)
    on_c = np.minimum(np.maximum(c, 0), grid.num_x - 1)
    # An off-map offset re-reads the window's own border cell, which
    # ``inside`` then leaves out of every sum.
    inside = ((on_r == r)[:, :, None] & (on_c == c)[:, None, :]).reshape(
        len(r), -1
    )
    stack = arr[on_r[:, :, None], on_c[:, None, :]].reshape(len(r), -1)
    if np.any(stack < 0):
        raise ConfigurationError("likelihood values must be non-negative")
    total = _row_sums(stack, inside)
    # An all-zero window carries no information: maximally flat, H = 0.
    empty = total <= 0
    p = stack / np.where(empty, 1.0, total)[:, None]
    mass = inside & (p > 0)
    plogp = p * np.log(p, out=np.zeros_like(p), where=mass)
    return np.where(
        empty, 0.0, np.log(inside.sum(axis=1)) + _row_sums(plogp, mass)
    )
