"""Direct-path selection: the peak score of Eq. 18.

Given the candidate peaks of the combined likelihood map, BLoc scores each
as

    s_x = p_x * exp(b * H - a * sum_i d_i)

where ``p_x`` is the peak's likelihood, ``H`` the neighbourhood
(neg)entropy (peaky = direct-path-like, see :mod:`repro.core.entropy`),
and ``d_i`` the distance from the peak location to anchor ``i`` -- the
"shortest path" cue: a ghost peak produced by reflections implies longer
travelled paths than the true position does.  The paper uses
``a = 0.1, b = 0.05`` (Section 7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.constants import (
    BLOC_ENTROPY_WINDOW,
    BLOC_SCORE_DISTANCE_WEIGHT,
    BLOC_SCORE_ENTROPY_WEIGHT,
)
from repro.analysis.contracts import shaped
from repro.core.entropy import neighborhood_negentropy
from repro.core.peaks import Peak
from repro.errors import ConfigurationError, LocalizationError
from repro.obs import STANDARD_METRICS, get_observer
from repro.rf.antenna import Anchor
from repro.utils.gridmap import Grid2D


@dataclass(frozen=True)
class ScoredPeak:
    """A peak with its multipath-rejection score breakdown.

    Attributes:
        peak: the underlying likelihood peak.
        entropy: neighbourhood negentropy ``H``.
        distance_sum_m: ``sum_i d_i`` over anchors.
        score: the Eq. 18 score ``s_x``.
    """

    peak: Peak
    entropy: float
    distance_sum_m: float
    score: float


@dataclass(frozen=True)
class ScoringConfig:
    """Weights and window of the Eq. 18 score.

    Attributes:
        distance_weight: the paper's ``a`` (per metre).
        entropy_weight: the paper's ``b`` (per nat).
        entropy_window: neighbourhood side for ``H`` (paper: 7).
    """

    distance_weight: float = BLOC_SCORE_DISTANCE_WEIGHT
    entropy_weight: float = BLOC_SCORE_ENTROPY_WEIGHT
    entropy_window: int = BLOC_ENTROPY_WINDOW

    def __post_init__(self):
        if self.entropy_window < 3 or self.entropy_window % 2 == 0:
            raise ConfigurationError("entropy window must be odd and >= 3")


@shaped(values=("H", "W"))
def score_peaks(
    peaks: Sequence[Peak],
    values: np.ndarray,
    grid: Grid2D,
    anchors: Sequence[Anchor],
    config: ScoringConfig = ScoringConfig(),
) -> List[ScoredPeak]:
    """Score every peak with Eq. 18, strongest score first.

    All peaks are scored at once: ``H`` from one stacked window
    reduction (see :func:`neighborhood_negentropy`), ``sum_i d_i`` from
    one ``(P, A, 2)`` broadcast.  Ties keep the input order.
    """
    if not peaks:
        raise LocalizationError("no peaks to score")
    fields = np.array(
        [(p.row, p.col, p.value, p.position.x, p.position.y) for p in peaks]
    )
    entropy = neighborhood_negentropy(
        values,
        grid,
        fields[:, 0].astype(int),
        fields[:, 1].astype(int),
        config.entropy_window,
    )
    anchor_xy = np.array([tuple(a.position) for a in anchors])
    distance_sum = np.linalg.norm(
        anchor_xy[None] - fields[:, None, 3:], axis=2
    ).sum(axis=1)
    score = fields[:, 2] * np.exp(
        config.entropy_weight * entropy
        - config.distance_weight * distance_sum
    )
    order = np.argsort(-score, kind="stable")
    ranked = (a[order].tolist() for a in (entropy, distance_sum, score))
    scored = [
        ScoredPeak(peak=peaks[i], entropy=h, distance_sum_m=d, score=s)
        for i, h, d, s in zip(order.tolist(), *ranked)
    ]
    observer = get_observer()
    if observer.enabled and scored[0].score > 0:
        # Relative margin between the Eq. 18 winner and the runner-up: a
        # margin near 0 means the direct-path decision was a coin flip.
        margin = (
            (scored[0].score - scored[1].score) / scored[0].score
            if len(scored) > 1
            else 1.0
        )
        observer.metrics.histogram(
            "peaks.score_margin", STANDARD_METRICS["peaks.score_margin"][1]
        ).observe(margin)
    return scored
