"""Deterministic random-number management.

Every stochastic component of the simulator (oscillator offsets, noise,
scatterer placement, scenario sampling) draws from a
``numpy.random.Generator``.  Experiments derive independent child generators
from one master seed so that each subsystem is reproducible in isolation:
changing how many draws the noise model makes must not perturb where the
scenario placed the tag.
"""

from __future__ import annotations

from typing import Union

import numpy as np

RngLike = Union[int, np.random.Generator, None]


def make_rng(seed: RngLike = None) -> np.random.Generator:
    """Coerce ``seed`` (int, Generator or None) into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_rng(parent: RngLike, *labels) -> np.random.Generator:
    """Derive an independent child generator from a parent seed and labels.

    The labels (strings or ints) name the consumer, e.g.
    ``derive_rng(seed, "oscillator", anchor_index)``.  The same parent seed
    and labels always yield the same stream, and different labels yield
    streams that are independent for all practical purposes.
    """
    if isinstance(parent, np.random.Generator):
        # Spawn a child keyed off the parent's bit generator state.
        base = int(parent.integers(0, 2**32))
    elif parent is None:
        base = int(np.random.default_rng().integers(0, 2**32))
    else:
        base = int(parent)
    material = [base] + [_label_to_int(label) for label in labels]
    return np.random.default_rng(np.random.SeedSequence(material))


def _label_to_int(label) -> int:
    if isinstance(label, (int, np.integer)):
        return int(label) & 0xFFFFFFFF
    # Stable string hash (Python's hash() is salted per-process).
    value = 2166136261
    for byte in str(label).encode("utf-8"):
        value = ((value ^ byte) * 16777619) & 0xFFFFFFFF
    return value
