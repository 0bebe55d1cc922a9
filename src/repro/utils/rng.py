"""Deterministic RNG derivation.

All stochastic behaviour in the package flows through ``numpy.random.Generator``
objects derived from explicit integer seeds; nothing touches global RNG state.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_rng(seed: int, *labels: object) -> np.random.Generator:
    """Derive an independent generator from ``seed`` and a label path.

    The labels are hashed so that e.g. ``derive_rng(0, "source", 3)`` and
    ``derive_rng(0, "source", 4)`` are statistically independent streams while
    remaining fully reproducible.
    """
    digest = hashlib.sha256()
    digest.update(str(int(seed)).encode())
    for label in labels:
        digest.update(b"/")
        digest.update(str(label).encode())
    derived = int.from_bytes(digest.digest()[:8], "little")
    return np.random.default_rng(derived)
