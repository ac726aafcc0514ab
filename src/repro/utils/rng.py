"""Deterministic random-number-generator plumbing.

Every stochastic component in the library (data generation,
initialization) takes an explicit ``numpy.random.Generator``; these helpers
create and split them reproducibly so that simulated experiments and real
multi-process runs are replayable bit-for-bit.
"""

from __future__ import annotations

import numpy as np


def new_rng(seed: int | None = 0) -> np.random.Generator:
    """Create a PCG64 generator from an integer seed (``None`` -> OS entropy)."""
    return np.random.default_rng(seed)


def spawn_rngs(seed: int, n: int) -> list[np.random.Generator]:
    """Split one seed into ``n`` statistically independent child generators.

    Uses ``SeedSequence.spawn`` so children never overlap regardless of how
    many draws each makes — the right tool for per-rank or per-epoch streams.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    ss = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in ss.spawn(n)]
