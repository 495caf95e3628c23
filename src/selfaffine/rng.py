"""Seeding and sub-stream derivation.

The generator algorithm is pinned to numpy's PCG64 so that a given seed yields
the same draw sequence across builds. Replication sub-streams are derived by
mixing (master_seed, stream_index) through SeedSequence's integer hash, which
keeps streams statistically independent without coordination between workers.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np


def rng_from_seed(seed: int) -> np.random.Generator:
    """Generator for a single 64-bit seed."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed))))


@lru_cache(maxsize=1 << 14)  # a pure function, asked for the same seeds by several null tables
def derive_seed(master_seed: int, index: int) -> int:
    """Pure-function sub-seed for replication `index` under `master_seed`."""
    ss = np.random.SeedSequence([int(master_seed), int(index)])
    return int(ss.generate_state(1, np.uint64)[0])
