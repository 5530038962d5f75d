"""Blocked, seeded sampling shared by the Monte Carlo oracle and the SDE ensemble.

Reproducibility: n draws are split into fixed-size blocks, block i drawing
from an independent generator seeded by (seed, i), and the per-block sums
are added with exactly rounded summation.  A result therefore depends only
on (seed, n, block) and not on how many workers run the blocks or in which
order they finish.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import _count


def block_rng(seed: int, i: int) -> np.random.Generator:
    """The generator of block i: one independent stream per (seed, i)."""
    return np.random.default_rng([seed, i])


def run_blocks(n: int, block_size: int, seed: int, workers: int,
               fn) -> list[float]:
    """Element-wise sum of fn(rng, size) over the fixed blocks of n draws.

    fn returns a 1-D float vector of the same length for every block.
    block_size and workers must be integers of at least 1.
    """
    _count(1, block_size=block_size, workers=workers)
    full, rest = divmod(n, block_size)
    sizes = [block_size] * full + ([rest] if rest else [])

    def one(i):
        return fn(block_rng(seed, i), sizes[i])

    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(one, range(len(sizes))))
    # fsum is exactly rounded, so the sums do not depend on the block order
    return [math.fsum(col) for col in np.stack(parts, axis=1)]
