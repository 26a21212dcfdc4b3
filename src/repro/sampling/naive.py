"""NAIVE sampling (§2.3): uniform choice over E_v, no initialization.

Only valid for unbiased RW. Generation is one integer draw; O(1) time and
space. The walker's tables are not read.
"""
from __future__ import annotations

import numpy as np

from repro.core import rng


def generate_scalar(tab, s, d, row, key, probe, probed) -> int:
    """Pick a uniform local edge index in [0, d) (-1 when d == 0)."""
    return rng.randint_scalar(key, 0, d) if d else -1


def generate_batch(tab, starts, counts, rows, keys, probe, attempt) -> np.ndarray:
    """Vectorized generation for a ring of walkers (-1 on an empty segment)."""
    return np.where(counts > 0, rng.randint(keys, 0, counts), -1)
