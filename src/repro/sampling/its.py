"""Inverse transformation sampling (§2.3).

Initialization computes the cumulative distribution (O(d)); generation
draws one uniform real and binary-searches the CDF (O(log d)). The batch
generation's vectorized binary search is the SDG "cycle stage" — each loop
iteration touches one cache line per walker, which is exactly what the
step-interleaved trace executor models.
"""
from __future__ import annotations

import numpy as np

from repro.core import rng
from repro.sampling.base import segment_cumsum, segment_search


def init(w: np.ndarray, counts: np.ndarray) -> dict:
    """Initialization phase over ragged segments: each segment's inclusive
    cumulative sums ``cum`` (the CDF, unnormalized) and its ``totals``."""
    cum, totals = segment_cumsum(w, counts)
    return {"cum": cum, "totals": totals}


def generate_scalar(tab, s, d, row, key, probe, probed) -> int:
    """Pick the smallest i with x < cum[i] for x ~ U[0, total).

    Returns -1 when the distribution has zero total mass (dead walker —
    e.g. MetaPath with no label-matching edge).
    """
    cum = tab["cum"][s : s + d]
    total = float(cum[-1]) if d else 0.0
    if total <= 0.0:
        return -1
    x = rng.uniform_scalar(key, 0) * total
    i = int(np.searchsorted(cum, x, side="right"))
    return min(i, d - 1)


def generate_batch(tab, starts, counts, rows, keys, probe, attempt) -> np.ndarray:
    """Vectorized generation over a ring: one binary search per walker
    over its CDF segment. Returns local indices; -1 for zero-mass segments."""
    totals = tab["totals"][rows]
    x = rng.uniform(keys, 0) * totals
    idx = segment_search(tab["cum"], starts, starts + counts, x, "right")
    local = np.minimum(idx - starts, np.maximum(counts - 1, 0)).astype(np.int64)
    return np.where((totals > 0) & (counts > 0), local, -1)
