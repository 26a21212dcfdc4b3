"""Segmented-array primitives shared by the sampling methods.

The step-interleaving engine operates on a *ring* of k walkers at once,
each sitting on a different vertex with a different degree. Gather/Move
over the ring therefore work on ragged per-walker edge segments flattened
into one array with segment bookkeeping — the NumPy analogue of the
paper's interleaved per-walker stages.
"""
from __future__ import annotations

import numpy as np

MAX_ATTEMPTS = 512
"""Attempt cap of the one rejection loop (``orej``, which REJ generates
through): attempt a uses draws (2a, 2a+1), which stay below the
termination coin's ``model.TERM_DRAW``."""

PENDING = -2
"""Batch generation's code for a walker whose rejection attempt missed with
attempts left: it stays in the ring and makes its next attempt in the next
ring iteration (-1 is a walker that cannot move)."""


def flatten_segments(starts: np.ndarray, counts: np.ndarray):
    """Flatten the edge segments ``[starts[i], starts[i] + counts[i])``.

    Returns ``(flat_idx, seg_ids)``: the global CSR edge index of every
    candidate edge, and ``seg_ids[i]``, the walker owning candidate i.
    """
    seg_ids = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    # offsets within each segment: 0..count-1
    seg_starts_flat = np.repeat(np.cumsum(counts) - counts, counts)
    within = np.arange(len(seg_ids), dtype=np.int64) - seg_starts_flat
    flat_idx = np.repeat(starts, counts) + within
    return flat_idx, seg_ids


def segment_cumsum(values: np.ndarray, counts: np.ndarray):
    """Per-segment inclusive cumulative sum and per-segment totals."""
    if len(values) == 0:
        return values.copy(), np.zeros(len(counts))
    c = np.cumsum(values)
    # One walker's segment (a scalar engine's per-step ITS init): a plain prefix
    # sum; the segment bookkeeping below would cost more than the sum itself.
    if len(counts) == 1:
        return c, c[-1:]
    ends = np.cumsum(counts)
    seg_start_idx = ends - counts
    # value of c just before each segment start (0 for the first segment)
    base = np.where(seg_start_idx > 0, c[np.maximum(seg_start_idx - 1, 0)], 0.0)
    cum = c - np.repeat(base, counts)
    totals = np.where(counts > 0, c[np.maximum(ends - 1, 0)] - base, 0.0)
    return cum, totals


def segment_search(arr: np.ndarray, lo: np.ndarray, hi: np.ndarray, x: np.ndarray, side: str) -> np.ndarray:
    """Vectorized per-segment binary search: for each i,
    ``lo[i] + np.searchsorted(arr[lo[i]:hi[i]], x[i], side)`` over sorted
    segments. ITS's generation searches its CDF with ``"right"`` (first
    ``cum > x``); Node2Vec's ``dist(v', u)`` test searches N(u) with
    ``"left"``. Each loop iteration is one "cycle stage" visit in SDG terms.
    """
    right = side == "right"
    while True:
        active = lo < hi
        if not active.any():
            return lo
        mid = (lo + hi) >> 1
        a = arr[np.where(active, mid, 0)]
        go_right = active & ((a <= x) if right else (a < x))
        lo = np.where(go_right, mid + 1, lo)
        hi = np.where(active & ~go_right, mid, hi)
