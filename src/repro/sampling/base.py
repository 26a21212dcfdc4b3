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


def flatten_segments(indptr: np.ndarray, vs: np.ndarray):
    """Flatten the adjacency segments of vertices ``vs``.

    Returns ``(flat_idx, seg_ids, starts, counts)`` where ``flat_idx`` are
    global CSR edge indices of every candidate edge, ``seg_ids[i]`` is the
    walker owning candidate i, ``starts``/``counts`` delimit each walker's
    segment inside the flat arrays.
    """
    starts = indptr[vs]
    counts = (indptr[vs + 1] - starts).astype(np.int64)
    total = int(counts.sum())
    seg_ids = np.repeat(np.arange(len(vs), dtype=np.int64), counts)
    # offsets within each segment: 0..count-1
    seg_starts_flat = np.repeat(np.cumsum(counts) - counts, counts)
    within = np.arange(total, dtype=np.int64) - seg_starts_flat
    flat_idx = np.repeat(starts, counts) + within
    return flat_idx, seg_ids, starts, counts


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
    base = np.where(seg_start_idx == 0, 0.0, base)
    cum = c - np.repeat(base, counts)
    totals = np.where(counts > 0, c[np.maximum(ends - 1, 0)] - base, 0.0)
    return cum, totals


def bisect_first_greater(arr: np.ndarray, lo: np.ndarray, hi: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Vectorized per-segment binary search: first i in [lo, hi) with arr[i] > x.

    Returns hi where no such index exists. This is the generation phase of
    ITS (find smallest i with x < cum[i]) run for a whole ring at once —
    each loop iteration is one "cycle stage" visit in SDG terms.
    """
    lo = lo.astype(np.int64).copy()
    hi = hi.astype(np.int64).copy()
    while True:
        active = lo < hi
        if not active.any():
            return lo
        mid = (lo + hi) >> 1
        safe_mid = np.where(active, mid, 0)
        go_right = active & (arr[safe_mid] <= x)
        lo = np.where(go_right, mid + 1, lo)
        hi = np.where(active & ~go_right, mid, hi)


def bisect_contains(sorted_arr: np.ndarray, lo: np.ndarray, hi: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Vectorized membership test of x[i] in sorted_arr[lo[i]:hi[i]].

    Node2Vec's ``dist(v', u)`` check: binary search of each candidate
    destination in the (sorted) neighbor list of the previous vertex.
    """
    l = lo.astype(np.int64).copy()
    h = hi.astype(np.int64).copy()
    while True:
        active = l < h
        if not active.any():
            break
        mid = (l + h) >> 1
        safe_mid = np.where(active, mid, 0)
        go_right = active & (sorted_arr[safe_mid] < x)
        l = np.where(go_right, mid + 1, l)
        h = np.where(active & ~go_right, mid, h)
    found = (l < hi) & (l >= lo)
    safe = np.where(found, l, 0)
    return found & (sorted_arr[safe] == x)
