"""Alias sampling (§2.3, Walker 1977 / Vose).

Initialization builds the probability table H and alias table A in O(d);
generation is O(1): one integer draw selects a bucket, one real draw picks
``A[x].first`` with probability ``H[x]`` else ``A[x].second``. The stage
split of the generation phase is Table 4 (left column).
"""
from __future__ import annotations

import numpy as np

from repro.core import rng


def _vose(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vose's construction over one segment of positive total weight:
    returns (H, A_first, A_second).

    ``A_first[i] == i`` by construction; when a bucket has a single
    element, ``A_second[i]`` is set to i as well (H[i] == 1 so it is never
    selected) — this removes the null branch from the generation phase.
    Zero-weight elements are legal (their residual bucket mass is 0).
    """
    d = len(weights)
    # Python floats: the same doubles as NumPy's, without per-element overhead.
    p = (np.asarray(weights, dtype=np.float64) * (d / float(weights.sum()))).tolist()
    prob = [1.0] * d
    a_second = list(range(d))
    small = [i for i in range(d) if p[i] < 1.0]
    large = [i for i in range(d) if p[i] >= 1.0]
    while small and large:
        s = small.pop()
        l = large.pop()
        prob[s] = p[s]
        a_second[s] = l
        p[l] = (p[l] + p[s]) - 1.0
        (small if p[l] < 1.0 else large).append(l)
    # Residual buckets (float drift) keep prob == 1.
    for i in small:
        prob[i] = 1.0
    return np.array(prob), np.arange(d, dtype=np.int64), np.array(a_second, dtype=np.int64)


def init(w: np.ndarray, counts: np.ndarray) -> dict:
    """Initialization phase over ragged segments: H as ``prob`` and A as
    ``a1``/``a2``, local to each segment. For dynamic RW this is O(d)
    *per walker per step* with a Python-level constant, which is exactly
    the pathology the paper measures for BL on dynamic RW (Table 6 OOT
    cells). A zero-mass segment keeps alias entries of -1: generation
    picks no edge."""
    n_flat = len(w)
    prob = np.ones(n_flat)
    a1 = np.full(n_flat, -1, dtype=np.int64)
    a2 = np.full(n_flat, -1, dtype=np.int64)
    ends = np.cumsum(counts)
    starts = ends - counts
    ok = counts > 0
    if n_flat:
        ok[ok] = np.add.reduceat(w, starts[ok]) > 0.0
    for s, e in zip(starts[ok].tolist(), ends[ok].tolist()):
        prob[s:e], a1[s:e], a2[s:e] = _vose(w[s:e])
    return {"prob": prob, "a1": a1, "a2": a2}


def generate_scalar(tab, s, d, row, key, probe, probed) -> int:
    """O(1) generation: bucket draw + biased coin. The bucket is appended
    to ``probed`` when one is given."""
    a1 = tab["a1"]
    if d == 0 or a1[s] < 0:  # zero-mass segment: init left no alias entries
        return -1
    x = rng.randint_scalar(key, 0, d)
    if probed is not None:
        probed.append(x)
    y = rng.uniform_scalar(key, 1)
    slot = s + x
    return int(a1[slot] if y < tab["prob"][slot] else tab["a2"][slot])


def generate_batch(tab, starts, counts, rows, keys, probe, attempt) -> np.ndarray:
    """Vectorized generation over a ring: the bucket draw and the coin
    finish each walker's step key."""
    x = rng.randint(keys, 0, counts)
    y = rng.uniform(keys, 1)
    local = np.full(len(counts), -1, dtype=np.int64)
    ok = np.flatnonzero(counts > 0)  # an empty segment has no table slot
    slot = starts[ok] + x[ok]
    local[ok] = np.where(y[ok] < tab["prob"][slot], tab["a1"][slot], tab["a2"][slot])
    return local
