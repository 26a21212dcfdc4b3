"""Alias sampling (§2.3, Walker 1977 / Vose).

Initialization builds the probability table H and alias table A in O(d);
generation is O(1): one integer draw selects a bucket, one real draw picks
``A[x].first`` with probability ``H[x]`` else ``A[x].second``. The stage
split of the generation phase is Table 4 (left column).
"""
from __future__ import annotations

import numpy as np

from repro.core import rng


def init(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Initialization phase (Vose): returns (H, A_first, A_second).

    ``A_first[i] == i`` by construction; when a bucket has a single
    element, ``A_second[i]`` is set to i as well (H[i] == 1 so it is never
    selected) — this removes the null branch from the generation phase.
    Zero-weight elements are legal (their residual bucket mass is 0).
    """
    d = len(weights)
    if d == 0:
        z = np.zeros(0)
        return z, z.astype(np.int64), z.astype(np.int64)
    total = float(weights.sum())
    if total <= 0.0:
        raise ValueError("alias init requires positive total weight")
    p = np.asarray(weights, dtype=np.float64) * (d / total)
    prob = np.ones(d)
    a_first = np.arange(d, dtype=np.int64)
    a_second = np.arange(d, dtype=np.int64)
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
    return prob, a_first, a_second


def generate_scalar(
    tables: tuple[np.ndarray, np.ndarray, np.ndarray], seed: int, qid: int, step: int,
    probed: list | None = None,
) -> int:
    """O(1) generation: bucket draw + biased coin. The bucket is appended
    to ``probed`` when one is given."""
    prob, a_first, a_second = tables
    d = len(prob)
    if d == 0:
        return -1
    x = rng.randint_scalar(seed, qid, step, 0, d)
    if probed is not None:
        probed.append(x)
    y = rng.uniform_scalar(seed, qid, step, 1)
    return int(a_first[x] if y < prob[x] else a_second[x])


def generate_batch(
    prob_flat: np.ndarray,
    a1_flat: np.ndarray,
    a2_flat: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    seed: int,
    qids: np.ndarray,
    steps: np.ndarray,
) -> np.ndarray:
    """Vectorized generation over a ring (tables flattened per segment)."""
    x = rng.randint(seed, qids, steps, 0, counts)
    y = rng.uniform(seed, qids, steps, 1)
    slot = starts + x
    safe = np.where(counts > 0, slot, 0)
    local = np.where(y < prob_flat[safe], a1_flat[safe], a2_flat[safe])
    return np.where(counts > 0, local, -1).astype(np.int64)
