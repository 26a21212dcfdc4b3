"""Rejection sampling (§2.3): dart-throwing against max probability p*.

Initialization finds p* = max weight (O(d)); generation repeats
(x ~ U[0, d), y ~ U[0, p*)) until y < p_x. Expected attempts
E = d·p* / Σp. The attempt loop is the SDG cycle (Table 4, right column).

A capped attempt count (``base.MAX_ATTEMPTS``, shared with O-REJ) guards
zero-mass or adversarial distributions; a walker that exhausts it is
treated as dead (-1). The cap is shared by the scalar and batch forms so
engines stay bitwise-equal.
"""
from __future__ import annotations

import numpy as np

from repro.core import rng
from repro.sampling.base import MAX_ATTEMPTS


def init(weights: np.ndarray) -> float:
    """Initialization phase: p* = max weight."""
    return float(weights.max()) if len(weights) else 0.0


def generate_scalar(
    weights: np.ndarray, pmax: float, seed: int, qid: int, step: int,
    probed: list | None = None,
) -> int:
    """Throw darts until hit; attempt a uses draws (2a, 2a+1). Each
    attempt's candidate is appended to ``probed`` when one is given."""
    d = len(weights)
    if d == 0 or pmax <= 0.0:
        return -1
    for a in range(MAX_ATTEMPTS):
        x = rng.randint_scalar(seed, qid, step, 2 * a, d)
        if probed is not None:
            probed.append(x)
        y = rng.uniform_scalar(seed, qid, step, 2 * a + 1) * pmax
        if y < weights[x]:
            return x
    return -1


def generate_batch(
    weights_flat: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    pmax: np.ndarray,
    seed: int,
    qids: np.ndarray,
    steps: np.ndarray,
) -> np.ndarray:
    """Vectorized rejection loop over a ring; active walkers retry together.

    A walker's a-th attempt uses the same draw indices as the scalar form,
    so accepted edges are identical.
    """
    n = len(qids)
    sel = np.full(n, -1, dtype=np.int64)
    alive = (counts > 0) & (pmax > 0)
    active = alive.copy()
    for a in range(MAX_ATTEMPTS):
        if not active.any():
            break
        ids = np.flatnonzero(active)
        x = rng.randint(seed, qids[ids], steps[ids], 2 * a, counts[ids])
        y = rng.uniform(seed, qids[ids], steps[ids], 2 * a + 1) * pmax[ids]
        hit = y < weights_flat[starts[ids] + x]
        sel[ids[hit]] = x[hit]
        active[ids[hit]] = False
    return sel
