"""O-REJ — rejection sampling with a user-supplied bound p* (§2.3, [65]).

No initialization phase: the user's ``MaxWeight`` provides p* without
scanning E_v. The crucial property for dynamic RW (Node2Vec) is that each
attempt probes the weight of *one* candidate edge instead of gathering all
of E_v — the probe callback receives (flat CSR edge index, walker row) and
returns that single transition weight.

This module holds the one rejection attempt loop, in a scalar and a batch
form: REJ (:mod:`repro.sampling.rej`) generates through it with a probe
that reads its initialized weights. Attempt a uses draws (2a, 2a+1); a
walker that misses ``base.MAX_ATTEMPTS`` times (zero-mass or adversarial
distributions) is treated as dead (-1). Both forms use the same draws and
cap, so engines stay bitwise-equal.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core import rng
from repro.sampling.base import MAX_ATTEMPTS


def generate_scalar(
    d: int,
    start: int,
    pstar: float,
    probe: Callable[[np.ndarray, np.ndarray], np.ndarray],
    seed: int,
    qid: int,
    step: int,
    walker_row: int = 0,
    probed: list | None = None,
) -> int:
    """Dart-throwing with user bound; probes one edge weight per attempt.
    Each attempt's candidate is appended to ``probed`` when one is given."""
    if d == 0 or pstar <= 0.0:
        return -1
    for a in range(MAX_ATTEMPTS):
        x = rng.randint_scalar(seed, qid, step, 2 * a, d)
        if probed is not None:
            probed.append(x)
        y = rng.uniform_scalar(seed, qid, step, 2 * a + 1) * pstar
        w = float(probe(np.array([start + x]), np.array([walker_row]))[0])
        if y < w:
            return x
    return -1


def generate_batch(
    starts: np.ndarray,
    counts: np.ndarray,
    pstar: np.ndarray,
    probe: Callable[[np.ndarray, np.ndarray], np.ndarray],
    seed: int,
    qids: np.ndarray,
    steps: np.ndarray,
) -> np.ndarray:
    """Vectorized O-REJ over a ring; probe is called once per attempt wave."""
    n = len(qids)
    sel = np.full(n, -1, dtype=np.int64)
    active = (counts > 0) & (pstar > 0)
    for a in range(MAX_ATTEMPTS):
        if not active.any():
            break
        ids = np.flatnonzero(active)
        x = rng.randint(seed, qids[ids], steps[ids], 2 * a, counts[ids])
        y = rng.uniform(seed, qids[ids], steps[ids], 2 * a + 1) * pstar[ids]
        w = probe(starts[ids] + x, ids)
        hit = y < w
        sel[ids[hit]] = x[hit]
        active[ids[hit]] = False
    return sel
