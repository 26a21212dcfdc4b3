"""Rejection sampling (§2.3): dart-throwing against max probability p*.

Initialization finds p* = max weight (O(d)); generation repeats
(x ~ U[0, d), y ~ U[0, p*)) until y < p_x. Expected attempts
E = d·p* / Σp. The attempt loop is the SDG cycle (Table 4, right column).

REJ differs from O-REJ only in where p* comes from, so generation *is*
O-REJ's attempt loop (:mod:`repro.sampling.orej`) with a probe that reads
the initialized weights: one loop, one attempt cap and one give-up rule
for both methods.
"""
from __future__ import annotations

import numpy as np

from repro.sampling import orej


def init(weights: np.ndarray) -> float:
    """Initialization phase: p* = max weight."""
    return float(weights.max()) if len(weights) else 0.0


def generate_scalar(
    weights: np.ndarray, pmax: float, seed: int, qid: int, step: int,
    probed: list | None = None,
) -> int:
    """O-REJ's scalar loop over ``weights`` with bound ``pmax``. Each
    attempt's candidate is appended to ``probed`` when one is given."""
    return orej.generate_scalar(
        len(weights), 0, pmax, lambda idx, rows: weights[idx], seed, qid, step, probed=probed
    )


def generate_batch(
    weights_flat: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    pmax: np.ndarray,
    seed: int,
    qids: np.ndarray,
    steps: np.ndarray,
) -> np.ndarray:
    """O-REJ's batch loop over a ring, probing ``weights_flat``."""
    return orej.generate_batch(
        starts, counts, pmax, lambda idx, rows: weights_flat[idx], seed, qids, steps
    )
