"""Rejection sampling (§2.3): dart-throwing against max probability p*.

Initialization finds p* = max weight (O(d)); generation repeats
(x ~ U[0, d), y ~ U[0, p*)) until y < p_x. Expected attempts
E = d·p* / Σp. The attempt loop is the SDG cycle (Table 4, right column).

REJ differs from O-REJ only in where p* comes from, so this module holds
only the initialization: its tables are the plain arrays that O-REJ's
attempt loop (:mod:`repro.sampling.orej`) reads, and the registry's REJ
record generates through that loop — one loop, one attempt cap and one
give-up rule for both methods.
"""
from __future__ import annotations

import numpy as np


def init(w: np.ndarray, counts: np.ndarray) -> dict:
    """Initialization phase over ragged segments: each segment's maximum
    ``pstar`` (0 for an empty one), next to the ``weights`` it bounds."""
    pstar = np.zeros(len(counts))
    nz = counts > 0
    if len(w):
        ends = np.cumsum(counts)
        pstar[nz] = np.maximum.reduceat(w, (ends - counts)[nz])
    return {"pstar": pstar, "weights": w}
