"""Rejection sampling (§2.3): dart-throwing against max probability p*.

Initialization finds p* = max weight (O(d)); generation repeats
(x ~ U[0, d), y ~ U[0, p*)) until y < p_x. Expected attempts
E = d·p* / Σp. The attempt loop is the SDG cycle (Table 4, right column).

REJ differs from O-REJ only in where p* comes from, so generation *is*
O-REJ's attempt loop (:mod:`repro.sampling.orej`) with the walker's
segment maximum as p* and a probe that reads the initialized weights: one
loop, one attempt cap and one give-up rule for both methods.
"""
from __future__ import annotations

import numpy as np

from repro.sampling import orej


def init(w: np.ndarray, counts: np.ndarray) -> dict:
    """Initialization phase over ragged segments: each segment's maximum
    ``pmax`` (0 for an empty one), next to the ``weights`` it bounds."""
    pmax = np.zeros(len(counts))
    nz = counts > 0
    if len(w):
        ends = np.cumsum(counts)
        pmax[nz] = np.maximum.reduceat(w, (ends - counts)[nz])
    return {"pmax": pmax, "weights": w}


def _loop_tab(tab: dict, pstar) -> dict:
    """O-REJ's tables for REJ: bound ``pstar``, probe of REJ's weights."""
    w = tab["weights"]
    return {"pstar": pstar, "probe": lambda flat_idx, rows: w[flat_idx]}


def generate_scalar(tab, s, d, row, seed, qid, step, probe=None, probed=None) -> int:
    """O-REJ's scalar loop with the segment's maximum as the bound. Each
    attempt's candidate is appended to ``probed`` when one is given."""
    return orej.generate_scalar(
        _loop_tab(tab, float(tab["pmax"][row])), s, d, row, seed, qid, step, probed=probed
    )


def generate_batch(tab, starts, counts, rows, seed, qids, steps, probe=None) -> np.ndarray:
    """O-REJ's batch loop over a ring, each walker bounded by its segment's maximum."""
    return orej.generate_batch(_loop_tab(tab, tab["pmax"][rows]), starts, counts, rows,
                               seed, qids, steps)
