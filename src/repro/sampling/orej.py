"""O-REJ — rejection sampling with a user-supplied bound p* (§2.3, [65]).

No initialization phase: the user's ``MaxWeight`` provides p* without
scanning E_v. The crucial property for dynamic RW (Node2Vec) is that each
attempt probes the weight of *one* candidate edge instead of gathering all
of E_v — the probe callback receives (flat CSR edge index, walker row) and
returns that single transition weight.

This module holds the one rejection attempt loop, in a scalar and a batch
form: REJ (:mod:`repro.sampling.rej`) generates through it with its
per-segment maxima as p* and a probe that reads its initialized weights.
Attempt a finishes the walker's step key with draws (2a, 2a+1); a
walker that misses ``base.MAX_ATTEMPTS`` times (zero-mass or adversarial
distributions) is treated as dead (-1). A probed weight above p* would
silently clip that edge's probability, so both forms raise ``ValueError``
instead. Both use the same draws and cap, so engines stay bitwise-equal.
"""
from __future__ import annotations

import numpy as np

from repro.core import rng
from repro.core.model import RandomWalkApp, WalkerType
from repro.graph.csr import CSRGraph
from repro.sampling import preprocess
from repro.sampling.base import MAX_ATTEMPTS


def tables(csr: CSRGraph, app: RandomWalkApp) -> dict:
    """The run's bound ``pstar``: the user's MaxWeight when given, else
    1.0 on unbiased RW and the graph's maximum edge weight otherwise (the
    exact bound of static RW). Static RW also gets a ``probe`` that reads
    the raw weights; dynamic RW probes the engine's Weight UDF."""
    if app.max_weight is not None:
        pstar = float(app.max_weight)
    elif app.walker_type is WalkerType.UNBIASED:
        pstar = 1.0
    else:
        pstar = float(csr.weight.max()) if csr.num_edges else 1.0
    if app.walker_type is WalkerType.DYNAMIC:
        return {"pstar": pstar}
    weights = preprocess.static_weights(csr, app.table_kind())
    return {"pstar": pstar, "probe": lambda flat_idx, rows: weights[flat_idx]}


def _bound_error(w, pstar) -> ValueError:
    return ValueError(
        f"O-REJ probed a transition weight {float(w)!r} above its bound p* = "
        f"{float(pstar)!r}; max_weight must be at least the largest weight (§2.3)"
    )


def generate_scalar(tab, s, d, row, key, probe, probed) -> int:
    """Dart-throwing against ``tab["pstar"]``; probes one edge weight per
    attempt through ``tab["probe"]`` (static RW, REJ) or the engine's
    ``probe`` (dynamic RW). Each attempt's candidate is appended to
    ``probed`` when one is given."""
    pstar = tab["pstar"]
    probe = tab.get("probe", probe)
    if d == 0 or pstar <= 0.0:
        return -1
    rows = np.zeros(1, dtype=np.int64)
    for a in range(MAX_ATTEMPTS):
        x = rng.randint_scalar(key, 2 * a, d)
        if probed is not None:
            probed.append(x)
        y = rng.uniform_scalar(key, 2 * a + 1) * pstar
        w = float(probe(np.array([s + x]), rows)[0])
        if w > pstar:
            raise _bound_error(w, pstar)
        if y < w:
            return x
    return -1


def generate_batch(tab, starts, counts, rows, keys, probe) -> np.ndarray:
    """Vectorized O-REJ over a ring; the probe is called once per attempt
    wave. ``tab["pstar"]`` is the run's bound or one per walker (REJ)."""
    pstar = np.broadcast_to(tab["pstar"], counts.shape)
    probe = tab.get("probe", probe)
    sel = np.full(len(counts), -1, dtype=np.int64)
    active = (counts > 0) & (pstar > 0)
    for a in range(MAX_ATTEMPTS):
        if not active.any():
            break
        ids = np.flatnonzero(active)
        key, bound = keys[ids], pstar[ids]
        x = rng.randint(key, 2 * a, counts[ids])
        y = rng.uniform(key, 2 * a + 1) * bound
        w = probe(starts[ids] + x, ids)
        over = w > bound
        if over.any():
            raise _bound_error(w[over][0], bound[over][0])
        hit = y < w
        sel[ids[hit]] = x[hit]
        active[ids[hit]] = False
    return sel
