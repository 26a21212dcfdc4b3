"""O-REJ — rejection sampling with a user-supplied bound p* (§2.3, [65]).

No initialization phase: the user's ``MaxWeight`` provides p* without
scanning E_v. The crucial property for dynamic RW (Node2Vec) is that each
attempt probes the weight of *one* candidate edge instead of gathering all
of E_v — the engine's probe receives (flat CSR edge index, walker row) and
returns that single transition weight.

This module holds the one rejection attempt loop, in a scalar and a batch
form, for REJ and O-REJ alike. Their tables are the same plain arrays:
``pstar``, one bound per table row, and ``weights``, the per-edge weights
each attempt probes. REJ's init (:mod:`repro.sampling.rej`) takes each
segment's maximum as p*; O-REJ's :func:`tables` takes the run's bound for
every vertex. Only dynamic O-REJ has no ``weights`` and probes the
engine's Weight UDF. Attempt a finishes the walker's step key with draws
(2a, 2a+1); a walker that misses ``base.MAX_ATTEMPTS`` times (zero-mass or
adversarial distributions) is treated as dead (-1). A probed weight above
p* would silently clip that edge's probability, so both forms raise
``ValueError`` instead.

The scalar form loops over one walker's attempts. The batch form is the
attempt as a cycle stage of the ring (§5.3, Algorithm 4): one attempt per
walker per ring iteration, at the walker's own attempt index, and a walker
that misses comes back ``base.PENDING`` and keeps its ring slot for the
next attempt while the other walkers move on. Both forms make the same
attempts with the same draws and cap, so engines stay bitwise-equal.
"""
from __future__ import annotations

import numpy as np

from repro.core import rng
from repro.core.model import RandomWalkApp, WalkerType
from repro.graph.csr import CSRGraph
from repro.sampling import preprocess
from repro.sampling.base import MAX_ATTEMPTS, PENDING


def tables(csr: CSRGraph, app: RandomWalkApp) -> dict:
    """The run's bound ``pstar`` at every vertex: the user's MaxWeight when
    given, else 1.0 on unbiased RW and the graph's maximum edge weight
    otherwise (the exact bound of static RW). Unbiased and static RW also
    get the ``weights`` to probe; dynamic RW probes the engine's Weight UDF."""
    if app.max_weight is not None:
        pstar = float(app.max_weight)
    elif app.walker_type is WalkerType.UNBIASED:
        pstar = 1.0
    else:
        pstar = float(csr.weight.max()) if csr.num_edges else 1.0
    tab = {"pstar": np.broadcast_to(pstar, csr.num_vertices)}
    if app.walker_type is not WalkerType.DYNAMIC:
        tab["weights"] = preprocess.static_weights(csr, app.table_kind())
    return tab


def _bound_error(w, pstar) -> ValueError:
    return ValueError(
        f"O-REJ probed a transition weight {float(w)!r} above its bound p* = "
        f"{float(pstar)!r}; max_weight must be at least the largest weight (§2.3)"
    )


def generate_scalar(tab, s, d, row, key, probe, probed) -> int:
    """Dart-throwing against ``tab["pstar"][row]``; each attempt probes one
    edge weight in ``tab["weights"]`` or, without it, through the engine's
    ``probe``. Each attempt's candidate is appended to ``probed`` when one
    is given."""
    pstar = float(tab["pstar"][row])
    weights = tab.get("weights")
    if d == 0 or pstar <= 0.0:
        return -1
    rows = np.zeros(1, dtype=np.int64)
    for a in range(MAX_ATTEMPTS):
        x = rng.randint_scalar(key, 2 * a, d)
        if probed is not None:
            probed.append(x)
        y = rng.uniform_scalar(key, 2 * a + 1) * pstar
        w = float(weights[s + x]) if weights is not None else float(probe(np.array([s + x]), rows)[0])
        if w > pstar:
            raise _bound_error(w, pstar)
        if y < w:
            return x
    return -1


def generate_batch(tab, starts, counts, rows, keys, probe, attempt) -> np.ndarray:
    """One rejection attempt per walker over a ring, each at its own index
    ``attempt`` and bounded by ``tab["pstar"][rows]``; one probe of
    ``tab["weights"]`` or of the engine's ``probe`` for the whole ring.
    A walker whose attempt a misses is ``PENDING`` while a + 1 <
    ``MAX_ATTEMPTS``, else gives up (-1)."""
    pstar = tab["pstar"][rows]
    weights = tab.get("weights")
    sel = np.full(len(counts), -1, dtype=np.int64)
    ids = np.flatnonzero((counts > 0) & (pstar > 0))
    key, bound, a = keys[ids], pstar[ids], attempt[ids]
    x = rng.randint(key, 2 * a, counts[ids])
    y = rng.uniform(key, 2 * a + 1) * bound
    flat = starts[ids] + x
    w = weights[flat] if weights is not None else probe(flat, ids)
    over = w > bound
    if over.any():
        raise _bound_error(w[over][0], bound[over][0])
    sel[ids] = np.where(y < w, x, np.where(a + 1 < MAX_ATTEMPTS, PENDING, -1))
    return sel
