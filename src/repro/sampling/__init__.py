"""The five sampling methods of §2.3 (NAIVE, ITS, ALIAS, REJ, O-REJ) and
their registry.

Each method module exposes the two phases the paper separates: the
initialization phase over one vertex's transition probabilities, and
generation in a scalar form (sequential / BSP / ASP engines) and a
vectorized batch form over a ring of walkers (step-interleaving engine).
Both forms consume the counter RNG with the same (qid, step, draw)
indices, so they select identical edges.

:data:`SAMPLERS` is the one place where a method's tables, init and
generation are defined: the engines, the trace replay, the Spark runner,
Table 6 and Algorithm 3 (:mod:`repro.sampling.preprocess`) call its
records instead of branching on the method name. A record's init runs
over ragged segments of weights — one per vertex for Algorithm 3, one per
walker for a dynamic RW step — so whole-graph and per-step tables share
one layout and one generation call reads either.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.model import RandomWalkApp, WalkerType
from repro.graph.csr import CSRGraph
from repro.sampling import alias, base, its, naive, orej, preprocess, rej  # noqa: F401


@dataclass(frozen=True)
class Sampler:
    """One sampling method as the engines run it.

    * ``tables(csr, app)`` — what generation reads for the whole run:
      Algorithm 3's tables (cached on ``csr.aux``) for unbiased/static RW;
      O-REJ's bound p* and, for static RW, its weight probe.
    * ``init(w, counts)`` — the initialization phase over ragged segments
      of ``w``, returning tables in the layout ``tables`` uses; ``None``
      for the methods without one (NAIVE, O-REJ), which never Gather.
    * ``generate_scalar(tab, s, d, row, seed, qid, step, probe, probed)``
      and ``generate_batch(tab, starts, counts, rows, seed, qids, steps,
      probe)`` — the local edge index per walker (-1: no move). A walker's
      candidates are ``[s, s + d)`` of the per-edge arrays in ``tab``, and
      its p* or total is at ``row`` of the per-segment ones.
      ``probe(flat_idx, rows)`` is the engine's Weight UDF at CSR edges
      (O-REJ on dynamic RW); ``probed`` collects the candidates the scalar form
      probed (bucket for ALIAS, one per attempt for REJ/O-REJ).
    """

    name: str
    tables: Callable[[CSRGraph, RandomWalkApp], dict]
    init: Callable[[np.ndarray, np.ndarray], dict] | None
    generate_scalar: Callable[..., int]
    generate_batch: Callable[..., np.ndarray]
    unbiased_only: bool = False


def _algorithm3(csr: CSRGraph, app: RandomWalkApp) -> dict:
    """Whole-graph tables for unbiased/static RW; dynamic RW inits per step."""
    return preprocess.build(csr, app.sampler, app.table_kind()) if needs_tables(app) else {}


def _orej_tables(csr: CSRGraph, app: RandomWalkApp) -> dict:
    """p* is the user's MaxWeight (a loose static default when not given).
    Static RW probes the raw weights; dynamic RW the engine's Weight UDF."""
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


def _its_init(w, counts):
    cum, totals = preprocess.its_dynamic_init(w, counts)
    return {"cum": cum, "totals": totals}


def _alias_init(w, counts):
    prob, a1, a2, _ = preprocess.alias_dynamic_init(w, counts)
    return {"prob": prob, "a1": a1, "a2": a2}


def _rej_init(w, counts):
    return {"pmax": preprocess.rej_dynamic_init(w, counts), "weights": w}


def _naive_scalar(tab, s, d, row, seed, qid, step, probe=None, probed=None):
    return naive.generate_scalar(d, seed, qid, step)


def _naive_batch(tab, starts, counts, rows, seed, qids, steps, probe=None):
    return np.where(counts > 0, naive.generate_batch(counts, seed, qids, steps), -1)


def _its_scalar(tab, s, d, row, seed, qid, step, probe=None, probed=None):
    return its.generate_scalar(tab["cum"][s : s + d], seed, qid, step)


def _its_batch(tab, starts, counts, rows, seed, qids, steps, probe=None):
    return its.generate_batch(tab["cum"], starts, counts, tab["totals"][rows], seed, qids, steps)


def _alias_scalar(tab, s, d, row, seed, qid, step, probe=None, probed=None):
    if tab["a1"][s] < 0:  # zero-mass segment: init left no alias entries
        return -1
    e = s + d
    return alias.generate_scalar(
        (tab["prob"][s:e], tab["a1"][s:e], tab["a2"][s:e]), seed, qid, step, probed
    )


def _alias_batch(tab, starts, counts, rows, seed, qids, steps, probe=None):
    return alias.generate_batch(tab["prob"], tab["a1"], tab["a2"], starts, counts, seed, qids, steps)


def _rej_scalar(tab, s, d, row, seed, qid, step, probe=None, probed=None):
    return rej.generate_scalar(
        tab["weights"][s : s + d], float(tab["pmax"][row]), seed, qid, step, probed
    )


def _rej_batch(tab, starts, counts, rows, seed, qids, steps, probe=None):
    return rej.generate_batch(tab["weights"], starts, counts, tab["pmax"][rows], seed, qids, steps)


def _orej_scalar(tab, s, d, row, seed, qid, step, probe=None, probed=None):
    probe = tab.get("probe", probe)
    return orej.generate_scalar(d, s, tab["pstar"], probe, seed, qid, step, probed=probed)


def _orej_batch(tab, starts, counts, rows, seed, qids, steps, probe=None):
    pstar = np.full(len(qids), tab["pstar"])
    return orej.generate_batch(starts, counts, pstar, tab.get("probe", probe), seed, qids, steps)


SAMPLERS: dict[str, Sampler] = {
    s.name: s
    for s in (
        Sampler("naive", _algorithm3, None, _naive_scalar, _naive_batch, unbiased_only=True),
        Sampler("its", _algorithm3, _its_init, _its_scalar, _its_batch),
        Sampler("alias", _algorithm3, _alias_init, _alias_scalar, _alias_batch),
        Sampler("rej", _algorithm3, _rej_init, _rej_scalar, _rej_batch),
        Sampler("orej", _orej_tables, None, _orej_scalar, _orej_batch),
    )
}
METHODS = tuple(SAMPLERS)


def get(method: str, kind: str) -> Sampler:
    """The record for ``method`` on RW of ``kind`` (a ``WalkerType`` value)."""
    if method not in SAMPLERS:
        raise ValueError(f"unknown sampling method {method!r}")
    if SAMPLERS[method].unbiased_only and kind != WalkerType.UNBIASED.value:
        raise ValueError(f"{method.upper()} supports unbiased RW only (§2.3)")
    return SAMPLERS[method]


def sampler_for(app: RandomWalkApp) -> Sampler:
    """The record for ``app``'s sampler, checked against its walker type."""
    return get(app.sampler, app.walker_type.value)


def needs_tables(app: RandomWalkApp) -> bool:
    """Whether ``app`` reads Algorithm 3 tables: unbiased/static RW with a
    sampler that has an init (ITS, ALIAS, REJ)."""
    return app.walker_type is not WalkerType.DYNAMIC and sampler_for(app).init is not None


def gathers(app: RandomWalkApp) -> bool:
    """Whether each step Gathers E_v through the Weight UDF and runs init:
    dynamic RW with a sampler that has an init. O-REJ instead probes one
    edge per attempt (§4.2)."""
    return app.walker_type is WalkerType.DYNAMIC and sampler_for(app).init is not None
