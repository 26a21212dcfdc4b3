"""The five sampling methods of §2.3 (NAIVE, ITS, ALIAS, REJ, O-REJ) and
their registry.

Each method is one module that implements the registry's contract (see
:class:`Sampler`) itself: the initialization phase, run over ragged
segments of weights — one per vertex for Algorithm 3, one per walker for a
dynamic RW step — so whole-graph and per-step tables share one layout; and
generation in a scalar form (sequential / BSP / ASP engines) and a
vectorized batch form over a ring of walkers (step-interleaving engine),
which read either layout. Both forms finish the walker's step key
(:func:`repro.core.rng.key`, hashed by the engine) with the same draw
indices, so they select identical edges. No sampler sees a seed, query id
or step: the engines own that layout.

:data:`SAMPLERS` holds one record of those module functions per method:
the engines, the trace replay, the Spark runner, Table 6 and Algorithm 3
(:mod:`repro.sampling.preprocess`) call its records instead of branching
on the method name.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.model import RandomWalkApp, WalkerType
from repro.graph.csr import CSRGraph
from repro.sampling import alias, its, naive, orej, preprocess, rej


@dataclass(frozen=True)
class Sampler:
    """One sampling method as the engines run it.

    * ``tables(csr, app)`` — what generation reads for the whole run:
      Algorithm 3's tables (cached on ``csr.aux``) for unbiased/static RW;
      O-REJ's bound p* and, for static RW, its weight probe.
    * ``init(w, counts)`` — the initialization phase over ragged segments
      of ``w``, returning tables in the layout ``tables`` uses; ``None``
      for the methods without one (NAIVE, O-REJ), which never Gather.
    * ``generate_scalar(tab, s, d, row, key, probe, probed)`` and
      ``generate_batch(tab, starts, counts, rows, keys, probe)`` — the
      local edge index per walker (-1: no move). A walker's candidates are
      ``[s, s + d)`` of the per-edge arrays in ``tab``, and its p* or total
      is at ``row`` of the per-segment ones. ``key``/``keys`` are the
      walkers' step keys at their current length; every draw finishes one
      (draw 0 for NAIVE/ITS, 0 and 1 for ALIAS, 2a and 2a+1 for
      rejection attempt a). ``probe(flat_idx, rows)`` is the engine's
      Weight UDF at CSR edges (O-REJ on dynamic RW), or None;
      ``probed`` collects the candidates the scalar form probed (bucket
      for ALIAS, one per attempt for REJ/O-REJ), or is None.
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


SAMPLERS: dict[str, Sampler] = {
    s.name: s
    for s in (
        Sampler("naive", _algorithm3, None, naive.generate_scalar, naive.generate_batch,
                unbiased_only=True),
        Sampler("its", _algorithm3, its.init, its.generate_scalar, its.generate_batch),
        Sampler("alias", _algorithm3, alias.init, alias.generate_scalar, alias.generate_batch),
        Sampler("rej", _algorithm3, rej.init, rej.generate_scalar, rej.generate_batch),
        Sampler("orej", orej.tables, None, orej.generate_scalar, orej.generate_batch),
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
