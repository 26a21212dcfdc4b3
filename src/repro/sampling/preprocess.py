"""Whole-graph sampler preprocessing for unbiased/static RW (Algorithm 3).

For each vertex v, run the Weight function over E_v and the sampler's
initialization phase on the result, storing flattened tables aligned with
the CSR edge array. The engines then skip Gather at query time (§4.2).

Tables are cached on ``csr.aux`` keyed by ``(method, kind)`` where kind is
``"unbiased"`` (uniform weights) or ``"static"`` (edge weights), so a
benchmark that runs many engines on the same graph preprocesses once —
mirroring the paper's separation of preprocessing vs execution time. Use
``build(..., force=True)`` (or time ``build_tables``) to measure the
preprocessing cost itself.
"""
from __future__ import annotations

import numpy as np

from repro import sampling
from repro.graph.csr import CSRGraph
from repro.sampling import alias as alias_m
from repro.sampling.base import segment_cumsum


def static_weights(csr: CSRGraph, kind: str) -> np.ndarray:
    """Transition weights per edge slot: uniform (unbiased) or edge weight."""
    if kind == "unbiased":
        return np.ones(csr.num_edges)
    if kind == "static":
        return csr.weight
    raise ValueError(f"unknown kind {kind!r} (dynamic RW has no preprocessing)")


def build_tables(csr: CSRGraph, method: str, kind: str) -> dict:
    """Algorithm 3 over the whole graph for one (method, kind): the
    method's init over every vertex's E_v ({} for NAIVE and O-REJ, which
    have no initialization phase)."""
    w = static_weights(csr, kind)
    init = sampling.get(method, kind).init
    return {} if init is None else init(w, csr.degrees())


def build(csr: CSRGraph, method: str, kind: str, force: bool = False) -> dict:
    """Cached Algorithm 3 (see module docstring)."""
    key = (method, kind)
    if force or key not in csr.aux:
        csr.aux[key] = build_tables(csr, method, kind)
    return csr.aux[key]


def its_dynamic_init(weights_flat: np.ndarray, counts: np.ndarray):
    """ITS init over ragged segments: one per walker for a dynamic RW
    step, one per vertex for Algorithm 3."""
    return segment_cumsum(weights_flat, counts)


def alias_dynamic_init(weights_flat: np.ndarray, counts: np.ndarray):
    """ALIAS init over ragged segments — for dynamic RW O(d) *per walker
    per step* with Python-level constant, which is exactly the pathology
    the paper measures for BL on dynamic RW (Table 6 OOT cells). A
    zero-mass segment keeps alias entries of -1: generation picks no edge."""
    n_flat = len(weights_flat)
    prob = np.ones(n_flat)
    a1 = np.full(n_flat, -1, dtype=np.int64)
    a2 = np.full(n_flat, -1, dtype=np.int64)
    ends = np.cumsum(counts)
    starts = ends - counts
    ok = counts > 0
    if n_flat:
        ok[ok] = np.add.reduceat(weights_flat, starts[ok]) > 0.0
    for s, e in zip(starts[ok].tolist(), ends[ok].tolist()):
        prob[s:e], a1[s:e], a2[s:e] = alias_m.init(weights_flat[s:e])
    return prob, a1, a2, ok


def rej_dynamic_init(weights_flat: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """REJ init over ragged segments: per-segment max weight."""
    pmax = np.zeros(len(counts))
    nz = counts > 0
    if len(weights_flat):
        ends = np.cumsum(counts)
        starts = (ends - counts)[nz]
        pmax[nz] = np.maximum.reduceat(weights_flat, starts)
    return pmax
