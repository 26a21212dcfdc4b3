"""Whole-graph sampler preprocessing for unbiased/static RW (Algorithm 3).

For each vertex v, run the Weight function over E_v and the sampler's
initialization phase on the result, storing flattened tables aligned with
the CSR edge array. The engines then skip Gather at query time (§4.2).

Tables are cached on ``csr.aux`` keyed by ``(method, kind)`` where kind is
``"unbiased"`` (uniform weights) or ``"static"`` (edge weights), so a
benchmark that runs many engines on the same graph preprocesses once —
mirroring the paper's separation of preprocessing vs execution time. Time
``build`` right after ``csr.aux.clear()`` (or time ``build_tables``) to
measure the preprocessing cost itself.
"""
from __future__ import annotations

import numpy as np

from repro import sampling
from repro.graph.csr import CSRGraph


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


def build(csr: CSRGraph, method: str, kind: str) -> dict:
    """Cached Algorithm 3 (see module docstring)."""
    key = (method, kind)
    if key not in csr.aux:
        csr.aux[key] = build_tables(csr, method, kind)
    return csr.aux[key]

