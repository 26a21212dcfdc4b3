"""Node2Vec (§2.2, Eq. 1): second-order (dynamic) random walk.

The transition weight of edge e(v, v') depends on the previously visited
vertex u:  1/a if v' == u (dist 0), 1 if v' ∈ N(u) (dist 1), 1/b
otherwise (dist 2). The dist-1 test is a binary search in N(u) — the
O(log d_u) per-edge cost the paper profiles (Table 2) and the source of
user-space cache misses (§6.3).

The first step (no previous vertex) returns MaxWeight for every edge, as
in Listing 1 — a uniform distribution that O-REJ accepts without retries.
"""
from __future__ import annotations

from functools import partial

import numpy as np

from repro.core.model import RandomWalkApp, WalkerType
from repro.graph.csr import CSRGraph
from repro.sampling.base import segment_search


def node2vec_weight(
    csr: CSRGraph,
    flat_idx: np.ndarray,
    prev: np.ndarray,
    steps: np.ndarray,
    *,
    a: float,
    b: float,
) -> np.ndarray:
    """Vectorized Weight UDF (Eq. 1), one weight per candidate edge."""
    dst = csr.dst[flat_idx]
    pmax = max(1.0, 1.0 / a, 1.0 / b)
    w = np.full(len(flat_idx), 1.0 / b)
    safe_prev = np.maximum(prev, 0)
    lo = csr.indptr[safe_prev]
    hi = csr.indptr[safe_prev + 1]
    i = segment_search(csr.dst, lo, hi, dst, "left")
    is_nb = (i < hi) & (csr.dst[np.where(i < hi, i, 0)] == dst)
    w = np.where(is_nb, 1.0, w)
    w = np.where(dst == prev, 1.0 / a, w)
    return np.where(prev < 0, pmax, w)  # first step: Listing 1 returns MaxWeight


def make_app(
    a: float = 2.0,
    b: float = 0.5,
    length: int = 80,
    **_,
) -> RandomWalkApp:
    pmax = max(1.0, 1.0 / a, 1.0 / b)
    return RandomWalkApp(
        name="node2vec",
        walker_type=WalkerType.DYNAMIC,
        sampler="its",
        target_length=length,
        weight_fn=partial(node2vec_weight, a=a, b=b),
        max_weight=pmax,
        params={"a": a, "b": b, "length": length},
    )
