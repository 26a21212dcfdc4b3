"""Ring-size tuning (§5.4, Table 9).

The paper pre-executes short static walks (one per vertex, target length
10), sweeping the task ring size k over powers of two up to 1024 for the
sampling methods whose SDG has no cycle stage, then fixes k* and sweeps
the search ring size k' for the cycle-stage methods.

In this substrate the ring engine keeps one ring of walkers. A walker
inside REJ/O-REJ's attempt cycle keeps its slot across ring iterations,
one attempt per iteration, while the others move on — the search ring's
behaviour in Algorithm 4 — so k' is the size of the ring that REJ/O-REJ
run in. ITS's binary search still finishes inside one iteration,
vectorized over the ring. We keep the two-pass protocol (the methods
without cycle stages pick k*, then the rest are swept up to k*) and report
per-method optima plus the tuning wall time — the quantity Table 9 records.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.algos import deepwalk
from repro.core.engine import MAX_RING_SIZE, run_walks
from repro.core.sdg import sdg_for
from repro.graph.csr import CSRGraph
from repro.sampling import METHODS


@dataclass
class TuningResult:
    task_ring: int
    search_ring: int
    per_method: dict = field(default_factory=dict)  # method -> (best_k, {k: seconds})
    elapsed_s: float = 0.0


def _walk_time(csr: CSRGraph, sampler: str, sources: np.ndarray, k: int, length: int) -> float:
    app = deepwalk.for_method(sampler, length)
    t0 = time.perf_counter()
    run_walks(csr, app, sources, engine="interleaved", seed=1, ring_size=k)
    return time.perf_counter() - t0


def tune_ring_sizes(
    csr: CSRGraph,
    max_k: int = MAX_RING_SIZE,
    length: int = 10,
    max_queries: int | None = None,
) -> TuningResult:
    """§5.4 protocol: sweep k on the methods without cycle stages, then
    k' ≤ k* on the rest, each pass in ``METHODS`` order."""
    t_start = time.perf_counter()
    deg = csr.degrees()
    sources = np.flatnonzero(deg > 0)
    if max_queries is not None and len(sources) > max_queries:
        sources = sources[:: max(1, len(sources) // max_queries)][:max_queries]
    ks = [1 << i for i in range(0, int(np.log2(max_k)) + 1)]
    per_method: dict = {}
    cyclic = [m for m in METHODS if sdg_for(m).cycle_stages()]
    coupled = [m for m in METHODS if m not in cyclic]
    # Pass 1: task ring on the methods without cycle stages.
    best_times = {}
    for m in coupled:
        times = {k: _walk_time(csr, m, sources, k, length) for k in ks}
        best = min(times, key=times.get)
        per_method[m] = (best, times)
        best_times[m] = best
    k_star = max(best_times.values())
    # Pass 2: search ring for the cycle-stage methods, k' ≤ k*.
    ks2 = [k for k in ks if k <= k_star] or [1]
    for m in cyclic:
        times = {k: _walk_time(csr, m, sources, k, length) for k in ks2}
        best = min(times, key=times.get)
        per_method[m] = (best, times)
    search = int(np.median([per_method[m][0] for m in cyclic]))
    return TuningResult(
        task_ring=int(k_star),
        search_ring=search,
        per_method=per_method,
        elapsed_s=time.perf_counter() - t_start,
    )
