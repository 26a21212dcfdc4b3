"""Random-walk execution engines.

Four engines share one stochastic process (same counter RNG, same sampler
draw schedule → bitwise-identical walks) and differ only in execution
strategy — which is the paper's entire subject:

* :func:`run_sequential` — Algorithm 2 one query at a time, scalar steps.
  This is the per-thread inner loop of BL/HG, i.e. ThunderRW *wo/si*.
* :func:`run_interleaved` — Algorithm 4: a ring of ≤ k in-flight walkers
  stepped together, Gather/Move/Update vectorized across the ring. This is
  the step-interleaving analogue (*w/si*): the long-latency per-step cost
  (DRAM miss in the paper, interpreter dispatch + cache miss here) is
  amortized over the whole ring instead of paid per walker.
* :func:`run_bsp` — KnightKing's model: supersteps that move one step for
  every active query, each query a scalar task (tail problem included).
* :func:`run_asp` — GraphWalker's model: vertex-range partitions, a query
  runs while it stays inside the loaded partition, the scheduler loads the
  partition with the most parked queries (swap count reported).

The per-step timing hooks (``timers``) feed Table 2's compute-p(e)/Init/
Gen breakdown.
"""
from __future__ import annotations

import time
from typing import Callable

import numpy as np

from repro.core.model import RandomWalkApp, WalkerType
from repro.core.walker import WalkOutput, _OutBuffer
from repro.graph.csr import CSRGraph
from repro.sampling import gathers, sampler_for
from repro.sampling.base import flatten_segments

ENGINES = ("sequential", "interleaved", "bsp", "asp")

MAX_RING_SIZE = 1024
"""Bound of the §5.4 ring-size sweep (Table 9). The tuner returns it on
every dataset (EXPERIMENTS deviation 3), so TRW runs at it."""


def _tick(timers: dict, key: str, t0: float) -> float:
    """Add the time since ``t0`` to phase ``key``; return now."""
    t1 = time.perf_counter()
    timers[key] = timers.get(key, 0.0) + (t1 - t0)
    return t1


# ---------------------------------------------------------------------------
# Scalar stepper — shared by sequential / BSP / ASP (and the trace replay)
# so all of them walk identically.
# ---------------------------------------------------------------------------

def _make_scalar_stepper(
    csr: CSRGraph, app: RandomWalkApp, seed: int, timers: dict | None = None
) -> Callable[..., int]:
    """Return ``step(qid, cur, prev, length, probed=None) -> edge slot`` of
    the move from ``cur`` (-1 = stop). ``probed`` collects the sampler's
    probed candidates (see :class:`repro.sampling.Sampler`)."""
    indptr = csr.indptr
    sampler = sampler_for(app)
    run_tab = sampler.tables(csr, app)
    gather = gathers(app)
    dynamic = app.walker_type is WalkerType.DYNAMIC
    clock = time.perf_counter if timers is not None else None

    def step(qid: int, cur: int, prev: int, length: int, probed: list | None = None) -> int:
        s, e = int(indptr[cur]), int(indptr[cur + 1])
        d = e - s
        if d == 0:
            return -1
        weight = None  # static RW never calls the Weight UDF at query time
        if dynamic:
            def weight(flat_idx: np.ndarray, rows=None) -> np.ndarray:
                """The Weight UDF at this walker's (prev, length)."""
                n = len(flat_idx)
                return app.weight_fn(
                    csr, flat_idx, np.full(n, prev, dtype=np.int64), np.full(n, length, dtype=np.int64)
                )

        t0 = clock() if clock else 0.0
        tab, off, row = run_tab, s, cur
        if gather:
            # Gather: apply the Weight UDF to E_cur, then init over it.
            w = weight(np.arange(s, e, dtype=np.int64))
            if clock:
                t0 = _tick(timers, "weight", t0)
            tab, off, row = sampler.init(w, np.array([d])), 0, 0
            if clock:
                t0 = _tick(timers, "init", t0)
        x = sampler.generate_scalar(tab, off, d, row, seed, qid, length, weight, probed)
        if clock:
            _tick(timers, "gen", t0)
        return s + x if x >= 0 else -1

    return step


def run_sequential(
    csr: CSRGraph,
    app: RandomWalkApp,
    sources: np.ndarray,
    qids: np.ndarray | None = None,
    seed: int = 0,
    timers: dict | None = None,
) -> WalkOutput:
    """Algorithm 2: evaluate queries one by one, scalar steps (wo/si)."""
    sources = np.asarray(sources, dtype=np.int64)
    qids = np.arange(len(sources), dtype=np.int64) if qids is None else np.asarray(qids)
    step = _make_scalar_stepper(csr, app, seed, timers)
    dst = csr.dst
    out = _OutBuffer()
    for qid, src in zip(qids, sources):
        qid, cur = int(qid), int(src)
        prev, length = -1, 0
        path = [cur]
        while True:
            slot = step(qid, cur, prev, length)
            if slot < 0:
                break
            prev, cur = cur, int(dst[slot])
            length += 1
            path.append(cur)
            if app.stop_scalar(seed, qid, length):
                break
        out.add(np.full(len(path), qid), np.arange(len(path)), np.array(path))
    return out.finish(timers=timers)


# ---------------------------------------------------------------------------
# Step-interleaved ring engine (Algorithm 4) — ThunderRW w/si.
# ---------------------------------------------------------------------------

def run_interleaved(
    csr: CSRGraph,
    app: RandomWalkApp,
    sources: np.ndarray,
    qids: np.ndarray | None = None,
    seed: int = 0,
    ring_size: int = 64,
    timers: dict | None = None,
) -> WalkOutput:
    """Algorithm 4: GMU over a ring of ≤ ``ring_size`` in-flight walkers.

    Each loop iteration moves every walker in the ring by one step with
    vectorized Gather/Move/Update; completed walkers are replaced from the
    pending queue, so the ring stays full (no BSP tail problem).
    """
    sources = np.asarray(sources, dtype=np.int64)
    n = len(sources)
    qids = np.arange(n, dtype=np.int64) if qids is None else np.asarray(qids, dtype=np.int64)
    out = _OutBuffer()
    out.add(qids, np.zeros(n, dtype=np.int32), sources)  # step-0 rows
    if n == 0:
        return out.finish(timers=timers)

    indptr, dst_arr = csr.indptr, csr.dst
    sampler = sampler_for(app)
    run_tab = sampler.tables(csr, app)
    gather = gathers(app)
    clock = time.perf_counter if timers is not None else None

    k = max(1, int(ring_size))
    fill = min(k, n)
    r_qid = qids[:fill].copy()
    r_cur = sources[:fill].copy()
    r_prev = np.full(fill, -1, dtype=np.int64)
    r_len = np.zeros(fill, dtype=np.int64)
    submitted = fill
    iters = 0

    def probe(flat_idx: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The Weight UDF at CSR edges for the walkers in ring ``rows``."""
        return app.weight_fn(csr, flat_idx, r_prev[rows], r_len[rows])

    while len(r_qid) > 0:
        iters += 1
        vs = r_cur
        starts = indptr[vs]
        counts = (indptr[vs + 1] - starts).astype(np.int64)
        # -- Move over the run's tables (Algorithm 3 cache, O-REJ bound) or,
        # after Gather, over the tables init builds for this step. --
        t0 = clock() if clock else 0.0
        tab, seg_starts, rows = run_tab, starts, vs
        if gather:
            # -- Gather: flatten ragged segments, apply the Weight UDF. --
            flat_idx, seg_ids, _, _ = flatten_segments(indptr, vs)
            w = app.weight_fn(csr, flat_idx, r_prev[seg_ids], r_len[seg_ids])
            if clock:
                t0 = _tick(timers, "weight", t0)
            tab, seg_starts, rows = sampler.init(w, counts), np.cumsum(counts) - counts, slice(None)
            if clock:
                t0 = _tick(timers, "init", t0)
        local = sampler.generate_batch(tab, seg_starts, counts, rows, seed, r_qid, r_len, probe)
        if clock:
            _tick(timers, "gen", t0)

        moved = local >= 0
        # Clamp unmoved walkers' index to 0: a sink's `starts` can equal
        # |E| and must never be dereferenced.
        safe_idx = np.where(moved, starts + local, 0)
        nxt = np.where(moved, dst_arr[safe_idx], -1)

        # -- Update: record moves, apply termination, refill the ring. --
        new_len = r_len + 1
        if moved.any():
            out.add(r_qid[moved], new_len[moved].astype(np.int32), nxt[moved])
        stop = ~moved
        stop[moved] |= app.stop_mask(seed, r_qid[moved], new_len[moved])
        r_prev = np.where(moved, r_cur, r_prev)
        r_cur = np.where(moved, nxt, r_cur)
        r_len = new_len

        if stop.any():
            keep = ~stop
            n_free = int(stop.sum())
            n_new = min(n_free, n - submitted)
            if n_new > 0:
                new_q = qids[submitted : submitted + n_new]
                new_s = sources[submitted : submitted + n_new]
                submitted += n_new
                r_qid = np.concatenate([r_qid[keep], new_q])
                r_cur = np.concatenate([r_cur[keep], new_s])
                r_prev = np.concatenate([r_prev[keep], np.full(n_new, -1, dtype=np.int64)])
                r_len = np.concatenate([r_len[keep], np.zeros(n_new, dtype=np.int64)])
            else:
                r_qid, r_cur, r_prev, r_len = (
                    r_qid[keep], r_cur[keep], r_prev[keep], r_len[keep],
                )
    return out.finish(timers=timers, meta={"ring_iterations": iters, "ring_size": k})


# ---------------------------------------------------------------------------
# Execution-model emulations of the comparison systems (Appendix C.4).
# ---------------------------------------------------------------------------

def run_bsp(
    csr: CSRGraph,
    app: RandomWalkApp,
    sources: np.ndarray,
    qids: np.ndarray | None = None,
    seed: int = 0,
) -> WalkOutput:
    """KnightKing's BSP model: every superstep moves all active queries one
    step; queries are scalar task units. Exhibits the tail problem — late
    supersteps carry few active queries but full sweep bookkeeping."""
    sources = np.asarray(sources, dtype=np.int64)
    n = len(sources)
    qids = np.arange(n, dtype=np.int64) if qids is None else np.asarray(qids, dtype=np.int64)
    step = _make_scalar_stepper(csr, app, seed)
    cur = sources.copy()
    prev = np.full(n, -1, dtype=np.int64)
    length = np.zeros(n, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    out = _OutBuffer()
    out.add(qids, np.zeros(n, dtype=np.int32), sources)
    supersteps = 0
    while active.any():
        supersteps += 1
        for i in np.flatnonzero(active):
            slot = step(int(qids[i]), int(cur[i]), int(prev[i]), int(length[i]))
            if slot < 0:
                active[i] = False
                continue
            nxt = csr.dst[slot]
            prev[i], cur[i] = cur[i], nxt
            length[i] += 1
            out.add([qids[i]], [length[i]], [nxt])
            if app.stop_scalar(seed, int(qids[i]), int(length[i])):
                active[i] = False
    return out.finish(meta={"supersteps": supersteps})


def run_asp(
    csr: CSRGraph,
    app: RandomWalkApp,
    sources: np.ndarray,
    qids: np.ndarray | None = None,
    seed: int = 0,
    n_graph_partitions: int = 8,
) -> WalkOutput:
    """GraphWalker's ASP model (in-memory configuration, unbiased only).

    Vertices are split into contiguous ranges; parked queries wait for
    their partition to be "loaded" (the scheduler picks the fullest one).
    A loaded query runs until it terminates or leaves the partition.
    """
    if app.walker_type is not WalkerType.UNBIASED:
        raise ValueError("GraphWalker supports unbiased RW only (§2.4)")
    sources = np.asarray(sources, dtype=np.int64)
    n = len(sources)
    qids = np.arange(n, dtype=np.int64) if qids is None else np.asarray(qids, dtype=np.int64)
    step = _make_scalar_stepper(csr, app, seed)
    nv = csr.num_vertices
    P = max(1, min(n_graph_partitions, nv))

    def part_of(v: int) -> int:
        return min(P - 1, v * P // nv)

    queues: list[list[tuple[int, int, int, int]]] = [[] for _ in range(P)]
    for qid, src in zip(qids, sources):
        queues[part_of(int(src))].append((int(qid), int(src), -1, 0))
    out = _OutBuffer()
    out.add(qids, np.zeros(n, dtype=np.int32), sources)
    swaps = 0
    remaining = n
    while remaining > 0:
        p = max(range(P), key=lambda i: len(queues[i]))
        batch, queues[p] = queues[p], []
        swaps += 1
        for qid, cur, prev, length in batch:
            while True:
                slot = step(qid, cur, prev, length)
                if slot < 0:
                    remaining -= 1
                    break
                prev, cur = cur, int(csr.dst[slot])
                length += 1
                out.add([qid], [length], [cur])
                if app.stop_scalar(seed, qid, length):
                    remaining -= 1
                    break
                if part_of(cur) != p:
                    queues[part_of(cur)].append((qid, cur, prev, length))
                    break
    return out.finish(meta={"partition_loads": swaps, "n_partitions": P})


def run_walks(
    csr: CSRGraph,
    app: RandomWalkApp,
    sources: np.ndarray,
    engine: str = "interleaved",
    seed: int = 0,
    qids: np.ndarray | None = None,
    **kw,
) -> WalkOutput:
    """Dispatch by engine name (see module docstring)."""
    fns = {
        "sequential": run_sequential,
        "interleaved": run_interleaved,
        "bsp": run_bsp,
        "asp": run_asp,
    }
    if engine not in fns:
        raise ValueError(f"unknown engine {engine!r}; pick one of {ENGINES}")
    return fns[engine](csr, app, sources, qids=qids, seed=seed, **kw)
