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

Every engine walks one lifecycle, written once per state layout (the
scalar stepper's ``Walker``, the ring's record of arrays). A walker's step
key ``rng.key(seed, qid, length)`` is hashed at its source and after each
move that leaves it below ``app.max_length``, and finished by two draws:
that length's Update coin (``model.TERM_DRAW``) and the Move from it. The
scalar stepper hashes and finishes keys in Python ints (``rng.key_scalar``
and the ``*_scalar`` draws), bitwise equal to the ring's vector forms.

The per-step timing hooks (``timers``) feed Table 2's compute-p(e)/Init/
Gen breakdown (``weight``/``init``/``gen``); ``update`` times Update: the
advance, the key hash, the coin and, in the ring, the refill.
"""
from __future__ import annotations

import time

import numpy as np

from repro.core import rng
from repro.core.model import RandomWalkApp, WalkerType
from repro.core.sdg import sdg_for
from repro.core.walker import Walker, WalkOutput, _OutBuffer
from repro.graph.csr import CSRGraph
from repro.sampling import gathers, sampler_for
from repro.sampling.base import MAX_ATTEMPTS, PENDING, flatten_segments

MAX_RING_SIZE = 1024
"""Bound of the §5.4 ring-size sweep (Table 9). The tuner returns it on
every dataset (EXPERIMENTS deviation 3), so TRW runs at it."""

N_GRAPH_PARTITIONS = 8
"""GraphWalker's vertex-range partitions in :func:`run_asp`."""


def _tick(timers: dict, key: str, t0: float) -> float:
    """Add the time since ``t0`` to phase ``key``; return now."""
    t1 = time.perf_counter()
    timers[key] = timers.get(key, 0.0) + (t1 - t0)
    return t1


# ---------------------------------------------------------------------------
# Scalar stepper — shared by sequential / BSP / ASP (and the trace replay)
# so all of them walk identically.
# ---------------------------------------------------------------------------

def _make_scalar_stepper(csr: CSRGraph, app: RandomWalkApp, seed: int, timers: dict | None = None):
    """Return ``(walkers, step)``. ``walkers(qids, sources)`` is one new
    walker per query at its source, their keys hashed in one call;
    ``step(w, probed=None)`` runs one Gather–Move–Update on walker ``w``
    and returns the edge slot it moved along (-1: no move).
    A move advances ``w`` and appends the new vertex to ``w.path``; below
    ``app.max_length`` it then hashes the key at the new length, which
    Update's coin and the next Move finish. No move, the length limit or
    the coin clears ``w.live``. ``probed`` collects the sampler's probed
    candidates (see :class:`repro.sampling.Sampler`)."""
    indptr, dst = csr.indptr, csr.dst
    sampler = sampler_for(app)
    run_tab = sampler.tables(csr, app)
    gather = gathers(app)
    dynamic = app.walker_type is WalkerType.DYNAMIC
    max_len = app.max_length
    clock = time.perf_counter if timers is not None else None

    def walkers(qids: np.ndarray, sources: np.ndarray) -> list[Walker]:
        keys = rng.key(seed, qids, 0).tolist()
        return [Walker(q, v, k) for q, v, k in zip(qids.tolist(), sources.tolist(), keys)]

    def move(w: Walker, s: int, d: int, probed: list | None) -> int:
        """Gather (dynamic RW with an init) and Move: the local edge index."""
        weight = None  # static RW never calls the Weight UDF at query time
        if dynamic:
            prev, length = w.prev, w.length

            def weight(flat_idx: np.ndarray, rows) -> np.ndarray:
                """The Weight UDF at this walker's (prev, length)."""
                n = len(flat_idx)
                return app.weight_fn(
                    csr, flat_idx, np.full(n, prev, dtype=np.int64), np.full(n, length, dtype=np.int64)
                )

        t0 = clock() if clock else 0.0
        tab, off, row = run_tab, s, w.cur
        if gather:
            # Gather: apply the Weight UDF to E_cur, then init over it.
            w_edges = weight(np.arange(s, s + d, dtype=np.int64), None)
            if clock:
                t0 = _tick(timers, "weight", t0)
            tab, off, row = sampler.init(w_edges, np.array([d])), 0, 0
            if clock:
                t0 = _tick(timers, "init", t0)
        x = sampler.generate_scalar(tab, off, d, row, w.key, weight, probed)
        if clock:
            _tick(timers, "gen", t0)
        return x

    def step(w: Walker, probed: list | None = None) -> int:
        s = int(indptr[w.cur])
        d = int(indptr[w.cur + 1]) - s
        x = move(w, s, d, probed) if d else -1
        if x < 0:
            w.live = False
            return -1
        # Update: advance; below the length limit, hash the new length's key
        # and flip its coin.
        t0 = clock() if clock else 0.0
        w.prev, w.cur, w.length = w.cur, int(dst[s + x]), w.length + 1
        w.path.append(w.cur)
        w.live = w.length < max_len
        if w.live:
            w.key = rng.key_scalar(seed, w.qid, w.length)
            w.live = not app.stop_scalar(w.key)
        if clock:
            _tick(timers, "update", t0)
        return s + x

    return walkers, step


def _walks(walkers: list[Walker], timers: dict | None, meta: dict | None) -> WalkOutput:
    """The scalar engines' output: each walker's path as rows."""
    out = _OutBuffer()
    for w in walkers:
        out.add(np.full(len(w.path), w.qid), np.arange(len(w.path)), w.path)
    return out.finish(timers=timers, meta=meta)


def run_sequential(
    csr: CSRGraph,
    app: RandomWalkApp,
    sources: np.ndarray,
    qids: np.ndarray,
    seed: int,
    timers: dict | None = None,
) -> WalkOutput:
    """Algorithm 2: evaluate queries one by one, scalar steps (wo/si)."""
    walkers, step = _make_scalar_stepper(csr, app, seed, timers)
    ws = walkers(qids, sources)
    for w in ws:
        while w.live:
            step(w)
    return _walks(ws, timers=timers, meta=None)


# ---------------------------------------------------------------------------
# Step-interleaved ring engine (Algorithm 4) — ThunderRW w/si.
# ---------------------------------------------------------------------------

def run_interleaved(
    csr: CSRGraph,
    app: RandomWalkApp,
    sources: np.ndarray,
    qids: np.ndarray,
    seed: int,
    ring_size: int = 64,
    timers: dict | None = None,
) -> WalkOutput:
    """Algorithm 4: GMU over a ring of ≤ ``ring_size`` in-flight walkers.

    Each loop iteration runs one Move stage for every walker in the ring
    with vectorized Gather/Move/Update; completed walkers are replaced from
    the queries not yet started, so the ring stays full (no BSP tail
    problem). The ring is one record of arrays, refilled from ``fresh``:
    each query at its source, at rejection attempt 0.

    A REJ/O-REJ attempt is a cycle stage (§5.3): each iteration makes one
    attempt per walker, at the walker's own index ``att``. A walker whose
    attempt missed (``PENDING``) keeps its slot and its state for its next
    attempt in the next iteration, while the walkers that moved hash their
    new key, flip their coin and reset ``att`` to 0; so the ring never waits
    for its slowest walker. ``meta["attempts"]`` counts the attempts made.
    """
    n = len(sources)
    out = _OutBuffer()
    out.add(qids, np.zeros(n, dtype=np.int32), sources)  # step-0 rows
    if n == 0:
        return out.finish(timers=timers)

    indptr, dst = csr.indptr, csr.dst
    sampler = sampler_for(app)
    run_tab = sampler.tables(csr, app)
    gather = gathers(app)
    rejects = bool(sdg_for(app.sampler).split()[1])  # the Move's draw is on a cycle
    max_len = app.max_length
    clock = time.perf_counter if timers is not None else None

    k = max(1, int(ring_size))
    fresh = {
        "qid": qids, "cur": sources, "prev": np.full(n, -1, dtype=np.int64),
        "len": np.zeros(n, dtype=np.int64), "key": rng.key(seed, qids, 0),
        "att": np.zeros(n, dtype=np.int64),
    }
    # Copies: Update writes in place, and a slice is a view of ``fresh``.
    r = {f: a[:k].copy() for f, a in fresh.items()}
    submitted = len(r["qid"])
    iters = attempts = 0

    def probe(flat_idx: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The Weight UDF at CSR edges for the walkers in ring ``rows``."""
        return app.weight_fn(csr, flat_idx, r["prev"][rows], r["len"][rows])

    while len(r["qid"]) > 0:
        iters += 1
        vs = r["cur"]
        starts = indptr[vs]
        counts = (indptr[vs + 1] - starts).astype(np.int64)
        # -- Move over the run's tables (Algorithm 3 cache, O-REJ bound) or,
        # after Gather, over the tables init builds for this step. --
        t0 = clock() if clock else 0.0
        tab, seg_starts, rows = run_tab, starts, vs
        if gather:
            # -- Gather: flatten ragged segments, apply the Weight UDF. --
            flat_idx, seg_ids = flatten_segments(starts, counts)
            w = app.weight_fn(csr, flat_idx, r["prev"][seg_ids], r["len"][seg_ids])
            if clock:
                t0 = _tick(timers, "weight", t0)
            tab, seg_starts, rows = sampler.init(w, counts), np.cumsum(counts) - counts, slice(None)
            if clock:
                t0 = _tick(timers, "init", t0)
        local = sampler.generate_batch(tab, seg_starts, counts, rows, r["key"], probe, r["att"])
        if clock:
            _tick(timers, "gen", t0)

        # -- Update: record moves; below the length limit, hash each moved
        # walker's key at its new length and flip its coin; pending walkers
        # stay for their next attempt; refill the ring. --
        t0 = clock() if clock else 0.0
        moved = local >= 0
        nxt = dst[starts[moved] + local[moved]]
        r["len"] = r["len"] + moved
        out.add(r["qid"][moved], r["len"][moved].astype(np.int32), nxt)
        live = moved & (r["len"] < max_len)
        keys = rng.key(seed, r["qid"][live], r["len"][live])
        r["key"][live] = keys
        live[live] = ~app.stop_mask(keys)
        if rejects:
            pending = local == PENDING
            # Every walker that moved or is pending made an attempt, and so
            # did a -1 at its last attempt (a give-up), which takes at least
            # MAX_ATTEMPTS iterations to reach.
            attempts += len(nxt) + np.count_nonzero(pending)
            if iters >= MAX_ATTEMPTS:
                attempts += np.count_nonzero(local[r["att"] == MAX_ATTEMPTS - 1] == -1)
            r["att"] = (r["att"] + 1) * pending
            live |= pending
        r["prev"] = np.where(moved, vs, r["prev"])
        r["cur"][moved] = nxt

        if not live.all():
            new = slice(submitted, min(n, submitted + int((~live).sum())))
            submitted = new.stop
            r = {f: np.concatenate([a[live], fresh[f][new]]) for f, a in r.items()}
        if clock:
            _tick(timers, "update", t0)
    return out.finish(timers=timers, meta={"ring_iterations": iters, "ring_size": k,
                                           "attempts": attempts})


# ---------------------------------------------------------------------------
# Execution-model emulations of the comparison systems (Appendix C.4).
# ---------------------------------------------------------------------------

def run_bsp(
    csr: CSRGraph,
    app: RandomWalkApp,
    sources: np.ndarray,
    qids: np.ndarray,
    seed: int,
) -> WalkOutput:
    """KnightKing's BSP model: every superstep moves all active queries one
    step; queries are scalar task units. Exhibits the tail problem — late
    supersteps carry few active queries but full sweep bookkeeping."""
    walkers, step = _make_scalar_stepper(csr, app, seed)
    ws = active = walkers(qids, sources)
    supersteps = 0
    while active:
        supersteps += 1
        for w in active:
            step(w)
        active = [w for w in active if w.live]
    return _walks(ws, timers=None, meta={"supersteps": supersteps})


def run_asp(
    csr: CSRGraph,
    app: RandomWalkApp,
    sources: np.ndarray,
    qids: np.ndarray,
    seed: int,
) -> WalkOutput:
    """GraphWalker's ASP model (in-memory configuration, unbiased only).

    Vertices are split into ``N_GRAPH_PARTITIONS`` contiguous ranges;
    parked queries wait for their partition to be "loaded" (the scheduler
    picks the fullest one). A loaded query runs until it terminates or
    leaves the partition.
    """
    if app.walker_type is not WalkerType.UNBIASED:
        raise ValueError("GraphWalker supports unbiased RW only (§2.4)")
    walkers, step = _make_scalar_stepper(csr, app, seed)
    nv = csr.num_vertices
    P = max(1, min(N_GRAPH_PARTITIONS, nv))

    def part_of(v: int) -> int:
        return min(P - 1, v * P // nv)

    ws = walkers(qids, sources)
    queues: list[list[Walker]] = [[] for _ in range(P)]
    for w in ws:
        queues[part_of(w.cur)].append(w)
    swaps = 0
    remaining = len(ws)
    while remaining > 0:
        p = max(range(P), key=lambda i: len(queues[i]))
        batch, queues[p] = queues[p], []
        swaps += 1
        for w in batch:
            while w.live and part_of(w.cur) == p:
                step(w)
            if w.live:
                queues[part_of(w.cur)].append(w)
            else:
                remaining -= 1
    return _walks(ws, timers=None, meta={"partition_loads": swaps, "n_partitions": P})


_RUNNERS = {
    "sequential": run_sequential,
    "interleaved": run_interleaved,
    "bsp": run_bsp,
    "asp": run_asp,
}
ENGINES = tuple(_RUNNERS)


def run_walks(
    csr: CSRGraph,
    app: RandomWalkApp,
    sources: np.ndarray,
    engine: str = "interleaved",
    seed: int = 0,
    qids: np.ndarray | None = None,
    **kw,
) -> WalkOutput:
    """Dispatch by engine name (see module docstring). ``qids`` default to
    the queries' positions in ``sources``."""
    if engine not in _RUNNERS:
        raise ValueError(f"unknown engine {engine!r}; pick one of {ENGINES}")
    sources = np.asarray(sources, dtype=np.int64)
    qids = np.arange(len(sources), dtype=np.int64) if qids is None else np.asarray(qids, dtype=np.int64)
    return _RUNNERS[engine](csr, app, sources, qids, seed, **kw)
