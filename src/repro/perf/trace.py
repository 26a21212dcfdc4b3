"""Stage-stream (lane) builders: real memory-access traces per workload.

A *lane* is one independent unit of work — a whole RW query, or one
frontier vertex's edge scan for BFS/SSSP — expressed as a list of stages
``(n_instr, addr | None, is_mispredicted_branch, is_cycle_stage)``.
Addresses use disjoint regions per CSR array, so the cache simulator sees
the same spatial structure the C++ engine would: indptr/degree lookups,
sampler-table probes, destination loads, streamed adjacency for Gather,
binary-search probes into N(prev) for Node2Vec.

RW lanes are generated by replaying each walk with the scalar engines'
stepper, which reports the candidates its sampler probed; the trace only
chooses the SDG stages and addresses for them. The profiled trace is
therefore the real workload, not a synthetic access pattern.
"""
from __future__ import annotations

import numpy as np

from repro.core.engine import _make_scalar_stepper
from repro.core.model import RandomWalkApp, WalkerType
from repro.core.sdg import sdg_for
from repro.graph.csr import CSRGraph
from repro.sampling import gathers

# Disjoint address regions (bytes).
R_INDPTR = 0
R_DST = 1 << 32
R_WEIGHT = 2 << 32
R_TABLE = 3 << 32
R_PMAX = 4 << 32
R_LABEL = 5 << 32
R_DIST = 6 << 32
R_SCRATCH = 7 << 32  # per-walker Gather/Init buffers (ring slot C, §4.2)

_GATHER_INSTR_PER_EDGE = 10
_BISECT_INSTR = 12
_INIT_INSTR = {"its": 4, "alias": 15, "rej": 2}  # per gathered element
_SCRATCH_SLOT = 8192  # bytes of C-buffer per in-flight walker


def _scratch_base(qid: int) -> int:
    """Each in-flight walker reuses its own ring-slot buffer — hot in
    cache after the first step, exactly like the engine's C arrays."""
    return R_SCRATCH + (qid % 128) * _SCRATCH_SLOT


def _instr(method: str) -> dict[str, int]:
    return {s.name: s.n_instr for s in sdg_for(method).stages}


def _stream_lines(region: int, start: int, end: int, width: int, instr_per_item: int):
    """Stages for a sequential scan of items [start, end): one stage per
    cache line, carrying the line's aggregate instruction count."""
    stages = []
    if end <= start:
        return stages
    first = (region + start * width) // 64
    last = (region + (end * width) - 1) // 64
    items_per_line = max(1, 64 // width)
    for line in range(first, last + 1):
        stages.append((instr_per_item * items_per_line, line * 64, False, False))
    return stages


def _bisect_probes(region: int, base_items: int, lo: int, hi: int, go_right) -> list:
    """Replay a binary search over [lo, hi), one probe stage per iteration;
    ``go_right(mid)`` is the comparison's outcome at ``mid``."""
    stages = []
    l, h = lo, hi
    it = 0
    while l < h:
        mid = (l + h) >> 1
        # Binary-search direction branches are near-coin-flips for the
        # predictor: model about a third of the iterations as mispredicted.
        stages.append((_BISECT_INSTR, region + (base_items + mid) * 8, it % 3 == 1, True))
        it += 1
        if go_right(mid):
            l = mid + 1
        else:
            h = mid
    return stages


def rw_lanes(csr: CSRGraph, app: RandomWalkApp, sources: np.ndarray, seed: int = 0):
    """Replay each query's walk, yielding ``(lane, path)`` per query; the
    path is the walk the engines emit for that query."""
    sampler = app.sampler
    ins = _instr(sampler)
    indptr, dst = csr.indptr, csr.dst
    walkers, step = _make_scalar_stepper(csr, app, seed)
    dynamic = app.walker_type is WalkerType.DYNAMIC
    gather = gathers(app)
    rej = sampler == "rej"
    n2v = app.name == "node2vec"

    def member_probes(prev: int, cand: int) -> list:
        """Node2Vec's dist-1 test: binary search of ``cand`` in N(prev)."""
        lo, hi = int(indptr[prev]), int(indptr[prev + 1])
        return _bisect_probes(R_DST, 0, lo, hi, lambda mid: dst[mid] < cand)

    sources = np.asarray(sources, dtype=np.int64)
    for w in walkers(np.arange(len(sources)), sources):
        qid = w.qid
        lane: list = []
        while w.live:
            cur, prev = w.cur, w.prev
            s, e = int(indptr[cur]), int(indptr[cur + 1])
            d = e - s
            if d == 0:
                break
            lane.append((ins["S0"], R_INDPTR + 8 * cur, False, False))
            if gather:
                # Gather: stream E_cur (+ Node2Vec's member-probes in N(prev)).
                lane += _stream_lines(R_DST, s, e, 8, _GATHER_INSTR_PER_EDGE)
                if app.name == "metapath":
                    lane += _stream_lines(R_LABEL, s, e, 4, 2)
                if n2v and prev >= 0:
                    for cand in dst[s:e]:
                        lane += member_probes(prev, int(cand))
                # Init phase: pass over the gathered weights in the
                # walker's own (cache-hot) scratch buffer.
                lane += _stream_lines(
                    _scratch_base(qid), 0, d, 8, _INIT_INSTR.get(sampler, 3)
                )
            probed: list = []
            slot = step(w, probed)
            if sampler in ("rej", "orej"):
                # Load p* (REJ), then one probe + test per attempt, emitted
                # even when the walker gives up.
                if rej:
                    lane.append((ins["S1"], R_PMAX + 8 * cur, False, False))
                probe_instr, test_instr = (ins["S2"], ins["S3"]) if rej else (ins["S1"], ins["S2"])
                for a, xi in enumerate(probed):
                    if rej and gather:
                        addr = _scratch_base(qid) + 8 * xi
                    elif not dynamic:
                        addr = R_WEIGHT + 8 * (s + xi)
                    else:
                        # O-REJ dynamic probe = one Weight-UDF evaluation:
                        # Node2Vec binary-searches N(prev) for the candidate.
                        if n2v and prev >= 0:
                            lane += member_probes(prev, int(dst[s + xi]))
                        addr = R_DST + 8 * (s + xi)
                    hit = slot >= 0 and a == len(probed) - 1
                    lane.append((probe_instr, addr, False, True))
                    lane.append((test_instr, None, not hit, True))
            if slot < 0:
                break
            if sampler == "naive":
                lane.append((ins["S1"], R_DST + 8 * slot, False, False))
                lane.append((ins["S2"], None, False, False))
            elif sampler == "its":
                region, base = (_scratch_base(qid), 0) if gather else (R_TABLE, s)
                lane.append((ins["S1"], None, False, False))
                # The CDF search ends at the chosen index, which fixes its path.
                lane += _bisect_probes(region, base, 0, d, lambda mid: mid < slot - s)
                lane.append((ins["S3"], R_DST + 8 * slot, False, False))
                lane.append((ins["S4"], None, False, False))
            elif sampler == "alias":
                xi = probed[0]
                slot_addr = _scratch_base(qid) + 16 * xi if gather else R_TABLE + 16 * (s + xi)
                lane.append((ins["S1"], slot_addr, False, False))
                lane.append((ins["S2"], R_DST + 8 * slot, False, False))
            elif rej:
                lane.append((ins["S4"], R_DST + 8 * slot, False, False))
                lane.append((ins["S5"], None, False, False))
            else:
                lane.append((ins["S3"], None, False, False))
        yield lane, w.path


def build_rw_lanes(
    csr: CSRGraph,
    app: RandomWalkApp,
    sources: np.ndarray,
    seed: int = 0,
) -> tuple[list, int]:
    """Replay walks, emitting per-query lanes. Returns (lanes, total_steps)."""
    lanes: list = []
    total_steps = 0
    for lane, path in rw_lanes(csr, app, sources, seed):
        lanes.append(lane)
        total_steps += len(path) - 1
    return lanes, total_steps


def build_bfs_lanes(csr: CSRGraph, source: int) -> tuple[list, int]:
    """BFS trace: one lane per frontier vertex — indptr lookup, streamed
    adjacency lines, one random dist-array probe per neighbor."""
    from repro.algos.bfs import bfs_csr

    dist = bfs_csr(csr, source)
    order = np.argsort(dist, kind="stable")
    order = order[dist[order] >= 0]
    lanes = []
    edges = 0
    for v in order:
        s, e = int(csr.indptr[v]), int(csr.indptr[v + 1])
        lane = [(10, R_INDPTR + 8 * int(v), False, False)]
        lane += _stream_lines(R_DST, s, e, 8, 4)
        for u in csr.dst[s:e]:
            lane.append((4, R_DIST + 8 * int(u), False, False))
        edges += e - s
        lanes.append(lane)
    return lanes, edges


def build_sssp_lanes(csr: CSRGraph, source: int, rounds: int = 2) -> tuple[list, int]:
    """Bellman-Ford-style trace: per round, every vertex scans its edges
    (dst + weight streams) and probes the dist array per neighbor."""
    lanes = []
    edges = 0
    for _ in range(rounds):
        for v in range(csr.num_vertices):
            s, e = int(csr.indptr[v]), int(csr.indptr[v + 1])
            if e == s:
                continue
            lane = [(12, R_INDPTR + 8 * v, False, False)]
            lane += _stream_lines(R_DST, s, e, 8, 4)
            lane += _stream_lines(R_WEIGHT, s, e, 8, 3)
            for u in csr.dst[s:e]:
                lane.append((6, R_DIST + 8 * int(u), False, False))
            edges += e - s
            lanes.append(lane)
    return lanes, edges
