"""Stage-stream (lane) builders: real memory-access traces per workload.

A *lane* is one independent unit of work — a whole RW query, or one
frontier vertex's edge scan for BFS/SSSP — expressed as a list of stages
``(n_instr, addr | None, is_mispredicted_branch, is_cycle_stage)``.
Addresses use disjoint regions per CSR array, so the cache simulator sees
the same spatial structure the C++ engine would: indptr/degree lookups,
sampler-table probes, destination loads, streamed adjacency for Gather,
binary-search probes into N(prev) for Node2Vec.

RW lanes are generated by replaying each walk with the scalar engines'
stepper, which reports the candidates its sampler probed; the sampler's
SDG (:mod:`repro.core.sdg`) gives each step's stages, and the trace maps
their ``mem`` labels to addresses. The profiled trace is
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
_BISECT_INSTR = 12  # per N(prev) probe of Node2Vec's Weight UDF
_INIT_INSTR = {"its": 4, "alias": 15, "rej": 2}  # per gathered element
_SCRATCH_SLOT = 8192  # bytes of C-buffer per in-flight walker


def _scratch_base(qid: int) -> int:
    """Each in-flight walker reuses its own ring-slot buffer — hot in
    cache after the first step, exactly like the engine's C arrays."""
    return R_SCRATCH + (qid % 128) * _SCRATCH_SLOT


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


def _bisect_probes(n_instr: int, region: int, base_items: int, lo: int, hi: int, go_right) -> list:
    """Replay a binary search over [lo, hi), one probe stage per iteration;
    ``go_right(mid)`` is the comparison's outcome at ``mid``."""
    stages = []
    l, h = lo, hi
    it = 0
    while l < h:
        mid = (l + h) >> 1
        # Binary-search direction branches are near-coin-flips for the
        # predictor: model about a third of the iterations as mispredicted.
        stages.append((n_instr, region + (base_items + mid) * 8, it % 3 == 1, True))
        it += 1
        if go_right(mid):
            l = mid + 1
        else:
            h = mid
    return stages


def rw_lanes(csr: CSRGraph, app: RandomWalkApp, sources: np.ndarray, seed: int = 0):
    """Replay each query's walk, yielding ``(lane, path)`` per query; the
    path is the walk the engines emit for that query.

    Every step emits the sampler's SDG (:meth:`repro.core.sdg.SDG.split`):
    the d_v load, the Gather streams, the rest of the setup, the attempt
    stages once per probed candidate (also when the walker gives up), and
    the finish stages if the walker moved."""
    setup, attempt, finish = sdg_for(app.sampler).split()
    indptr, dst = csr.indptr, csr.dst
    walkers, step = _make_scalar_stepper(csr, app, seed)
    gather = gathers(app)
    n2v = app.name == "node2vec"
    init_instr = _INIT_INSTR.get(app.sampler, 3)

    def member_probes(prev: int, cand: int) -> list:
        """Node2Vec's dist-1 test: binary search of ``cand`` in N(prev)."""
        lo, hi = int(indptr[prev]), int(indptr[prev + 1])
        return _bisect_probes(_BISECT_INSTR, R_DST, 0, lo, hi, lambda mid: dst[mid] < cand)

    # The one map from an SDG stage's ``mem`` label to the address it loads
    # at the current step (``cur``, ``s``, ``slot``) for candidate ``x``
    # (ALIAS: the bucket). A dynamic probe evaluates the Weight UDF at E_v[x].
    weights = R_DST if app.walker_type is WalkerType.DYNAMIC else R_WEIGHT
    load = {
        "d_v": lambda x: R_INDPTR + 8 * cur,
        "p*_v": lambda x: R_PMAX + 8 * cur,
        "E_v[x] weight": lambda x: scratch + 8 * x if gather else weights + 8 * (s + x),
        "C[x]": lambda x: scratch + 16 * x if gather else R_TABLE + 16 * (s + x),
        **dict.fromkeys(("E_v[x]", "E_v[i]", "E_v-path"), lambda x: R_DST + 8 * slot),
    }

    def bind(st, cycle: bool):
        """Stage ``st``'s emitter for this run, ``f(lane, x, accepted)``,
        with its loader chosen once. A cycle (attempt) stage without a load
        is the jump, mispredicted unless its attempt was accepted; ITS's CDF
        search expands to one cycle stage per probe."""
        n = st.n_instr
        if st.mem is None:
            return lambda lane, x, accepted: lane.append((n, None, cycle and not accepted, cycle))
        if st.mem == "cum[mid]":
            # The CDF search ends at the chosen index, which fixes its path.
            def search(lane, x, accepted):
                region, base = (scratch, 0) if gather else (R_TABLE, s)
                lane += _bisect_probes(n, region, base, 0, d, lambda mid: mid < slot - s)
            return search
        addr = load[st.mem]
        if st.mem == "E_v[x] weight" and n2v and not gather:
            # O-REJ's probe is one Weight-UDF evaluation: Node2Vec
            # binary-searches N(prev) for the candidate.
            def probe(lane, x, accepted):
                if prev >= 0:
                    lane += member_probes(prev, int(dst[s + x]))
                lane.append((n, addr(x), False, cycle))
            return probe
        return lambda lane, x, accepted: lane.append((n, addr(x), False, cycle))

    load_dv, *setup_rest = [bind(st, False) for st in setup]
    attempt = [bind(st, True) for st in attempt]
    finish = [bind(st, False) for st in finish]

    sources = np.asarray(sources, dtype=np.int64)
    for w in walkers(np.arange(len(sources)), sources):
        scratch = _scratch_base(w.qid)
        lane: list = []
        while w.live:
            cur, prev = w.cur, w.prev
            s, e = int(indptr[cur]), int(indptr[cur + 1])
            d = e - s
            if d == 0:
                break
            probed: list = []
            slot = step(w, probed)
            load_dv(lane, None, False)
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
                lane += _stream_lines(scratch, 0, d, 8, init_instr)
            for f in setup_rest:
                f(lane, None, False)
            last = len(probed) - 1
            for a, x in enumerate(probed):
                accepted = slot >= 0 and a == last
                for f in attempt:
                    f(lane, x, accepted)
            if slot < 0:
                break
            x = probed[-1] if probed else None  # accepted candidate or ALIAS's bucket
            for f in finish:
                f(lane, x, False)
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
