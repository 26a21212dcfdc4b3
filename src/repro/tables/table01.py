"""Table 1 — pipeline-slot breakdown & bandwidth: graph algorithms vs RW.

Paper setting (§3, on livejournal): BFS/SSSP via Ligra; PPR unbiased
(NAIVE, stop 0.2, |V| queries from one source); DeepWalk static (ALIAS,
L=80); Node2Vec dynamic (ALIAS init at runtime, a=2, b=0.5, L=80);
MetaPath dynamic (ALIAS, schema length 5). Here each workload's real
memory trace is run through the MSHR-limited cache simulator (window 1
for RW — a walk is one dependent chain; window=MSHR for BFS/SSSP — the
OoO engine overlaps independent per-edge loads).
"""
from __future__ import annotations

import pandas as pd

from repro.algos import make_app
from repro.perf import memsim, tmam, trace
from repro.tables import common

PAPER = pd.DataFrame(
    [
        ("BFS", 0.116, 0.091, 0.208, 0.406, 0.180, 51.7),
        ("SSSP", 0.091, 0.125, 0.249, 0.369, 0.166, 38.2),
        ("PPR", 0.006, 0.007, 0.158, 0.731, 0.097, 1.4),
        ("DeepWalk", 0.010, 0.039, 0.167, 0.697, 0.087, 5.6),
        ("Node2Vec", 0.115, 0.221, 0.243, 0.281, 0.141, 17.1),
        ("MetaPath", 0.062, 0.075, 0.297, 0.339, 0.227, 9.9),
    ],
    columns=["method", "front_end", "bad_spec", "core", "memory", "retiring",
             "bandwidth_gbs"],
)


def compute(
    scale: float = 1.0,
    n_queries: int = 500,
    n2v_queries: int = 60,
    walk_len: int = common.WALK_LEN,
) -> pd.DataFrame:
    g = common.dataset("lj", scale)
    cfg = memsim.SimConfig()
    rows = []

    src0 = int(common.sources_for(g, 1, seed=1)[0])
    for name, builder, window in [
        ("BFS", lambda: trace.build_bfs_lanes(g, src0), cfg.mshr),
        ("SSSP", lambda: trace.build_sssp_lanes(g, src0, rounds=1), cfg.mshr),
    ]:
        lanes, n = builder()
        b = tmam.breakdown(memsim.run_trace(lanes, cfg, window=window, n_steps=n), cfg)
        rows.append({"method": name, **b.as_row()})

    workloads = [
        ("PPR", make_app("ppr", stop_prob=common.PPR_STOP), n_queries, True),
        ("DeepWalk", make_app("deepwalk", length=walk_len), n_queries, False),
        ("Node2Vec",
         make_app("node2vec", a=common.N2V_A, b=common.N2V_B, length=min(walk_len, 20))
         .with_sampler("alias"),
         n2v_queries, False),
        ("MetaPath",
         make_app("metapath", csr=g, schema_len=common.SCHEMA_LEN, seed=0)
         .with_sampler("alias"),
         n_queries, False),
    ]
    for name, app, nq, single in workloads:
        srcs = common.sources_for(g, nq, seed=7, single_source=single)
        lanes, n = trace.build_rw_lanes(g, app, srcs, seed=common.SEED)
        b = tmam.breakdown(memsim.run_trace(lanes, cfg, window=1, n_steps=n), cfg)
        rows.append({"method": name, **b.as_row()})
    return pd.DataFrame(rows)
