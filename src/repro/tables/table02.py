"""Table 2 — per-step time breakdown: compute p(e) / sampler Init / Gen.

Paper setting (§3): BL-style execution — PPR (NAIVE), DeepWalk (ALIAS,
preprocessed), Node2Vec and MetaPath dynamic with ALIAS initialized at
runtime. PPR/DeepWalk therefore spend 100% in Gen; Node2Vec is dominated
by computing p(e) (binary searches), MetaPath by ALIAS Init.

Measured with the engines' phase timers; the complexity column restates
the paper's analytical entries, which the tests verify empirically.
"""
from __future__ import annotations

import pandas as pd

from repro.algos import make_app
from repro.core.engine import run_walks
from repro.tables import common

PAPER = pd.DataFrame(
    [
        ("PPR", None, None, 1.0, "N/A", "N/A", "O(1)"),
        ("DeepWalk", None, None, 1.0, "N/A", "N/A", "O(1)"),
        ("Node2Vec", 0.899, 0.099, 0.002, "O(d_v log d_u)", "O(d_v)", "O(1)"),
        ("MetaPath", 0.290, 0.699, 0.011, "O(d_v)", "O(d_v)", "O(1)"),
    ],
    columns=["method", "weight_frac", "init_frac", "gen_frac",
             "cx_weight", "cx_init", "cx_gen"],
)


def compute(
    scale: float = 1.0,
    n_queries: int = 200,
    walk_len: int = 40,
) -> pd.DataFrame:
    g = common.dataset("lj", scale)
    rows = []
    workloads = [
        ("PPR", make_app("ppr", stop_prob=common.PPR_STOP), n_queries * 4),
        ("DeepWalk", make_app("deepwalk", length=walk_len), n_queries),
        ("Node2Vec",
         make_app("node2vec", a=common.N2V_A, b=common.N2V_B, length=walk_len)
         .with_sampler("alias"), max(20, n_queries // 5)),
        ("MetaPath",
         make_app("metapath", csr=g, schema_len=common.SCHEMA_LEN, seed=0)
         .with_sampler("alias"), n_queries * 2),
    ]
    for name, app, nq in workloads:
        srcs = common.sources_for(g, nq, seed=7)
        timers: dict = {}
        run_walks(g, app, srcs, engine="sequential", seed=common.SEED, timers=timers)
        w = timers.get("weight", 0.0)
        i = timers.get("init", 0.0)
        ge = timers.get("gen", 0.0)
        tot = max(1e-12, w + i + ge)
        rows.append(
            {"method": name,
             "weight_frac": round(w / tot, 3),
             "init_frac": round(i / tot, 3),
             "gen_frac": round(ge / tot, 3),
             "total_s": round(tot, 4)}
        )
    return pd.DataFrame(rows)
