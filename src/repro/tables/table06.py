"""Table 6 — overall comparison: BL / HG / GW / KK / TRW × four algorithms.

Protocol (§6.1): PPR unbiased, stop 0.2, all queries from one source;
DeepWalk static weighted, L=80; Node2Vec dynamic (a=2, b=0.5), L=80;
MetaPath schema length 5. BL is serial; the other systems run one Spark
task per core. GW runs PPR only; KK cannot run MetaPath. Static RW cells
include the Algorithm 3 preprocessing time, as in the paper's metric.

Reported time (``seconds``) is the parallel makespan (max per-partition
engine time, plus driver preprocessing) — the analogue of the paper's wall
seconds without Spark's fixed job-submission overhead, which a 10-core C++
runtime does not have. ``wall_s`` times the collect alone; ``e2e_s`` is the
driver's wall time from Algorithm 3 until the walks are on the driver, what
a user of the cell waits for. A discarded TRW cell runs first, so that no
timed cell pays for starting Spark's Python workers. Query counts are
scaled ~1/1000 with the graphs.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd

from repro.algos import make_app
from repro.baselines.systems import SYSTEMS
from repro.core.spark_runner import run_system_spark
from repro.sampling import needs_tables, preprocess
from repro.tables import common

OOT = float("inf")

# Paper Table 6 (seconds); None = unsupported, inf = OOT (> 8 h).
PAPER: dict[str, dict[str, dict[str, float]]] = {
    "ppr": {
        "am": {"BL": 0.06, "HG": 0.008, "GW": 0.42, "KK": 0.012, "TRW": 0.007},
        "yt": {"BL": 0.33, "HG": 0.04, "GW": 1.68, "KK": 0.05, "TRW": 0.015},
        "up": {"BL": 1.24, "HG": 0.13, "GW": 7.19, "KK": 0.19, "TRW": 0.07},
        "eu": {"BL": 0.16, "HG": 0.02, "GW": 0.99, "KK": 0.03, "TRW": 0.011},
        "ac": {"BL": 4.84, "HG": 0.51, "GW": 19.31, "KK": 0.65, "TRW": 0.19},
        "ab": {"BL": 8.86, "HG": 0.94, "GW": 26.74, "KK": 1.09, "TRW": 0.26},
        "lj": {"BL": 1.69, "HG": 0.19, "GW": 7.90, "KK": 0.23, "TRW": 0.06},
        "ot": {"BL": 1.49, "HG": 0.16, "GW": 5.25, "KK": 0.19, "TRW": 0.04},
        "wk": {"BL": 21.86, "HG": 2.21, "GW": 47.05, "KK": 3.07, "TRW": 0.59},
        "uk": {"BL": 6.47, "HG": 0.69, "GW": 27.72, "KK": 0.90, "TRW": 0.24},
        "tw": {"BL": 26.42, "HG": 2.73, "GW": 77.12, "KK": 3.61, "TRW": 1.16},
        "fs": {"BL": 79.14, "HG": 8.20, "GW": 223.81, "KK": 10.72, "TRW": 4.10},
    },
    "deepwalk": {
        "am": {"BL": 2.16, "HG": 0.21, "KK": 0.44, "TRW": 0.07},
        "yt": {"BL": 9.78, "HG": 0.98, "KK": 1.93, "TRW": 0.26},
        "up": {"BL": 45.44, "HG": 4.33, "KK": 8.41, "TRW": 0.95},
        "eu": {"BL": 8.16, "HG": 0.82, "KK": 1.56, "TRW": 0.20},
        "ac": {"BL": 173.66, "HG": 17.86, "KK": 31.88, "TRW": 3.31},
        "ab": {"BL": 212.80, "HG": 22.24, "KK": 40.07, "TRW": 4.01},
        "lj": {"BL": 55.63, "HG": 5.44, "KK": 10.67, "TRW": 1.19},
        "ot": {"BL": 38.54, "HG": 3.70, "KK": 7.97, "TRW": 0.80},
        "wk": {"BL": 502.27, "HG": 49.67, "KK": 95.17, "TRW": 9.26},
        "uk": {"BL": 203.86, "HG": 20.42, "KK": 21.40, "TRW": 4.56},
        "tw": {"BL": 575.43, "HG": 61.18, "KK": 115.92, "TRW": 11.13},
        "fs": {"BL": 1043.93, "HG": 108.23, "KK": 208.45, "TRW": 17.67},
    },
    "node2vec": {
        "am": {"BL": 9.97, "HG": 0.26, "KK": 2.08, "TRW": 0.14},
        "yt": {"BL": 853.13, "HG": 1.30, "KK": 5.94, "TRW": 1.03},
        "up": {"BL": 369.00, "HG": 6.20, "KK": 16.92, "TRW": 4.01},
        "eu": {"BL": 2731.07, "HG": 1.47, "KK": 4.43, "TRW": 1.14},
        "ac": {"BL": 6951.12, "HG": 24.54, "KK": 87.86, "TRW": 6.26},
        "ab": {"BL": 26231.45, "HG": 32.04, "KK": 100.78, "TRW": 7.87},
        "lj": {"BL": 2951.33, "HG": 9.09, "KK": 24.95, "TRW": 6.20},
        "ot": {"BL": 5891.28, "HG": 7.28, "KK": 15.16, "TRW": 4.82},
        "wk": {"BL": OOT, "HG": 68.43, "KK": 216.24, "TRW": 27.68},
        "uk": {"BL": 12630.01, "HG": 34.36, "KK": 94.69, "TRW": 28.68},
        "tw": {"BL": OOT, "HG": 130.72, "KK": 232.41, "TRW": 91.00},
        "fs": {"BL": OOT, "HG": 178.15, "KK": 364.51, "TRW": 120.16},
    },
    "metapath": {
        "am": {"BL": 0.22, "HG": 0.018, "TRW": 0.012},
        "yt": {"BL": 6.18, "HG": 0.23, "TRW": 0.24},
        "up": {"BL": 4.88, "HG": 0.40, "TRW": 0.24},
        "eu": {"BL": 90.55, "HG": 3.18, "TRW": 3.55},
        "ac": {"BL": 45.01, "HG": 2.01, "TRW": 1.69},
        "ab": {"BL": 128.35, "HG": 5.06, "TRW": 4.47},
        "lj": {"BL": 18.08, "HG": 0.94, "TRW": 0.75},
        "ot": {"BL": 40.77, "HG": 1.72, "TRW": 1.57},
        "wk": {"BL": 5.98, "HG": 0.54, "TRW": 0.55},
        "uk": {"BL": 322.66, "HG": 12.84, "TRW": 12.56},
        "tw": {"BL": OOT, "HG": 12300.32, "TRW": 9780.20},
        "fs": {"BL": 683.05, "HG": 28.69, "TRW": 25.01},
    },
}

DEFAULT_DATASETS = ["am", "yt", "eu", "ac", "lj", "wk"]
DEFAULT_QUERIES = {"ppr": 4096, "deepwalk": 2048, "node2vec": 512, "metapath": 2048}


def _preprocess_time(csr, app) -> float:
    """Algorithm 3 cost for static/unbiased cells (part of the paper's
    'total time'); dynamic and table-free samplers pay none. The caller
    clears ``csr.aux`` first, so the tables are built, not looked up."""
    if not needs_tables(app):
        return 0.0
    t0 = time.perf_counter()
    preprocess.build(csr, app.sampler, app.table_kind())
    return time.perf_counter() - t0


def _inputs(g, algo: str, n_queries: int):
    """The cell's app at the §3 settings and its sources."""
    app = make_app(
        algo, csr=g, length=common.WALK_LEN,
        stop_prob=common.PPR_STOP, a=common.N2V_A, b=common.N2V_B,
        schema_len=common.SCHEMA_LEN,
    )
    return app, common.sources_for(g, n_queries, seed=7, single_source=(algo == "ppr"))


def _run_cell(spark, system: str, g, app, srcs) -> tuple[float, dict, float]:
    """One cell from empty table caches: (Algorithm 3 seconds, the runner's
    meta, the driver's seconds from Algorithm 3 to the collected walks)."""
    g.aux.clear()
    t0 = time.perf_counter()
    pre = _preprocess_time(g, SYSTEMS[system].app_for(app))
    _, meta = run_system_spark(spark, system, g, app, srcs, seed=common.SEED)
    return pre, meta, time.perf_counter() - t0


def compute(
    spark,
    datasets: list | None = None,
    scale: float = 1.0,
    n_queries: dict | None = None,
) -> pd.DataFrame:
    datasets = datasets or DEFAULT_DATASETS
    n_queries = n_queries or DEFAULT_QUERIES
    graphs = {ds: common.dataset(ds, scale) for ds in datasets}
    # One discarded parallel cell first starts Spark's Python workers, which
    # the first timed cells would otherwise carry in wall_s/e2e_s.
    g0 = graphs[datasets[0]]
    _run_cell(spark, "TRW", g0, *_inputs(g0, "ppr", n_queries["ppr"]))
    rows = []
    for ds, g in graphs.items():
        for algo in ("ppr", "deepwalk", "node2vec", "metapath"):
            app, srcs = _inputs(g, algo, n_queries[algo])
            for system, spec in SYSTEMS.items():
                if algo not in spec.supports:
                    continue
                pre, meta, e2e = _run_cell(spark, system, g, app, srcs)
                rows.append(
                    {
                        "dataset": ds,
                        "algo": algo,
                        "system": system,
                        "seconds": round(meta["engine_time_s"] + pre, 4),
                        "engine_s": round(meta["engine_time_s"], 4),
                        "preprocess_s": round(pre, 4),
                        "wall_s": round(meta["wall_s"], 3),
                        "e2e_s": round(e2e, 3),
                        "steps": meta["total_steps"],
                        "paper_s": PAPER[algo][ds].get(system),
                    }
                )
    return pd.DataFrame(rows)


def speedups(df: pd.DataFrame) -> pd.DataFrame:
    """Per (dataset, algo): each system's slowdown factor vs TRW."""
    out = []
    for (ds, algo), grp in df.groupby(["dataset", "algo"]):
        trw = grp.loc[grp["system"] == "TRW", "seconds"]
        if trw.empty:
            continue
        t = float(trw.iloc[0])
        for _, r in grp.iterrows():
            out.append({"dataset": ds, "algo": algo, "system": r["system"],
                        "x_slower_than_TRW": round(r["seconds"] / max(t, 1e-9), 2)})
    return pd.DataFrame(out)
