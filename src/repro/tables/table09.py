"""Table 9 — time spent tuning the ring sizes per dataset (§5.4).

The paper's tuning (static L=10 walk per vertex, k swept to 1024, then k'
swept to k*) takes 0.87 s (am) to 241 s (fs) on the full graphs. We run
the same protocol on the analogues; because this substrate vectorizes
cycle stages over the task ring, the k' pass sweeps the same engine
parameter bounded by k* (documented substitution).
"""
from __future__ import annotations

import pandas as pd

from repro.core.engine import MAX_RING_SIZE
from repro.core.tuning import tune_ring_sizes
from repro.tables import common

PAPER = pd.DataFrame(
    [
        ("am", 0.87), ("yt", 2.67), ("up", 9.45), ("eu", 2.55),
        ("ac", 35.12), ("ab", 39.23), ("lj", 13.19), ("ot", 9.82),
        ("wk", 132.4), ("uk", 51.86), ("tw", 156.37), ("fs", 241.44),
    ],
    columns=["dataset", "tuning_seconds"],
)

DEFAULT_DATASETS = ["am", "yt", "eu", "ac", "lj", "wk"]


def compute(
    datasets: list | None = None,
    scale: float = 1.0,
    max_k: int = MAX_RING_SIZE,
    max_queries: int = 2000,
) -> pd.DataFrame:
    rows = []
    for ds in datasets or DEFAULT_DATASETS:
        g = common.dataset(ds, scale)
        res = tune_ring_sizes(g, max_k=max_k, length=10, max_queries=max_queries)
        rows.append(
            {
                "dataset": ds,
                "tuning_seconds": round(res.elapsed_s, 2),
                "task_ring": res.task_ring,
                "search_ring": res.search_ring,
                "paper_seconds": float(
                    PAPER.set_index("dataset").loc[ds, "tuning_seconds"]
                ),
            }
        )
    return pd.DataFrame(rows)
