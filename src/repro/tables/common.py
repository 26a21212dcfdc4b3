"""Shared workload builders and pretty-printing for the table modules."""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.graph import generators as gen
from repro.graph.csr import CSRGraph

# §3 experiment settings, used across Tables 1/2/6.
PPR_STOP = 0.2
WALK_LEN = 80
N2V_A, N2V_B = 2.0, 0.5
SCHEMA_LEN = 5
# Walk seed of every table's runs (the counter RNG's seed, rng.key).
SEED = 3


def dataset(name: str = "lj", scale: float = 1.0, seed: int = 42) -> CSRGraph:
    return gen.make_dataset(name, scale=scale, seed=seed)


def sources_for(csr: CSRGraph, n_queries: int, seed: int = 7, single_source: bool = False) -> np.ndarray:
    """§3 protocol: PPR issues all queries from one vertex; the other
    algorithms start one query per (sampled) vertex."""
    if single_source:
        v = int(gen.random_sources(csr, 1, seed=seed)[0])
        return np.full(n_queries, v, dtype=np.int64)
    return gen.random_sources(csr, n_queries, seed=seed)


def print_table(title: str, df: pd.DataFrame, paper: pd.DataFrame | None = None) -> None:
    pd.set_option("display.width", 200)
    print(f"\n=== {title} (measured) ===")
    print(df.to_string(index=False))
    if paper is not None:
        print(f"\n--- {title} (paper) ---")
        print(paper.to_string(index=False))
