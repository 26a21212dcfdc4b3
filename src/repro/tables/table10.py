"""Table 10 — prefetch destination cache level (Appendix C.2).

ThunderRW issues ``_mm_prefetch`` with a locality hint; the paper finds
L1/L2/L3 hints within a few percent of each other and the non-temporal
hint clearly worse (bypassing L2/L3 turns L3 hits into DRAM misses). We
sweep the same four hints in the simulator's interleaved mode for all
five sampling methods and report speedup relative to the L1 hint.
"""
from __future__ import annotations

import pandas as pd

from repro.algos import deepwalk
from repro.perf import memsim, trace
from repro.sampling import METHODS
from repro.tables import common

PAPER = pd.DataFrame(
    [
        ("naive", 1.00, 0.97, 0.95, 0.79),
        ("its", 1.00, 1.01, 1.00, 0.95),
        ("alias", 1.00, 0.95, 0.95, 0.80),
        ("rej", 1.00, 1.00, 0.99, 0.92),
        ("orej", 1.00, 1.01, 1.01, 0.96),
    ],
    columns=["method", "l1", "l2", "l3", "non_temporal"],
)

_HINTS = {"l1": "t0", "l2": "t1", "l3": "t2", "non_temporal": "nta"}


def compute(
    scale: float = 1.0,
    n_queries: int = 400,
    walk_len: int = 40,
    window: int = memsim.SIM_RING_SIZE,
) -> pd.DataFrame:
    g = common.dataset("lj", scale)
    srcs = common.sources_for(g, n_queries, seed=7)
    cfg = memsim.SimConfig()
    rows = []
    for m in METHODS:
        app = deepwalk.for_method(m, walk_len)
        lanes, n = trace.build_rw_lanes(g, app, srcs, seed=common.SEED)
        cycles = {
            col: memsim.run_trace(lanes, cfg, window=window, n_steps=n,
                                  prefetch_level=hint).cycles
            for col, hint in _HINTS.items()
        }
        base = cycles["l1"]
        rows.append({"method": m,
                     **{col: round(base / c, 2) for col, c in cycles.items()}})
    return pd.DataFrame(rows)
