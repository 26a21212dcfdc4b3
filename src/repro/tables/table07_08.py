"""Tables 7 & 8 — breakdown/bandwidth vs walk length and query count (wo/si).

Appendix A micro-benchmark: ALIAS-sampled static walks from random
sources; Table 7 varies the target length (5..160), Table 8 the number of
queries (10^2..10^8, scaled down ~1/1000 with the graphs). The paper's
finding: memory bound stays >60% and bandwidth stays far below the
machine maximum regardless of either knob.
"""
from __future__ import annotations

import pandas as pd

from repro.algos import make_app
from repro.perf import memsim, tmam, trace
from repro.tables import common

PAPER_T7 = pd.DataFrame(
    [
        (5, 0.036, 0.055, 0.166, 0.613, 0.130, 7.7),
        (10, 0.027, 0.040, 0.185, 0.634, 0.112, 6.6),
        (20, 0.027, 0.041, 0.181, 0.640, 0.111, 6.0),
        (40, 0.025, 0.040, 0.181, 0.645, 0.109, 5.8),
        (80, 0.023, 0.037, 0.186, 0.648, 0.106, 5.6),
        (160, 0.023, 0.036, 0.185, 0.650, 0.105, 5.6),
    ],
    columns=["length", "front_end", "bad_spec", "core", "memory", "retiring",
             "bandwidth_gbs"],
)

PAPER_T8 = pd.DataFrame(
    [
        (100, 0.041, 0.026, 0.165, 0.664, 0.104, 5.9),
        (1_000, 0.045, 0.074, 0.121, 0.638, 0.122, 8.0),
        (10_000, 0.044, 0.069, 0.127, 0.643, 0.118, 6.6),
        (100_000, 0.040, 0.062, 0.165, 0.609, 0.124, 6.0),
        (1_000_000, 0.027, 0.041, 0.190, 0.632, 0.110, 5.8),
        (10_000_000, 0.023, 0.037, 0.186, 0.648, 0.106, 5.6),
        (100_000_000, 0.023, 0.036, 0.185, 0.651, 0.105, 5.6),
    ],
    columns=["n_queries", "front_end", "bad_spec", "core", "memory", "retiring",
             "bandwidth_gbs"],
)

LENGTHS = (5, 10, 20, 40, 80, 160)
# paper 10^2..10^8 scaled ~1/1000 (capped for trace-simulation time)
QUERY_COUNTS = (8, 32, 128, 512, 1024, 2048)


def _row(g, n_queries, length, window):
    app = make_app("deepwalk", length=length)  # static ALIAS micro-benchmark
    srcs = common.sources_for(g, n_queries, seed=7)
    lanes, n = trace.build_rw_lanes(g, app, srcs, seed=common.SEED)
    cfg = memsim.SimConfig()
    return tmam.breakdown(
        memsim.run_trace(lanes, cfg, window=window, n_steps=n), cfg
    ).as_row()


def compute_t7(
    scale: float = 1.0, n_queries: int = 512, lengths: tuple = LENGTHS, window: int = 1,
) -> pd.DataFrame:
    g = common.dataset("lj", scale)
    return pd.DataFrame(
        [{"length": L, **_row(g, n_queries, L, window)} for L in lengths]
    )


def compute_t8(
    scale: float = 1.0, walk_len: int = 80, query_counts: tuple = QUERY_COUNTS, window: int = 1,
) -> pd.DataFrame:
    g = common.dataset("lj", scale)
    return pd.DataFrame(
        [{"n_queries": nq, **_row(g, nq, walk_len, window)} for nq in query_counts]
    )
