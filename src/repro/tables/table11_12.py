"""Tables 11 & 12 — Tables 7/8 with step interleaving ON (Appendix C.3).

Same ALIAS micro-benchmark, now run through the interleaved executor
(window = the paper's ring size, ``memsim.SIM_RING_SIZE``). The paper's
finding: memory bound collapses (65% → ~8%), retiring quadruples,
bandwidth utilization rises ~6x.
"""
from __future__ import annotations

import pandas as pd

from repro.perf.memsim import SIM_RING_SIZE
from repro.tables import table07_08

PAPER_T11 = pd.DataFrame(
    [
        (5, 0.050, 0.108, 0.257, 0.270, 0.315, 29.4),
        (10, 0.064, 0.103, 0.299, 0.180, 0.361, 29.8),
        (20, 0.068, 0.106, 0.306, 0.124, 0.401, 30.8),
        (40, 0.068, 0.107, 0.310, 0.092, 0.423, 31.1),
        (80, 0.069, 0.108, 0.312, 0.079, 0.432, 31.1),
        (160, 0.070, 0.108, 0.313, 0.073, 0.437, 31.2),
    ],
    columns=["length", "front_end", "bad_spec", "core", "memory", "retiring",
             "bandwidth_gbs"],
)

PAPER_T12 = pd.DataFrame(
    [
        (100, 0.053, 0.065, 0.281, 0.273, 0.328, 26.1),
        (1_000, 0.063, 0.104, 0.307, 0.098, 0.428, 30.1),
        (10_000, 0.072, 0.111, 0.322, 0.077, 0.439, 29.0),
        (100_000, 0.069, 0.108, 0.311, 0.079, 0.432, 31.5),
        (1_000_000, 0.069, 0.108, 0.310, 0.080, 0.433, 31.4),
        (10_000_000, 0.069, 0.107, 0.314, 0.082, 0.428, 31.1),
        (100_000_000, 0.068, 0.107, 0.314, 0.084, 0.427, 31.0),
    ],
    columns=["n_queries", "front_end", "bad_spec", "core", "memory", "retiring",
             "bandwidth_gbs"],
)


def compute_t11(ring_size: int = SIM_RING_SIZE, **kw) -> pd.DataFrame:
    return table07_08.compute_t7(window=ring_size, **kw)


def compute_t12(**kw) -> pd.DataFrame:
    return table07_08.compute_t8(window=SIM_RING_SIZE, **kw)
