"""Table 13 — instructions & cycles per step: wo/si vs w/si vs AMAC.

Appendix C.5: the same static micro-benchmark traces are executed under
three switch mechanisms. ThunderRW's coupled/decoupled split pays state-
keeping overhead only on cycle stages; AMAC's full state machine pays it
on every stage, so AMAC needs more instructions per step (dramatically so
for the multi-stage cycle methods ITS/REJ/O-REJ) and burns more cycles.
"""
from __future__ import annotations

import pandas as pd

from repro.algos import deepwalk
from repro.perf import amac, memsim, trace
from repro.sampling import METHODS
from repro.tables import common

PAPER = pd.DataFrame(
    [
        ("naive", 131.24, 132.32, 137.42, 596.12, 111.26, 112.55),
        ("its", 157.06, 335.75, 681.05, 1716.52, 327.65, 537.09),
        ("alias", 134.56, 139.17, 179.54, 740.73, 139.14, 140.26),
        ("rej", 187.87, 260.83, 464.78, 940.75, 273.44, 352.84),
        ("orej", 180.14, 264.56, 414.27, 1000.66, 333.21, 392.21),
    ],
    columns=["method", "instr_wo_si", "instr_w_si", "instr_amac",
             "cycles_wo_si", "cycles_w_si", "cycles_amac"],
)


def compute(
    scale: float = 1.0,
    n_queries: int = 400,
    walk_len: int = 40,
    ring_size: int = memsim.SIM_RING_SIZE,
) -> pd.DataFrame:
    g = common.dataset("lj", scale)
    srcs = common.sources_for(g, n_queries, seed=7)
    cfg = memsim.SimConfig()
    rows = []
    for m in METHODS:
        app = deepwalk.for_method(m, walk_len)
        lanes, n = trace.build_rw_lanes(g, app, srcs, seed=common.SEED)
        res = amac.compare_mechanisms(lanes, n, cfg, window=ring_size)
        rows.append(
            {
                "method": m,
                "instr_wo_si": round(res["wo/si"].instructions / n, 2),
                "instr_w_si": round(res["w/si"].instructions / n, 2),
                "instr_amac": round(res["amac"].instructions / n, 2),
                "cycles_wo_si": round(res["wo/si"].cycles / n, 2),
                "cycles_w_si": round(res["w/si"].cycles / n, 2),
                "cycles_amac": round(res["amac"].cycles / n, 2),
            }
        )
    return pd.DataFrame(rows)
