"""Table 5 — dataset properties: paper graphs vs the synthetic analogues."""
from __future__ import annotations

import pandas as pd

from repro.graph import generators as gen

PAPER = pd.DataFrame(
    [(s.name, s.paper_v, s.paper_e, s.paper_davg, s.paper_dmax)
     for s in gen.SUITE.values()],
    columns=["name", "V_millions", "E_millions", "d_avg", "d_max"],
)


def compute(scale: float = 1.0) -> pd.DataFrame:
    rows = []
    for name in gen.SUITE:
        g = gen.make_dataset(name, scale=scale)
        spec = gen.SUITE[name]
        rows.append(
            {
                "name": name,
                "V": g.num_vertices,
                "E": g.num_edges,
                "d_avg": round(g.avg_degree, 2),
                "d_max": g.max_degree,
                "memory_mb": round(g.memory_bytes() / 2**20, 2),
                "paper_V_M": spec.paper_v,
                "paper_E_M": spec.paper_e,
                "paper_d_avg": spec.paper_davg,
                "paper_d_max": spec.paper_dmax,
            }
        )
    return pd.DataFrame(rows)
