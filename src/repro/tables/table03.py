"""Table 3 — time complexity of ThunderRW per RW type × sampling method.

The paper's table is analytical; we validate it empirically: per-step
cost of the interleaved engine on unbiased/static/dynamic workloads for
every applicable sampler, on a low-degree and a high-degree graph. The
relations the table implies (and which the job asserts):

* dynamic steps cost more than static/unbiased (the Gather term d_avg);
* dynamic ITS/ALIAS/REJ cost grows with d_avg, O-REJ's does not;
* NAIVE is unbiased-only; static == unbiased cost-wise.
"""
from __future__ import annotations

import time

import pandas as pd

from repro.algos import deepwalk, node2vec
from repro.core.engine import run_walks
from repro.graph import generators as gen
from repro.sampling import SAMPLERS
from repro.tables import common

PAPER = pd.DataFrame(
    [
        ("naive", "O(T)", "N/A", "N/A"),
        ("its", "O(|E| + T log d)", "same as unbiased", "O(T (d + log d))"),
        ("alias", "O(|E| + T)", "same as unbiased", "O(T (d + 1))"),
        ("rej", "O(|E| + T·E)", "same as unbiased", "O(T (d + E))"),
        ("orej", "O(T·E)", "same as unbiased", "same as unbiased"),
    ],
    columns=["method", "unbiased", "static", "dynamic"],
)

_SAMPLERS = {kind: [m for m, rec in SAMPLERS.items() if kind == "unbiased" or not rec.unbiased_only]
             for kind in ("unbiased", "static", "dynamic")}

N_QUERIES = 2000
WALK_LEN = 20


def _ns_per_step(csr, app, srcs) -> float:
    t0 = time.perf_counter()
    out = run_walks(csr, app, srcs, engine="interleaved", seed=common.SEED, ring_size=256)
    dt = time.perf_counter() - t0
    return dt / max(1, out.total_steps) * 1e9


def compute() -> pd.DataFrame:
    graphs = {
        "low_deg": gen.erdos_renyi(4000, 12_000, seed=5, name="low"),   # d≈6
        "high_deg": gen.erdos_renyi(2000, 60_000, seed=5, name="high"),  # d≈60
    }
    rows = []
    for gname, g in graphs.items():
        srcs = common.sources_for(g, N_QUERIES, seed=7)
        for rw_type, samplers in _SAMPLERS.items():
            for m in samplers:
                if rw_type == "dynamic":
                    app = node2vec.make_app(length=WALK_LEN).with_sampler(m)
                else:
                    app = deepwalk.make_app(
                        length=WALK_LEN, weighted=(rw_type == "static")
                    ).with_sampler(m)
                rows.append(
                    {"graph": gname, "rw_type": rw_type, "method": m,
                     "d_avg": round(g.avg_degree, 1),
                     "ns_per_step": round(_ns_per_step(g, app, srcs), 1)}
                )
    return pd.DataFrame(rows)


def check_relations(df: pd.DataFrame) -> list[str]:
    """Assert the complexity relations; returns violation messages."""
    bad = []
    p = df.pivot_table(index=["graph", "method"], columns="rw_type",
                       values="ns_per_step")
    for (gname, m), r in p.iterrows():
        if m != "orej" and not pd.isna(r.get("dynamic")) and r["dynamic"] < r["static"]:
            bad.append(f"{gname}/{m}: dynamic ({r['dynamic']}) < static ({r['static']})")
    # dynamic gather cost grows with degree for ITS/ALIAS/REJ
    for m in ("its", "alias", "rej"):
        lo = p.loc[("low_deg", m), "dynamic"]
        hi = p.loc[("high_deg", m), "dynamic"]
        if hi < lo:
            bad.append(f"dynamic {m}: high-degree ({hi}) cheaper than low ({lo})")
    return bad
