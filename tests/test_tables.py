"""Table modules at unit-test scale: columns, shapes, paper constants."""
import math

import numpy as np
import pytest

from repro.tables import (
    common,
    table01,
    table02,
    table05,
    table06,
    table07_08,
    table09,
    table10,
    table11_12,
    table13,
)

BREAKDOWN_COLS = {"front_end", "bad_spec", "core", "memory", "retiring",
                  "bandwidth_gbs"}


def test_common_sources_single_source(small_graph):
    s = common.sources_for(small_graph, 50, single_source=True)
    assert len(np.unique(s)) == 1 and len(s) == 50


def test_table01_columns_and_fractions():
    df = table01.compute(scale=0.15, n_queries=60, n2v_queries=10, walk_len=10)
    assert set(df["method"]) == {"BFS", "SSSP", "PPR", "DeepWalk", "Node2Vec", "MetaPath"}
    assert BREAKDOWN_COLS <= set(df.columns)
    frac = df[["front_end", "bad_spec", "core", "memory", "retiring"]].sum(axis=1)
    assert ((frac > 0.85) & (frac < 1.15)).all()


def test_table01_paper_reference_rows():
    assert len(table01.PAPER) == 6
    assert table01.PAPER.set_index("method").loc["PPR", "memory"] == 0.731


def test_table02_fractions_sum():
    df = table02.compute(scale=0.15, n_queries=30, walk_len=10)
    s = df[["weight_frac", "init_frac", "gen_frac"]].sum(axis=1)
    assert (abs(s - 1.0) < 0.01).all()
    row = df.set_index("method")
    assert row.loc["PPR", "gen_frac"] == 1.0


def test_table05_all_datasets():
    df = table05.compute(scale=0.1)
    assert len(df) == 12
    assert (df["E"] > 0).all()
    assert (df["paper_d_max"] >= df["paper_d_avg"]).all()


def test_table06_paper_constants_complete():
    for algo, systems in [("ppr", 5), ("deepwalk", 4), ("node2vec", 4), ("metapath", 3)]:
        assert len(table06.PAPER[algo]) == 12
        for ds, row in table06.PAPER[algo].items():
            assert len(row) == systems, (algo, ds)
    # OOT cells encoded as inf
    assert math.isinf(table06.PAPER["node2vec"]["tw"]["BL"])


def test_table06_speedups_shape():
    import pandas as pd

    df = pd.DataFrame(
        [{"dataset": "am", "algo": "ppr", "system": s, "seconds": t}
         for s, t in [("TRW", 1.0), ("BL", 10.0), ("HG", 2.0)]]
    )
    sp = table06.speedups(df)
    assert float(sp[sp.system == "BL"]["x_slower_than_TRW"].iloc[0]) == 10.0


def test_table06_compute_small(spark):
    df = table06.compute(spark, datasets=["am"], scale=0.1,
                         n_queries={"ppr": 8, "deepwalk": 6, "node2vec": 4, "metapath": 6})
    # GW runs PPR only; KK cannot run MetaPath.
    assert len(df) == 16
    assert set(df.loc[df.system == "GW", "algo"]) == {"ppr"}
    assert "metapath" not in set(df.loc[df.system == "KK", "algo"])
    assert {"seconds", "engine_s", "preprocess_s", "wall_s", "e2e_s", "steps"} <= set(df.columns)
    # HG and TRW run the same samplers, so their walks are bitwise equal.
    steps = df.pivot_table(index="algo", columns="system", values="steps")
    assert (steps["HG"] == steps["TRW"]).all()
    assert (df.loc[df.algo.isin(["node2vec", "metapath"]), "preprocess_s"] == 0).all()


def test_table07_08_rows():
    t7 = table07_08.compute_t7(scale=0.15, n_queries=40, lengths=(5, 10))
    assert list(t7["length"]) == [5, 10]
    t8 = table07_08.compute_t8(scale=0.15, walk_len=10, query_counts=(8, 16))
    assert list(t8["n_queries"]) == [8, 16]
    assert BREAKDOWN_COLS <= set(t7.columns)


def test_table09_small():
    df = table09.compute(datasets=["am"], scale=0.1, max_k=16, max_queries=60)
    assert df.iloc[0]["tuning_seconds"] > 0
    assert df.iloc[0]["paper_seconds"] == 0.87


def test_table10_l1_is_baseline():
    df = table10.compute(scale=0.15, n_queries=40, walk_len=8, window=8)
    assert (df["l1"] == 1.0).all()
    assert len(df) == 5


def test_table11_12_delegate():
    t11 = table11_12.compute_t11(ring_size=8, scale=0.15, n_queries=40, lengths=(5,))
    assert list(t11["length"]) == [5]
    assert len(table11_12.PAPER_T11) == 6 and len(table11_12.PAPER_T12) == 7


def test_table13_orderings_small():
    df = table13.compute(scale=0.15, n_queries=60, walk_len=8, ring_size=16)
    for _, r in df.iterrows():
        assert r["instr_wo_si"] <= r["instr_w_si"] <= r["instr_amac"]
        assert r["cycles_w_si"] < r["cycles_wo_si"]
    assert set(df["method"]) == {"naive", "its", "alias", "rej", "orej"}


def test_paper_tables_breakdown_rows_sum_to_one():
    for paper in (table07_08.PAPER_T7, table07_08.PAPER_T8,
                  table11_12.PAPER_T11, table11_12.PAPER_T12):
        s = paper[["front_end", "bad_spec", "core", "memory", "retiring"]].sum(axis=1)
        assert ((s > 0.93) & (s < 1.07)).all()
