"""Spark parallelization: mapInPandas walks over a broadcast CSR."""
import importlib
import sys
import zipfile
import zipimport

import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.algos import make_app
from repro.core.engine import run_walks
from repro.core.spark_runner import (
    _drop_zip_finders,
    collect_walks,
    queries_df,
    run_system_spark,
    run_walks_spark,
)
from repro.graph import generators as gen
from repro.oracle import assert_equivalent

SEED = 66


@pytest.fixture(scope="module")
def graph():
    return gen.make_dataset("lj", scale=0.2)


@pytest.fixture(scope="module")
def sources(graph):
    return gen.random_sources(graph, 200, seed=4)


def test_queries_df_partitioning(spark, sources):
    q = queries_df(spark, sources, 4)
    assert q.rdd.getNumPartitions() == 4
    assert q.count() == len(sources)


def test_spark_walks_bitwise_equal_local(spark, graph, sources):
    """Partitioning must not change any walk (qid-keyed RNG)."""
    app = make_app("deepwalk", length=10)
    df = run_walks_spark(spark, graph, app, sources, engine="interleaved",
                         seed=SEED, n_partitions=8)
    walks, meta = collect_walks(df)
    local = run_walks(graph, app, sources, engine="interleaved", seed=SEED)
    lp = local.to_pandas().sort_values(["query_id", "step"]).reset_index(drop=True)
    sp = walks.sort_values(["query_id", "step"]).reset_index(drop=True)[lp.columns]
    assert lp.astype("int64").equals(sp.astype("int64"))
    assert meta["n_partitions"] == 8
    assert meta["engine_time_s"] > 0
    assert meta["total_steps"] == local.total_steps


def test_bl_runs_single_partition(spark, graph, sources):
    app = make_app("deepwalk", length=5)
    _, meta = run_system_spark(spark, "BL", graph, app, sources[:50], seed=SEED)
    assert meta["n_partitions"] == 1


@pytest.mark.parametrize("system", ["HG", "KK", "TRW"])
def test_parallel_systems_return_all_walks(spark, system, graph, sources):
    app = make_app("deepwalk", length=5)
    walks, meta = run_system_spark(spark, system, graph, app, sources, seed=SEED)
    assert walks["query_id"].nunique() == len(sources)
    assert meta["system"] == system


def test_gw_spark_ppr(spark, graph, sources):
    walks, meta = run_system_spark(spark, "GW", graph, make_app("ppr"),
                                   sources, seed=SEED)
    assert walks["query_id"].nunique() == len(sources)


def test_walk_edges_validated_by_oracle(spark, graph, sources):
    """Every consecutive walk pair joins to a graph edge — counted in
    Spark SQL and diffed against DuckDB."""
    app = make_app("deepwalk", length=6)
    df = run_walks_spark(spark, graph, app, sources[:60], engine="interleaved",
                         seed=SEED, n_partitions=4)
    walks, _ = collect_walks(df)
    wdf = spark.createDataFrame(walks)
    nxt = wdf.select(
        "query_id", "step", F.col("vertex").alias("src")
    ).join(
        wdf.select("query_id", (F.col("step") - 1).alias("step"),
                   F.col("vertex").alias("dst")),
        on=["query_id", "step"],
    )
    edges = graph.to_edge_df(spark).select("src", "dst").distinct()
    hits = nxt.join(edges, on=["src", "dst"]).groupBy().agg(F.count("*").alias("n"))
    assert_equivalent(
        hits,
        """
        SELECT count(*) AS n
        FROM (SELECT w1.vertex AS src, w2.vertex AS dst
              FROM walks w1 JOIN walks w2
              ON w1.query_id = w2.query_id AND w2.step = w1.step + 1) s
        JOIN (SELECT DISTINCT src, dst FROM edges) e USING (src, dst)
        """,
        walks=walks,
        edges=graph.to_edge_pdf(),
    )
    # and the count equals the number of steps — every step is a real edge
    n_pairs = int(hits.toPandas()["n"][0])
    assert n_pairs == int((walks["step"] > 0).sum())


def test_ppr_end_distribution_oracle(spark, graph, sources):
    from repro.algos.ppr import end_vertex_distribution

    df = run_walks_spark(spark, graph, make_app("ppr"), sources, engine="interleaved",
                         seed=SEED, n_partitions=4)
    walks, _ = collect_walks(df)
    scores = end_vertex_distribution(spark.createDataFrame(walks))
    assert_equivalent(
        scores,
        """
        WITH ends AS (
          SELECT query_id, arg_max(vertex, step) AS vertex
          FROM walks GROUP BY query_id)
        SELECT vertex,
               count(*) / (SELECT count(*) FROM ends) AS score
        FROM ends GROUP BY vertex ORDER BY score DESC, vertex
        """,
        walks=walks,
    )
    total = scores.agg(F.sum("score").alias("s")).toPandas()["s"][0]
    assert total == pytest.approx(1.0)


def test_drop_zip_finders_keeps_zip_imports_working(tmp_path):
    """No zip finder survives the drop, so ``invalidate_caches`` re-reads no
    archive, and a module not yet imported from the zip still imports from
    zipimport's directory cache."""
    archive = str(tmp_path / "pkgs.zip")
    with zipfile.ZipFile(archive, "w") as z:
        z.writestr("zpkg/__init__.py", "")
        z.writestr("zpkg/first.py", "X = 1\n")
        z.writestr("zpkg/second.py", "Y = 2\n")
    saved_path, saved_cache = list(sys.path), dict(sys.path_importer_cache)
    sys.path.insert(0, archive)
    zip_finders = lambda: [f for f in sys.path_importer_cache.values()  # noqa: E731
                           if isinstance(f, zipimport.zipimporter)]
    try:
        assert importlib.import_module("zpkg.first").X == 1
        assert zip_finders()
        files = zipimport._zip_directory_cache[archive]
        _drop_zip_finders()
        assert zip_finders() == []
        importlib.invalidate_caches()
        assert zipimport._zip_directory_cache[archive] is files
        assert importlib.import_module("zpkg.second").Y == 2
        assert zipimport._zip_directory_cache[archive] is files
    finally:
        sys.path[:] = saved_path
        sys.path_importer_cache.clear()
        sys.path_importer_cache.update(saved_cache)
        for name in [m for m in sys.modules if m == "zpkg" or m.startswith("zpkg.")]:
            del sys.modules[name]
