"""The Spark runner's walk job: only walk rows, no shuffle, streamed
batches, engine time by partition, and a broadcast released on collect."""
import os

import numpy as np
import pandas as pd
import pytest

from repro.algos import make_app
from repro.algos.ppr import end_vertex_distribution
from repro.core.spark_runner import _PartitionSeconds, collect_walks, queries_df, run_walks_spark
from repro.graph import generators as gen

SEED = 31
BATCH_KEY = "spark.sql.execution.arrow.maxRecordsPerBatch"


@pytest.fixture(scope="module")
def graph():
    return gen.make_dataset("lj", scale=0.2)


@pytest.fixture(scope="module")
def sources(graph):
    return gen.random_sources(graph, 200, seed=8)


def _sorted(walks):
    return walks.sort_values(["query_id", "step"]).reset_index(drop=True).astype("int64")


def test_lazy_walks_hold_only_walks(spark, graph, sources):
    """PPR scored straight from the lazy DataFrame scores real vertices only,
    and equals the scores of the collected walks."""
    job = run_walks_spark(spark, graph, make_app("ppr"), sources, engine="interleaved",
                          seed=SEED, n_partitions=4)
    assert job.walks.where("step < 0").count() == 0
    lazy = end_vertex_distribution(job.walks).toPandas()
    walks, meta = collect_walks(job)
    collected = end_vertex_distribution(spark.createDataFrame(walks)).toPandas()
    assert (lazy["vertex"] < graph.num_vertices).all()
    assert (lazy["vertex"] >= 0).all()
    by_vertex = lambda s: s.sort_values("vertex").reset_index(drop=True)  # noqa: E731
    assert by_vertex(lazy).equals(by_vertex(collected))
    # the job ran three times; each partition's engine time counts once
    assert meta["n_partitions"] == 4


def test_broadcast_released_after_collect(spark, graph, sources):
    job = run_walks_spark(spark, graph, make_app("deepwalk", length=5), sources[:40],
                          seed=SEED, n_partitions=2)
    path = job.broadcast._path
    assert os.path.exists(path)
    collect_walks(job)
    assert not os.path.exists(path)


def test_broadcast_released_when_job_fails(spark, graph, sources):
    job = run_walks_spark(spark, graph, make_app("deepwalk", length=5), sources[:40],
                          engine="nope", seed=SEED, n_partitions=2)
    path = job.broadcast._path
    with pytest.raises(Exception, match="unknown engine"):
        collect_walks(job)
    assert not os.path.exists(path)


def test_queries_df_has_no_shuffle(spark, sources):
    q = queries_df(spark, sources, 4)
    assert "Exchange" not in q._jdf.queryExecution().executedPlan().toString()
    ids = np.sort(q.toPandas()["query_id"].to_numpy())
    assert np.array_equal(ids, np.arange(len(sources)))


@pytest.mark.parametrize("engine", ["interleaved", "sequential"])
def test_walks_independent_of_arrow_batch_size(spark, graph, sources, engine):
    app = make_app("deepwalk", length=10)
    run = lambda: collect_walks(run_walks_spark(  # noqa: E731
        spark, graph, app, sources, engine=engine, seed=SEED, n_partitions=4))
    walks, meta = run()
    saved = spark.conf.get(BATCH_KEY)
    spark.conf.set(BATCH_KEY, "7")
    try:
        small, small_meta = run()
    finally:
        spark.conf.set(BATCH_KEY, saved)
    assert _sorted(small).equals(_sorted(walks))
    assert small_meta["n_partitions"] == meta["n_partitions"] == 4
    assert small_meta["total_steps"] == meta["total_steps"]


def test_python_workers_reused_across_walk_jobs(spark, graph, sources):
    """Python workers outlive a job: after each of two consecutive walk
    jobs, the workers that ran its walk tasks serve the next job, and the
    two jobs' workers overlap. ``spark_runner._drop_zip_finders`` relies
    on it, since a task's finder drop only helps the worker's next task."""

    def worker(batches):
        import sys
        for _ in batches:
            pass
        yield pd.DataFrame({"pid": [os.getpid()],
                            "walked": ["repro.core.spark_runner" in sys.modules]})

    app = make_app("deepwalk", length=5)
    seen = []
    for _ in range(2):
        collect_walks(run_walks_spark(spark, graph, app, sources, seed=SEED, n_partitions=4))
        w = queries_df(spark, sources, 4).mapInPandas(worker, "pid LONG, walked BOOLEAN").toPandas()
        assert w["walked"].any(), w
        seen.append(set(w.loc[w["walked"], "pid"]))
    assert seen[0] & seen[1], seen


def test_partition_seconds_last_write_wins():
    """A retried task reports its partition again; the retry replaces it."""
    param = _PartitionSeconds()
    acc = param.zero({0: 9.0})
    assert acc == {}
    for update in ({0: 1.0}, {1: 2.0}, {0: 3.0}):
        acc = param.addInPlace(acc, update)
    assert acc == {0: 3.0, 1: 2.0}
