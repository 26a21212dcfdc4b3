"""Spark parallelization of the walk engines.

The paper parallelizes by statically assigning queries to OpenMP threads
(§4.2 "Parallelization"). Here the queries are a ``spark.range`` of query
ids in N partitions; each partition executes the chosen engine over a
*broadcast* CSR inside Arrow-backed ``mapInPandas``, one Arrow batch at a
time, and streams out long-format walk rows. Whole-graph sampler
preprocessing (Algorithm 3) runs once on the driver before the broadcast
so executors share the tables.

The engine cannot be a Catalyst rewrite — each step consumes a random
draw over the previous step's adjacency, an inherently sequential
stochastic dependence — so per the layering rule it is implemented as a
``DataFrame → DataFrame`` physical transformation; all surrounding
relational work (query generation, validation, scoring) stays in Spark
SQL.

The walks DataFrame holds only walks. Each partition reports its engine
seconds through an accumulator keyed by partition id. A job is collected
once: :func:`collect_walks` reads the accumulator and releases the
broadcast.
"""
from __future__ import annotations

import time
from typing import Iterator, NamedTuple

import numpy as np
import pandas as pd
from pyspark import Accumulator, AccumulatorParam, Broadcast, TaskContext
from pyspark.sql import DataFrame, SparkSession

from repro.baselines.systems import SYSTEMS
from repro.core import engine as eng
from repro.core.model import RandomWalkApp
from repro.graph.csr import CSRGraph
from repro.sampling import sampler_for

WALK_SCHEMA = "query_id LONG, step INT, vertex LONG"


class _PartitionSeconds(AccumulatorParam):
    """Engine seconds by partition id; a retried task overwrites its entry."""

    def zero(self, value: dict) -> dict:
        return {}

    def addInPlace(self, acc: dict, update: dict) -> dict:
        acc.update(update)
        return acc


class WalkJob(NamedTuple):
    """Lazy walks, engine seconds by partition, and the CSR broadcast."""

    walks: DataFrame
    engine_s: Accumulator
    broadcast: Broadcast


def queries_df(spark: SparkSession, sources: np.ndarray, n_partitions: int) -> DataFrame:
    """Query ids ``0..len(sources)-1`` as a DataFrame in contiguous partitions."""
    return spark.range(len(sources), numPartitions=max(1, n_partitions)).toDF("query_id")


def run_walks_spark(
    spark: SparkSession,
    csr: CSRGraph,
    app: RandomWalkApp,
    sources: np.ndarray,
    engine: str = "interleaved",
    seed: int = 0,
    n_partitions: int | None = None,
    **engine_kwargs,
) -> WalkJob:
    """Distribute the queries and run ``engine`` per partition.

    Returns the lazy job; :func:`collect_walks` materializes it.
    """
    sampler_for(app).tables(csr, app)  # Algorithm 3 on the driver, cached on csr.aux
    sc = spark.sparkContext
    if n_partitions is None:
        n_partitions = sc.defaultParallelism
    qdf = queries_df(spark, sources, n_partitions)
    sources = np.asarray(sources, dtype=np.int64)
    engine_s = sc.accumulator({}, _PartitionSeconds())
    bc = sc.broadcast(csr)

    def walk_partition(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        seconds = 0.0
        for batch in batches:
            t0 = time.perf_counter()
            qids = batch["query_id"].to_numpy()
            rows = eng.run_walks(bc.value, app, sources[qids], engine=engine, seed=seed,
                                 qids=qids, **engine_kwargs).to_pandas()
            seconds += time.perf_counter() - t0
            yield rows
        engine_s.add({TaskContext.get().partitionId(): seconds})

    return WalkJob(qdf.mapInPandas(walk_partition, schema=WALK_SCHEMA), engine_s, bc)


def collect_walks(job: WalkJob) -> tuple[pd.DataFrame, dict]:
    """Materialize a job: (walk rows, timing metadata). Releases the job's
    broadcast, also when the job fails, so a job is collected once.

    ``meta['engine_time_s']`` is the parallel makespan — the max
    per-partition engine time — which Table 6 reports alongside the
    driver-observed wall time.
    """
    try:
        t0 = time.perf_counter()
        walks = job.walks.toPandas()
        wall = time.perf_counter() - t0
    finally:
        job.broadcast.destroy()
    seconds = list(job.engine_s.value.values())
    meta = {
        "wall_s": wall,
        "engine_time_s": max(seconds, default=0.0),
        "engine_time_sum_s": sum(seconds),
        "n_partitions": len(seconds),
        "total_steps": int((walks["step"] > 0).sum()),
    }
    return walks, meta


def run_system_spark(
    spark: SparkSession,
    system: str,
    csr: CSRGraph,
    app: RandomWalkApp,
    sources: np.ndarray,
    seed: int = 0,
) -> tuple[pd.DataFrame, dict]:
    """One Table 6 cell: run a compared system over Spark and collect.

    Serial systems (BL) run with a single partition; parallel ones use the
    session default parallelism. ``meta['ring_size']`` is the ring engine's
    k (None for the scalar systems).
    """
    spec = SYSTEMS[system]
    job = run_walks_spark(
        spark,
        csr,
        spec.app_for(app),
        sources,
        engine=spec.engine,
        seed=seed,
        n_partitions=None if spec.parallel else 1,
        **spec.engine_kwargs,
    )
    walks, meta = collect_walks(job)
    meta["system"] = system
    meta["ring_size"] = spec.engine_kwargs.get("ring_size")
    return walks, meta
