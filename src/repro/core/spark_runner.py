"""Spark parallelization of the walk engines.

The paper parallelizes by statically assigning queries to OpenMP threads
(§4.2 "Parallelization"). Here the queries are a Spark DataFrame
repartitioned into N partitions; each partition executes the chosen
engine over a *broadcast* CSR inside Arrow-backed ``mapInPandas`` and
yields long-format walk rows. Whole-graph sampler preprocessing
(Algorithm 3) runs once on the driver before the broadcast so executors
share the tables.

The engine cannot be a Catalyst rewrite — each step consumes a random
draw over the previous step's adjacency, an inherently sequential
stochastic dependence — so per the layering rule it is implemented as a
``DataFrame → DataFrame`` physical transformation; all surrounding
relational work (query generation, validation, scoring) stays in Spark
SQL.

Per-partition engine time is reported through sentinel rows
``(query_id = -(partition+1), step = -1, vertex = elapsed_microseconds)``
— the walk schema is all-int64 so the timing piggybacks without a second
job. ``collect_walks`` separates them.
"""
from __future__ import annotations

import time
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.baselines.systems import SYSTEMS
from repro.core import engine as eng
from repro.core.model import RandomWalkApp
from repro.graph.csr import CSRGraph
from repro.sampling import needs_tables, sampler_for

WALK_SCHEMA = "query_id LONG, step INT, vertex LONG"


def _prebuild_tables(csr: CSRGraph, app: RandomWalkApp) -> None:
    """Run Algorithm 3 on the driver so executors reuse csr.aux."""
    if needs_tables(app):
        sampler_for(app).tables(csr, app)


def queries_df(spark: SparkSession, sources: np.ndarray, n_partitions: int) -> DataFrame:
    """Queries as a DataFrame (query_id, source), round-robin partitioned."""
    pdf = pd.DataFrame(
        {"query_id": np.arange(len(sources), dtype=np.int64),
         "source": np.asarray(sources, dtype=np.int64)}
    )
    return spark.createDataFrame(pdf).repartition(max(1, n_partitions))


def run_walks_spark(
    spark: SparkSession,
    csr: CSRGraph,
    app: RandomWalkApp,
    sources: np.ndarray,
    engine: str = "interleaved",
    seed: int = 0,
    n_partitions: int | None = None,
    **engine_kwargs,
) -> DataFrame:
    """Distribute the queries and run ``engine`` per partition.

    Returns the lazy walks DataFrame (plus timing sentinel rows); use
    :func:`collect_walks` to materialize and split it.
    """
    _prebuild_tables(csr, app)
    sc = spark.sparkContext
    if n_partitions is None:
        n_partitions = sc.defaultParallelism
    bc = sc.broadcast(csr)
    qdf = queries_df(spark, sources, n_partitions)

    def walk_partition(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        parts = [b for b in batches if len(b)]
        t0 = time.perf_counter()
        outs = []
        pid = 0
        if parts:
            q = pd.concat(parts, ignore_index=True)
            g = bc.value
            res = eng.run_walks(
                g,
                app,
                q["source"].to_numpy(),
                engine=engine,
                seed=seed,
                qids=q["query_id"].to_numpy(),
                **engine_kwargs,
            )
            outs.append(res.to_pandas())
            pid = int(q["query_id"].min()) % 100_000
        elapsed_us = int((time.perf_counter() - t0) * 1e6)
        outs.append(
            pd.DataFrame(
                {"query_id": [-(pid + 1)], "step": [-1], "vertex": [elapsed_us]}
            )
        )
        yield pd.concat(outs, ignore_index=True)

    return qdf.mapInPandas(walk_partition, schema=WALK_SCHEMA)


def collect_walks(df: DataFrame) -> tuple[pd.DataFrame, dict]:
    """Materialize a runner result: (walk rows, timing metadata).

    ``meta['engine_time_s']`` is the parallel makespan — the max
    per-partition engine time — which Table 6 reports alongside the
    driver-observed wall time.
    """
    t0 = time.perf_counter()
    pdf = df.toPandas()
    wall = time.perf_counter() - t0
    is_timing = pdf["step"] < 0
    timing = pdf.loc[is_timing, "vertex"].to_numpy() / 1e6
    walks = pdf.loc[~is_timing].reset_index(drop=True)
    meta = {
        "wall_s": wall,
        "engine_time_s": float(timing.max()) if len(timing) else 0.0,
        "engine_time_sum_s": float(timing.sum()),
        "n_partitions": int(len(timing)),
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
    n_partitions: int | None = None,
    **overrides,
) -> tuple[pd.DataFrame, dict]:
    """One Table 6 cell: run a compared system over Spark and collect.

    Serial systems (BL) run with a single partition; parallel ones use the
    session default parallelism.
    """
    spec = SYSTEMS[system]
    if app.name not in spec.supports:
        raise ValueError(f"{system} does not support {app.name} (§6.1)")
    parts = 1 if not spec.parallel else n_partitions
    kw = dict(spec.engine_kwargs)
    kw.update(overrides)
    df = run_walks_spark(
        spark,
        csr,
        spec.app_for(app),
        sources,
        engine=spec.engine,
        seed=seed,
        n_partitions=parts,
        **kw,
    )
    walks, meta = collect_walks(df)
    meta["system"] = system
    return walks, meta
