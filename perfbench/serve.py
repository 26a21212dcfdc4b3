"""Workloads, set-up, the closed loop and the metrics of one benchmark run.

A *cell* is what a user of the engine waits for: clear the sampler tables,
call ``run_system_spark`` and hold the walk rows on the driver. Algorithm 3
preprocessing, the CSR broadcast, the query DataFrame, the ``mapInPandas``
job, Arrow transfer and collect all fall inside its clock.
"""
from __future__ import annotations

import hashlib
import platform
import statistics
import subprocess
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.algos import make_app
from repro.baselines.systems import SYSTEMS, run_system
from repro.core import spark_runner
from repro.tables import common

from tracing import Tracer, replay_partition, traced_cell
from walkcheck import WalkCheck

# Discarded cells in set-up. In a fresh session the cell time falls for
# about ten cells (JVM warm-up) before it settles; timing those in the loop
# made the median depend on how many cells a run fits, and put the slope's
# first cells in the tail.
WARMUP_CELLS = 8
# setup_s: session start, graph build and warm-up; the reference between
# them is the benchmark's own work and does not count.
SETUP_SPANS = ("setup.session", "graph.build", "setup.warmup")
TAIL_BEYOND = 10  # cells the tail percentile leaves above it, once a run has enough


@dataclass(frozen=True)
class Workload:
    """One Table 6 cell on the lj analogue, repeated by the loop."""

    algo: str
    system: str = "TRW"
    query_share: int = 1  # keep the first 1/query_share of the sources

    def inputs(self, g, seed: int):
        """The system's app and the sources: one query per vertex, §3 settings."""
        app = make_app(self.algo, length=common.WALK_LEN, a=common.N2V_A, b=common.N2V_B)
        sources = common.sources_for(g, g.num_vertices, seed=seed)
        return SYSTEMS[self.system].app_for(app), sources[: len(sources) // self.query_share]


WORKLOADS = {
    # Not in BENCHMARK.json: its cell time moved most with the shared host's
    # speed, past the benchmark's bounds (see README). Kept for runs by hand.
    "deepwalk-lj": Workload("deepwalk"),
    "node2vec-lj": Workload("node2vec", query_share=4),
    # HG's scalar run_sequential: the only path through the *_scalar samplers.
    "hg-deepwalk-lj": Workload("deepwalk", system="HG", query_share=16),
}


def start_session(cores: int, work: Path):
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .master(f"local[{cores}]")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.local.dir", str(work / "spark"))
        .config("spark.sql.warehouse.dir", str(work / "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def storage_mb(spark) -> float:
    """Block-manager storage in use, over all executors."""
    status = spark.sparkContext._jsc.sc().getExecutorMemoryStatus().valuesIterator()
    used = 0
    while status.hasNext():
        mem = status.next()
        used += mem._1() - mem._2()
    return used / 2**20


def broadcast_files_mb(spark) -> float:
    """Bytes of the pickled broadcasts PySpark keeps on the driver's disk."""
    root = Path(spark.sparkContext._temp_dir)
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file()) / 2**20


def reset_peak_rss() -> None:
    """Start a new peak-RSS window: clear this process's VmHWM (Linux)."""
    Path("/proc/self/clear_refs").write_text("5")


def peak_rss_mb() -> float:
    """This process's peak RSS since the last ``reset_peak_rss``."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) by nearest rank: the highest percentile that
    leaves TAIL_BEYOND cells above it, but never below p90.

    Runs of under 100 cells get p90, which leaves fewer than TAIL_BEYOND
    above it; the rule alone would put their "tail" at or below the median.
    """
    n = len(values)
    rank = max((9 * n + 9) // 10, n - TAIL_BEYOND)
    return sorted(values)[rank - 1], max(90.0, 100.0 * (n - TAIL_BEYOND) / n)


def closed_loop(cell, check, seconds: float, trace_cell=None) -> list[dict]:
    """One client sends the next cell when the last one returns.

    ``cell()`` returns the walk rows and runner meta; ``check(walks)`` returns
    the rules they break. A cell that raises or breaks a rule is failed.
    ``rss_mb`` is the driver's peak RSS during the cell, read before the
    check so that the check's copies of the rows do not count.
    With ``trace_cell`` every other cell runs inside ``trace_cell(id)``, and
    the loop runs at least one cell of each kind.
    """
    records: list[dict] = []
    min_cells = 1 if trace_cell is None else 2
    end = time.perf_counter() + seconds
    while len(records) < min_cells or time.perf_counter() < end:
        traced = trace_cell is not None and len(records) % 2 == 0
        rec = {"cell": f"c{len(records)}", "traced": traced}
        walks = None  # drop the last cell's rows before the next peak window
        reset_peak_rss()
        t0 = time.perf_counter()
        try:
            with trace_cell(rec["cell"]) if traced else nullcontext():
                walks, _ = cell()
                rec["seconds"] = time.perf_counter() - t0
            rec["rss_mb"] = peak_rss_mb()
            rec["moves"] = int((walks["step"].to_numpy() > 0).sum())
            rec["errors"] = check(walks)
        except Exception as exc:  # a failing cell is counted, and the loop goes on
            rec.setdefault("seconds", time.perf_counter() - t0)
            rec["errors"] = [f"raised {exc!r}"]
        records.append(rec)
    return records


def _src_digest(src: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(src.rglob("*.py")):
        h.update(str(p.relative_to(src)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return out.stdout.strip() or None


def environment(spark, cores: int, system: str, g, app, sources, seed, root: Path) -> dict:
    """Settings a later comparison must match."""
    import pandas
    import pyarrow
    import pyspark

    sc = spark.sparkContext
    spec = SYSTEMS[system]
    return {
        "nproc": cores,
        "spark_master": sc.master,
        "spark_parallelism": sc.defaultParallelism,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pandas": pandas.__version__,
        "pyarrow": pyarrow.__version__,
        "pyspark": pyspark.__version__,
        "graph": {"name": "lj", "vertices": g.num_vertices, "edges": g.num_edges},
        "system": system,
        "engine": spec.engine,
        "sampler": app.sampler,
        "ring_size": spec.engine_kwargs.get("ring_size"),
        "queries": len(sources),
        "seed": seed,
        "git_commit": _git_commit(root),
        "src_digest": _src_digest(root / "src"),
    }


class Run:
    """Set-up, reference, loop and metrics for one workload and seed."""

    def __init__(self, name: str, seed: int, cores: int, work: Path) -> None:
        self.wl = WORKLOADS[name]
        self.system = self.wl.system
        self.seed = seed
        self.cores = cores
        self.work = work
        self.tracer = Tracer()
        self.spark = None

    def cell(self):
        self.g.aux.clear()
        return spark_runner.run_system_spark(
            self.spark, self.system, self.g, self.app, self.sources, seed=self.seed
        )

    def setup(self) -> None:
        """Start Spark (cold: the run is a fresh process) and build the graph."""
        self.tracer.cell = "setup"
        with self.tracer.span("setup.session"):
            self.spark = start_session(self.cores, self.work)
        with self.tracer.span("graph.build"):
            self.g = common.dataset("lj")
        self.app, self.sources = self.wl.inputs(self.g, self.seed)
        self.tracer.cell = None

    def warm_up(self) -> None:
        """WARMUP_CELLS discarded cells, right before the loop."""
        self.tracer.cell = "setup"
        with self.tracer.span("setup.warmup"):
            for _ in range(WARMUP_CELLS):
                with self.tracer.span("setup.warmup_cell"):
                    self.cell()
        self.tracer.cell = None

    def reference_check(self) -> WalkCheck:
        """The same system's engine in-process on the same queries."""
        out = run_system(self.system, self.g, self.app, self.sources, seed=self.seed)
        return WalkCheck(
            self.g.indptr, self.g.dst, self.sources, (out.qids, out.steps, out.vertices),
            length=self.app.target_length,
        )

    def replay(self) -> dict:
        """Replay the queries of partition 0 in-process (engine, RNG, UDF)."""
        spec = SYSTEMS[self.system]
        parts = self.spark.sparkContext.defaultParallelism if spec.parallel else 1
        ids = (
            spark_runner.queries_df(self.spark, self.sources, parts)
            .rdd.mapPartitionsWithIndex(
                lambda i, rows: [r.query_id for r in rows] if i == 0 else [])
            .collect()
        )
        ids = np.asarray(ids, dtype=np.int64)
        self.g.aux.clear()
        return replay_partition(self.g, spec, self.app, self.sources[ids], ids, self.seed)

    def execute(self, seconds: float, trace: bool) -> dict:
        self.setup()
        checker = self.reference_check()
        self.warm_up()
        # After the warm-up: the replay's Spark job would start the Python
        # workers that the first warm-up cell is there to time.
        layers = self.replay() if trace else {}
        storage0, files0 = storage_mb(self.spark), broadcast_files_mb(self.spark)
        records = closed_loop(
            self.cell,
            lambda w: checker.errors(w["query_id"], w["step"], w["vertex"]),
            seconds,
            (lambda c: traced_cell(self.tracer, c)) if trace else None,
        )
        end_state = {
            "storage_mb": storage_mb(self.spark),
            "storage_mb_per_cell": (storage_mb(self.spark) - storage0) / len(records),
            "broadcast_files_mb_per_cell":
                (broadcast_files_mb(self.spark) - files0) / len(records),
            "rss_mb": max(r.get("rss_mb", 0.0) for r in records),
        }
        return {"records": records, "layers": layers, "end": end_state}

    def stop(self) -> None:
        if self.spark is None:
            return
        proc = self.spark.sparkContext._gateway.proc
        self.spark.stop()
        # The JVM exits when its stdin closes; wait so no process outlives the run.
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)
        self.spark = None

    # -- metrics -----------------------------------------------------------

    def setup_seconds(self, name: str) -> float:
        """The first set-up span of that name."""
        return next(s["end"] - s["start"] for s in self.tracer.cell_spans("setup")
                    if s["name"] == name)

    def end_to_end(self, result: dict) -> dict:
        records = result["records"]
        secs = [r["seconds"] for r in records]
        moves = sum(r["moves"] for r in records if not r["errors"])
        tail_s, pct = tail(secs)
        return {
            "setup_s": (sum(self.setup_seconds(name) for name in SETUP_SPANS), "s"),
            "cell_s_p50": (statistics.median(secs), "s"),
            "cell_s_tail": (tail_s, "s", {"percentile": round(pct, 1), "cells": len(secs)}),
            "steps_per_s": (moves / sum(secs), "steps/s"),
            "driver_rss_mb": (result["end"]["rss_mb"], "MB"),
        }

    def per_layer(self, result: dict) -> dict:
        records = result["records"]
        # Cells that raised have no runner meta to split.
        traced = [r for r in records if r["traced"] and "moves" in r]
        plain = [r["seconds"] for r in records if not r["traced"]]
        per_cell = [self._cell_layers(r["cell"]) for r in traced]
        med = lambda key: statistics.median(c[key] for c in per_cell)  # noqa: E731
        built_s = sum(c["preprocess.build_s"] for c in per_cell)
        built_edges = sum(c["edges"] for c in per_cell)
        out = {
            "graph.build_s": (self.setup_seconds("graph.build"), "s"),
            "graph.vertices": (self.g.num_vertices, "count"),
            "graph.edges": (self.g.num_edges, "count"),
            "setup.session_s": (self.setup_seconds("setup.session"), "s"),
            "setup.warmup_s": (self.setup_seconds("setup.warmup"), "s"),
            "setup.first_cell_s": (self.setup_seconds("setup.warmup_cell"), "s"),
            "preprocess.build_s": (med("preprocess.build_s"), "s"),
            "preprocess.edges_per_s": (built_edges / built_s if built_s else 0.0, "edges/s"),
        }
        for key, unit in (
            ("runner.submit_s", "s"), ("runner.broadcast_s", "s"), ("runner.broadcast_mb", "MB"),
            ("runner.queries_df_s", "s"), ("runner.collect_s", "s"),
            ("runner.job_overhead_s", "s"), ("runner.rows", "count"),
            ("runner.partitions", "count"), ("engine.makespan_s", "s"),
            ("engine.sum_s", "s"), ("engine.skew", "ratio"), ("trace.coverage", "ratio"),
        ):
            out[key] = (med(key), unit)
        end = result["end"]
        out["runner.storage_mb"] = (end["storage_mb"], "MB")
        out["runner.storage_mb_per_cell"] = (end["storage_mb_per_cell"], "MB")
        out["runner.broadcast_files_mb_per_cell"] = (end["broadcast_files_mb_per_cell"], "MB")
        out.update(result["layers"])
        out["trace.overhead_frac"] = (
            statistics.median(r["seconds"] for r in traced) / statistics.median(plain) - 1.0,
            "ratio",
        )
        return out

    def _cell_layers(self, cell: str) -> dict:
        spans = self.tracer.cell_spans(cell)
        root = next(i for i, s in enumerate(self.tracer.spans)
                    if s["cell"] == cell and s["name"] == "cell")

        def total(name: str) -> float:
            return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

        meta = next(s["meta"] for s in spans if s["name"] == "runner.collect")
        rows = next(s["rows"] for s in spans if s["name"] == "runner.collect")
        cell_s = total("cell")
        children = sum(s["end"] - s["start"] for s in spans if s["parent"] == root)
        parts = max(meta["n_partitions"], 1)
        return {
            "preprocess.build_s": total("preprocess.build"),
            "edges": sum(s.get("edges", 0) for s in spans if s["name"] == "preprocess.build"),
            "runner.submit_s": total("runner.submit"),
            "runner.broadcast_s": total("runner.broadcast"),
            "runner.broadcast_mb": sum(s.get("bytes", 0) for s in spans) / 2**20,
            "runner.queries_df_s": total("runner.queries_df"),
            "runner.collect_s": total("runner.collect"),
            "runner.job_overhead_s": total("runner.collect") - meta["engine_time_s"],
            "runner.rows": rows,
            "runner.partitions": meta["n_partitions"],
            "engine.makespan_s": meta["engine_time_s"],
            "engine.sum_s": meta["engine_time_sum_s"],
            "engine.skew": meta["engine_time_s"] / max(meta["engine_time_sum_s"] / parts, 1e-12),
            "trace.coverage": children / cell_s,
        }
