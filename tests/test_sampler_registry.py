"""Sampler registry: one record per method drives every engine, the trace
replay, the Spark prebuild and Table 6's preprocessing timer."""
import numpy as np
import pytest
from pyspark import SparkContext

from repro import sampling
from repro.algos import make_app
from repro.core.engine import ENGINES, run_walks
from repro.core.model import TERM_DRAW
from repro.core.spark_runner import collect_walks, run_walks_spark
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from repro.perf import trace
from repro.sampling import base, orej
from tests.test_engines import APP_CASES

SEED = 21


def test_registry_keyed_by_methods():
    assert tuple(sampling.SAMPLERS) == sampling.METHODS
    assert all(rec.name == m for m, rec in sampling.SAMPLERS.items())


def test_unknown_sampler_rejected(small_graph, sources_small):
    app = make_app("deepwalk", length=5).with_sampler("magic")
    with pytest.raises(ValueError, match="unknown sampling method"):
        run_walks(small_graph, app, sources_small, engine="sequential", seed=SEED)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("algo", ["deepwalk", "node2vec"])
def test_naive_rejected_on_biased_app(engine, algo, small_graph, sources_small):
    """NAIVE is uniform: on a weighted app it would silently ignore the weights."""
    app = make_app(algo, length=5).with_sampler("naive")
    with pytest.raises(ValueError, match="unbiased"):
        run_walks(small_graph, app, sources_small, engine=engine, seed=SEED)


def test_trace_rejects_naive_on_biased_app(small_graph, sources_small):
    app = make_app("deepwalk", length=5).with_sampler("naive")
    with pytest.raises(ValueError, match="unbiased"):
        trace.build_rw_lanes(small_graph, app, sources_small, seed=SEED)


@pytest.mark.parametrize("algo,sampler,expect", [
    ("ppr", "naive", False),
    ("deepwalk", "its", True),
    ("deepwalk", "alias", True),
    ("deepwalk", "rej", True),
    ("deepwalk", "orej", False),
    ("node2vec", "alias", False),
    ("node2vec", "orej", False),
])
def test_needs_tables(algo, sampler, expect):
    assert sampling.needs_tables(make_app(algo).with_sampler(sampler)) is expect


def test_attempt_cap_shared_and_below_termination_draw():
    """The one rejection loop (O-REJ's, which REJ generates through) uses
    draws (2a, 2a+1) for attempt a; the termination coin's draw index must
    lie past every one of them."""
    assert orej.MAX_ATTEMPTS == base.MAX_ATTEMPTS
    assert 2 * base.MAX_ATTEMPTS + 1 < TERM_DRAW


@pytest.mark.parametrize("algo,sampler,kw", APP_CASES)
def test_trace_replays_engine_paths(algo, sampler, kw, small_graph, sources_small):
    app = make_app(algo, csr=small_graph, **kw).with_sampler(sampler)
    expect = run_walks(small_graph, app, sources_small, engine="sequential", seed=SEED).paths()
    paths = [path for _, path in trace.rw_lanes(small_graph, app, sources_small, seed=SEED)]
    assert len(paths) == len(expect)
    for qid, path in enumerate(paths):
        assert np.array_equal(expect[qid], path), f"query {qid}"


def test_driver_prebuilds_rej_tables_before_broadcast(spark, monkeypatch):
    g = gen.rmat(300, 1200, seed=3, name="rej")
    srcs = gen.random_sources(g, 20, seed=1)
    app = make_app("deepwalk", length=4).with_sampler("rej")
    seen = []
    broadcast = SparkContext.broadcast

    def spy(sc, value):
        if isinstance(value, CSRGraph):
            seen.append(("rej", "static") in value.aux)
        return broadcast(sc, value)

    monkeypatch.setattr(SparkContext, "broadcast", spy)
    g.aux.clear()
    walks, _ = collect_walks(
        run_walks_spark(spark, g, app, srcs, engine="interleaved", seed=SEED, n_partitions=2)
    )
    assert seen == [True]
    local = run_walks(g, app, srcs, engine="interleaved", seed=SEED)
    assert len(walks) == len(local.to_pandas())
