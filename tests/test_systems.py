"""Compared systems (§6.1): specs and local execution."""
import inspect

import numpy as np
import pytest

from repro.algos import make_app
from repro.baselines import SYSTEMS, run_system
from repro.core.engine import MAX_RING_SIZE, run_walks
from repro.core.spark_runner import run_system_spark
from repro.core.tuning import tune_ring_sizes
from repro.tables import table09

SEED = 55


def test_registry_contents():
    assert set(SYSTEMS) == {"BL", "HG", "GW", "KK", "TRW"}
    assert not SYSTEMS["BL"].parallel
    assert all(SYSTEMS[s].parallel for s in ("HG", "GW", "KK", "TRW"))


def test_gw_supports_unbiased_only():
    assert SYSTEMS["GW"].supports == ("ppr",)


def test_kk_cannot_run_metapath():
    """§2.4: KnightKing's O-REJ cannot express the label filter."""
    assert "metapath" not in SYSTEMS["KK"].supports
    with pytest.raises(ValueError):
        run_system("KK", None, make_app("metapath", schema=(0, 1)), np.array([0]))


def test_sampler_choices_match_paper():
    assert SYSTEMS["BL"].samplers["node2vec"] == "alias"   # naive packages
    assert SYSTEMS["HG"].samplers["node2vec"] == "orej"    # §6.1
    assert SYSTEMS["HG"].samplers["metapath"] == "its"     # §6.1
    assert SYSTEMS["KK"].samplers["deepwalk"] == "orej"
    assert SYSTEMS["TRW"].samplers == SYSTEMS["HG"].samplers


@pytest.mark.parametrize("system", ["BL", "HG", "KK", "TRW"])
def test_systems_walk_identically_on_deepwalk_given_same_sampler(
    system, small_graph, sources_small
):
    """With the same sampler, every system's walks are bitwise-identical:
    the systems differ in execution cost, never in the stochastic process."""
    app = make_app("deepwalk", length=8)
    spec = SYSTEMS[system]
    ref = run_walks(small_graph, spec.app_for(app), sources_small,
                    engine="sequential", seed=SEED)
    out = run_system(system, small_graph, app, sources_small, seed=SEED)
    pa, pb = ref.paths(), out.paths()
    assert all(np.array_equal(pa[q], pb[q]) for q in pa)


@pytest.mark.parametrize("system,algo", [
    ("BL", "ppr"), ("BL", "deepwalk"), ("BL", "node2vec"), ("BL", "metapath"),
    ("HG", "ppr"), ("HG", "deepwalk"), ("HG", "node2vec"), ("HG", "metapath"),
    ("GW", "ppr"),
    ("KK", "ppr"), ("KK", "deepwalk"), ("KK", "node2vec"),
    ("TRW", "ppr"), ("TRW", "deepwalk"), ("TRW", "node2vec"), ("TRW", "metapath"),
])
def test_supported_matrix_runs(system, algo, small_graph, sources_small):
    """Table 6's support matrix: every supported cell executes and walks."""
    app = make_app(algo, csr=small_graph, length=5)
    out = run_system(system, small_graph, app, sources_small[:12], seed=SEED)
    assert len(out.paths()) == 12
    assert out.total_steps > 0


def test_unsupported_cells_raise(small_graph, sources_small):
    for system, algo in [("GW", "deepwalk"), ("GW", "node2vec"),
                         ("GW", "metapath"), ("KK", "metapath")]:
        with pytest.raises(ValueError):
            run_system(system, small_graph,
                       make_app(algo, csr=small_graph), sources_small)


def test_trw_runs_at_the_tuner_bound():
    assert SYSTEMS["TRW"].engine_kwargs["ring_size"] == MAX_RING_SIZE
    for fn in (tune_ring_sizes, table09.compute):
        assert inspect.signature(fn).parameters["max_k"].default == MAX_RING_SIZE


@pytest.mark.parametrize("system,ring", [("TRW", MAX_RING_SIZE), ("HG", None)])
def test_spark_meta_records_ring_size(system, ring, spark, small_graph, sources_small):
    app = make_app("deepwalk", length=5)
    _, meta = run_system_spark(spark, system, small_graph, app, sources_small[:20], seed=SEED)
    assert meta["ring_size"] == ring

