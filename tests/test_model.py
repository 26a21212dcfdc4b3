"""Step-centric model: app declarations and termination semantics."""
from dataclasses import replace

import numpy as np
import pytest

from repro.algos import ALGOS, make_app
from repro.core import rng
from repro.core.model import WalkerType
from repro.sampling import SAMPLERS


def test_ppr_app():
    app = make_app("ppr", stop_prob=0.3)
    assert app.walker_type is WalkerType.UNBIASED
    assert app.sampler == "naive"
    assert app.stop_prob == 0.3
    assert app.target_length is None


def test_deepwalk_app_static_default(small_graph):
    app = make_app("deepwalk", length=40)
    assert app.walker_type is WalkerType.STATIC
    assert app.sampler == "alias"
    assert app.target_length == 40
    # no guessed MaxWeight: O-REJ's p* is the graph's exact maximum weight
    assert app.max_weight is None
    orej_tab = SAMPLERS["orej"].tables(small_graph, app.with_sampler("orej"))
    assert np.all(orej_tab["pstar"] == small_graph.weight.max())


def test_deepwalk_unweighted_is_unbiased(small_graph):
    app = make_app("deepwalk", weighted=False)
    assert app.walker_type is WalkerType.UNBIASED
    assert np.all(SAMPLERS["orej"].tables(small_graph, app.with_sampler("orej"))["pstar"] == 1.0)


def test_node2vec_app():
    app = make_app("node2vec", a=2.0, b=0.5)
    assert app.walker_type is WalkerType.DYNAMIC
    assert app.max_weight == pytest.approx(2.0)  # max(1, 1/2, 1/0.5)


def test_metapath_app_from_graph(small_graph):
    app = make_app("metapath", csr=small_graph, schema_len=4)
    assert app.walker_type is WalkerType.DYNAMIC
    assert app.target_length == 4
    assert len(app.params["schema"]) == 4


def test_metapath_requires_schema_or_graph():
    with pytest.raises(ValueError):
        make_app("metapath")


def test_unknown_algo():
    with pytest.raises(ValueError):
        make_app("pagerank")


def test_with_sampler_copies():
    app = make_app("deepwalk")
    app2 = app.with_sampler("its")
    assert app2.sampler == "its" and app.sampler == "alias"
    assert app2.target_length == app.target_length


def test_table_kind():
    assert make_app("ppr").table_kind() == "unbiased"
    assert make_app("deepwalk").table_kind() == "static"
    with pytest.raises(ValueError):
        make_app("node2vec").table_kind()


def test_stop_mask_target_length():
    """The target length is Update's length rule; the coin alone never
    stops a fixed-length walk."""
    app = make_app("deepwalk", length=5)
    assert app.max_length == 5
    keys = rng.key(0, np.arange(3), np.array([2, 3, 4]))
    assert not app.stop_mask(keys).any()
    assert not app.stop_scalar(keys[0])


def test_stop_mask_probability_deterministic():
    app = make_app("ppr", stop_prob=0.2)
    keys = rng.key(7, np.arange(1000), 1)
    a = app.stop_mask(keys)
    b = app.stop_mask(keys)
    assert np.array_equal(a, b)
    assert 0.1 < a.mean() < 0.3  # ≈ stop_prob


def test_stop_scalar_matches_mask():
    app = make_app("ppr", stop_prob=0.2)
    keys = rng.key(7, np.arange(200), 3)
    mask = app.stop_mask(keys)
    for q in range(200):
        assert app.stop_scalar(rng.key(7, q, 3)) == mask[q]


def test_stop_mask_caps_length():
    """A walk without a target length stops at ``max_len_cap``."""
    app = make_app("ppr", stop_prob=0.0001, max_len_cap=10)
    assert app.max_length == 10
    assert replace(make_app("deepwalk", length=7), max_len_cap=3).max_length == 7


@pytest.mark.parametrize("algo", ALGOS)
def test_all_apps_have_names(algo, small_graph):
    app = make_app(algo, csr=small_graph)
    assert app.name == algo
