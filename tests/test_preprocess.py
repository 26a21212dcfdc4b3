"""Algorithm 3 whole-graph preprocessing for unbiased/static RW."""
import numpy as np
import pytest

from repro.sampling import alias, its, preprocess, rej


def test_static_weights_kinds(small_graph):
    u = preprocess.static_weights(small_graph, "unbiased")
    s = preprocess.static_weights(small_graph, "static")
    assert np.all(u == 1.0)
    assert np.array_equal(s, small_graph.weight)
    with pytest.raises(ValueError):
        preprocess.static_weights(small_graph, "dynamic")


def test_naive_static_rejected(small_graph):
    with pytest.raises(ValueError):
        preprocess.build_tables(small_graph, "naive", "static")
    assert preprocess.build_tables(small_graph, "naive", "unbiased") == {}


def test_its_tables_match_per_vertex_init(small_graph):
    tab = preprocess.build_tables(small_graph, "its", "static")
    g = small_graph
    for v in range(0, g.num_vertices, 97):
        s, e = int(g.indptr[v]), int(g.indptr[v + 1])
        if e > s:
            one = its.init(g.weight[s:e], np.array([e - s]))
            np.testing.assert_allclose(tab["cum"][s:e], one["cum"])
            assert tab["totals"][v] == pytest.approx(g.weight[s:e].sum())


def test_alias_tables_match_per_vertex_init(small_graph):
    tab = preprocess.build_tables(small_graph, "alias", "static")
    g = small_graph
    for v in range(0, g.num_vertices, 131):
        s, e = int(g.indptr[v]), int(g.indptr[v + 1])
        if e > s:
            one = alias.init(g.weight[s:e], np.array([e - s]))
            np.testing.assert_allclose(tab["prob"][s:e], one["prob"])
            assert np.array_equal(tab["a1"][s:e], one["a1"])
            assert np.array_equal(tab["a2"][s:e], one["a2"])


def test_rej_tables(small_graph):
    tab = preprocess.build_tables(small_graph, "rej", "static")
    g = small_graph
    deg = g.degrees()
    for v in range(0, g.num_vertices, 61):
        s, e = int(g.indptr[v]), int(g.indptr[v + 1])
        expect = g.weight[s:e].max() if e > s else 0.0
        assert tab["pstar"][v] == pytest.approx(expect)
    assert np.all(tab["pstar"][deg == 0] == 0.0)


def test_build_caches(small_graph):
    small_graph.aux.clear()
    a = preprocess.build(small_graph, "its", "static")
    b = preprocess.build(small_graph, "its", "static")
    assert a is b
    small_graph.aux.clear()
    c = preprocess.build(small_graph, "its", "static")
    assert c is not a
    small_graph.aux.clear()


def test_its_dynamic_init_matches_segments():
    w = np.array([1.0, 2.0, 4.0, 1.0, 1.0])
    counts = np.array([2, 3])
    tab = its.init(w, counts)
    assert list(tab["cum"]) == [1.0, 3.0, 4.0, 5.0, 6.0]
    assert list(tab["totals"]) == [3.0, 6.0]


def test_alias_dynamic_init_ok_mask():
    w = np.array([1.0, 1.0, 0.0, 0.0])
    counts = np.array([2, 2])
    tab = alias.init(w, counts)
    starts = np.cumsum(counts) - counts
    # A zero-mass segment keeps alias entries of -1: that is its mask.
    assert list(tab["a1"][starts] >= 0) == [True, False]
    assert list(tab["a1"][2:]) == [-1, -1]


def test_rej_dynamic_init():
    w = np.array([1.0, 5.0, 2.0])
    counts = np.array([2, 0, 1])
    assert list(rej.init(w, counts)["pstar"]) == [5.0, 0.0, 2.0]


def test_unknown_method(small_graph):
    with pytest.raises(ValueError):
        preprocess.build_tables(small_graph, "magic", "static")
