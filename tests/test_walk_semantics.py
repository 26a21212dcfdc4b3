"""Distribution-level correctness of the four RW algorithms."""
from dataclasses import replace

import numpy as np
import pytest

from repro.algos import make_app, node2vec, ppr
from repro.core.engine import run_walks
from repro.graph import generators as gen
from repro.graph.csr import from_arrays

SEED = 33


def test_deepwalk_static_matches_edge_weights(star_graph):
    """Single steps from the hub must follow the edge-weight distribution."""
    app = make_app("deepwalk", length=1)
    n = 40_000
    out = run_walks(star_graph, app, np.zeros(n, dtype=np.int64),
                    engine="interleaved", seed=SEED)
    firsts = np.array([p[1] for p in out.paths().values()])
    w = star_graph.weight[star_graph.edge_slice(0)]
    target = w / w.sum()
    emp = np.bincount(firsts, minlength=9)[1:] / n
    np.testing.assert_allclose(emp, target, atol=0.01)


@pytest.mark.parametrize("sampler", ["its", "alias", "rej", "orej"])
def test_samplers_agree_distributionally(sampler, star_graph):
    """All biased samplers target the same stationary step distribution."""
    app = make_app("deepwalk", length=1).with_sampler(sampler)
    n = 30_000
    out = run_walks(star_graph, app, np.zeros(n, dtype=np.int64),
                    engine="interleaved", seed=SEED)
    firsts = np.array([p[1] for p in out.paths().values()])
    w = star_graph.weight[star_graph.edge_slice(0)]
    np.testing.assert_allclose(
        np.bincount(firsts, minlength=9)[1:] / n, w / w.sum(), atol=0.012
    )


@pytest.mark.parametrize("engine", ["sequential", "interleaved"])
def test_orej_bound_below_weights_raises(engine):
    """§2.3/§2.4: O-REJ is only correct for p* >= max weight — a user bound
    below a probed weight would clip heavy edges, so both forms of the
    attempt loop refuse it instead of walking biased."""
    n_leaf = 10
    src = np.concatenate([np.zeros(n_leaf, dtype=np.int64), np.arange(1, n_leaf + 1)])
    dst = np.concatenate([np.arange(1, n_leaf + 1), np.zeros(n_leaf, dtype=np.int64)])
    w = np.concatenate([np.arange(1.0, n_leaf + 1.0), np.ones(n_leaf)])
    g = from_arrays(src, dst, n_leaf + 1, weight=w, name="heavy")
    app = replace(make_app("deepwalk", length=1).with_sampler("orej"), max_weight=5.0)
    with pytest.raises(ValueError, match="above its bound"):
        run_walks(g, app, np.zeros(2000, dtype=np.int64), engine=engine, seed=SEED)


def test_unbiased_deepwalk_uniform(star_graph):
    app = make_app("deepwalk", length=1, weighted=False)
    n = 30_000
    out = run_walks(star_graph, app, np.zeros(n, dtype=np.int64),
                    engine="interleaved", seed=SEED)
    firsts = np.array([p[1] for p in out.paths().values()])
    np.testing.assert_allclose(
        np.bincount(firsts, minlength=9)[1:] / n, np.full(8, 1 / 8), atol=0.012
    )


def _n2v_brute_force(csr, u, v, a, b):
    """Eq. 1 target distribution for a step from v given prev u."""
    s, e = csr.edge_slice(v).start, csr.edge_slice(v).stop
    w = np.empty(e - s)
    for i, dstv in enumerate(csr.dst[s:e]):
        if dstv == u:
            w[i] = 1.0 / a
        elif csr.has_edge(u, int(dstv)):
            w[i] = 1.0
        else:
            w[i] = 1.0 / b
    return w / w.sum()


@pytest.mark.parametrize("sampler", ["its", "orej"])
def test_node2vec_matches_equation1(sampler):
    """Empirical second-step distribution vs the brute-force Eq. 1 pmf."""
    g = gen.erdos_renyi(30, 200, seed=4)
    a_p, b_p = 2.0, 0.5
    app = make_app("node2vec", a=a_p, b=b_p, length=2).with_sampler(sampler)
    n = 40_000
    src = np.full(n, 0, dtype=np.int64)
    out = run_walks(g, app, src, engine="interleaved", seed=SEED)
    # group second steps by the first step taken
    by_first: dict[int, list[int]] = {}
    for p in out.paths().values():
        if len(p) >= 3:
            by_first.setdefault(int(p[1]), []).append(int(p[2]))
    checked = 0
    for v, seconds in by_first.items():
        if len(seconds) < 3000:
            continue
        target = _n2v_brute_force(g, 0, v, a_p, b_p)
        s, e = g.edge_slice(v).start, g.edge_slice(v).stop
        idx = {int(d): i for i, d in enumerate(g.dst[s:e])}
        emp = np.zeros(len(target))
        for x in seconds:
            emp[idx[x]] += 1
        emp /= emp.sum()
        np.testing.assert_allclose(emp, target, atol=0.03)
        checked += 1
    assert checked >= 2


def test_node2vec_first_step_uniform():
    g = gen.erdos_renyi(30, 200, seed=4)
    app = make_app("node2vec", length=1)
    n = 30_000
    out = run_walks(g, app, np.zeros(n, dtype=np.int64), engine="interleaved", seed=SEED)
    firsts = np.array([p[1] for p in out.paths().values()])
    nbrs = g.neighbors(0)
    emp = np.array([(firsts == v).mean() for v in nbrs])
    np.testing.assert_allclose(emp, np.full(len(nbrs), 1 / len(nbrs)), atol=0.02)


def test_ppr_scores_match_power_iteration():
    g = gen.erdos_renyi(40, 400, seed=6)
    source = int(gen.random_sources(g, 1, seed=0)[0])
    app = make_app("ppr", stop_prob=0.2)
    n = 60_000
    out = run_walks(g, app, np.full(n, source, dtype=np.int64),
                    engine="interleaved", seed=SEED)
    ends = np.array([p[-1] for p in out.paths().values()])
    emp = np.bincount(ends, minlength=g.num_vertices) / n
    exact = ppr.ppr_exact(g, source, stop_prob=0.2)
    # walks that stop at step 0 don't exist (termination checked after a
    # move), so compare shapes via correlation + max deviation
    assert np.corrcoef(emp, exact)[0, 1] > 0.98
    assert np.abs(emp - exact).max() < 0.02


def test_metapath_dead_end_on_missing_label():
    # two-vertex cycle with label 0 edges only; schema demands label 1 at step 1
    g = from_arrays(np.array([0, 1]), np.array([1, 0]), 2,
                    label=np.array([0, 0]))
    app = make_app("metapath", schema=(0, 1, 0))
    out = run_walks(g, app, np.array([0]), engine="interleaved", seed=SEED)
    path = out.paths()[0]
    assert len(path) == 2  # one label-0 step, then stuck


def test_metapath_weight_fn_zero_one(small_graph):
    app = make_app("metapath", csr=small_graph, schema_len=3, seed=2)
    flat = np.arange(min(50, small_graph.num_edges))
    w = app.weight_fn(small_graph, flat, np.zeros(len(flat), dtype=np.int64),
                      np.zeros(len(flat), dtype=np.int64))
    assert set(np.unique(w)) <= {0.0, 1.0}


def test_node2vec_weight_values(small_graph):
    a_p, b_p = 2.0, 0.5
    app = make_app("node2vec", a=a_p, b=b_p)
    # candidates = edges of vertex v with prev = u
    deg = small_graph.degrees()
    v = int(np.argmax(deg))
    u = int(small_graph.neighbors(v)[0])
    s, e = small_graph.edge_slice(v).start, small_graph.edge_slice(v).stop
    flat = np.arange(s, e)
    w = app.weight_fn(small_graph, flat,
                      np.full(e - s, u, dtype=np.int64),
                      np.ones(e - s, dtype=np.int64))
    ref = node2vec.node2vec_weight(small_graph, flat,
                                   np.full(e - s, u, dtype=np.int64),
                                   np.ones(e - s, dtype=np.int64),
                                   a=a_p, b=b_p)
    assert np.array_equal(w, ref)
    assert set(np.unique(w)) <= {1 / a_p, 1.0, 1 / b_p}
    # the back-edge to u must get 1/a
    back = small_graph.dst[s:e] == u
    assert np.all(w[back] == 1 / a_p)
