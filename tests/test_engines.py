"""Execution engines: bitwise cross-engine equivalence and walk validity.

The counter RNG makes every engine's walks a pure function of
(seed, qid, sampler) — so equivalence between the sequential engine, the
step-interleaved ring engine (any ring size), the BSP (KnightKing) and
ASP (GraphWalker) emulations is tested EXACTLY, not statistically.
"""
import hashlib

import numpy as np
import pytest

from repro.algos import make_app
from repro.core import engine as eng
from repro.core.engine import ENGINES, MAX_RING_SIZE, run_walks
from repro.graph import generators as gen
from repro.graph.csr import from_arrays

SEED = 21


def _paths_equal(a, b):
    pa, pb = a.paths(), b.paths()
    assert set(pa) == set(pb)
    return all(np.array_equal(pa[q], pb[q]) for q in pa)


def _valid_walks(csr, out):
    for q, path in out.paths().items():
        assert path[0] >= 0
        for u, v in zip(path[:-1], path[1:]):
            assert csr.has_edge(int(u), int(v)), f"walk {q} used non-edge ({u},{v})"


APP_CASES = [
    ("ppr", "naive", {}),
    ("deepwalk", "alias", {"length": 12}),
    ("deepwalk", "its", {"length": 12}),
    ("deepwalk", "rej", {"length": 12}),
    ("deepwalk", "orej", {"length": 12}),
    ("deepwalk", "naive", {"length": 12, "weighted": False}),
    ("node2vec", "its", {"length": 8}),
    ("node2vec", "alias", {"length": 8}),
    ("node2vec", "rej", {"length": 8}),
    ("node2vec", "orej", {"length": 8}),
    ("metapath", "its", {}),
    ("metapath", "alias", {}),
    ("metapath", "rej", {}),
]


def _app(algo, sampler, kw, csr):
    return make_app(algo, csr=csr, **kw).with_sampler(sampler)


# sha256 of each APP_CASES walk set (rows sorted by query_id, step) on
# small_graph at SEED: the cross-engine tests only compare engines with each
# other, these pin the stream itself across changes to the RNG or engines.
WALK_SHA256 = {
    ("ppr", "naive"): "a10014dba3773d1eb953e8dc234ed82d00ddd37bb6fa5586b499f62d46855839",
    ("deepwalk", "alias"): "a7448959b2c06bdd2d78108dc9f093ed7d7df6cc9c373804e30724e2828d89dd",
    ("deepwalk", "its"): "534ce1225a1dc6839f1a748f5a2aaee5cc3068811e48dba59755b7515519c9f0",
    ("deepwalk", "rej"): "ae53bfda316b02820fb5178bd9f1875de9e833bd0bee0f3f576d07ae03d29c19",
    ("deepwalk", "orej"): "52128a3aa9944a237b2c50892d6b98df10269a3e1b433c93580a61630bc8f363",
    ("deepwalk", "naive"): "02303913124dabdba0cd7c61959e928525f398a79c292f7574abea8ee486baf2",
    ("node2vec", "its"): "574277979a4353673420f5b3b07ea3f06cfa0b622813f2f0742982af34a5a44d",
    ("node2vec", "alias"): "e4c2ec569ebec8270fd89b8d44cd37e3fc03602b2d15b3e804a67158f0a1ba82",
    ("node2vec", "rej"): "4569230137efd39788f1ee4316ff33b4f73cf3a152135a474e9714b7dbfa2ec8",
    ("node2vec", "orej"): "f1bbfdaeaf433a0c2dc9ed017f5601fb3f61e0bf7210d093bfd635f2cff74807",
    ("metapath", "its"): "12f969a0259bbb1a6fa731d74f0cfcf120d29658adecb41d7e0b8d9efb4685eb",
    ("metapath", "alias"): "e615619a74202dc14accbe06acef66ed4c2f7925179998bff55fbc91b7486867",
    ("metapath", "rej"): "1c0205c744e9300c2238248359944169658382be46c370c7f9887b3b1aeb89b6",
}


def _walk_sha256(out):
    order = np.lexsort((out.steps, out.qids))
    rows = np.stack([out.qids[order], out.steps[order], out.vertices[order]]).astype(np.int64)
    return hashlib.sha256(rows.tobytes()).hexdigest()


@pytest.mark.parametrize("engine,kw", [("sequential", {}), ("interleaved", {"ring_size": 7})])
@pytest.mark.parametrize("algo,sampler,kw_app", APP_CASES)
def test_walks_match_pinned_digest(algo, sampler, kw_app, engine, kw, small_graph, sources_small):
    app = _app(algo, sampler, kw_app, small_graph)
    out = run_walks(small_graph, app, sources_small, engine=engine, seed=SEED, **kw)
    assert _walk_sha256(out) == WALK_SHA256[(algo, sampler)]


@pytest.mark.parametrize("algo,sampler,kw", APP_CASES)
def test_sequential_equals_interleaved(algo, sampler, kw, small_graph, sources_small):
    app = _app(algo, sampler, kw, small_graph)
    a = run_walks(small_graph, app, sources_small, engine="sequential", seed=SEED)
    b = run_walks(small_graph, app, sources_small, engine="interleaved", seed=SEED, ring_size=7)
    assert _paths_equal(a, b)


@pytest.mark.parametrize("algo,sampler,kw", APP_CASES)
def test_sequential_equals_bsp(algo, sampler, kw, small_graph, sources_small):
    app = _app(algo, sampler, kw, small_graph)
    a = run_walks(small_graph, app, sources_small, engine="sequential", seed=SEED)
    b = run_walks(small_graph, app, sources_small, engine="bsp", seed=SEED)
    assert _paths_equal(a, b)


@pytest.mark.parametrize("ring_size", [1, 2, 13, 64, 4096])
def test_ring_size_invariance(ring_size, small_graph, sources_small):
    app = make_app("deepwalk", length=10)
    a = run_walks(small_graph, app, sources_small, engine="sequential", seed=SEED)
    b = run_walks(small_graph, app, sources_small, engine="interleaved",
                  seed=SEED, ring_size=ring_size)
    assert _paths_equal(a, b)


def test_orej_node2vec_refills_a_full_ring(small_graph):
    """More queries than the tuned ring holds: the 1024-ring fills, then
    refills, and O-REJ's hoisted step keys still walk like the scalar loop."""
    sources = gen.random_sources(small_graph, MAX_RING_SIZE + 276, seed=9)
    app = _app("node2vec", "orej", {"length": 6}, small_graph)
    a = run_walks(small_graph, app, sources, engine="sequential", seed=SEED)
    for k in (64, MAX_RING_SIZE):
        b = run_walks(small_graph, app, sources, engine="interleaved", seed=SEED, ring_size=k)
        assert b.meta["ring_size"] == k
        assert _paths_equal(a, b)


def test_asp_equals_sequential_unbiased(small_graph, sources_small):
    app = make_app("ppr")
    a = run_walks(small_graph, app, sources_small, engine="sequential", seed=SEED)
    b = run_walks(small_graph, app, sources_small, engine="asp", seed=SEED)
    assert _paths_equal(a, b)
    assert b.meta["partition_loads"] >= b.meta["n_partitions"] - 1


def test_asp_rejects_biased(small_graph, sources_small):
    with pytest.raises(ValueError):
        run_walks(small_graph, make_app("deepwalk"), sources_small, engine="asp", seed=SEED)


@pytest.mark.parametrize("algo,sampler,kw", APP_CASES)
def test_walks_use_real_edges(algo, sampler, kw, small_graph, sources_small):
    app = _app(algo, sampler, kw, small_graph)
    out = run_walks(small_graph, app, sources_small, engine="interleaved", seed=SEED)
    _valid_walks(small_graph, out)


def test_target_length_respected(small_graph, sources_small):
    app = make_app("deepwalk", length=7)
    out = run_walks(small_graph, app, sources_small, engine="interleaved", seed=SEED)
    for path in out.paths().values():
        assert len(path) <= 8  # source + 7 moves


def test_ppr_lengths_geometric(small_graph):
    src = gen.random_sources(small_graph, 3000, seed=2)
    app = make_app("ppr", stop_prob=0.2)
    out = run_walks(small_graph, app, src, engine="interleaved", seed=SEED)
    lens = np.array([len(p) - 1 for p in out.paths().values()])
    # mean of Geometric(0.2) is 5 (dead ends shorten a little)
    assert 3.5 < lens.mean() < 6.0


def test_dead_end_terminates(sink_graph):
    app = make_app("deepwalk", length=50)
    out = run_walks(sink_graph, app, np.array([0, 1, 2]), engine="interleaved", seed=SEED)
    for path in out.paths().values():
        # vertex 3 is a sink; any walk reaching it must stop there
        if 3 in path:
            assert path[-1] == 3
    seq = run_walks(sink_graph, app, np.array([0, 1, 2]), engine="sequential", seed=SEED)
    assert _paths_equal(out, seq)


def test_metapath_schema_enforced(small_graph, sources_small):
    app = make_app("metapath", csr=small_graph, schema_len=5, seed=1)
    schema = app.params["schema"]
    out = run_walks(small_graph, app, sources_small, engine="interleaved", seed=SEED)
    g = small_graph
    for path in out.paths().values():
        for i, (u, v) in enumerate(zip(path[:-1], path[1:])):
            s, e = g.edge_slice(int(u)).start, g.edge_slice(int(u)).stop
            labs = g.label[s:e][g.dst[s:e] == v]
            assert schema[i % len(schema)] in labs


def test_walk_starts_at_source(small_graph, sources_small):
    app = make_app("deepwalk", length=5)
    out = run_walks(small_graph, app, sources_small, engine="interleaved", seed=SEED)
    paths = out.paths()
    for qid, src in enumerate(sources_small):
        assert paths[qid][0] == src


def test_steps_are_contiguous(small_graph, sources_small):
    app = make_app("deepwalk", length=5)
    out = run_walks(small_graph, app, sources_small, engine="interleaved", seed=SEED)
    pdf = out.to_pandas().sort_values(["query_id", "step"])
    for _, grp in pdf.groupby("query_id"):
        assert list(grp["step"]) == list(range(len(grp)))


def test_custom_qids(small_graph, sources_small):
    app = make_app("deepwalk", length=5)
    qids = np.arange(100, 100 + len(sources_small))
    out = run_walks(small_graph, app, sources_small, engine="interleaved",
                    seed=SEED, qids=qids)
    assert set(out.paths()) == set(qids.tolist())


def test_qid_determines_walk_not_position(small_graph):
    """A query's walk depends on its qid, not on where it sits in the batch
    — this is what makes Spark partitioning transparent."""
    src = gen.random_sources(small_graph, 20, seed=9)
    app = make_app("deepwalk", length=10)
    qids = np.arange(20)
    full = run_walks(small_graph, app, src, engine="interleaved", seed=SEED, qids=qids)
    half = run_walks(small_graph, app, src[10:], engine="interleaved", seed=SEED,
                     qids=qids[10:])
    pf, ph = full.paths(), half.paths()
    for q in ph:
        assert np.array_equal(pf[q], ph[q])


def test_empty_sources(small_graph):
    app = make_app("deepwalk", length=5)
    out = run_walks(small_graph, app, np.array([], dtype=np.int64), engine="interleaved", seed=SEED)
    assert out.total_steps == 0


def test_single_query(small_graph):
    app = make_app("deepwalk", length=5)
    out = run_walks(small_graph, app, np.array([1]), engine="interleaved", seed=SEED)
    assert len(out.paths()) == 1


def test_unknown_engine(small_graph, sources_small):
    with pytest.raises(ValueError):
        run_walks(small_graph, make_app("ppr"), sources_small, engine="gpu")


def test_timers_populated(small_graph, sources_small):
    app = make_app("node2vec", length=5)
    for engine in ("sequential", "interleaved"):
        timers = {}
        run_walks(small_graph, app, sources_small[:10], engine=engine,
                  seed=SEED, timers=timers)
        assert timers.get("weight", 0) > 0
        assert timers.get("init", 0) > 0
        assert timers.get("gen", 0) > 0
        assert timers.get("update", 0) > 0


def test_total_steps_counts_moves(small_graph):
    app = make_app("deepwalk", length=6)
    out = run_walks(small_graph, app, np.array([1, 2, 3]), engine="interleaved", seed=SEED)
    assert out.total_steps == sum(len(p) - 1 for p in out.paths().values())


def test_interleaved_meta(small_graph, sources_small):
    app = make_app("deepwalk", length=6)
    out = run_walks(small_graph, app, sources_small, engine="interleaved",
                    seed=SEED, ring_size=8)
    assert out.meta["ring_size"] == 8
    assert out.meta["ring_iterations"] >= 6


def test_bsp_meta_supersteps(small_graph, sources_small):
    app = make_app("deepwalk", length=6)
    out = run_walks(small_graph, app, sources_small, engine="bsp", seed=SEED)
    assert out.meta["supersteps"] == 6  # all queries reach the target length


@pytest.mark.parametrize("engine", ["sequential", "interleaved"])
def test_no_key_hashed_at_target_length(engine, small_graph, sources_small, monkeypatch):
    """Update tests the length limit before it hashes a key: a walker hashes
    one key per length it reaches below the limit, and none at the limit."""
    app = make_app("deepwalk", length=6)
    ref = run_walks(small_graph, app, sources_small, engine=engine, seed=SEED)
    hashed = []
    real_key, real_key_scalar = eng.rng.key, eng.rng.key_scalar

    def key(seed, qid, step):
        hashed.append(np.broadcast_to(step, np.broadcast(qid, step).shape).ravel())
        return real_key(seed, qid, step)

    def key_scalar(seed, qid, step):
        hashed.append(np.array([step]))
        return real_key_scalar(seed, qid, step)

    monkeypatch.setattr(eng.rng, "key", key)
    monkeypatch.setattr(eng.rng, "key_scalar", key_scalar)
    out = run_walks(small_graph, app, sources_small, engine=engine, seed=SEED)
    steps = np.concatenate(hashed)
    assert steps.max() < 6
    assert len(steps) == sum(min(len(p), 6) for p in ref.paths().values())
    assert _paths_equal(out, ref)


@pytest.mark.parametrize("engine", ENGINES)
def test_length_cap_stops_walks(engine, small_graph, sources_small):
    """A walk without a target length stops at ``max_len_cap``."""
    app = make_app("ppr", stop_prob=1e-4, max_len_cap=10)
    out = run_walks(small_graph, app, sources_small, engine=engine, seed=SEED)
    assert max(len(p) - 1 for p in out.paths().values()) == 10


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("algo", ["deepwalk", "ppr"])
def test_edgeless_graph_walks_hold_only_sources(algo, engine):
    g = from_arrays([], [], 3)
    # GraphWalker runs unbiased RW only.
    app = make_app(algo, length=5, weighted=engine != "asp")
    out = run_walks(g, app, [0, 1, 2], engine=engine, seed=SEED)
    assert {q: p.tolist() for q, p in out.paths().items()} == {0: [0], 1: [1], 2: [2]}
    assert out.total_steps == 0
