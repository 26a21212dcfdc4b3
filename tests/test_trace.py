"""Trace builders: lanes must reflect the real walks and workloads."""
import hashlib

import numpy as np
import pytest

from repro.algos import make_app
from repro.core.engine import run_walks
from repro.core.sdg import sdg_for
from repro.perf import trace
from repro.graph import generators as gen
from repro.sampling import METHODS

SEED = 44


# sha256 of repr(lanes) for each case at SEED: the step-count test below
# checks the replayed walks, these pin the stages and addresses themselves.
# A key is (algo, sampler) for the algorithm's default app, or
# (algo, sampler, "unbiased") for its unweighted form.
LANE_SHA256 = {
    ("ppr", "naive"): "9925e40810be6c9e34d63b965c60772d2017344f20baadfdf06c20c75d9f48f8",
    ("deepwalk", "alias"): "bc531240226734d1c193162155453b1e858bbdc4f32b31264fd43cdae13bfd2a",
    ("deepwalk", "its"): "943ffc35b5b210ce18641592b99a711f737fa4668bf92aaa0112291e599b0c63",
    ("deepwalk", "rej"): "dbfc1ca0f91773a0b4892ae92a8d63f3e7ac22fdca048a307438d8768db4640b",
    ("deepwalk", "orej"): "c816d739044ee66f4caa9225e142107667adf5c33e41b362c5d2cb04d56aca6c",
    ("node2vec", "alias"): "bdbe7e7096b57c7ab316a61eb60568b110e37d8262fbfc74bc112129f1e4afb0",
    ("metapath", "its"): "a591c5e8a315383aeb402903a47679bf3efd6afc7dfc3f5108550338da01550c",
    # Node2Vec: Gather with N(prev) member probes, the scratch-buffer REJ
    # probes and O-REJ's per-attempt Weight-UDF probes.
    ("node2vec", "its"): "f821ce10249564840584e6c73d3448e02c47485fc879012ab95efff3d3fa3ec4",
    ("node2vec", "rej"): "c6a9d2f2ed801f842494efdd138b93f71628fad7be99ba038524ca65fd0ab439",
    ("node2vec", "orej"): "4b632150490f5b10456c83672c91326314142f71db25e38cab8b88854c7e3f8f",
    # MetaPath: label streams, zero-mass REJ steps (p* load, no attempt)
    # and O-REJ give-ups after MAX_ATTEMPTS attempts.
    ("metapath", "alias"): "97a10ac517adabaf1f25facc450c3a9eb7fa8ed411b367a2ca21c25edea350ac",
    ("metapath", "rej"): "07f802aa0105166752c99ca1313131906e02366e0a64000974d7fb185905fbda",
    ("metapath", "orej"): "35bb932c57e2410dee7b79c73bfe4eba1b80bf9d35098fa2fdd7725af2e329b8",
    # Unbiased DeepWalk: Move-only lanes over the unweighted tables.
    ("deepwalk", "naive", "unbiased"): "9915eefa2c1a830ab87382368c57045598e5d57ce8a65415acf8f978098b7dd9",
    ("deepwalk", "its", "unbiased"): "6dafe139173411375e14ef70074661db4f3646c34908208f7cf98ba8d075a7fb",
    ("deepwalk", "alias", "unbiased"): "5dc653d68ea6f81636c21be3b0d7877afdf7b5ee712e603b95f5936914289578",
    ("deepwalk", "rej", "unbiased"): "5954f8a91089006380371953f1668b855e08567122b884d9bb4740cc517b7619",
    ("deepwalk", "orej", "unbiased"): "ce89ee96a6a4ba6a31307242a98a239315bae81a92380040d9c81438046a7350",
}


def _pinned_app(key, csr):
    algo, sampler, *kind = key
    kw = {"weighted": False} if kind == ["unbiased"] else {}
    return make_app(algo, csr=csr, length=6, **kw).with_sampler(sampler)


@pytest.mark.parametrize("key", list(LANE_SHA256), ids="-".join)
def test_lane_per_query_and_step_count(key, small_graph, sources_small):
    app = _pinned_app(key, small_graph)
    lanes, n_steps = trace.build_rw_lanes(small_graph, app, sources_small, seed=SEED)
    assert len(lanes) == len(sources_small)
    out = run_walks(small_graph, app, sources_small, engine="sequential", seed=SEED)
    assert n_steps == out.total_steps  # trace replays the exact walks


@pytest.mark.parametrize("key", list(LANE_SHA256), ids="-".join)
def test_lanes_match_pinned_digest(key, small_graph, sources_small):
    app = _pinned_app(key, small_graph)
    lanes, _ = trace.build_rw_lanes(small_graph, app, sources_small, seed=SEED)
    assert hashlib.sha256(repr(lanes).encode()).hexdigest() == LANE_SHA256[key]


def test_stage_tuple_shape(small_graph, sources_small):
    app = make_app("deepwalk", length=5)
    lanes, _ = trace.build_rw_lanes(small_graph, app, sources_small, seed=SEED)
    for lane in lanes:
        for st in lane:
            assert len(st) == 4
            n_instr, addr, br, cyc = st
            assert n_instr > 0
            assert addr is None or addr >= 0
            assert isinstance(br, (bool, np.bool_)) and isinstance(cyc, (bool, np.bool_))


@pytest.mark.parametrize(
    "method,kind", [(m, k) for m in METHODS for k in ("unbiased", "static") if m != "naive" or k == "unbiased"]
)
def test_cycle_stages_iff_sdg_has_them(method, kind, small_graph, sources_small):
    """Move-only lanes (unbiased or static DeepWalk, which never Gather)
    flag a cycle stage iff the method's SDG has cycle stages. Lanes that
    Gather are left out: Node2Vec's Gather flags its binary searches in
    N(prev) as cycle stages even under ALIAS, whose Move SDG has none."""
    app = make_app("deepwalk", length=5, weighted=kind == "static").with_sampler(method)
    lanes, _ = trace.build_rw_lanes(small_graph, app, sources_small, seed=SEED)
    assert any(st[3] for lane in lanes for st in lane) == bool(sdg_for(method).cycle_stages())


def test_rej_marks_cycle_and_branches(small_graph, sources_small):
    app = make_app("deepwalk", length=8).with_sampler("rej")
    lanes, _ = trace.build_rw_lanes(small_graph, app, sources_small, seed=SEED)
    flat = [st for lane in lanes for st in lane]
    assert any(st[3] for st in flat)          # cycle stages present
    assert any(st[2] for st in flat)          # some rejections mispredict


def test_addresses_in_known_regions(small_graph, sources_small):
    app = make_app("deepwalk", length=5).with_sampler("its")
    lanes, _ = trace.build_rw_lanes(small_graph, app, sources_small, seed=SEED)
    hi = trace.R_SCRATCH + (1 << 32)
    for lane in lanes:
        for st in lane:
            if st[1] is not None:
                assert 0 <= st[1] < hi


def test_dynamic_uses_scratch_region(small_graph, sources_small):
    app = make_app("metapath", csr=small_graph)
    lanes, _ = trace.build_rw_lanes(small_graph, app, sources_small, seed=SEED)
    addrs = [st[1] for lane in lanes for st in lane if st[1] is not None]
    assert any(a >= trace.R_SCRATCH for a in addrs)


def test_bfs_lanes_cover_edges(small_graph):
    src = int(gen.random_sources(small_graph, 1, seed=1)[0])
    lanes, n_edges = trace.build_bfs_lanes(small_graph, src)
    assert n_edges > 0
    assert len(lanes) > 1
    # every lane starts with the indptr lookup
    assert all(lane[0][1] is not None and lane[0][1] < trace.R_DST for lane in lanes)


def test_sssp_lanes_rounds(small_graph):
    src = int(gen.random_sources(small_graph, 1, seed=1)[0])
    l1, e1 = trace.build_sssp_lanes(small_graph, src, rounds=1)
    l2, e2 = trace.build_sssp_lanes(small_graph, src, rounds=2)
    assert e2 == 2 * e1 and len(l2) == 2 * len(l1)


def test_stream_lines_one_stage_per_line():
    stages = trace._stream_lines(0, 0, 16, 8, 5)  # 16 items × 8B = 2 lines
    assert len(stages) == 2
    assert stages[0][1] == 0 and stages[1][1] == 64


def test_ppr_trace_total_steps_reasonable(small_graph):
    srcs = gen.random_sources(small_graph, 300, seed=3)
    app = make_app("ppr", stop_prob=0.2)
    _, n = trace.build_rw_lanes(small_graph, app, srcs, seed=SEED)
    assert 2.5 * 300 < n < 8 * 300  # E[len] ≈ 5
