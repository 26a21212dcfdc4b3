"""Synthetic analogues of the paper's twelve datasets (Table 5).

The paper evaluates on real graphs (SNAP / network-repository / Amazon /
Wikidata) up to 1.8 B edges. Those downloads are unavailable offline, so we
generate seeded synthetic analogues at ~1/1000 scale that preserve the
properties §6.3/§6.6 say drive the results:

* size class relative to cache (am fits in LLC, the rest do not),
* density (d_avg) and degree skew (d_max / d_avg),
* structure: bipartite sparsity (ac/ab), dense communities (eu/uk),
  heavy-tailed hubs (wk/tw), near-uniform degrees (fs).

Every generator is deterministic in ``seed``. Edges are mirrored
(undirected → two directed edges, §2.1), weights are uniform in [1, 5) and
labels uniform over a small label set, matching the paper's protocol for
unweighted/unlabeled graphs (§6.1, following KnightKing). ``wk`` gets a
larger label alphabet standing in for Wikidata's 1327 relation types.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.rng import _mix64
from repro.graph.csr import CSRGraph, from_arrays, undirected

DEFAULT_NUM_LABELS = 5
WK_NUM_LABELS = 16  # stands in for wikidata's 1327 relation types at 1/1000 scale


def _dedup(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop self-loops and duplicate directed edges."""
    keep = src != dst
    src, dst = src[keep], dst[keep]
    key = src.astype(np.int64) * (dst.max(initial=0) + 1) + dst
    _, idx = np.unique(key, return_index=True)
    return src[idx], dst[idx]


def _finish(
    src: np.ndarray,
    dst: np.ndarray,
    n: int,
    seed: int,
    name: str,
    num_labels: int = DEFAULT_NUM_LABELS,
) -> CSRGraph:
    """Mirror, dedup, and attach weights/labels — shared generator tail.

    Mirroring happens *before* dedup so an input containing both (a, b)
    and (b, a) yields each directed edge exactly once.
    """
    src, dst = undirected(src, dst)
    src, dst = _dedup(src, dst)
    g = np.random.default_rng(seed + 7)
    m = len(src)
    weight = g.random(m) * 4.0 + 1.0  # uniform [1, 5), §6.1
    label = g.integers(0, num_labels, m).astype(np.int32)
    return from_arrays(src, dst, n, weight, label, name=name)


def erdos_renyi(n: int, m: int, seed: int = 0, name: str = "er", **kw) -> CSRGraph:
    """Uniform random graph: near-uniform degrees (am/up/fs analogues)."""
    g = np.random.default_rng(seed)
    src = g.integers(0, n, m)
    dst = g.integers(0, n, m)
    return _finish(src, dst, n, seed, name, **kw)


def rmat(
    n: int,
    m: int,
    seed: int = 0,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    name: str = "rmat",
    **kw,
) -> CSRGraph:
    """R-MAT power-law graph: heavy degree skew (yt/lj/ot/tw analogues).

    Standard recursive quadrant construction, fully vectorized: each of
    log2(n) bits of (src, dst) is drawn from the (a, b, c, d) quadrant
    distribution independently per edge.
    """
    scale = max(1, int(np.ceil(np.log2(max(2, n)))))
    g = np.random.default_rng(seed)
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    for _ in range(scale):
        r = g.random(m)
        src_bit = (r >= a + b).astype(np.int64)
        # Within each src half, the dst bit is conditioned on the src bit.
        r2 = g.random(m)
        p_hi = np.where(src_bit == 0, b / (a + b), (1.0 - a - b - c) / max(1e-12, (c + 1.0 - a - b - c)))
        dst_bit = (r2 < p_hi).astype(np.int64)
        src = (src << 1) | src_bit
        dst = (dst << 1) | dst_bit
    src, dst = src % n, dst % n
    return _finish(src, dst, n, seed, name, **kw)


def bipartite(
    n_left: int, n_right: int, m: int, seed: int = 0, name: str = "bip", **kw
) -> CSRGraph:
    """Sparse bipartite graph (amazon-clothing / amazon-book analogues).

    Left = users, right = items; item popularity is Zipf-skewed like
    review data. Vertices 0..n_left-1 are users, the rest items.
    """
    g = np.random.default_rng(seed)
    n = n_left + n_right
    users = g.integers(0, n_left, m)
    ranks = np.arange(1, n_right + 1)
    p = 1.0 / ranks**0.8
    p /= p.sum()
    items = n_left + g.choice(n_right, size=m, p=p)
    return _finish(users, items, n, seed, name, **kw)


def community(
    n: int, m: int, n_comm: int, p_in: float = 0.9, seed: int = 0, name: str = "comm", **kw
) -> CSRGraph:
    """Planted-partition graph with dense communities (eu-2005 / uk-2002).

    A fraction ``p_in`` of edges stay inside a community, giving walks the
    strong memory locality the paper observes on web graphs (§6.3).
    """
    g = np.random.default_rng(seed)
    comm_of = g.integers(0, n_comm, n)
    # Bucket vertices by community so intra-community endpoints are cheap.
    order = np.argsort(comm_of, kind="stable")
    starts = np.searchsorted(comm_of[order], np.arange(n_comm))
    ends = np.append(starts[1:], n)
    src = g.integers(0, n, m)
    inside = g.random(m) < p_in
    c = comm_of[src]
    lo, hi = starts[c], ends[c]
    span = np.maximum(1, hi - lo)
    dst_in = order[lo + (g.random(m) * span).astype(np.int64)]
    dst_out = g.integers(0, n, m)
    dst = np.where(inside, dst_in, dst_out)
    return _finish(src, dst, n, seed, name, **kw)


def hub(n: int, m: int, n_hubs: int, hub_frac: float = 0.4, seed: int = 0, name: str = "hub", **kw) -> CSRGraph:
    """Few super-hubs absorb ``hub_frac`` of edge endpoints (wikidata)."""
    g = np.random.default_rng(seed)
    src = g.integers(0, n, m)
    to_hub = g.random(m) < hub_frac
    dst = np.where(to_hub, g.integers(0, n_hubs, m), g.integers(0, n, m))
    return _finish(src, dst, n, seed, name, **kw)


@dataclass(frozen=True)
class DatasetSpec:
    """One row of Table 5: paper stats + the analogue generator."""

    name: str
    paper_v: float  # millions
    paper_e: float  # millions
    paper_davg: float
    paper_dmax: int
    factory: callable  # (scale, seed) -> CSRGraph


def _s(x: float, scale: float, lo: int = 64) -> int:
    return max(lo, int(x * scale))


# 1/1000-scale analogues at scale=1.0; `scale` rescales further.
SUITE: dict[str, DatasetSpec] = {
    "am": DatasetSpec("am", 0.55, 1.85, 3.38, 549,
        lambda sc, seed: erdos_renyi(_s(550, sc), _s(925, sc), seed, name="am")),
    "yt": DatasetSpec("yt", 1.14, 2.99, 5.24, 28754,
        lambda sc, seed: rmat(_s(1140, sc), _s(1495, sc), seed, name="yt")),
    "up": DatasetSpec("up", 3.78, 16.52, 8.74, 793,
        lambda sc, seed: erdos_renyi(_s(3780, sc), _s(8260, sc), seed, name="up")),
    "eu": DatasetSpec("eu", 0.86, 19.24, 44.74, 68963,
        lambda sc, seed: community(_s(860, sc), _s(9620, sc), max(4, _s(20, sc)), 0.92, seed, name="eu")),
    "ac": DatasetSpec("ac", 15.16, 63.33, 4.18, 12845,
        lambda sc, seed: bipartite(_s(12000, sc), _s(3160, sc), _s(31665, sc), seed, name="ac")),
    "ab": DatasetSpec("ab", 18.29, 102.12, 5.58, 58147,
        lambda sc, seed: bipartite(_s(14500, sc), _s(3790, sc), _s(51060, sc), seed, name="ab")),
    "lj": DatasetSpec("lj", 4.85, 68.99, 28.45, 20333,
        lambda sc, seed: rmat(_s(4850, sc), _s(34495, sc), seed, name="lj")),
    "ot": DatasetSpec("ot", 3.07, 117.19, 76.34, 33313,
        lambda sc, seed: rmat(_s(3070, sc), _s(58595, sc), seed, a=0.45, b=0.22, c=0.22, name="ot")),
    "wk": DatasetSpec("wk", 40.96, 265.20, 6.47, 8085513,
        lambda sc, seed: hub(_s(40960, sc), _s(132600, sc), max(2, _s(6, sc)), 0.4, seed,
                             name="wk", num_labels=WK_NUM_LABELS)),
    "uk": DatasetSpec("uk", 18.52, 298.11, 32.19, 194955,
        lambda sc, seed: community(_s(18520, sc), _s(149055, sc), max(8, _s(180, sc)), 0.92, seed, name="uk")),
    "tw": DatasetSpec("tw", 41.66, 1210.0, 58.08, 2997487,
        lambda sc, seed: rmat(_s(20000, sc), _s(290000, sc), seed, a=0.62, b=0.17, c=0.17, name="tw")),
    "fs": DatasetSpec("fs", 65.61, 1810.0, 55.17, 5214,
        lambda sc, seed: erdos_renyi(_s(24000, sc), _s(330000, sc), seed, name="fs")),
}


def make_dataset(name: str, scale: float = 1.0, seed: int = 42) -> CSRGraph:
    """Instantiate one Table 5 analogue. ``scale=1.0`` ≈ 1/1000 of paper size."""
    g = SUITE[name].factory(scale, seed + sum(map(ord, name)))
    # Deterministic per-name seed offset keeps datasets decorrelated.
    return g


def suite(scale: float = 1.0, seed: int = 42, names: list[str] | None = None) -> dict[str, CSRGraph]:
    """Instantiate the (sub)suite of Table 5 analogues."""
    return {n: make_dataset(n, scale, seed) for n in (names or list(SUITE))}


def random_sources(g: CSRGraph, n: int, seed: int = 0) -> np.ndarray:
    """n start vertices drawn (with replacement) from non-dead-end vertices.

    Deterministic via the counter RNG so every engine sees the same set.
    """
    deg = g.degrees()
    cand = np.flatnonzero(deg > 0)
    if len(cand) == 0:
        raise ValueError("graph has no non-isolated vertices")
    with np.errstate(over="ignore"):
        h = _mix64(np.arange(n, dtype=np.uint64) + np.uint64(seed) * np.uint64(0x9E3779B97F4A7C15))
    return cand[(h % np.uint64(len(cand))).astype(np.int64)]
