"""The paper's four RW algorithms (§2.2) + conventional BFS/SSSP (§3)."""
from repro.algos import bfs, deepwalk, metapath, node2vec, ppr, sssp  # noqa: F401

ALGOS = ("ppr", "deepwalk", "node2vec", "metapath")


def make_app(name: str, csr=None, **kw):
    """Factory: algorithm name → RandomWalkApp with §3 default settings."""
    if name == "ppr":
        return ppr.make_app(**kw)
    if name == "deepwalk":
        return deepwalk.make_app(**kw)
    if name == "node2vec":
        return node2vec.make_app(**kw)
    if name == "metapath":
        return metapath.make_app(csr=csr, **kw)
    raise ValueError(f"unknown algorithm {name!r}")
