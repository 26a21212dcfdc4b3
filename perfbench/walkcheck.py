"""Output check for one benchmark cell: structural rules plus a bitwise reference.

A cell returns long-format walk rows ``(query_id, step, vertex)``. They are
correct when

* every query ``0..n-1`` appears, and its steps run ``0, 1, 2, ...`` with no
  gap or duplicate;
* step 0 is the query's source;
* every move ``(u, v)`` is an edge of the graph;
* walks have exactly ``length`` moves unless they end at a vertex with no
  out-edge;
* the rows equal a reference computed in-process by the same engine.

The structural rules use only the CSR arrays, not the walk code, so a
reference that is itself wrong still fails them.
"""
from __future__ import annotations

import numpy as np


def sort_rows(qids, steps, vertices) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows as int64 arrays ordered by (query_id, step)."""
    q = np.asarray(qids, dtype=np.int64)
    s = np.asarray(steps, dtype=np.int64)
    v = np.asarray(vertices, dtype=np.int64)
    order = np.lexsort((s, q))
    return q[order], s[order], v[order]


class WalkCheck:
    """Checks walk rows against the graph, the queries and a reference."""

    def __init__(
        self,
        indptr: np.ndarray,
        dst: np.ndarray,
        sources: np.ndarray,
        reference: tuple[np.ndarray, np.ndarray, np.ndarray],
        length: int,
    ) -> None:
        self.n_vertices = len(indptr) - 1
        degree = np.diff(indptr).astype(np.int64)
        src = np.repeat(np.arange(self.n_vertices, dtype=np.int64), degree)
        self.edge_keys = np.unique(src * self.n_vertices + np.asarray(dst, dtype=np.int64))
        self.degree = degree
        self.sources = np.asarray(sources, dtype=np.int64)
        self.length = length
        self.reference = sort_rows(*reference)

    def errors(self, qids, steps, vertices) -> list[str]:
        """Every rule the rows break; an empty list means the cell is correct."""
        q, s, v = sort_rows(qids, steps, vertices)
        errs = self.structural_errors(q, s, v)
        rq, rs, rv = self.reference
        if not (np.array_equal(q, rq) and np.array_equal(s, rs) and np.array_equal(v, rv)):
            errs.append("rows differ from the in-process reference")
        return errs

    def structural_errors(self, q: np.ndarray, s: np.ndarray, v: np.ndarray) -> list[str]:
        n = len(self.sources)
        if len(q) == 0:
            return ["no rows"]
        errs = []
        head = np.r_[True, q[1:] != q[:-1]]
        if not np.array_equal(q[head], np.arange(n)):
            errs.append("query ids are not exactly 0..n-1")
        if np.any((v < 0) | (v >= self.n_vertices)):
            return errs + ["vertex id out of range"]
        starts = np.flatnonzero(head)
        position = np.arange(len(q)) - starts[np.cumsum(head) - 1]
        if not np.array_equal(s, position):
            errs.append("steps are not contiguous from 0")
        known = (q[head] >= 0) & (q[head] < n)
        if not np.array_equal(v[starts][known], self.sources[q[head][known]]):
            errs.append("step 0 is not the source")
        move = ~head
        keys = v[np.flatnonzero(move) - 1] * self.n_vertices + v[move]
        found = np.searchsorted(self.edge_keys, keys)
        found = np.minimum(found, len(self.edge_keys) - 1)
        if len(keys) and not np.array_equal(self.edge_keys[found], keys):
            errs.append("a move does not follow a graph edge")
        ends = np.r_[starts[1:], len(q)] - 1
        moves = s[ends]
        short = moves != self.length
        if np.any(moves > self.length) or np.any(self.degree[v[ends][short]] > 0):
            errs.append(f"a walk does not have {self.length} moves and is not at a dead end")
        return errs
