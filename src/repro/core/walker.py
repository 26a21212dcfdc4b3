"""Walker state and walk output containers (paper Appendix B).

Walkers carry an ID, current/previous vertex, length and the step key of
that length (``rng.key``). The scalar engines keep one :class:`Walker` per
query, which also records its path; the ring engine keeps its walkers as
one record of arrays. Output is the long-format walk table
``(query_id, step, vertex)`` — the DataFrame-friendly shape the Spark
runner emits, with step 0 being the source vertex.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd


@dataclass
class WalkOutput:
    """Flat walk sequences plus engine-side metadata."""

    qids: np.ndarray  # int64, one row per (query, step)
    steps: np.ndarray  # int32 position within the walk (0 = source)
    vertices: np.ndarray  # int64
    timers: dict = field(default_factory=dict)  # phase -> seconds (Table 2)
    meta: dict = field(default_factory=dict)  # engine stats (swaps, supersteps, …)

    @property
    def total_steps(self) -> int:
        """Number of moves T = Σ|Q| (excludes the step-0 source rows)."""
        return int((self.steps > 0).sum())

    def paths(self) -> dict[int, np.ndarray]:
        """Walks as {query_id: vertex sequence} (test-friendly)."""
        order = np.lexsort((self.steps, self.qids))
        q, s, v = self.qids[order], self.steps[order], self.vertices[order]
        out: dict[int, np.ndarray] = {}
        if len(q) == 0:
            return out
        bounds = np.flatnonzero(np.diff(q)) + 1
        for chunk_q, chunk_v in zip(np.split(q, bounds), np.split(v, bounds)):
            out[int(chunk_q[0])] = chunk_v
        return out

    def to_pandas(self) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "query_id": self.qids.astype(np.int64),
                "step": self.steps.astype(np.int32),
                "vertex": self.vertices.astype(np.int64),
            }
        )


class Walker:
    """One query's walker in the scalar engines: Algorithm 2's state, its
    step key at ``length``, whether Update lets it move again and the
    vertices it has visited (``path[0]`` is the source)."""

    __slots__ = ("qid", "cur", "prev", "length", "key", "live", "path")

    def __init__(self, qid: int, source: int, key) -> None:
        self.qid, self.cur, self.prev, self.length = qid, source, -1, 0
        self.key, self.live, self.path = key, True, [source]


class _OutBuffer:
    """Append-only chunked buffer for (qid, step, vertex) rows."""

    def __init__(self) -> None:
        self._q: list[np.ndarray] = []
        self._s: list[np.ndarray] = []
        self._v: list[np.ndarray] = []

    def add(self, qids, steps, vertices) -> None:
        self._q.append(np.asarray(qids, dtype=np.int64))
        self._s.append(np.asarray(steps, dtype=np.int32))
        self._v.append(np.asarray(vertices, dtype=np.int64))

    def finish(self, timers: dict | None = None, meta: dict | None = None) -> WalkOutput:
        cat = lambda xs, dt: (
            np.concatenate(xs) if xs else np.zeros(0, dtype=dt)
        )
        return WalkOutput(
            qids=cat(self._q, np.int64),
            steps=cat(self._s, np.int32),
            vertices=cat(self._v, np.int64),
            timers=timers or {},
            meta=meta or {},
        )
