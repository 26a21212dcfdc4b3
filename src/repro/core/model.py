"""Step-centric programming model (§4): Gather–Move–Update.

A random-walk application is declared the way ThunderRW's API does it
(§4.2, Listing 1): a walker type, a sampling method, a ``Weight`` function
giving each adjacent edge's relative transition chance, an ``Update``
termination rule (here declarative: target length and/or stop
probability), and an optional ``MaxWeight`` bound for O-REJ.

``weight_fn`` is the vectorized UDF: it receives per-*candidate* arrays
(flat CSR edge indices, the owning walker's previous vertex and current
length) and returns one weight per candidate. The framework — not the
user — handles flattening ragged ring segments, running the sampler
init/generation, moving walkers and applying termination, exactly as
Algorithm 2/4 prescribe.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from repro.graph.csr import CSRGraph

# Draw index reserved for the termination coin — sampler draws stay below
# 2*MAX_ATTEMPTS+1 (``repro.sampling.base``), so the streams never collide.
TERM_DRAW = 10_000


class WalkerType(Enum):
    """Transition-probability class (§2.2)."""

    UNBIASED = "unbiased"
    STATIC = "static"
    DYNAMIC = "dynamic"


@dataclass
class RandomWalkApp:
    """One RW algorithm expressed in the step-centric model."""

    name: str
    walker_type: WalkerType
    sampler: str  # default sampling method; engines may override
    target_length: int | None = None
    stop_prob: float | None = None
    # (csr, flat_edge_idx, prev_per_candidate, length_per_candidate) -> weights
    weight_fn: Callable[[CSRGraph, np.ndarray, np.ndarray, np.ndarray], np.ndarray] | None = None
    max_weight: float | None = None  # O-REJ p* (MaxWeight UDF)
    max_len_cap: int = 1000  # safety cap for stop-probability walks
    params: dict = field(default_factory=dict)

    def table_kind(self) -> str:
        """Preprocessing kind for Algorithm 3 ('unbiased'/'static')."""
        if self.walker_type is WalkerType.UNBIASED:
            return "unbiased"
        if self.walker_type is WalkerType.STATIC:
            return "static"
        raise ValueError("dynamic RW has no whole-graph preprocessing")

    def with_sampler(self, sampler: str) -> "RandomWalkApp":
        """Copy of this app using a different sampling method."""
        from dataclasses import replace

        return replace(self, sampler=sampler)

    def stop_mask(self, seed: int, qids: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Vectorized Update: should each walker terminate at its new length?"""
        from repro.core import rng

        stop = np.zeros(len(qids), dtype=bool)
        if self.target_length is not None:
            stop |= lengths >= self.target_length
        if self.stop_prob is not None:
            stop |= rng.uniform(seed, qids, lengths, TERM_DRAW) < self.stop_prob
            stop |= lengths >= self.max_len_cap
        return stop

    def stop_scalar(self, seed: int, qid: int, length: int) -> bool:
        """Scalar Update — same coin as the vectorized form."""
        return bool(
            self.stop_mask(seed, np.array([qid]), np.array([length]))[0]
        )
