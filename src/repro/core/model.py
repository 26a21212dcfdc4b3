"""Step-centric programming model (§4): Gather–Move–Update.

A random-walk application is declared the way ThunderRW's API does it
(§4.2, Listing 1): a walker type, a sampling method, a ``Weight`` function
giving each adjacent edge's relative transition chance, an ``Update``
termination rule (here declarative: a length limit, ``max_length``, and
an optional stop probability), and an optional ``MaxWeight`` bound for
O-REJ.

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

from repro.core import rng
from repro.graph.csr import CSRGraph

# Draw index of the termination coin on a walker's step key — the Move's
# draws stay below 2*MAX_ATTEMPTS (``repro.sampling.base``), so the two
# never collide.
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
    max_len_cap: int = 1000  # length limit of walks without a target length
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

    @property
    def max_length(self) -> int:
        """Update's length rule: a walker that reaches this length stops
        (``target_length``, else the ``max_len_cap`` safety cap). The
        engines test it before they hash the walker's key at that length,
        so only walkers below it draw the stop coin."""
        return self.target_length if self.target_length is not None else self.max_len_cap

    def stop_mask(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized Update coin: does each walker below ``max_length``
        stop at its new length? ``keys`` are the walkers' step keys at
        those lengths (``rng.key``)."""
        if self.stop_prob is None:
            return np.zeros(len(keys), dtype=bool)
        return rng.uniform(keys, TERM_DRAW) < self.stop_prob

    def stop_scalar(self, key) -> bool:
        """Scalar Update coin — same draw as the vectorized form."""
        return self.stop_prob is not None and rng.uniform_scalar(key, TERM_DRAW) < self.stop_prob
