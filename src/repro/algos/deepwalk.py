"""DeepWalk (§2.2): fixed-length walks per vertex.

Original DeepWalk is unbiased; the weighted extension is a *static* biased
RW whose transition probability is the edge weight — the default here,
matching §3 ("the transition probability of DeepWalk is the edge weight").
"""
from __future__ import annotations

from repro.core.model import RandomWalkApp, WalkerType
from repro.sampling import SAMPLERS


def make_app(length: int = 80, weighted: bool = True, **_) -> RandomWalkApp:
    return RandomWalkApp(
        name="deepwalk",
        walker_type=WalkerType.STATIC if weighted else WalkerType.UNBIASED,
        sampler="alias",
        target_length=length,
        params={"length": length, "weighted": weighted},
    )


def for_method(method: str, length: int) -> RandomWalkApp:
    """The per-sampling-method micro-benchmark (Tables 9, 10, 13): static
    DeepWalk sampled by ``method``, unbiased for a method that samples
    unbiased RW only (NAIVE)."""
    return make_app(length=length, weighted=not SAMPLERS[method].unbiased_only).with_sampler(method)
