"""DeepWalk (§2.2): fixed-length walks per vertex.

Original DeepWalk is unbiased; the weighted extension is a *static* biased
RW whose transition probability is the edge weight — the default here,
matching §3 ("the transition probability of DeepWalk is the edge weight").
"""
from __future__ import annotations

from repro.core.model import RandomWalkApp, WalkerType


def make_app(length: int = 80, weighted: bool = True, **_) -> RandomWalkApp:
    return RandomWalkApp(
        name="deepwalk",
        walker_type=WalkerType.STATIC if weighted else WalkerType.UNBIASED,
        sampler="alias",
        target_length=length,
        params={"length": length, "weighted": weighted},
    )
