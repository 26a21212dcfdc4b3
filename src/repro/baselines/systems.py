"""The five compared systems (§6.1) as (engine, sampler, parallelism) specs.

* **BL** — naive open-source-style baseline: serial, NAIVE for PPR and
  ALIAS for everything else; for dynamic RW it rebuilds the alias table at
  every step (§6.1), which is why the paper's BL hits OOT on Node2Vec.
* **HG** — homegrown optimized BL: parallel, and the recommended sampler
  per algorithm (§4.3): NAIVE/ALIAS/O-REJ/ITS for PPR/DeepWalk/Node2Vec/
  MetaPath respectively. Scalar per-query execution (wo/si).
* **GW** — GraphWalker's ASP execution model, in-memory, unbiased only.
* **KK** — KnightKing's BSP model with O-REJ sampling; no MetaPath
  (its per-edge bound cannot express the label filter, §2.4).
* **TRW** — ThunderRW: HG's sampler choices + the step-interleaved ring
  engine at the tuner's ring size (``engine.MAX_RING_SIZE``, §5.4),
  parallelized over Spark partitions.

``run_system`` executes one (system, algorithm) cell locally (one
"thread"); the Spark runner parallelizes the parallel systems.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import engine as eng
from repro.core.model import RandomWalkApp
from repro.core.walker import WalkOutput
from repro.graph.csr import CSRGraph


@dataclass(frozen=True)
class SystemSpec:
    """One compared system: execution engine + per-algorithm sampler."""

    name: str
    engine: str  # repro.core.engine name
    parallel: bool
    samplers: dict = field(default_factory=dict)  # algo -> sampler
    supports: tuple = ("ppr", "deepwalk", "node2vec", "metapath")
    engine_kwargs: dict = field(default_factory=dict)

    def app_for(self, app: RandomWalkApp) -> RandomWalkApp:
        """``app`` with this system's sampler; raises for an unsupported algorithm."""
        if app.name not in self.supports:
            raise ValueError(f"{self.name} does not support {app.name} (§6.1)")
        sampler = self.samplers.get(app.name)
        return app.with_sampler(sampler) if sampler else app


SYSTEMS: dict[str, SystemSpec] = {
    "BL": SystemSpec(
        name="BL", engine="sequential", parallel=False,
        samplers={"ppr": "naive", "deepwalk": "alias", "node2vec": "alias", "metapath": "alias"},
    ),
    "HG": SystemSpec(
        name="HG", engine="sequential", parallel=True,
        samplers={"ppr": "naive", "deepwalk": "alias", "node2vec": "orej", "metapath": "its"},
    ),
    "GW": SystemSpec(
        name="GW", engine="asp", parallel=True,
        samplers={"ppr": "naive"}, supports=("ppr",),
    ),
    "KK": SystemSpec(
        name="KK", engine="bsp", parallel=True,
        samplers={"ppr": "orej", "deepwalk": "orej", "node2vec": "orej"},
        supports=("ppr", "deepwalk", "node2vec"),
    ),
    "TRW": SystemSpec(
        name="TRW", engine="interleaved", parallel=True,
        samplers={"ppr": "naive", "deepwalk": "alias", "node2vec": "orej", "metapath": "its"},
        engine_kwargs={"ring_size": eng.MAX_RING_SIZE},
    ),
}


def run_system(
    system: str,
    csr: CSRGraph,
    app: RandomWalkApp,
    sources: np.ndarray,
    seed: int = 0,
    qids: np.ndarray | None = None,
) -> WalkOutput:
    """Run one system's engine over the given queries in-process."""
    spec = SYSTEMS[system]
    return eng.run_walks(
        csr, spec.app_for(app), sources, engine=spec.engine, seed=seed, qids=qids,
        **spec.engine_kwargs
    )
