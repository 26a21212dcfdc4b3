"""Stage Dependency Graph (§5.2, Table 4, Figure 3).

The SDG abstracts the Move operation of each sampling method into stages
(≤ 1 memory access per stage; jump-containing operations are their own
stage) connected by memory / computation / control dependencies. Stages
on control cycles ("cycle stages") are executed decoupled through the
search ring; non-cycle stages run coupled through the task ring (§5.3).

Besides documenting the design, the SDG drives the perf substrate: the
trace builder (:mod:`repro.perf.trace`) emits every replayed step from
:meth:`SDG.split` — the stages before the first draw, the rejection cycle
once per probed candidate, then the rest — reading each stage's order,
``mem`` label (which it maps to an address) and ``n_instr``. The AMAC
comparison (Table 13) keys its state-keeping overhead on the cycle flags
the trace builder sets on each lane stage.
"""
from __future__ import annotations

from dataclasses import dataclass, field

MEMORY = "memory"
COMPUTATION = "computation"
CONTROL = "control"


@dataclass(frozen=True)
class Stage:
    """One SDG node: a set of operations with at most one memory access."""

    name: str
    ops: tuple  # human-readable operation list (Table 4 rows)
    mem: str | None = None  # what the single memory access loads, if any
    n_instr: int = 8  # instruction estimate for the perf model


@dataclass(frozen=True)
class Dep:
    """One SDG edge: src stage → dst stage with a dependency kind."""

    src: str
    dst: str
    kind: str  # MEMORY | COMPUTATION | CONTROL
    data: str = ""


@dataclass
class SDG:
    method: str
    stages: list[Stage] = field(default_factory=list)
    deps: list[Dep] = field(default_factory=list)

    def stage(self, name: str) -> Stage:
        return next(s for s in self.stages if s.name == name)

    def _reach(self, kinds: set[str]) -> dict[str, set[str]]:
        """Each stage → the stages reachable from it over ≥ 1 ``kinds`` edge."""
        reach = {st.name: {d.dst for d in self.deps if d.src == st.name and d.kind in kinds}
                 for st in self.stages}
        for k in reach:  # Warshall: admit the paths through k
            for n in reach:
                if k in reach[n]:
                    reach[n] |= reach[k]
        return reach

    def _cyclic_nodes(self, kinds: set[str]) -> set[str]:
        """Nodes on at least one cycle in the subgraph of ``kinds`` edges."""
        reach = self._reach(kinds)
        return {n for n in reach if n in reach[n]}

    def cycle_stages(self) -> set[str]:
        """Stages on cycles (control edges included) — search-ring stages."""
        return self._cyclic_nodes({MEMORY, COMPUTATION, CONTROL})

    def split(self) -> tuple[list[Stage], list[Stage], list[Stage]]:
        """``(setup, attempt, finish)``: the stages before the first draw
        (the first stage with an outgoing computation dependency), the cycle
        holding that draw, repeated per rejection attempt (empty when the
        draw is on no cycle), and the remaining stages in order."""
        i = next(i for i, st in enumerate(self.stages)
                 if any(d.src == st.name and d.kind == COMPUTATION for d in self.deps))
        draw = self.stages[i].name
        reach = self._reach({MEMORY, COMPUTATION, CONTROL})
        attempt = [st for st in self.stages if st.name in reach[draw] and draw in reach[st.name]]
        return self.stages[:i], attempt, [st for st in self.stages[i:] if st not in attempt]

    def data_dependency_is_dag(self) -> bool:
        """§5.2: considering only data dependencies, SDG must be a DAG."""
        return not self._cyclic_nodes({MEMORY, COMPUTATION})

    def validate(self) -> None:
        names = {s.name for s in self.stages}
        assert len(names) == len(self.stages), "duplicate stage names"
        for d in self.deps:
            assert d.src in names and d.dst in names, f"dangling dep {d}"
        assert self.data_dependency_is_dag()


def _alias_sdg() -> SDG:
    """Table 4, left column."""
    return SDG(
        method="alias",
        stages=[
            Stage("S0", ("O0: load d_v",), mem="d_v", n_instr=20),
            Stage("S1", ("O1: gen int x in [0,d_v)", "O2: gen real y in [0,1)",
                         "O3: load C[x]=(H[x],A[x])"), mem="C[x]", n_instr=80),
            Stage("S2", ("O4: pick A[x].first/second", "O5: add v' to Q"),
                  mem="E_v-path", n_instr=35),
        ],
        deps=[
            Dep("S0", "S1", MEMORY, "d_v"),
            Dep("S1", "S2", MEMORY, "(H[x],A[x])"),
            Dep("S1", "S2", COMPUTATION, "x,y"),
        ],
    )


def _rej_sdg() -> SDG:
    """Table 4, right column (+ Algorithm 5's S4)."""
    return SDG(
        method="rej",
        stages=[
            Stage("S0", ("O0: load d_v",), mem="d_v", n_instr=15),
            Stage("S1", ("O1: load p*_v",), mem="p*_v", n_instr=10),
            Stage("S2", ("O2: gen int x", "O3: gen real y in [0,p*)",
                         "O4: load C[x]=p"), mem="E_v[x] weight", n_instr=45),
            Stage("S3", ("O5: if y > C[x] jump to O2 else O6",), n_instr=8),
            Stage("S4", ("O6: load E_v[x]",), mem="E_v[x]", n_instr=15),
            Stage("S5", ("O7: add v' to Q",), n_instr=25),
        ],
        deps=[
            Dep("S0", "S2", MEMORY, "d_v"),
            Dep("S1", "S3", MEMORY, "p*_v"),
            Dep("S2", "S3", MEMORY, "C[x]"),
            Dep("S2", "S3", COMPUTATION, "x,y"),
            Dep("S3", "S2", CONTROL, "reject"),
            Dep("S3", "S4", CONTROL, "accept"),
            Dep("S2", "S4", COMPUTATION, "x"),
            Dep("S4", "S5", MEMORY, "E_v[x]"),
        ],
    )


def _naive_sdg() -> SDG:
    return SDG(
        method="naive",
        stages=[
            Stage("S0", ("load d_v",), mem="d_v", n_instr=20),
            Stage("S1", ("gen int x", "load E_v[x]"), mem="E_v[x]", n_instr=70),
            Stage("S2", ("add v' to Q",), n_instr=40),
        ],
        deps=[
            Dep("S0", "S1", MEMORY, "d_v"),
            Dep("S1", "S2", MEMORY, "E_v[x]"),
            Dep("S1", "S2", COMPUTATION, "x"),
        ],
    )


def _its_sdg() -> SDG:
    return SDG(
        method="its",
        stages=[
            Stage("S0", ("load d_v, total_v",), mem="d_v", n_instr=20),
            Stage("S1", ("gen real x in [0,total)",), n_instr=35),
            Stage("S2", ("load cum[mid]", "compare, narrow [lo,hi)"), mem="cum[mid]", n_instr=12),
            Stage("S3", ("load E_v[i]",), mem="E_v[i]", n_instr=15),
            Stage("S4", ("add v' to Q",), n_instr=25),
        ],
        deps=[
            Dep("S0", "S1", MEMORY, "d_v,total"),
            Dep("S1", "S2", COMPUTATION, "x"),
            Dep("S2", "S2", CONTROL, "binary-search iterate"),
            Dep("S2", "S3", CONTROL, "lo==hi"),
            Dep("S2", "S3", COMPUTATION, "i"),
            Dep("S3", "S4", MEMORY, "E_v[i]"),
        ],
    )


def _orej_sdg() -> SDG:
    return SDG(
        method="orej",
        stages=[
            Stage("S0", ("load d_v",), mem="d_v", n_instr=15),
            Stage("S1", ("gen int x", "gen real y in [0,p*)", "probe w(E_v[x])"),
                  mem="E_v[x] weight", n_instr=55),
            Stage("S2", ("if y > w jump to S1 else S3",), n_instr=8),
            Stage("S3", ("add v' to Q",), n_instr=25),
        ],
        deps=[
            Dep("S0", "S1", MEMORY, "d_v"),
            Dep("S1", "S2", MEMORY, "w"),
            Dep("S1", "S2", COMPUTATION, "x,y"),
            Dep("S2", "S1", CONTROL, "reject"),
            Dep("S2", "S3", CONTROL, "accept"),
        ],
    )


_BUILDERS = {
    "naive": _naive_sdg,
    "its": _its_sdg,
    "alias": _alias_sdg,
    "rej": _rej_sdg,
    "orej": _orej_sdg,
}


def sdg_for(method: str) -> SDG:
    """The Move-operation SDG for a sampling method (validated)."""
    g = _BUILDERS[method]()
    g.validate()
    return g
