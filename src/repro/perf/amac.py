"""AMAC comparison (Appendix C.5, Table 13).

AMAC (Kocberber et al., VLDB'15) interleaves lookups by keeping a full
finite-state machine per in-flight query: *every* stage transition saves
and restores explicit state. ThunderRW's switch mechanism (§5.3) instead
runs non-cycle stages *coupled* (no per-stage state at all — the stage
loop index is the state) and pays state maintenance only for cycle
stages via the search ring.

We model that difference as per-stage instruction overheads applied to
the same lanes:

* wo/si — window 1, no overhead;
* w/si  — window k, +NONCYCLE_OVH on non-cycle stages (task-ring advance),
  +CYCLE_OVH on cycle stages (search-ring state save/restore);
* AMAC  — window k, +CYCLE_OVH on every stage (full state machine).
"""
from __future__ import annotations

from repro.perf.memsim import SimConfig, SimStats, run_trace

NONCYCLE_OVH = 2      # instr: bump ring cursor
CYCLE_OVH = 14        # instr: save/restore explicit stage state
# AMAC re-dispatches through the full FSM on every cycle-stage iteration,
# while ThunderRW's search ring keeps a minimal (stage, x, y) record —
# this is why AMAC degrades most on ITS/REJ/O-REJ (Table 13).
AMAC_CYCLE_OVH = 30


def _with_overhead(lanes: list, noncycle: int, cycle: int) -> list:
    return [
        [(n + (cycle if cyc else noncycle), addr, br, cyc) for n, addr, br, cyc in lane]
        for lane in lanes
    ]


def compare_mechanisms(
    lanes: list,
    n_steps: int,
    cfg: SimConfig | None = None,
    window: int = 64,
) -> dict[str, SimStats]:
    """Run the three switch mechanisms over identical lanes (Table 13)."""
    cfg = cfg or SimConfig()
    return {
        "wo/si": run_trace(lanes, cfg, window=1, n_steps=n_steps),
        "w/si": run_trace(
            _with_overhead(lanes, NONCYCLE_OVH, CYCLE_OVH), cfg, window=window, n_steps=n_steps
        ),
        "amac": run_trace(
            _with_overhead(lanes, CYCLE_OVH, AMAC_CYCLE_OVH), cfg, window=window,
            n_steps=n_steps
        ),
    }
