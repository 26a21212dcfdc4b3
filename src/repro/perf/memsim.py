"""Memory-hierarchy and memory-level-parallelism simulator.

Models what the paper's step-interleaving exploits (§5.1): a miss to DRAM
costs ~hundreds of cycles, but the core can keep several misses in flight
(MSHRs), so k *independent* access chains can overlap their stalls while
one dependent chain cannot.

The executor runs ``lanes`` — per-walker stage streams of
``(n_instr, addr | None)`` — with an issue ``window`` of concurrently
active lanes:

* ``window=1`` ≈ sequential RW execution (wo/si): each walk is a dependent
  pointer chase, every miss stalls the core;
* ``window=k`` ≈ step interleaving with ring size k (w/si): on a miss the
  core switches to the next lane's stage, paying a small switch cost;
* BFS/SSSP traces use ``window≈MSHR`` to model the out-of-order engine
  overlapping independent per-edge loads — the reason conventional graph
  workloads saturate bandwidth while RW cannot (Table 1).

Cache dimensions default to a ~1/200-scaled Skylake (paper test bed:
L1 32 KB / L2 1 MB / LLC 13.75 MB) so the 1/1000-scale graph analogues
keep their Table 5 size-vs-LLC relationships.
"""
from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

LINE = 64

SIM_RING_SIZE = 64
"""The ``window`` of the simulated w/si runs (Tables 10-13): the paper's
ring size, which balances MSHR count and L1 capacity on its C++ test bed
(EXPERIMENTS deviation 3). It is not ``engine.MAX_RING_SIZE`` (1024):
that bound is where the Python engine's measured optimum lands, because
larger rings keep amortizing interpreter overhead, which the simulator
does not model."""


@dataclass
class SimConfig:
    """Scaled-Skylake machine model."""

    l1_bytes: int = 1 << 10      # 1 KB   (scaled 32 KB)
    l2_bytes: int = 16 << 10     # 16 KB  (scaled 1 MB)
    l3_bytes: int = 64 << 10     # 64 KB  (scaled 13.75 MB)
    lat_l1: int = 4
    lat_l2: int = 14
    lat_l3: int = 48
    lat_dram: int = 200
    mshr: int = 10               # per-core outstanding L1-D misses (§C.1)
    issue_width: int = 4         # pipeline slots per cycle (TMAM)
    switch_cost: int = 2         # cycles per lane switch (W_S in Eq. 2)
    freq_hz: float = 3.3e9
    mispredict_cost: int = 15    # branch-miss penalty (bad speculation)
    # Streamer prefetcher: on a DRAM fill of line L with L-1 still hot in
    # L1 (sequential pattern), lines L+1..L+depth are fetched ahead.
    hw_prefetch_depth: int = 2
    # DRAM bus: cycles each 64 B line occupies the memory channel.
    # 3.3 GHz / 4 cycles * 64 B ≈ 53 GB/s — the paper's ~60 GB/s test bed.
    bus_cycles_per_line: int = 4


class _LRU:
    """One cache level as an LRU set of line addresses."""

    __slots__ = ("cap", "lines")

    def __init__(self, capacity_bytes: int):
        self.cap = max(1, capacity_bytes // LINE)
        self.lines: OrderedDict[int, None] = OrderedDict()

    def lookup(self, line: int) -> bool:
        if line in self.lines:
            self.lines.move_to_end(line)
            return True
        return False

    def insert(self, line: int) -> None:
        if line in self.lines:
            self.lines.move_to_end(line)
            return
        if len(self.lines) >= self.cap:
            self.lines.popitem(last=False)
        self.lines[line] = None


@dataclass
class SimStats:
    """Raw counters the TMAM layer turns into Table 1-style rows."""

    cycles: float = 0.0
    instructions: int = 0
    mem_accesses: int = 0
    hits: dict = field(
        default_factory=lambda: {"l1": 0, "l2": 0, "l3": 0, "dram": 0, "dram_pf": 0}
    )
    stall_cycles: float = 0.0        # cycles with no lane ready (memory bound)
    switch_cycles: float = 0.0       # lane-switch overhead (core bound)
    branch_events: int = 0           # rejection/branch mispredict events
    n_steps: int = 0                 # RW steps represented by the lanes

    def dram_bytes(self) -> int:
        return (self.hits["dram"] + self.hits["dram_pf"]) * LINE

    def bandwidth_gbs(self, cfg: SimConfig) -> float:
        secs = self.cycles / cfg.freq_hz
        return self.dram_bytes() / secs / 1e9 if secs > 0 else 0.0


# The cache levels a DRAM-filled line enters under each ``_mm_prefetch``
# hint; the non-temporal hint fills L1 only, bypassing L2/L3.
_INSTALL = {"t0": ("l1", "l2", "l3"), "t1": ("l2", "l3"), "t2": ("l3",), "nta": ("l1",)}


class Hierarchy:
    """Three-level inclusive-ish cache front of DRAM."""

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.l1 = _LRU(cfg.l1_bytes)
        self.l2 = _LRU(cfg.l2_bytes)
        self.l3 = _LRU(cfg.l3_bytes)
        self.bus_free = 0.0  # DRAM channel availability time

    def _install(self, line: int, install: str) -> None:
        for level in _INSTALL[install]:
            getattr(self, level).insert(line)

    def _bus(self, clock: float) -> float:
        """Occupy the DRAM channel for one line; returns queueing delay."""
        start = max(clock, self.bus_free)
        self.bus_free = start + self.cfg.bus_cycles_per_line
        return start - clock

    def access(self, addr: int, stats: SimStats, clock: float = 0.0, install: str = "t0") -> int:
        """Look up an address; returns load-to-use latency in cycles.

        ``install`` mirrors ``_mm_prefetch`` hints (Table 10): where a
        DRAM-filled line is installed. 't0' → all levels, 't1' → L2+L3,
        't2' → L3 only, 'nta' → L1 only (bypass L2/L3). DRAM fills queue
        on a finite-bandwidth channel; a streamer prefetcher pulls the
        next lines ahead on sequential patterns.
        """
        line = addr // LINE
        stats.mem_accesses += 1
        cfg = self.cfg
        if self.l1.lookup(line):
            stats.hits["l1"] += 1
            # Keep the stream lookahead rolling on hits too.
            if cfg.hw_prefetch_depth and self.l1.lookup(line - 1):
                self._stream_prefetch(line, stats, clock)
            return cfg.lat_l1
        if self.l2.lookup(line):
            stats.hits["l2"] += 1
            self.l1.insert(line)
            return cfg.lat_l2
        if self.l3.lookup(line):
            stats.hits["l3"] += 1
            self.l1.insert(line)
            self.l2.insert(line)
            return cfg.lat_l3
        stats.hits["dram"] += 1
        queue = self._bus(clock)
        self._install(line, install)
        # Streamer: sequential pattern (previous line hot in L1) triggers
        # ahead-of-use fills of the next lines — they cost bus bandwidth
        # but hide their latency.
        if cfg.hw_prefetch_depth and self.l1.lookup(line - 1):
            self._stream_prefetch(line, stats, clock)
        base = cfg.lat_dram if install in ("t0", "nta") else cfg.lat_dram + cfg.lat_l2
        return int(base + queue)

    def _stream_prefetch(self, line: int, stats: SimStats, clock: float) -> None:
        for nxt in range(line + 1, line + 1 + self.cfg.hw_prefetch_depth):
            if not self.l3.lookup(nxt):
                stats.hits["dram_pf"] += 1
                self._bus(clock)
            self._install(nxt, "t0")


def run_trace(
    lanes: list,
    cfg: SimConfig | None = None,
    window: int = 1,
    prefetch_level: str = "t0",
    n_steps: int | None = None,
) -> SimStats:
    """Execute lane stage-streams through the machine model.

    Each lane is ``[(n_instr, addr_or_None, is_mispredicted_branch,
    is_cycle_stage), ...]``; the simulator reads the first three. Up to
    ``window`` lanes are in flight; a lane whose memory operand is still
    outstanding is skipped (lane switch, cost ``switch_cost``) — if *no* lane is ready the core stalls, which is the
    memory-bound time TMAM reports. DRAM misses also contend for
    ``cfg.mshr`` slots.
    """
    cfg = cfg or SimConfig()
    hier = Hierarchy(cfg)
    stats = SimStats(n_steps=n_steps or 0)
    n = len(lanes)
    if n == 0:
        return stats
    pos = [0] * n                 # next stage index per lane
    ready_at = [0.0] * n          # when the lane's pending operand arrives
    active: list[int] = [i for i in range(min(window, n)) if lanes[i]]
    next_lane = min(window, n)
    clock = 0.0
    in_flight: list[float] = []   # completion times of outstanding DRAM misses
    use_switch = window > 1
    rr = 0                        # round-robin cursor
    while active:
        # Pick the next ready lane in round-robin order.
        chosen = -1
        for scan in range(len(active)):
            j = (rr + scan) % len(active)
            if ready_at[active[j]] <= clock:
                chosen = j
                break
        if chosen < 0:
            # Every in-flight lane waits on memory: the core stalls.
            t_next = min(ready_at[li] for li in active)
            stats.stall_cycles += t_next - clock
            clock = t_next
            continue
        li = active[chosen]
        n_instr, addr, branch, _ = lanes[li][pos[li]]
        if branch:
            stats.branch_events += 1
            clock += cfg.mispredict_cost
        stats.instructions += n_instr
        clock += n_instr / cfg.issue_width
        if use_switch:
            clock += cfg.switch_cost
            stats.switch_cycles += cfg.switch_cost
        if addr is not None:
            # MSHR contention: an issuing DRAM miss needs a free slot.
            in_flight[:] = [t for t in in_flight if t > clock]
            if len(in_flight) >= cfg.mshr:
                t_slot = min(in_flight)
                stats.stall_cycles += t_slot - clock
                clock = t_slot
                in_flight.remove(t_slot)
            lat = hier.access(addr, stats, clock=clock, install=prefetch_level)
            done = clock + lat
            if lat >= cfg.lat_dram:
                in_flight.append(done)
            ready_at[li] = done
        pos[li] += 1
        if pos[li] >= len(lanes[li]):
            # Lane finished: refill from the pending queue (ring refill).
            while next_lane < n and not lanes[next_lane]:
                next_lane += 1
            if next_lane < n:
                active[chosen] = next_lane
                ready_at[next_lane] = 0.0
                next_lane += 1
            else:
                active.pop(chosen)
        rr = chosen + 1
    stats.cycles = clock
    return stats
