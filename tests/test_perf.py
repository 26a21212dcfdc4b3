"""Memory-hierarchy simulator and TMAM derivation."""
import numpy as np
import pytest

from repro.perf import amac, memsim, tmam
from repro.perf.memsim import Hierarchy, SimConfig, SimStats, run_trace


def _cfg(**kw):
    return SimConfig(**kw)


def test_lru_hit_after_fill():
    cfg = _cfg()
    h = Hierarchy(cfg)
    st = SimStats()
    assert h.access(0, st) == cfg.lat_dram
    assert h.access(0, st) == cfg.lat_l1
    assert st.hits["dram"] == 1 and st.hits["l1"] == 1


def test_lru_eviction():
    cfg = _cfg(l1_bytes=128, l2_bytes=128, l3_bytes=128, hw_prefetch_depth=0)
    h = Hierarchy(cfg)
    st = SimStats()
    for i in range(10):  # 10 distinct lines > 2-line capacity
        h.access(i * 64, st)
    lat = h.access(0, st)
    assert lat >= cfg.lat_dram  # evicted everywhere (plus bus queueing)


def test_l2_l3_latencies():
    cfg = _cfg(l1_bytes=64, l2_bytes=64 * 4, l3_bytes=64 * 64, hw_prefetch_depth=0)
    h = Hierarchy(cfg)
    st = SimStats()
    h.access(0, st)
    h.access(64, st)       # evicts 0 from L1
    assert h.access(0, st) == cfg.lat_l2


def test_hw_prefetcher_hides_stream():
    """Sequential scans must mostly hit once the streamer kicks in."""
    cfg = _cfg()
    lane = [(4, i * 64, False, False) for i in range(200)]
    st = run_trace([lane], cfg, window=1)
    assert st.hits["l1"] + st.hits["l2"] + st.hits["l3"] > 0.7 * st.mem_accesses


def test_random_access_misses():
    cfg = _cfg()
    g = np.random.default_rng(0)
    lane = [(4, int(a) * 64, False, False) for a in g.integers(0, 1 << 20, 500)]
    st = run_trace([lane], cfg, window=1)
    assert st.hits["dram"] > 0.9 * st.mem_accesses


def test_window_hides_latency():
    """The core claim (Eq. 2): k independent lanes overlap their misses."""
    g = np.random.default_rng(1)
    lanes = [
        [(8, int(a) * 64, False, False) for a in g.integers(0, 1 << 22, 50)]
        for _ in range(64)
    ]
    seq = run_trace(lanes, _cfg(), window=1)
    par = run_trace(lanes, _cfg(), window=64)
    assert par.cycles < seq.cycles / 3
    assert par.instructions >= seq.instructions  # same work


def test_mshr_caps_overlap():
    """More lanes than MSHRs cannot speed up past the MSHR limit."""
    g = np.random.default_rng(2)
    lanes = [
        [(2, int(a) * 64, False, False) for a in g.integers(0, 1 << 22, 40)]
        for _ in range(128)
    ]
    t4 = run_trace(lanes, _cfg(mshr=4), window=64).cycles
    t10 = run_trace(lanes, _cfg(mshr=10), window=64).cycles
    assert t10 < t4


def test_stall_accounting():
    lane = [(4, 0, False, False), (4, 0 + (1 << 20), False, False)]
    st = run_trace([lane], _cfg(), window=1)
    assert st.stall_cycles > 0
    assert st.cycles >= st.stall_cycles


def test_branch_events_counted():
    lane = [(4, None, True, False)] * 10
    st = run_trace([lane], _cfg(), window=1)
    assert st.branch_events == 10


def test_prefetch_level_nta_slower_on_reuse():
    """NTA bypasses L2/L3: re-references after L1 eviction go to DRAM
    (Table 10's shape: non-temporal is the worst hint)."""
    g = np.random.default_rng(3)
    addrs = g.integers(0, 1 << 14, 400) * 64  # working set ≈ L3-sized
    lanes = [[(4, int(a), False, False) for a in addrs] for _ in range(8)]
    t0 = run_trace(lanes, _cfg(), window=8, prefetch_level="t0").cycles
    nta = run_trace(lanes, _cfg(), window=8, prefetch_level="nta").cycles
    assert nta > t0


@pytest.mark.parametrize("hint,levels", [
    ("t0", (True, True, True)), ("t1", (False, True, True)),
    ("t2", (False, False, True)), ("nta", (True, False, False)),
])
def test_prefetch_hint_installs_into_its_levels(hint, levels):
    h = Hierarchy(_cfg())
    h.access(64 * 5, SimStats(), install=hint)  # cold: a DRAM fill
    assert tuple(lvl.lookup(5) for lvl in (h.l1, h.l2, h.l3)) == levels


def test_unknown_prefetch_hint_raises():
    with pytest.raises(KeyError):
        Hierarchy(_cfg()).access(0, SimStats(), install="t3")


def test_empty_trace():
    st = run_trace([], _cfg())
    assert st.cycles == 0


def test_bandwidth_positive_when_missing():
    lane = [(4, i * (1 << 14), False, False) for i in range(100)]
    st = run_trace([lane], _cfg(), window=1)
    assert st.bandwidth_gbs(_cfg()) > 0
    assert st.dram_bytes() >= st.hits["dram"] * 64


# ------------------------------------------------------------------ TMAM ---

def test_breakdown_fractions_sum():
    g = np.random.default_rng(4)
    lane = [(8, int(a) * 64, False, False) for a in g.integers(0, 1 << 22, 300)]
    b = tmam.breakdown(run_trace([lane], _cfg(), window=1, n_steps=100), _cfg())
    total = b.front_end + b.bad_spec + b.core + b.memory + b.retiring
    assert 0.9 < total < 1.1
    assert b.cycles_per_step > 0 and b.instructions_per_step > 0


def test_breakdown_memory_drops_with_window():
    g = np.random.default_rng(5)
    lanes = [
        [(8, int(a) * 64, False, False) for a in g.integers(0, 1 << 22, 50)]
        for _ in range(64)
    ]
    b1 = tmam.breakdown(run_trace(lanes, _cfg(), window=1, n_steps=100), _cfg())
    bk = tmam.breakdown(run_trace(lanes, _cfg(), window=64, n_steps=100), _cfg())
    # compute-light synthetic lanes stay MSHR/bus-bound, so memory share
    # shrinks but cycles must collapse (that is the interleaving win)
    assert bk.memory < b1.memory
    assert bk.cycles_per_step < b1.cycles_per_step / 5
    assert bk.retiring > b1.retiring


def test_breakdown_row_keys():
    b = tmam.breakdown(SimStats(cycles=100, instructions=100, n_steps=10), _cfg())
    row = b.as_row()
    assert {"front_end", "bad_spec", "core", "memory", "retiring",
            "bandwidth_gbs", "cycles_per_step", "instr_per_step", "ipc"} <= set(row)


# ------------------------------------------------------------------ AMAC ---

def _static_lanes(n_lanes=32, n_steps=30, seed=6):
    g = np.random.default_rng(seed)
    lanes = []
    for _ in range(n_lanes):
        lane = []
        for _ in range(n_steps):
            lane.append((20, int(g.integers(0, 1 << 22)) * 64, False, False))
            lane.append((45, int(g.integers(0, 1 << 22)) * 64, False, True))
            lane.append((25, None, False, True))
        lanes.append(lane)
    return lanes, n_lanes * n_steps


def test_amac_instruction_ordering():
    """Table 13: instructions/step — wo/si < w/si < AMAC."""
    lanes, n = _static_lanes()
    res = amac.compare_mechanisms(lanes, n, _cfg(), window=32)
    i = {k: v.instructions / n for k, v in res.items()}
    assert i["wo/si"] < i["w/si"] < i["amac"]


def test_amac_cycle_ordering():
    """Table 13: cycles/step — interleaving wins, AMAC pays extra."""
    lanes, n = _static_lanes()
    res = amac.compare_mechanisms(lanes, n, _cfg(), window=32)
    c = {k: v.cycles / n for k, v in res.items()}
    assert c["w/si"] < c["wo/si"]
    assert c["amac"] < c["wo/si"]
    assert c["w/si"] <= c["amac"]
