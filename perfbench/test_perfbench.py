"""Self-test of the benchmark's output check and failure count (no Spark).

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""
from __future__ import annotations

import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.algos import make_app  # noqa: E402
from repro.baselines.systems import run_system  # noqa: E402
from repro.graph import generators as gen  # noqa: E402

from serve import closed_loop, tail  # noqa: E402
from walkcheck import WalkCheck  # noqa: E402

LENGTH = 10


@pytest.fixture(scope="module")
def case():
    g = gen.rmat(1000, 4000, seed=11, name="small")
    sources = gen.random_sources(g, 50, seed=5)
    out = run_system("TRW", g, make_app("deepwalk", length=LENGTH), sources, seed=3)
    check = WalkCheck(g.indptr, g.dst, sources, (out.qids, out.steps, out.vertices),
                      length=LENGTH)
    return g, check, out.to_pandas().sort_values(["query_id", "step"], ignore_index=True)


def errors(check, walks):
    return check.errors(walks["query_id"], walks["step"], walks["vertex"])


def test_reference_rows_pass(case):
    _, check, walks = case
    assert errors(check, walks) == []
    # Row order does not matter: Spark returns partitions in any order.
    assert errors(check, walks.sample(frac=1.0, random_state=0)) == []


def test_corrupted_vertex_fails(case):
    g, check, walks = case
    bad = walks.copy()
    row = int(np.flatnonzero(bad["step"].to_numpy() == 5)[0])
    v = int(bad.at[row, "vertex"])
    bad.at[row, "vertex"] = (v + 1) % g.num_vertices
    assert "rows differ from the in-process reference" in errors(check, bad)


def test_move_off_the_graph_fails(case):
    g, check, walks = case
    bad = walks.copy()
    row = int(np.flatnonzero(bad["step"].to_numpy() == 5)[0])
    prev = int(bad.at[row - 1, "vertex"])
    off = next(u for u in range(g.num_vertices) if u not in set(g.neighbors(prev)))
    bad.at[row, "vertex"] = off
    assert "a move does not follow a graph edge" in errors(check, bad)


def test_dropped_middle_row_fails(case):
    _, check, walks = case
    row = int(np.flatnonzero(walks["step"].to_numpy() == 4)[0])
    assert "steps are not contiguous from 0" in errors(check, walks.drop(index=row))


def test_dropped_last_row_fails(case):
    g, check, walks = case
    ends = walks.groupby("query_id")["step"].idxmax()
    full = [i for i in ends if walks.at[i, "step"] == LENGTH]
    msgs = errors(check, walks.drop(index=full[0]))
    assert f"a walk does not have {LENGTH} moves and is not at a dead end" in msgs


def test_dropped_query_and_duplicate_row_fail(case):
    _, check, walks = case
    assert "query ids are not exactly 0..n-1" in errors(check, walks[walks["query_id"] != 7])
    dup = walks.loc[np.r_[np.arange(len(walks)), 3]]
    assert "steps are not contiguous from 0" in errors(check, dup)


def test_wrong_source_fails(case):
    g, check, walks = case
    bad = walks.copy()
    bad.at[0, "vertex"] = (int(bad.at[0, "vertex"]) + 1) % g.num_vertices
    assert "step 0 is not the source" in errors(check, bad)


def test_loop_counts_bad_and_raising_cells_as_failed(case):
    _, check, walks = case
    corrupt = walks.drop(index=3)
    outputs = itertools.cycle([walks, corrupt, None])

    def cell():
        w = next(outputs)
        if w is None:
            raise RuntimeError("executor lost")
        return w, {}

    records = closed_loop(cell, lambda w: errors(check, w), seconds=0.3)
    assert len(records) >= 3
    failed = [r for r in records if r["errors"]]
    assert len(failed) == len(records) - (len(records) + 2) // 3
    assert any("raised" in r["errors"][0] for r in failed)


def test_tail_is_p90_until_ten_cells_lie_beyond_it():
    assert tail(list(range(200))) == (189, 95.0)  # 10 cells above
    assert tail(list(range(100))) == (89, 90.0)
    assert tail(list(range(30))) == (26, 90.0)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 90.0)
