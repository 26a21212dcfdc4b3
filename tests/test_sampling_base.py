"""Segmented-array primitives used by the batch samplers."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sampling.base import flatten_segments, segment_cumsum, segment_search


def test_flatten_segments_basic():
    # the segments of vertices 0, 2, 1 under indptr [0, 2, 2, 5]
    flat, seg = flatten_segments(np.array([0, 2, 2]), np.array([2, 3, 0]))
    assert list(flat) == [0, 1, 2, 3, 4]
    assert list(seg) == [0, 0, 1, 1, 1]


def test_flatten_segments_repeats_vertex():
    flat, seg = flatten_segments(np.array([0, 0]), np.array([3, 3]))
    assert list(flat) == [0, 1, 2, 0, 1, 2]
    assert list(seg) == [0, 0, 0, 1, 1, 1]


def test_segment_cumsum_matches_manual():
    vals = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    counts = np.array([2, 0, 3])
    cum, totals = segment_cumsum(vals, counts)
    assert list(cum) == [1.0, 3.0, 3.0, 7.0, 12.0]
    assert list(totals) == [3.0, 0.0, 12.0]


def test_segment_cumsum_empty():
    cum, totals = segment_cumsum(np.zeros(0), np.array([0, 0]))
    assert len(cum) == 0 and list(totals) == [0.0, 0.0]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.floats(0.01, 10.0), min_size=0, max_size=9), min_size=1, max_size=6))
def test_segment_cumsum_property(segs):
    vals = np.array([x for s in segs for x in s], dtype=np.float64)
    counts = np.array([len(s) for s in segs])
    cum, totals = segment_cumsum(vals, counts)
    off = 0
    for i, s in enumerate(segs):
        if s:
            np.testing.assert_allclose(cum[off : off + len(s)], np.cumsum(s))
            assert totals[i] == pytest.approx(sum(s))
        off += len(s)


def test_segment_search_right_matches_searchsorted():
    g = np.random.default_rng(0)
    arr_parts, starts, ends, xs = [], [], [], []
    off = 0
    for _ in range(50):
        n = g.integers(1, 40)
        a = np.sort(g.random(n))
        arr_parts.append(a)
        starts.append(off)
        ends.append(off + n)
        xs.append(g.random())
        off += n
    arr = np.concatenate(arr_parts)
    got = segment_search(arr, np.array(starts), np.array(ends), np.array(xs), "right")
    for i, (s, e, x) in enumerate(zip(starts, ends, xs)):
        assert got[i] - s == np.searchsorted(arr[s:e], x, side="right")


def test_segment_search_right_all_greater_and_none():
    arr = np.array([1.0, 2.0, 3.0])
    lo, hi = np.array([0, 0]), np.array([3, 3])
    got = segment_search(arr, lo, hi, np.array([-1.0, 99.0]), "right")
    assert list(got) == [0, 3]


def test_segment_search_left_membership_matches_python():
    g = np.random.default_rng(1)
    arr = np.sort(g.integers(0, 100, 60))
    lo = np.array([0, 10, 30, 59, 60])
    hi = np.array([60, 30, 30, 60, 60])
    x = np.array([int(arr[5]), int(arr[15]), 50, int(arr[59]), 1])
    got = segment_search(arr, lo, hi, x, "left")
    for i in range(len(lo)):
        assert got[i] - lo[i] == np.searchsorted(arr[lo[i] : hi[i]], x[i], side="left")
        found = got[i] < hi[i] and arr[got[i]] == x[i]
        assert found == (x[i] in arr[lo[i] : hi[i]])


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(0, 30), min_size=1, max_size=30),
    st.integers(0, 30),
)
def test_segment_search_left_membership_property(vals, probe):
    arr = np.sort(np.array(vals, dtype=np.int64))
    i = int(segment_search(arr, np.array([0]), np.array([len(arr)]), np.array([probe]), "left")[0])
    assert (i < len(arr) and arr[i] == probe) == (probe in vals)
