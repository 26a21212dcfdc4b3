"""Counter-RNG: determinism, uniformity, lane decorrelation, pinned values."""
import hashlib

import numpy as np
import pytest

from repro.core import rng


def test_uniform_range():
    u = rng.uniform(rng.key(1, np.arange(100_000), 0), 0)
    assert u.min() >= 0.0 and u.max() < 1.0


def test_uniform_deterministic():
    a = rng.uniform(rng.key(7, np.arange(64), 3), 2)
    b = rng.uniform(rng.key(7, np.arange(64), 3), 2)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("bound", [1, 2, 7, 64, 1000])
def test_randint_bounds(bound):
    x = rng.randint(rng.key(3, np.arange(20_000), 0), 0, bound)
    assert x.min() >= 0 and x.max() < bound


def test_randint_vector_bounds():
    bounds = np.array([1, 5, 10, 100] * 250)
    x = rng.randint(rng.key(3, np.arange(1000), 2), 0, bounds)
    assert np.all(x >= 0) and np.all(x < bounds)


def test_uniform_mean_and_spread():
    u = rng.uniform(rng.key(11, np.arange(200_000), 0), 0)
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1 / 12) < 0.005


@pytest.mark.parametrize("lane", ["seed", "qid", "step", "draw"])
def test_lane_changes_value(lane):
    base = dict(seed=1, qid=2, step=3, draw=4)
    value = lambda seed, qid, step, draw: rng.uniform(rng.key(seed, qid, step), draw)  # noqa: E731
    a = value(**base)
    base[lane] = base[lane] + 1
    b = value(**base)
    assert a != b


def test_lanes_decorrelated():
    """Correlation between adjacent steps/qids must be ~0."""
    u1 = rng.uniform(rng.key(1, np.arange(50_000), 0), 0)
    u2 = rng.uniform(rng.key(1, np.arange(50_000), 1), 0)
    assert abs(np.corrcoef(u1, u2)[0, 1]) < 0.02
    u3 = rng.uniform(rng.key(1, 0, np.arange(50_000)), 0)
    u4 = rng.uniform(rng.key(1, 1, np.arange(50_000)), 0)
    assert abs(np.corrcoef(u3, u4)[0, 1]) < 0.02


def test_broadcasting_shapes():
    u = rng.uniform(rng.key(1, np.arange(8)[:, None], np.arange(5)[None, :]), 0)
    assert u.shape == (8, 5)
    assert len(np.unique(u)) == 40


def test_randint_uniformity_chi2ish():
    x = rng.randint(rng.key(5, np.arange(120_000), 0), 0, 6)
    counts = np.bincount(x, minlength=6)
    expected = 20_000
    assert np.all(np.abs(counts - expected) < 5 * np.sqrt(expected))


def test_mix64_bijective_sample():
    xs = np.arange(100_000, dtype=np.uint64)
    assert len(np.unique(rng._mix64(xs))) == len(xs)


_EDGES = [0, 1, 2**63 - 1, 2**63, 2**64 - 1]
# Draw indices whose draw·K_DRAW wraps past 2^64 (the smallest one is 7).
_WRAP_DRAWS = [7, 2**32, 2**63 + 1, 2**64 - 1]


def _scalar_lanes():
    """(seed, qid, step) as Python ints — every combination of the
    edge-case counters, then 300 random lanes — and their vector keys."""
    r = np.random.default_rng(9)
    edges = [(s, q, t) for s in _EDGES for q in _EDGES for t in _EDGES]
    lanes = edges + [tuple(x) for x in r.integers(0, 2**64, (300, 3), dtype=np.uint64).tolist()]
    return lanes, rng.key(*(np.array(c, dtype=np.uint64) for c in zip(*lanes)))


_SCALAR_DRAWS = [0, 1, 2, 1023] + _WRAP_DRAWS


@pytest.mark.filterwarnings("error")
def test_scalar_matches_vector():
    """``key_scalar`` and ``uniform_scalar`` (key as a Python int and as
    np.uint64) equal the vector forms bitwise."""
    lanes, keys = _scalar_lanes()
    assert [rng.key_scalar(*lane) for lane in lanes] == keys.tolist()
    for d in _SCALAR_DRAWS:
        vec = rng.uniform(keys, d).tolist()
        assert [rng.uniform_scalar(k, d) for k in keys.tolist()] == vec
        assert [rng.uniform_scalar(k, d) for k in keys] == vec  # np.uint64 keys


@pytest.mark.filterwarnings("error")
def test_randint_scalar_matches_vector():
    _, keys = _scalar_lanes()
    for bound in [0, 1, 97, 10**9]:  # 0: the guard's max(bound - 1, 0)
        for d in _SCALAR_DRAWS:
            vec = rng.randint(keys, d, bound).tolist()
            assert [rng.randint_scalar(k, d, bound) for k in keys.tolist()] == vec
            assert [rng.randint_scalar(k, d, bound) for k in keys] == vec


# Values of the hash before it was split into a step key and a per-draw
# finish: (seed, qid, step, draw) -> (uniform, randint with bound 97).
_PINNED = {
    (0, 0, 0, 0): (0.13870941014555427, 13),
    (0, 0, 0, 2**64 - 1): (0.5106022266541885, 49),
    (2**63, 2**63, 2**63, 2**63 + 1): (0.2514116318213099, 24),
    (2**64 - 1, 2**64 - 1, 2**64 - 1, 7): (0.6339570401728234, 61),
    (21, 3, 5, 10_000): (0.9684528535776951, 93),
    (2**64 - 1, 0, 2**63, 2**32): (0.9029458596835264, 87),
}
# sha256 of uniform, and of randint with bounds 97 and 10^9, over every
# seed x qid x step in _EDGES and every draw in [0, 1, 2, 1023, 1024] + _WRAP_DRAWS.
_GRID_UNIFORM = "1539612ec453e26796938878e6238b20d7516ee3ff69bc644d532fc0af064484"
_GRID_RANDINT = "62178e465983aeb15e43330ea84052aa941c27252abe1cf2bdcbd344987684f9"


@pytest.mark.filterwarnings("error")
def test_pinned_scalar_values():
    """The scalar forms reproduce the pinned values, with no overflow warning."""
    for (seed, qid, step, d), (u, x) in _PINNED.items():
        key = rng.key(seed, qid, step)
        assert rng.uniform_scalar(key, d) == u
        assert rng.randint_scalar(key, d, 97) == x


@pytest.mark.filterwarnings("error")
def test_pinned_edge_grid():
    """The vector forms over the edge-case counters, broadcast over four axes."""
    e = np.array(_EDGES, dtype=np.uint64)
    draws = np.array([0, 1, 2, 1023, 1024] + _WRAP_DRAWS, dtype=np.uint64)
    keys = rng.key(e[:, None, None, None], e[None, :, None, None], e[None, None, :, None])
    u = rng.uniform(keys, draws)
    x = np.stack([rng.randint(keys, draws, 97), rng.randint(keys, draws, 10**9)])
    assert u.shape == (5, 5, 5, 9)
    assert hashlib.sha256(u.tobytes()).hexdigest() == _GRID_UNIFORM
    assert hashlib.sha256(x.astype(np.int64).tobytes()).hexdigest() == _GRID_RANDINT


_MASK = 2**64 - 1


def _ref_mix(x):
    z = (x + int(rng._GOLDEN)) & _MASK
    z ^= z >> 30
    z = (z * int(rng._M1)) & _MASK
    z ^= z >> 27
    z = (z * int(rng._M2)) & _MASK
    return z ^ (z >> 31)


def _ref_uniform(seed, qid, step, draw):
    """The unkeyed four-counter hash in Python integers, independent of
    NumPy's uint64 wraparound: ``mix(mix(mix(s ^ q) + t) + d)``."""
    q = (qid * int(rng._K_QID)) & _MASK
    t = (step * int(rng._K_STEP)) & _MASK
    d = (draw * int(rng._K_DRAW)) & _MASK
    h = _ref_mix((_ref_mix((_ref_mix(seed ^ q) + t) & _MASK) + d) & _MASK)
    return (h >> 11) * rng._INV_2_53


def _ref_randint(seed, qid, step, draw, bound):
    return min(int(_ref_uniform(seed, qid, step, draw) * bound), max(bound - 1, 0))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", [0, 3, 2**63, 2**64 - 1])
def test_keyed_draws_equal_unkeyed_vector(seed):
    """Vector form over random and edge-case qid/step lanes, with the key
    indexed per lane (as the ring's attempt waves do) and broadcast: every
    keyed draw equals the unkeyed hash of all four counters."""
    r = np.random.default_rng(seed % 1000)
    qids = np.concatenate([np.array(_EDGES, dtype=np.uint64), r.integers(0, 2**64, 300, dtype=np.uint64)])
    steps = np.concatenate([np.array(_EDGES[::-1], dtype=np.uint64), r.integers(0, 2**64, 300, dtype=np.uint64)])
    bounds = r.integers(1, 5000, len(qids))
    keys = rng.key(seed, qids, steps)
    assert keys.dtype == np.uint64 and keys.shape == qids.shape
    lanes = list(zip((int(q) for q in qids), (int(t) for t in steps)))
    ids = r.permutation(len(qids))[:150]
    for d in [0, 1, 2, 1023] + _WRAP_DRAWS:
        assert rng.uniform(keys, d).tolist() == [_ref_uniform(seed, q, t, d) for q, t in lanes]
        assert rng.randint(keys[ids], d, bounds[ids]).tolist() == [
            _ref_randint(seed, *lanes[i], d, int(bounds[i])) for i in ids
        ]
    draws = np.array(_WRAP_DRAWS, dtype=np.uint64)[:, None]
    assert rng.uniform(keys, draws).tolist() == [
        [_ref_uniform(seed, q, t, d) for q, t in lanes] for d in _WRAP_DRAWS
    ]


@pytest.mark.filterwarnings("error")
def test_key_of_0d_inputs():
    for seed, qid, step in [(0, 0, 0), (2**64 - 1, 2**63, 2**64 - 1)]:
        key = rng.key(*(np.array(x, dtype=np.uint64) for x in (seed, qid, step)))
        assert np.ndim(key) == 0
        assert key == rng.key(seed, qid, step)
        assert rng.uniform(key, 2**64 - 1) == rng.uniform_scalar(rng.key(seed, qid, step), 2**64 - 1)
