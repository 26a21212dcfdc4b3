"""Counter-RNG: determinism, uniformity, lane decorrelation."""
import numpy as np
import pytest

from repro.core import rng


def test_uniform_range():
    u = rng.uniform(1, np.arange(100_000), 0, 0)
    assert u.min() >= 0.0 and u.max() < 1.0


def test_uniform_deterministic():
    a = rng.uniform(7, np.arange(64), 3, 2)
    b = rng.uniform(7, np.arange(64), 3, 2)
    assert np.array_equal(a, b)


def test_scalar_matches_vector():
    vec = rng.uniform(9, np.arange(32), 5, 1)
    for q in range(32):
        assert rng.uniform_scalar(9, q, 5, 1) == vec[q]


def test_randint_scalar_matches_vector():
    vec = rng.randint(9, np.arange(32), 5, 1, 17)
    for q in range(32):
        assert rng.randint_scalar(9, q, 5, 1, 17) == vec[q]


@pytest.mark.parametrize("bound", [1, 2, 7, 64, 1000])
def test_randint_bounds(bound):
    x = rng.randint(3, np.arange(20_000), 0, 0, bound)
    assert x.min() >= 0 and x.max() < bound


def test_randint_vector_bounds():
    bounds = np.array([1, 5, 10, 100] * 250)
    x = rng.randint(3, np.arange(1000), 2, 0, bounds)
    assert np.all(x >= 0) and np.all(x < bounds)


def test_uniform_mean_and_spread():
    u = rng.uniform(11, np.arange(200_000), 0, 0)
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1 / 12) < 0.005


@pytest.mark.parametrize("lane", ["seed", "qid", "step", "draw"])
def test_lane_changes_value(lane):
    base = dict(seed=1, qid=2, step=3, draw=4)
    a = rng.uniform(**base)
    base[lane] = base[lane] + 1
    b = rng.uniform(**base)
    assert a != b


def test_lanes_decorrelated():
    """Correlation between adjacent steps/qids must be ~0."""
    u1 = rng.uniform(1, np.arange(50_000), 0, 0)
    u2 = rng.uniform(1, np.arange(50_000), 1, 0)
    assert abs(np.corrcoef(u1, u2)[0, 1]) < 0.02
    u3 = rng.uniform(1, 0, np.arange(50_000), 0)
    u4 = rng.uniform(1, 1, np.arange(50_000), 0)
    assert abs(np.corrcoef(u3, u4)[0, 1]) < 0.02


def test_broadcasting_shapes():
    u = rng.uniform(1, np.arange(8)[:, None], np.arange(5)[None, :], 0)
    assert u.shape == (8, 5)
    assert len(np.unique(u)) == 40


def test_randint_uniformity_chi2ish():
    x = rng.randint(5, np.arange(120_000), 0, 0, 6)
    counts = np.bincount(x, minlength=6)
    expected = 20_000
    assert np.all(np.abs(counts - expected) < 5 * np.sqrt(expected))


def test_mix64_bijective_sample():
    xs = np.arange(100_000, dtype=np.uint64)
    assert len(np.unique(rng._mix64(xs))) == len(xs)


_EDGES = [0, 1, 2**63 - 1, 2**63, 2**64 - 1]
# Draw indices whose draw·K_DRAW wraps past 2^64 (the smallest one is 7).
_WRAP_DRAWS = [7, 2**32, 2**63 + 1, 2**64 - 1]


def _keyed_cases():
    r = np.random.default_rng(4)
    rand = lambda n: r.integers(0, 2**64, size=n, dtype=np.uint64)  # noqa: E731
    seeds = [int(x) for x in rand(3)] + _EDGES
    yield from ((s, q, t) for s in seeds for q in _EDGES for t in _EDGES)
    yield from zip(seeds, (int(x) for x in rand(8)), (int(x) for x in rand(8)))


@pytest.mark.filterwarnings("error")
def test_keyed_draws_equal_unkeyed_scalar():
    """Scalar form: a step key finishes every draw exactly as the full hash."""
    draws = [0, 1, 2, 1023, 1024] + _WRAP_DRAWS
    for seed, qid, step in _keyed_cases():
        key = rng.key(seed, qid, step)
        for d in draws:
            assert rng.uniform_scalar(seed, qid, step, d, key=key) == rng.uniform_scalar(seed, qid, step, d)
            assert rng.randint_scalar(seed, qid, step, d, 97, key=key) == rng.randint_scalar(seed, qid, step, d, 97)
            assert rng.uniform(seed, qid, step, d, key=key) == rng.uniform(seed, qid, step, d)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", [0, 3, 2**63, 2**64 - 1])
def test_keyed_draws_equal_unkeyed_vector(seed):
    """Vector form over random and edge-case qid/step lanes, with the key
    indexed per lane (as the ring's attempt waves do) and broadcast."""
    r = np.random.default_rng(seed % 1000)
    qids = np.concatenate([np.array(_EDGES, dtype=np.uint64), r.integers(0, 2**64, 300, dtype=np.uint64)])
    steps = np.concatenate([np.array(_EDGES[::-1], dtype=np.uint64), r.integers(0, 2**64, 300, dtype=np.uint64)])
    bounds = r.integers(1, 5000, len(qids))
    keys = rng.key(seed, qids, steps)
    assert keys.dtype == np.uint64 and keys.shape == qids.shape
    ids = r.permutation(len(qids))[:150]
    for d in [0, 1, 2, 1023] + _WRAP_DRAWS:
        assert np.array_equal(rng.uniform(seed, None, None, d, key=keys), rng.uniform(seed, qids, steps, d))
        assert np.array_equal(
            rng.randint(seed, None, None, d, bounds[ids], key=keys[ids]),
            rng.randint(seed, qids[ids], steps[ids], d, bounds[ids]),
        )
    draws = np.array(_WRAP_DRAWS, dtype=np.uint64)[:, None]
    assert np.array_equal(rng.uniform(seed, qids, steps, draws, key=keys), rng.uniform(seed, qids, steps, draws))


@pytest.mark.filterwarnings("error")
def test_key_of_0d_inputs():
    for seed, qid, step in [(0, 0, 0), (2**64 - 1, 2**63, 2**64 - 1)]:
        key = rng.key(*(np.array(x, dtype=np.uint64) for x in (seed, qid, step)))
        assert np.ndim(key) == 0
        assert key == rng.key(seed, qid, step)
        assert rng.uniform(seed, qid, step, 2**64 - 1, key=key) == rng.uniform_scalar(seed, qid, step, 2**64 - 1)
