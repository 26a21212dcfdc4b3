"""The five sampling methods: init properties, scalar==batch, distributions."""
import numpy as np
import pytest

from repro.core import rng
from repro.sampling import alias, its, naive, orej, rej
from repro.sampling.base import MAX_ATTEMPTS

SEED = 17

WEIGHT_CASES = {
    "uniform": np.ones(8),
    "ramp": np.arange(1.0, 11.0),
    "skewed": np.array([100.0, 1.0, 1.0, 1.0, 1.0]),
    "tiny": np.array([0.5]),
    "with_zeros": np.array([0.0, 3.0, 0.0, 1.0]),
}


def _empirical(draws: np.ndarray, d: int) -> np.ndarray:
    c = np.bincount(draws, minlength=d).astype(float)
    return c / c.sum()


def _target(w: np.ndarray) -> np.ndarray:
    return w / w.sum()


# ---------------------------------------------------------------- ALIAS ----

@pytest.mark.parametrize("case", list(WEIGHT_CASES))
def test_alias_tables_valid(case):
    w = WEIGHT_CASES[case]
    prob, a1, a2 = alias.init(w)
    d = len(w)
    assert np.all((prob >= 0) & (prob <= 1))
    assert np.array_equal(a1, np.arange(d))
    assert np.all((a2 >= 0) & (a2 < d))
    # reconstruct the pmf from the tables
    p = np.zeros(d)
    for i in range(d):
        p[i] += prob[i] / d
        p[a2[i]] += (1 - prob[i]) / d
    np.testing.assert_allclose(p, _target(w), atol=1e-12)


def test_alias_zero_total_raises():
    with pytest.raises(ValueError):
        alias.init(np.zeros(3))


def test_alias_empty():
    prob, a1, a2 = alias.init(np.zeros(0))
    assert len(prob) == 0


@pytest.mark.parametrize("case", ["uniform", "ramp", "skewed"])
def test_alias_distribution(case):
    w = WEIGHT_CASES[case]
    tables = alias.init(w)
    n = 60_000
    draws = np.array([alias.generate_scalar(tables, SEED, q, 0) for q in range(n)])
    np.testing.assert_allclose(_empirical(draws, len(w)), _target(w), atol=0.01)


# ------------------------------------------------------------------ ITS ----

@pytest.mark.parametrize("case", ["uniform", "ramp", "skewed", "with_zeros"])
def test_its_distribution(case):
    w = WEIGHT_CASES[case]
    cum = its.init(w)
    n = 60_000
    draws = np.array([its.generate_scalar(cum, SEED, q, 0) for q in range(n)])
    np.testing.assert_allclose(_empirical(draws, len(w)), _target(w), atol=0.01)


def test_its_zero_mass_returns_dead():
    assert its.generate_scalar(np.zeros(3), SEED, 0, 0) == -1


def test_its_never_picks_zero_weight():
    w = WEIGHT_CASES["with_zeros"]
    cum = its.init(w)
    draws = [its.generate_scalar(cum, SEED, q, 0) for q in range(5000)]
    assert set(draws) <= {1, 3}


# ------------------------------------------------------------------ REJ ----

@pytest.mark.parametrize("case", ["uniform", "ramp", "skewed"])
def test_rej_distribution(case):
    w = WEIGHT_CASES[case]
    pm = rej.init(w)
    n = 60_000
    draws = np.array([rej.generate_scalar(w, pm, SEED, q, 0) for q in range(n)])
    np.testing.assert_allclose(_empirical(draws, len(w)), _target(w), atol=0.01)


def test_rej_zero_mass_dead():
    assert rej.generate_scalar(np.zeros(3), 0.0, SEED, 0, 0) == -1
    assert rej.generate_scalar(np.zeros(0), 1.0, SEED, 0, 0) == -1


def test_rej_never_picks_zero_weight():
    w = WEIGHT_CASES["with_zeros"]
    pm = rej.init(w)
    draws = [rej.generate_scalar(w, pm, SEED, q, 0) for q in range(5000)]
    assert set(draws) <= {1, 3}


# ---------------------------------------------------------------- O-REJ ----

@pytest.mark.parametrize("pstar_slack", [1.0, 1.5, 4.0])
def test_orej_distribution_any_valid_bound(pstar_slack):
    """O-REJ must sample correctly for ANY p* >= max weight."""
    w = WEIGHT_CASES["ramp"]
    pstar = float(w.max()) * pstar_slack
    probe = lambda idx, rows: w[idx]
    n = 60_000
    draws = np.array(
        [orej.generate_scalar(len(w), 0, pstar, probe, SEED, q, 0) for q in range(n)]
    )
    np.testing.assert_allclose(_empirical(draws, len(w)), _target(w), atol=0.012)


def test_orej_dead_on_zero_pstar():
    assert orej.generate_scalar(5, 0, 0.0, lambda i, r: i, SEED, 0, 0) == -1


def test_orej_exhausts_attempts_on_zero_mass():
    probe = lambda idx, rows: np.zeros(len(idx))
    assert orej.generate_scalar(4, 0, 1.0, probe, SEED, 0, 0) == -1


# ---------------------------------------------------------------- NAIVE ----

def test_naive_uniform():
    n = 60_000
    draws = np.array([naive.generate_scalar(7, SEED, q, 0) for q in range(n)])
    np.testing.assert_allclose(_empirical(draws, 7), np.full(7, 1 / 7), atol=0.01)


def test_naive_batch_matches_scalar():
    deg = np.array([3, 7, 1, 12] * 10)
    qids = np.arange(40)
    steps = np.full(40, 2)
    batch = naive.generate_batch(deg, SEED, qids, steps)
    for i in range(40):
        assert batch[i] == naive.generate_scalar(int(deg[i]), SEED, i, 2)


# --------------------------------------------- scalar == batch (all) -------

def _flat_tables(ws):
    """Concatenate per-walker tables the way the ring engine sees them."""
    counts = np.array([len(w) for w in ws])
    starts = np.cumsum(counts) - counts
    return counts, starts


@pytest.mark.parametrize("step", [0, 5])
def test_its_batch_matches_scalar(step):
    ws = [WEIGHT_CASES[c] for c in ("uniform", "ramp", "skewed", "tiny", "with_zeros")]
    counts, starts = _flat_tables(ws)
    cum_flat = np.concatenate([its.init(w) for w in ws])
    totals = np.array([w.sum() for w in ws])
    qids = np.arange(len(ws))
    got = its.generate_batch(cum_flat, starts, counts, totals, SEED, qids, np.full(len(ws), step))
    for i, w in enumerate(ws):
        assert got[i] == its.generate_scalar(its.init(w), SEED, i, step)


@pytest.mark.parametrize("step", [0, 5])
def test_alias_batch_matches_scalar(step):
    ws = [WEIGHT_CASES[c] for c in ("uniform", "ramp", "skewed", "tiny")]
    counts, starts = _flat_tables(ws)
    tabs = [alias.init(w) for w in ws]
    prob = np.concatenate([t[0] for t in tabs])
    a1 = np.concatenate([t[1] for t in tabs])
    a2 = np.concatenate([t[2] for t in tabs])
    qids = np.arange(len(ws))
    got = alias.generate_batch(prob, a1, a2, starts, counts, SEED, qids, np.full(len(ws), step))
    for i, t in enumerate(tabs):
        assert got[i] == alias.generate_scalar(t, SEED, i, step)


@pytest.mark.parametrize("step", [0, 3])
def test_rej_batch_matches_scalar(step):
    ws = [WEIGHT_CASES[c] for c in ("uniform", "ramp", "skewed", "tiny", "with_zeros")]
    counts, starts = _flat_tables(ws)
    flat = np.concatenate(ws)
    pmax = np.array([rej.init(w) for w in ws])
    qids = np.arange(len(ws))
    got = rej.generate_batch(flat, starts, counts, pmax, SEED, qids, np.full(len(ws), step))
    for i, w in enumerate(ws):
        assert got[i] == rej.generate_scalar(w, rej.init(w), SEED, i, step)


@pytest.mark.parametrize("step", [0, 3])
def test_orej_batch_matches_scalar(step):
    ws = [WEIGHT_CASES[c] for c in ("uniform", "ramp", "skewed")]
    counts, starts = _flat_tables(ws)
    flat = np.concatenate(ws)
    pstar = np.array([w.max() * 1.3 for w in ws])
    probe = lambda idx, rows: flat[idx]
    qids = np.arange(len(ws))
    got = orej.generate_batch(starts, counts, pstar, probe, SEED, qids, np.full(len(ws), step))
    for i, w in enumerate(ws):
        p = lambda idx, rows: w[idx]
        assert got[i] == orej.generate_scalar(len(w), 0, float(w.max() * 1.3), p, SEED, i, step)


@pytest.mark.parametrize("step", [0, 5])
def test_rej_equals_orej_with_table_probe(step):
    """REJ is O-REJ given REJ's weights as a table probe and the same bound,
    bitwise, in both forms: over random ragged segments, an empty one, a
    zero-mass one and one that gives up (weights << p*, every attempt
    misses)."""
    rs = np.random.default_rng(step)
    ws = [rs.uniform(0.0, 4.0, rs.integers(1, 12)) for _ in range(40)]
    ws += [np.zeros(0), np.zeros(4), np.full(6, 1e-9)]
    pmax = np.array([rej.init(w) for w in ws])
    pmax[-1] = 1.0  # forced give-up
    counts, starts = _flat_tables(ws)
    flat = np.concatenate(ws)
    qids = np.arange(len(ws))
    steps = np.full(len(ws), step)
    got = rej.generate_batch(flat, starts, counts, pmax, SEED, qids, steps)
    want = orej.generate_batch(starts, counts, pmax, lambda idx, rows: flat[idx],
                               SEED, qids, steps)
    assert np.array_equal(got, want)
    for i, w in enumerate(ws):
        rej_probed, orej_probed = [], []
        x = rej.generate_scalar(w, float(pmax[i]), SEED, i, step, rej_probed)
        y = orej.generate_scalar(len(w), 0, float(pmax[i]), lambda idx, rows: w[idx],
                                 SEED, i, step, probed=orej_probed)
        assert x == y == got[i]
        assert rej_probed == orej_probed
    assert got[-3] == got[-2] == got[-1] == -1
    assert len(rej_probed) == MAX_ATTEMPTS  # the give-up segment's attempts
    assert (got[:-3] >= 0).all()


def test_batch_draws_differ_across_walkers():
    """Walkers in one batch must not share random draws."""
    w = np.ones(50)
    cum = its.init(w)
    counts = np.full(30, 50)
    starts = np.zeros(30, dtype=np.int64)
    got = its.generate_batch(np.tile(cum, 1), starts, counts, np.full(30, 50.0),
                             SEED, np.arange(30), np.zeros(30, dtype=np.int64))
    assert len(np.unique(got)) > 10
