"""The five sampling methods through the registry contract: init
properties, scalar == batch, distributions."""
import numpy as np
import pytest

from repro.core import rng
from repro.sampling import METHODS, SAMPLERS, alias, its, naive, orej, rej
from repro.sampling.base import MAX_ATTEMPTS, PENDING

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


def _init_one(module, w):
    """A method's init over one segment holding all of ``w``."""
    return module.init(w, np.array([len(w)]))


def _draws(module, tab, d, n):
    """Scalar generation for queries 0..n-1 over the segment [0, d) at row 0."""
    return np.array([module.generate_scalar(tab, 0, d, 0, rng.key(SEED, q, 0), None, None) for q in range(n)])


REJ = SAMPLERS["rej"]  # REJ's init, generating through O-REJ's loop


# ---------------------------------------------------------------- ALIAS ----

@pytest.mark.parametrize("case", list(WEIGHT_CASES))
def test_alias_tables_valid(case):
    w = WEIGHT_CASES[case]
    tab = _init_one(alias, w)
    prob, a1, a2 = tab["prob"], tab["a1"], tab["a2"]
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


def test_alias_empty():
    tab = _init_one(alias, np.zeros(0))
    assert len(tab["prob"]) == 0
    assert alias.generate_scalar(tab, 0, 0, 0, rng.key(SEED, 0, 0), None, None) == -1


@pytest.mark.parametrize("case", ["uniform", "ramp", "skewed"])
def test_alias_distribution(case):
    w = WEIGHT_CASES[case]
    draws = _draws(alias, _init_one(alias, w), len(w), 60_000)
    np.testing.assert_allclose(_empirical(draws, len(w)), _target(w), atol=0.01)


# ------------------------------------------------------------------ ITS ----

@pytest.mark.parametrize("case", ["uniform", "ramp", "skewed", "with_zeros"])
def test_its_distribution(case):
    w = WEIGHT_CASES[case]
    draws = _draws(its, _init_one(its, w), len(w), 60_000)
    np.testing.assert_allclose(_empirical(draws, len(w)), _target(w), atol=0.01)


def test_its_zero_mass_returns_dead():
    assert its.generate_scalar(_init_one(its, np.zeros(3)), 0, 3, 0, rng.key(SEED, 0, 0), None, None) == -1


def test_its_never_picks_zero_weight():
    w = WEIGHT_CASES["with_zeros"]
    assert set(_draws(its, _init_one(its, w), len(w), 5000)) <= {1, 3}


# ------------------------------------------------------------------ REJ ----

@pytest.mark.parametrize("case", ["uniform", "ramp", "skewed"])
def test_rej_distribution(case):
    w = WEIGHT_CASES[case]
    draws = _draws(REJ, _init_one(rej, w), len(w), 60_000)
    np.testing.assert_allclose(_empirical(draws, len(w)), _target(w), atol=0.01)


def test_rej_zero_mass_dead():
    assert REJ.generate_scalar(_init_one(rej, np.zeros(3)), 0, 3, 0, rng.key(SEED, 0, 0), None, None) == -1
    assert REJ.generate_scalar(_init_one(rej, np.zeros(0)), 0, 0, 0, rng.key(SEED, 0, 0), None, None) == -1


def test_rej_never_picks_zero_weight():
    w = WEIGHT_CASES["with_zeros"]
    assert set(_draws(REJ, _init_one(rej, w), len(w), 5000)) <= {1, 3}


# ---------------------------------------------------------------- O-REJ ----

@pytest.mark.parametrize("pstar_slack", [1.0, 1.5, 4.0])
def test_orej_distribution_any_valid_bound(pstar_slack):
    """O-REJ must sample correctly for ANY p* >= max weight."""
    w = WEIGHT_CASES["ramp"]
    tab = {"pstar": np.array([float(w.max()) * pstar_slack]), "weights": w}
    draws = _draws(orej, tab, len(w), 60_000)
    np.testing.assert_allclose(_empirical(draws, len(w)), _target(w), atol=0.012)


def test_orej_dead_on_zero_pstar():
    assert orej.generate_scalar({"pstar": np.zeros(1)}, 0, 5, 0, rng.key(SEED, 0, 0), lambda i, r: i, None) == -1


def test_orej_exhausts_attempts_on_zero_mass():
    probe = lambda idx, rows: np.zeros(len(idx))
    assert orej.generate_scalar({"pstar": np.ones(1)}, 0, 4, 0, rng.key(SEED, 0, 0), probe, None) == -1


# ---------------------------------------------------------------- NAIVE ----

def test_naive_uniform():
    draws = _draws(naive, {}, 7, 60_000)
    np.testing.assert_allclose(_empirical(draws, 7), np.full(7, 1 / 7), atol=0.01)


def test_naive_batch_matches_scalar():
    deg = np.array([3, 7, 1, 12] * 10)
    qids = np.arange(40)
    steps = np.full(40, 2)
    batch = naive.generate_batch({}, np.zeros(40, dtype=np.int64), deg, qids, rng.key(SEED, qids, steps), None,
                                 np.zeros(40, dtype=np.int64))
    for i in range(40):
        assert batch[i] == naive.generate_scalar({}, 0, int(deg[i]), i, rng.key(SEED, i, 2), None, None)


# --------------------------------------------- scalar == batch (all) -------

def _drive_batch(rec, tab, starts, counts, rows, keys, probe):
    """Batch generation as the ring engine drives it: each call makes one
    rejection attempt per walker still in the step, at its own index, and
    calls again for the pending walkers until none is left."""
    sel = np.full(len(counts), PENDING, dtype=np.int64)
    attempt = np.zeros(len(counts), dtype=np.int64)
    todo = np.arange(len(counts))
    while len(todo):
        sel[todo] = rec.generate_batch(tab, starts[todo], counts[todo], rows[todo], keys[todo], probe,
                                       attempt[todo])
        attempt[todo] += 1
        todo = todo[sel[todo] == PENDING]
    return sel


def _flat_tables(ws):
    """Concatenate per-walker segments the way the ring engine sees them."""
    counts = np.array([len(w) for w in ws])
    starts = np.cumsum(counts) - counts
    return counts, starts


@pytest.mark.parametrize("step", [0, 5])
@pytest.mark.parametrize("method", METHODS)
def test_batch_matches_scalar(method, step):
    """Each registry record: init over random ragged segments plus an empty
    and a zero-mass one, then both generation forms pick the same edge for
    every walker, and neither moves a walker off the empty or zero-mass
    segment (NAIVE ignores weights, so only the empty one for it)."""
    rec = SAMPLERS[method]
    rs = np.random.default_rng(step)
    ws = [rs.uniform(0.0, 4.0, rs.integers(1, 12)) for _ in range(40)]
    ws += [np.zeros(0), np.zeros(4)]
    counts, starts = _flat_tables(ws)
    flat = np.concatenate(ws)
    if rec.init is not None:
        tab = rec.init(flat, counts)
    elif method == "orej":
        tab = {"pstar": np.full(len(ws), 4.0), "weights": flat}
    else:
        tab = {}
    qids = np.arange(len(ws))
    got = _drive_batch(rec, tab, starts, counts, qids, rng.key(SEED, qids, step), None)
    want = [rec.generate_scalar(tab, int(starts[i]), int(counts[i]), i, rng.key(SEED, i, step), None, None)
            for i in range(len(ws))]
    assert got.tolist() == want
    assert (got[:-2] >= 0).all()
    assert got[-2] == -1
    assert (got[-1] == -1) == (method != "naive")


@pytest.mark.parametrize("step", [0, 5])
def test_rej_equals_orej_with_table_probe(step):
    """The attempt loop's two weight sources agree: REJ's tables (a
    ``weights`` array) and the engine's ``probe`` over the same weights
    and bound (dynamic O-REJ) pick bitwise-equal edges in both forms and
    probe the same candidates, over random ragged segments, an empty one,
    a zero-mass one and one that gives up (weights << p*, every attempt
    misses)."""
    rs = np.random.default_rng(step)
    ws = [rs.uniform(0.0, 4.0, rs.integers(1, 12)) for _ in range(40)]
    ws += [np.zeros(0), np.zeros(4), np.full(6, 1e-9)]
    counts, starts = _flat_tables(ws)
    flat = np.concatenate(ws)
    rtab = rej.init(flat, counts)
    rtab["pstar"][-1] = 1.0  # forced give-up
    ptab = {"pstar": rtab["pstar"]}
    probe = lambda idx, rows: flat[idx]
    qids = np.arange(len(ws))
    steps = np.full(len(ws), step)
    got = _drive_batch(REJ, rtab, starts, counts, qids, rng.key(SEED, qids, steps), None)
    want = _drive_batch(orej, ptab, starts, counts, qids, rng.key(SEED, qids, steps), probe)
    assert np.array_equal(got, want)
    for i in range(len(ws)):
        s, d = int(starts[i]), int(counts[i])
        rej_probed, orej_probed = [], []
        x = REJ.generate_scalar(rtab, s, d, i, rng.key(SEED, i, step), None, rej_probed)
        y = orej.generate_scalar(ptab, s, d, i, rng.key(SEED, i, step), probe, orej_probed)
        assert x == y == got[i]
        assert rej_probed == orej_probed
    assert got[-3] == got[-2] == got[-1] == -1
    assert len(rej_probed) == MAX_ATTEMPTS  # the give-up segment's attempts
    assert (got[:-3] >= 0).all()


def test_batch_draws_differ_across_walkers():
    """Walkers in one batch must not share random draws."""
    tab = _init_one(its, np.ones(50))
    got = its.generate_batch(tab, np.zeros(30, dtype=np.int64), np.full(30, 50),
                             np.zeros(30, dtype=np.int64), rng.key(SEED, np.arange(30), 0), None,
                             np.zeros(30, dtype=np.int64))
    assert len(np.unique(got)) > 10
