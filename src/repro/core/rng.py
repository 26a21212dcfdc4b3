"""Counter-based deterministic RNG (SplitMix64 finalizer).

ThunderRW's engines must be comparable *bitwise*: the paper's BL/HG/GW/KK/
TRW systems walk the same stochastic process with different execution
strategies (sequential, ring-interleaved, BSP supersteps, ASP partition
scheduling, Spark-parallel). A stateful RNG would consume draws in a
different order per engine and make cross-engine tests statistical only.

Instead, every random number is a pure function of
``(seed, query_id, step, draw_index)``: a per-step key
``mix(mix(seed ^ qid) + step)``, finished per draw as ``mix(key + draw)``
(qid, step and draw each scaled by its own odd constant). Engines request
the same logical draws regardless of execution order, so two engines
running the same sampler produce identical walks. All functions are
vectorized over NumPy arrays (inputs broadcast), which is what makes the
step-interleaved (ring) engine able to draw for k walkers in one call.
"""
from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
# Distinct odd multipliers decorrelate the qid/step/draw lanes before mixing.
_K_QID = np.uint64(0xD6E8FEB86659FD93)
_K_STEP = np.uint64(0xCA01F9DD56C24D11)
_K_DRAW = np.uint64(0x2545F4914F6CDD1D)

_INV_2_53 = 1.0 / (1 << 53)


def _mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer: bijective avalanche mix on uint64."""
    z = (x + _GOLDEN).astype(np.uint64)
    z ^= z >> np.uint64(30)
    z *= _M1
    z ^= z >> np.uint64(27)
    z *= _M2
    z ^= z >> np.uint64(31)
    return z


def _key(seed, qid, step) -> np.ndarray:
    """``mix(mix(s ^ q) + t)``; the caller sets ``errstate``."""
    s = np.asarray(seed, dtype=np.uint64)
    q = np.asarray(qid, dtype=np.uint64) * _K_QID
    t = np.asarray(step, dtype=np.uint64) * _K_STEP
    return _mix64(_mix64(s ^ q) + t)


def key(seed, qid, step) -> np.ndarray:
    """The draw-independent part of the hash, one uint64 per broadcast
    ``(seed, qid, step)``. A walker draws several times per step (ALIAS 2,
    REJ/O-REJ 2 per attempt): compute its key once and pass it as ``key=``
    to :func:`uniform`/:func:`randint`."""
    with np.errstate(over="ignore"):
        return _key(seed, qid, step)


def _counter_hash(seed, qid, step, draw, key=None) -> np.ndarray:
    """Combine the four counters into one well-mixed uint64 (broadcasting):
    ``mix(key(seed, qid, step) + draw·K_DRAW)``. A given ``key`` stands in
    for ``(seed, qid, step)``, which are then not read."""
    with np.errstate(over="ignore"):
        if key is None:
            key = _key(seed, qid, step)
        return _mix64(key + np.asarray(draw, dtype=np.uint64) * _K_DRAW)


def uniform(seed, qid, step, draw, key=None) -> np.ndarray:
    """Uniform float64 in [0, 1), one per broadcast element.

    Uses the top 53 bits of the mixed counter so the result is an exactly
    representable dyadic rational — identical on every platform. ``key``
    is :func:`key` of ``(seed, qid, step)``; with it the counters are not
    read and the value is the same.
    """
    h = _counter_hash(seed, qid, step, draw, key)
    return ((h >> np.uint64(11)).astype(np.float64)) * _INV_2_53


def randint(seed, qid, step, draw, bound, key=None) -> np.ndarray:
    """Uniform integer in [0, bound) per broadcast element.

    Computed as ``floor(u * bound)`` from the 53-bit uniform; the modulo
    bias is < 2^-40 for any realistic degree and, critically, the mapping
    is *the same function in every engine*, which is what the exact
    cross-engine equivalence tests rely on. ``key`` as in :func:`uniform`.
    """
    u = uniform(seed, qid, step, draw, key)
    b = np.asarray(bound)
    out = (u * b).astype(np.int64)
    # Guard the (theoretically impossible with 53-bit u < 1) edge out == b.
    return np.minimum(out, np.maximum(b - 1, 0)).astype(np.int64)


def uniform_scalar(seed: int, qid: int, step: int, draw: int, key=None) -> float:
    """Scalar convenience wrapper (same value as the vectorized path)."""
    return float(uniform(seed, qid, step, draw, key))


def randint_scalar(seed: int, qid: int, step: int, draw: int, bound: int, key=None) -> int:
    """Scalar convenience wrapper (same value as the vectorized path)."""
    return int(randint(seed, qid, step, draw, bound, key))
