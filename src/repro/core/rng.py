"""Counter-based deterministic RNG (SplitMix64 finalizer).

ThunderRW's engines must be comparable *bitwise*: the paper's BL/HG/GW/KK/
TRW systems walk the same stochastic process with different execution
strategies (sequential, ring-interleaved, BSP supersteps, ASP partition
scheduling, Spark-parallel). A stateful RNG would consume draws in a
different order per engine and make cross-engine tests statistical only.

Instead, every random number is a pure function of one walker step's key
and a draw index. :func:`key` hashes ``(seed, query_id, step)`` into the
key ``mix(mix(seed ^ qid) + step)``; :func:`uniform` and :func:`randint`
(and their ``*_scalar`` forms) finish it per draw as ``mix(key + draw)``
(qid, step and draw each scaled by its own odd constant). The engines own
the counter layout: a walker's key is hashed once when it reaches a
length, and that length's Update coin (``model.TERM_DRAW``) and the Move
from it (draws below ``2·sampling.base.MAX_ATTEMPTS``) finish it. Engines
request the same logical draws regardless of execution order, so two
engines running the same sampler produce identical walks. :func:`key`,
:func:`uniform` and :func:`randint` are vectorized over NumPy arrays
(inputs broadcast), which is what makes the step-interleaved (ring) engine
able to draw for k walkers in one call. :func:`key_scalar`,
:func:`uniform_scalar` and :func:`randint_scalar` are the same hash in
Python ints (``& (2**64 - 1)`` after each add and multiply), bitwise equal
and free of NumPy's per-call dispatch, for the scalar engines' one walker
at a time.
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

# The same constants as Python ints, for the scalar forms.
_GOLDEN_I, _M1_I, _M2_I = int(_GOLDEN), int(_M1), int(_M2)
_K_QID_I, _K_STEP_I, _K_DRAW_I = int(_K_QID), int(_K_STEP), int(_K_DRAW)
_MASK = (1 << 64) - 1

_INV_2_53 = 1.0 / (1 << 53)


def _mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer: bijective avalanche mix on uint64."""
    z = x + _GOLDEN  # a new value, so the in-place steps below never touch x
    z ^= z >> np.uint64(30)
    z *= _M1
    z ^= z >> np.uint64(27)
    z *= _M2
    z ^= z >> np.uint64(31)
    return z


def _mix_int(z: int) -> int:
    """:func:`_mix64` of ``z mod 2^64`` on Python ints, so callers need not
    reduce a sum or product before mixing it."""
    z = (z + _GOLDEN_I) & _MASK
    z ^= z >> 30
    z = (z * _M1_I) & _MASK
    z ^= z >> 27
    z = (z * _M2_I) & _MASK
    return z ^ (z >> 31)


def key(seed, qid, step) -> np.ndarray:
    """One walker step's key per broadcast ``(seed, qid, step)``: uint64
    ``mix(mix(s ^ q) + t)``, finished by every draw of that step."""
    with np.errstate(over="ignore"):
        s = np.asarray(seed, dtype=np.uint64)
        q = np.asarray(qid, dtype=np.uint64) * _K_QID
        t = np.asarray(step, dtype=np.uint64) * _K_STEP
        return _mix64(_mix64(s ^ q) + t)


def key_scalar(seed, qid, step) -> int:
    """:func:`key` of one ``(seed, qid, step)``, as a Python int."""
    q = (int(qid) * _K_QID_I) & _MASK
    return _mix_int(_mix_int(int(seed) ^ q) + int(step) * _K_STEP_I)


def uniform(key, draw) -> np.ndarray:
    """Uniform float64 in [0, 1) per broadcast ``(key, draw)``.

    Finishes the key as ``mix(key + draw·K_DRAW)`` and uses the top 53
    bits, so the result is an exactly representable dyadic rational —
    identical on every platform.
    """
    with np.errstate(over="ignore"):
        h = _mix64(key + np.asarray(draw, dtype=np.uint64) * _K_DRAW)
    return ((h >> np.uint64(11)).astype(np.float64)) * _INV_2_53


def randint(key, draw, bound) -> np.ndarray:
    """Uniform integer in [0, bound) per broadcast element.

    Computed as ``floor(u * bound)`` from the 53-bit uniform; the modulo
    bias is < 2^-40 for any realistic degree and, critically, the mapping
    is *the same function in every engine*, which is what the exact
    cross-engine equivalence tests rely on.
    """
    u = uniform(key, draw)
    b = np.asarray(bound)
    out = (u * b).astype(np.int64)
    # Guard the (theoretically impossible with 53-bit u < 1) edge out == b.
    return np.minimum(out, np.maximum(b - 1, 0)).astype(np.int64)


def uniform_scalar(key, draw: int) -> float:
    """:func:`uniform` of one ``(key, draw)``; ``key`` is a Python int or
    a NumPy uint64."""
    return (_mix_int(int(key) + int(draw) * _K_DRAW_I) >> 11) * _INV_2_53


def randint_scalar(key, draw: int, bound: int) -> int:
    """:func:`randint` of one ``(key, draw, bound)``, with its guard."""
    return min(int(uniform_scalar(key, draw) * bound), max(int(bound) - 1, 0))
