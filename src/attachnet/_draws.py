"""``default_rng(seed).choice(n, k, replace=False)`` for a block of seeds.

``choice_rows`` returns the start rows the k-means sweep needs for thousands
of seeds with whole-array uint64 arithmetic instead of one ``Generator`` per
seed.  It follows numpy's own path step for step: ``SeedSequence`` hashes the
seed into four 64-bit words, ``PCG64`` (O'Neill, HMC-CS-2014-0905) seeds its
128-bit LCG from them, ``next_uint32`` halves each 64-bit output, Lemire's
bounded integers (ACM TOMACS 2019) scale a 32-bit draw to ``[0, j]``, and
``choice`` picks ``k`` of ``n`` by Floyd's algorithm and then shuffles them.
Every step is the same for every seed, so one array op serves the block.

A seed takes the per-seed ``default_rng`` path when the vectorised one could
differ: a Lemire draw that numpy would reject and redraw, a seed of 2**64 or
more, a population above 10,000 (numpy then tail-shuffles instead), and every
seed of a block whose first fast-path row disagrees with ``default_rng``, a
guard against a numpy release that draws differently.
"""
from __future__ import annotations

import numpy as np

_U32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier as its high and low 64-bit halves
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI, _MULT_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & (2**64 - 1))
# above this population numpy's choice may tail-shuffle instead of using Floyd
_FLOYD_MAX_N = 10_000


def choice_rows(seeds: range, n: int, k: int) -> np.ndarray:
    """An ``(len(seeds), k)`` int64 array whose row ``i`` equals
    ``np.random.default_rng(seeds[i]).choice(n, size=k, replace=False)``.

    ``seeds`` is a range of non-negative seeds with a positive step, and
    ``1 <= k <= n``.
    """
    out = np.empty((len(seeds), k), dtype=np.int64)
    fast = len(range(seeds.start, min(seeds.stop, 2**64), seeds.step)) if n <= _FLOYD_MAX_N else 0
    redo = list(range(fast, len(seeds)))
    if fast:
        values = np.uint64(seeds.start) + np.uint64(seeds.step) * np.arange(fast, dtype=np.uint64)
        rows, rejected = _floyd_choice(values, n, k)
        out[:fast] = rows
        kept = np.flatnonzero(~rejected)
        if len(kept) and not np.array_equal(out[kept[0]], _choice(seeds[kept[0]], n, k)):
            redo = range(len(seeds))
        else:
            redo = np.flatnonzero(rejected).tolist() + redo
    for i in redo:
        out[i] = _choice(seeds[i], n, k)
    return out


def _choice(seed: int, n: int, k: int) -> np.ndarray:
    return np.random.default_rng(seed).choice(n, size=k, replace=False)


def _floyd_choice(seeds: np.ndarray, n: int, k: int):
    """``choice(n, k, replace=False)`` per uint64 seed, and a mask of the
    seeds whose draws numpy would have rejected (their rows are wrong)."""
    draws = _uint32_draws(seeds)
    rejected = np.zeros(len(seeds), dtype=bool)

    def bounded(rng: int) -> np.ndarray:
        """Lemire's draw in ``[0, rng]``; ``rng == 0`` uses no draw."""
        if rng == 0:
            return np.zeros(len(seeds), dtype=np.int64)
        m = next(draws) * np.uint64(rng + 1)
        threshold = np.uint64((0xFFFFFFFF - rng) % (rng + 1))
        np.logical_or(rejected, (m & _U32) < threshold, out=rejected)
        return (m >> _SHIFT32).astype(np.int64)

    idx = np.empty((len(seeds), k), dtype=np.int64)
    for pos, j in enumerate(range(n - k, n)):  # Floyd: j itself if the draw was taken
        val = bounded(j)
        taken = (idx[:, :pos] == val[:, None]).any(axis=1)
        idx[:, pos] = np.where(taken, j, val)
    rows = np.arange(len(seeds))
    for i in range(k - 1, 0, -1):  # Fisher-Yates from the top
        j = bounded(i)
        idx[rows, i], idx[rows, j] = idx[rows, j], idx[rows, i]
    return idx, rejected


def _uint32_draws(seeds: np.ndarray):
    """``PCG64(seed).random_raw`` split low half first, as ``next_uint32``
    hands them out; each item is a uint64 array of 32-bit values."""
    state, inc = _seeded_lcg(seeds)
    while True:
        state = _lcg_step(state, inc)
        hi, lo = state
        rot = hi >> np.uint64(58)
        x = hi ^ lo
        out = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
        yield out & _U32
        yield out >> _SHIFT32


def _seeded_lcg(seeds: np.ndarray):
    """PCG64's ``srandom``: state 0, step, add the seed state, step."""
    s0, s1, s2, s3 = _seed_sequence_state(seeds)
    one = np.uint64(1)
    inc = ((s2 << one) | (s3 >> np.uint64(63)), (s3 << one) | one)
    hi, lo = inc  # one step from state 0 lands on the increment
    lo = lo + s1
    hi = hi + s0 + (lo < s1)
    return _lcg_step((hi, lo), inc), inc


def _lcg_step(state, inc):
    """``state * _PCG_MULT + inc`` modulo 2**128, on (high, low) uint64 halves."""
    hi, lo = state
    new_lo = lo * _MULT_LO + inc[1]
    carry = new_lo < inc[1]
    return _mulhi(lo, _MULT_LO) + hi * _MULT_LO + lo * _MULT_HI + inc[0] + carry, new_lo


def _mulhi(a, b):
    """The high 64 bits of the 128-bit product of uint64 ``a`` and ``b``, from
    their 32-bit halves; each partial sum stays below 2**64."""
    a_hi, a_lo, b_hi, b_lo = a >> _SHIFT32, a & _U32, b >> _SHIFT32, b & _U32
    mid = a_hi * b_lo + ((a_lo * b_lo) >> _SHIFT32)
    mid2 = a_lo * b_hi + (mid & _U32)
    return a_hi * b_hi + (mid >> _SHIFT32) + (mid2 >> _SHIFT32)


def _seed_sequence_state(seeds: np.ndarray):
    """``SeedSequence(seed).generate_state(4, np.uint64)`` per seed below
    2**64: the seed's little-endian 32-bit words, zero-padded to the pool
    size (which is what the hash runs on for missing words), mixed into the
    pool, then hashed out eight words at a time."""
    zero = np.zeros(len(seeds), dtype=np.uint32)
    words = [(seeds & _U32).astype(np.uint32), (seeds >> _SHIFT32).astype(np.uint32), zero, zero]
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & 0xFFFFFFFF
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(w) for w in words]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    hash_const = _INIT_B
    state = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & 0xFFFFFFFF
        value = value * np.uint32(hash_const)
        state.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    return [state[2 * i] | (state[2 * i + 1] << _SHIFT32) for i in range(_POOL_SIZE)]
