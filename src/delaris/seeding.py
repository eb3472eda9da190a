"""Per-path PCG64 generators without building a generator per path.

A Monte Carlo path j draws its noise from PCG64 seeded with
``SeedSequence((seed, j))`` (``simulation.path_rng``, the definition).
Building those objects per path costs several times what setting a
generator's state does. SeedSequence mixes its entropy with 32-bit
multiply-xorshift hashes whose constants do not depend on the data
(numpy/random/bit_generator.pyx, pool size 4), so ``seed_words`` runs the
mixing for a block of path indices at once in uint32 arrays, one row per
pool word. PCG64 seeds from the four resulting uint64 words with 128-bit
integer arithmetic (pcg_setseq_128_srandom_r), which ``path_rngs`` does in
Python integers before setting the state on one reused generator. The
tests pin both to numpy bit for bit, so a change to either algorithm in
numpy fails loudly.
"""

from __future__ import annotations

import functools

import numpy as np

# numpy's SeedSequence and PCG64 constants
_M32, _M128 = 2**32 - 1, 2**128 - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# paths seeded together: a block costs about 70 numpy calls whatever its
# size and holds about 120 B per path while it mixes, so a run's seeding
# memory stays flat in n_paths beyond one block. A Monte Carlo run shares
# whole blocks out to its workers; each draws a block into one reused
# (32, n_steps, 2) buffer, which the strategy source's one fold maps to the
# block's terminal wealth at once
_SEED_BLOCK = 32


@functools.lru_cache(maxsize=128)
def _hash_consts(init: int, mult: int, calls: tuple):
    """SeedSequence's hash constants of the given hashmix calls, as (xor,
    multiplier) columns: call k xors with init*mult^k and multiplies by
    init*mult^(k+1), whatever the data."""
    xor = [init * pow(mult, k, 2**32) & _M32 for k in calls]
    return (np.array(xor, np.uint32)[:, None],
            np.array([c * mult & _M32 for c in xor], np.uint32)[:, None])


def _hashmix(rows, calls, init: int = _INIT_A, mult: int = _MULT_A):
    """SeedSequence's hashmix of uint32 ``rows``, row r (broadcast) as call
    calls[r]."""
    xor, mul = _hash_consts(init, mult, tuple(calls))
    v = rows ^ xor
    v *= mul
    v ^= v >> 16
    return v


def _mix(x, y):
    """SeedSequence's mix of uint32 arrays; overwrites both."""
    x *= np.uint32(_MIX_L)
    y *= np.uint32(_MIX_R)
    x -= y
    x ^= x >> 16
    return x


def _group_words(seed_w, idx, n_words: int):
    """``seed_words`` of indices that all have ``n_words`` 32-bit words:
    each pool word is one row of a (4, len(idx)) uint32 array."""
    entropy = np.array([[s] * len(idx) for s in seed_w]
                       + [[i >> 32 * r & _M32 for i in idx] for r in range(n_words)], np.uint32)
    pool = np.zeros((4, len(idx)), np.uint32)
    pool[:len(entropy)] = entropy[:4]
    pool, k = _hashmix(pool, range(4)), 4
    for src in range(4):
        # pool[src] mixes into the other three rows, with calls k..k+2 in
        # row order; its own row takes a dummy call and is put back
        keep = pool[src].copy()
        pool = _mix(pool, _hashmix(pool[src:src + 1], [k + d - (d > src) for d in range(4)]))
        pool[src] = keep
        k += 3
    for word in entropy[4:]:  # entropy beyond the pool mixes into every pool word
        pool = _mix(pool, _hashmix(word[None], range(k, k + 4)))
        k += 4
    words = np.empty((4, len(idx)), np.uint64)
    for half in (0, 2):  # state word 2w + 1 is the high half of uint64 word w
        state = _hashmix(pool, range(2 * half, 2 * half + 4), _INIT_B, _MULT_B)
        words[half:half + 2] = state[1::2]
        words[half:half + 2] <<= np.uint64(32)
        words[half:half + 2] |= state[0::2]
    return words


def seed_words(seed: int, indices):
    """``SeedSequence((seed, i)).generate_state(4, np.uint64)`` for every i
    in ``indices``, as a (4, len(indices)) uint64 array. The entropy of
    (seed, i) is the little-endian 32-bit words of seed (one word for 0)
    then those of i, so indices are mixed in groups of one word count."""
    seed = int(seed)
    seed_w = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    idx = [int(i) for i in indices]
    if idx and min(idx) < 0:
        raise ValueError("path indices must be nonnegative")
    n_words = [max(i.bit_length(), 1) + 31 >> 5 for i in idx]
    if len(set(n_words)) == 1:  # the usual block: no columns to gather
        return _group_words(seed_w, idx, n_words[0])
    out = np.empty((4, len(idx)), np.uint64)
    for nw in set(n_words):
        cols = [j for j, c in enumerate(n_words) if c == nw]
        out[:, cols] = _group_words(seed_w, [idx[j] for j in cols], nw)
    return out


def path_rngs(seed: int, indices):
    """Yield, for each of ``indices`` in order, one reused Generator set to
    the state ``simulation.path_rng(seed, index)`` starts in. PCG64 seeds
    from words (s_hi, s_lo, i_hi, i_lo) as inc = 2*i + 1 and
    state = (inc + s)*mult + inc, modulo 2^128."""
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    for lo in range(0, len(indices), _SEED_BLOCK):
        words = seed_words(seed, indices[lo:lo + _SEED_BLOCK])
        for j in range(words.shape[1]):
            s_hi, s_lo, i_hi, i_lo = words[:, j].tolist()
            inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
            state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _M128
            bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                            "has_uint32": 0, "uinteger": 0}
            yield rng
