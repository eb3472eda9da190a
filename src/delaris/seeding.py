"""Per-path PCG64 generators without building a generator per path.

A Monte Carlo path j draws its noise from PCG64 seeded with
``SeedSequence((seed, j))`` (``simulation.path_rng``, the definition).
Building those objects per path costs several times what setting a
generator's state does. SeedSequence mixes its entropy with 32-bit
multiply-xorshift hashes whose constants do not depend on the data
(numpy/random/bit_generator.pyx, pool size 4), so the mixing runs for up to
``_MIX_BLOCK`` path indices at once, one uint32 lane per index and one row
per pool word, in a workspace allocated once per call and written in
place: every hash and mix is an in-place ufunc with a scalar constant, so
a pass allocates nothing. PCG64 seeds from the four resulting uint64 words
with 128-bit integer arithmetic (pcg_setseq_128_srandom_r), which
``path_rngs`` does in Python integers before setting the state on one
reused generator. The tests pin both to numpy bit for bit, so a change to
either algorithm in numpy fails loudly.
"""

from __future__ import annotations

import numpy as np

# numpy's SeedSequence and PCG64 constants
_M32, _M128 = 2**32 - 1, 2**128 - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# path indices mixed in one pass: a pass costs about 170 numpy calls
# whatever its width, and the workspace holds 64 B per lane (four
# uint32 pool rows, four uint32 scratch rows and four uint64 words), so
# seeding costs well under a microsecond per path and its memory is one
# workspace whatever n_paths is
_MIX_BLOCK = 1024
# paths whose words one list holds: a Python int costs some 36 B, so a
# pass-wide list would outweigh the workspace
_LIST_BLOCK = 32


def _word_count(i: int) -> int:
    """32-bit words in the entropy of a nonnegative index (one for 0)."""
    return max(i.bit_length(), 1) + 31 >> 5


class _Workspace:
    """The rows one mixing pass writes, ``_MIX_BLOCK`` lanes wide: the pool,
    an entropy row, a hashed row, a shift scratch row, the lane numbers and
    the four output words."""

    def __init__(self):
        self.pool = np.empty((4, _MIX_BLOCK), np.uint32)
        self.entropy, self.hashed, self.scratch = np.empty((3, _MIX_BLOCK), np.uint32)
        self.lanes = np.arange(_MIX_BLOCK, dtype=np.uint32)
        self.words = np.empty((4, _MIX_BLOCK), np.uint64)

    def hashmix(self, row, call: int, init: int = _INIT_A, mult: int = _MULT_A):
        """SeedSequence's hashmix of ``row`` as call number ``call`` (it
        xors with init*mult^call and multiplies by init*mult^(call+1)),
        into ``hashed``, which it returns."""
        xor = init * pow(mult, call, 2**32) & _M32
        out, scratch = self.hashed[:row.shape[0]], self.scratch[:row.shape[0]]
        np.bitwise_xor(row, xor, out=out)
        out *= xor * mult & _M32
        np.right_shift(out, 16, out=scratch)
        out ^= scratch
        return out

    def mix_into(self, row, hashed):
        """SeedSequence's mix of ``row`` with ``hashed``, into ``row``;
        overwrites ``hashed``."""
        scratch = self.scratch[:row.shape[0]]
        row *= _MIX_L
        hashed *= _MIX_R
        row -= hashed
        np.right_shift(row, 16, out=scratch)
        row ^= scratch

    def mix(self, seed_w, idx, n_words: int):
        """``seed_words`` of the lanes ``idx`` (at most ``_MIX_BLOCK``), as
        ``words[:, :len(idx)]``. Each lane's entropy is the seed's words
        then ``n_words`` words of its index; lanes whose entropy fills at
        most the pool may pad it with zero words, as SeedSequence's pool
        does."""
        m, n_seed = len(idx), len(seed_w)
        pool, entropy = self.pool[:, :m], self.entropy[:m]

        def fill(row, e):  # entropy word e of every lane
            if e < n_seed:
                row.fill(seed_w[e])
            elif e >= n_seed + n_words:
                row.fill(0)
            elif isinstance(idx, range) and n_words == 1:  # a range of one-word indices
                np.multiply(self.lanes[:m], idx.step & _M32, out=row)  # mod 2^32, as the words are
                row += idx.start
            else:
                row[:] = [i >> 32 * (e - n_seed) & _M32 for i in idx]

        for r in range(4):
            fill(pool[r], r)
            pool[r] = self.hashmix(pool[r], r)
        call = 4
        for src in range(4):
            for dst in range(4):
                if dst != src:
                    self.mix_into(pool[dst], self.hashmix(pool[src], call))
                    call += 1
        for e in range(4, n_seed + n_words):  # entropy beyond the pool mixes into every pool word
            fill(entropy, e)
            for dst in range(4):
                self.mix_into(pool[dst], self.hashmix(entropy, call))
                call += 1
        words = self.words[:, :m]
        for w in range(4):  # state word 2w + 1 is the high half of uint64 word w
            words[w] = self.hashmix(pool[(2 * w + 1) % 4], 2 * w + 1, _INIT_B, _MULT_B)
            words[w] <<= 32
            words[w] |= self.hashmix(pool[2 * w % 4], 2 * w, _INIT_B, _MULT_B)
        return words

    def seed_words(self, seed_w, idx):
        """``seed_words`` of at most ``_MIX_BLOCK`` indices. Lanes mix
        together where their entropy fits the pool or has one length;
        otherwise each length is its own pass."""
        if not (isinstance(idx, range) and idx.step > 0):
            idx = [int(i) for i in idx]
        if not idx:
            return self.words[:, :0]
        ends = (idx[0], idx[-1]) if isinstance(idx, range) else idx
        if min(ends) < 0:
            raise ValueError("path indices must be nonnegative")
        fewest, most = _word_count(min(ends)), _word_count(max(ends))
        if len(seed_w) + most <= 4 or fewest == most:
            return self.mix(seed_w, idx, most)
        counts = [_word_count(i) for i in idx]
        out = np.empty((4, len(idx)), np.uint64)
        for n_words in set(counts):
            cols = [j for j, c in enumerate(counts) if c == n_words]
            out[:, cols] = self.mix(seed_w, [idx[j] for j in cols], n_words)
        return out


def _seed_list(seed: int) -> list:
    """The little-endian 32-bit words of a seed (one word for 0)."""
    seed = int(seed)
    return [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]


def seed_words(seed: int, indices):
    """``SeedSequence((seed, i)).generate_state(4, np.uint64)`` for every i
    in ``indices``, as a (4, len(indices)) uint64 array. The entropy of
    (seed, i) is the little-endian 32-bit words of seed (one word for 0)
    then those of i."""
    seed_w, ws = _seed_list(seed), _Workspace()
    out = np.empty((4, len(indices)), np.uint64)
    for lo in range(0, len(indices), _MIX_BLOCK):
        out[:, lo:lo + _MIX_BLOCK] = ws.seed_words(seed_w, indices[lo:lo + _MIX_BLOCK])
    return out


def path_rngs(seed: int, indices):
    """Yield, for each of ``indices`` in order, one reused Generator set to
    the state ``simulation.path_rng(seed, index)`` starts in. PCG64 seeds
    from words (s_hi, s_lo, i_hi, i_lo) as inc = 2*i + 1 and
    state = (inc + s)*mult + inc, modulo 2^128."""
    seed_w, ws = _seed_list(seed), _Workspace()
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    state = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
    pcg = state["state"]
    for lo in range(0, len(indices), _MIX_BLOCK):
        words = ws.seed_words(seed_w, indices[lo:lo + _MIX_BLOCK])
        for j in range(0, words.shape[1], _LIST_BLOCK):
            for s_hi, s_lo, i_hi, i_lo in words[:, j:j + _LIST_BLOCK].T.tolist():
                inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
                pcg["inc"] = inc
                pcg["state"] = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _M128
                bitgen.state = state
                yield rng
