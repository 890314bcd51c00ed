"""Many trials' random streams at once, with the bits of numpy's Generator.

Trial `index` of a stream draws from
`Generator(PCG64(SeedSequence([seed, stream, index])))`.  `Streams` holds the
generators of a chunk's trials as arrays, one row per trial, and draws for
any set of rows with a few array operations, so no trial builds a generator
of its own and numpy.random is never imported.

Seeding follows numpy's SeedSequence: the entropy words (each key as
little-endian 32-bit words, 0 as one word) are hashed into a pool of four
words, the pool into eight state words, and those seed PCG64 as
`pcg_setseq_128_srandom_r` does.  The hash constants do not depend on the
data, so every row whose keys have the same number of words is hashed by
the same uint32 array operations.

PCG64 steps its 128-bit state s to M s + inc and outputs
rotr64(hi ^ lo, hi >> 58) of the new state.  The state j steps on is
A_j s + C_j inc, with A_j = M^j and C_j = M^0 + ... + M^(j-1) mod 2^128, so a
row's next n outputs are n independent jumps from its current state.  The
128-bit products are taken on (hi, lo) uint64 arrays.  Doubles are
(x >> 11) 2^-53, as numpy's `random`, and `integers` is Lemire's method on
next_uint32, whose half-word buffer (`has_uint32`, `uinteger`) each row
keeps from one call to the next, as the generator does.
"""

from __future__ import annotations

from functools import cache
from typing import Sequence

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# SeedSequence's hash constants and pool size (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# Outputs `Streams.next64` computes per pass, so that a pass's two dozen
# temporary uint64 arrays stay in cache: on a 2-core Xeon, 4096 drew a
# 500-trial chunk's samples fastest of 2048 to 16384, and 2.4-2.6 times as
# fast as one pass.
_BLOCK = 4096


def _width(key: int) -> int:
    """How many SeedSequence entropy words a key has: its little-endian
    uint32 words, and 0 is one word."""
    return max(1, (key.bit_length() + 31) // 32)


def _words(key: int) -> list[int]:
    return [key >> 32 * t & _MASK32 for t in range(_width(key))]


def _hash_words(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence's 8 state words (generate_state(4, uint64) as uint32)
    of each row of entropy, a list of uint32 columns."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> 16)

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> 16)

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, len(entropy)):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[src]))
    hash_const, words = _INIT_B, []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        words.append(value ^ (value >> 16))
    return words


def _mulhi64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit products a b of uint64 arrays."""
    a0, a1, b0, b1 = a & _MASK32, a >> 32, b & _MASK32, b >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _mul128(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) of a b mod 2^128."""
    return _mulhi64(a_lo, b_lo) + a_lo * b_hi + a_hi * b_lo, a_lo * b_lo


def _add128(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) of a + b mod 2^128."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _split(values: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (hi, lo) uint64 arrays of 128-bit values."""
    hi = np.array([v >> 64 for v in values], dtype=np.uint64)
    lo = np.array([v & _MASK64 for v in values], dtype=np.uint64)
    hi.flags.writeable = lo.flags.writeable = False
    return hi, lo


@cache
def _jumps(size: int) -> tuple[np.ndarray, ...]:
    """(hi, lo) of A_j and of C_j for j < size: j steps take s to A_j s + C_j inc."""
    A, C = [1], [0]
    for _ in range(size - 1):
        A.append(A[-1] * _PCG_MULT & _MASK128)
        C.append((C[-1] * _PCG_MULT + 1) & _MASK128)
    return (*_split(A), *_split(C))


def _jump(table, j, hi, lo, inc_hi, inc_lo) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) of the states j steps on from (hi, lo), with a `_jumps` table."""
    A_hi, A_lo, C_hi, C_lo = (np.take(a, j) for a in table)
    return _add128(*_mul128(A_hi, A_lo, hi, lo), *_mul128(C_hi, C_lo, inc_hi, inc_lo))


class Streams:
    """The PCG64 generators of trials `indices` of (seed, stream), as arrays.

    Row k is `Generator(PCG64(SeedSequence([seed, stream, indices[k]])))`:
    its 128-bit state and increment as (hi, lo) uint64 arrays, and its
    next_uint32 buffer.  `random` and `integers` draw for a set of distinct
    rows at once and leave each row's generator where the same calls on its
    own Generator would.
    """

    def __init__(self, seed: int, stream: int, indices: Sequence[int]):
        keys = [int(i) for i in indices]
        widths = [_width(key) for key in keys]
        self.hi, self.lo, self.inc_hi, self.inc_lo, self.uinteger = np.zeros((5, len(keys)), dtype=np.uint64)
        self.has_uint32 = np.zeros(len(keys), dtype=bool)
        head = [np.uint32(w) for w in _words(int(seed)) + _words(int(stream))]
        for width in set(widths):  # rows with as many entropy words hash alike
            rows = np.array([k for k, w in enumerate(widths) if w == width])
            index = [np.array([keys[k] >> 32 * t & _MASK32 for k in rows], dtype=np.uint32) for t in range(width)]
            words = _hash_words([np.full(len(rows), w) for w in head] + index)
            seed_hi, seed_lo, init_hi, init_lo = (
                words[i].astype(np.uint64) | words[i + 1].astype(np.uint64) << 32 for i in range(0, 8, 2)
            )
            # pcg_setseq_128_srandom_r: inc = initseq << 1 | 1, and the state
            # steps from 0, takes the seed, and steps again
            self.inc_hi[rows] = init_hi << 1 | init_lo >> 63
            self.inc_lo[rows] = init_lo << 1 | 1
            inc = self.inc_hi[rows], self.inc_lo[rows]
            s = _add128(*inc, seed_hi, seed_lo)
            self.hi[rows], self.lo[rows] = _jump(_jumps(2), np.ones(len(rows), dtype=np.intp), *s, *inc)

    def next64(self, rows: np.ndarray, n) -> np.ndarray:
        """The next n[k] raw outputs of each of rows, row after row, as one uint64 array."""
        n = np.broadcast_to(n, rows.shape)
        # runs of rows with about _BLOCK outputs each
        cuts = np.flatnonzero(np.diff((np.cumsum(n) - 1) // _BLOCK)) + 1
        return np.concatenate([self._outputs(r, m) for r, m in zip(np.split(rows, cuts), np.split(n, cuts))])

    def _outputs(self, rows: np.ndarray, n: np.ndarray) -> np.ndarray:
        ends = np.cumsum(n)
        j = np.arange(ends[-1]) - np.repeat(ends - n, n) + 1
        state = (np.repeat(a[rows], n) for a in (self.hi, self.lo, self.inc_hi, self.inc_lo))
        hi, lo = _jump(_jumps(1 << int(n.max()).bit_length()), j, *state)
        self.hi[rows], self.lo[rows] = hi[ends - 1], lo[ends - 1]
        x = hi ^ lo
        r = hi >> 58
        return x >> r | x << (-r & 63)

    def random(self, rows: np.ndarray, n) -> np.ndarray:
        """`Generator.random(n[k])` of each of rows, row after row, as one array."""
        return (self.next64(rows, n) >> 11) * 2.0**-53

    def next_uint32(self, rows: np.ndarray) -> np.ndarray:
        """next_uint32 of each of rows: the buffered high half of its last
        raw output, or the low half of a new one, whose high half it keeps."""
        has = self.has_uint32[rows]
        out = self.uinteger[rows]
        fresh = rows[~has]
        if fresh.size:
            x = self.next64(fresh, 1)
            out[~has] = x & _MASK32
            self.uinteger[fresh] = x >> 32
        self.has_uint32[rows] = ~has
        return out

    def integers(self, rows: np.ndarray, low: int, high: int) -> np.ndarray:
        """`Generator.integers(low, high)` of each of rows, for
        2 <= high - low < 2^32 (numpy takes other spans by other paths):
        Lemire's method, which redraws a row whose product's low word is
        below 2^32 mod (high - low)."""
        span = high - low
        m = self.next_uint32(rows) * np.uint64(span)
        redraw = np.flatnonzero((m & _MASK32) < 2**32 % span)
        while redraw.size:
            m[redraw] = self.next_uint32(rows[redraw]) * np.uint64(span)
            redraw = redraw[(m[redraw] & _MASK32) < 2**32 % span]
        return low + (m >> 32).astype(np.int64)
