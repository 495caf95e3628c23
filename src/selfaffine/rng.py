"""Seeding and sub-stream derivation.

The generator algorithm is pinned to numpy's PCG64 so that a given seed yields
the same draw sequence across builds. Replication sub-streams are derived by
mixing (master_seed, stream_index) through SeedSequence's integer hash, which
keeps streams statistically independent without coordination between workers.

`derive_seed` and `rng_from_seed` are numpy's own calls, one row at a time.
The replication engine seeds a whole chunk of rows at once instead:
`derive_seeds` and `generators` run the same hash, a port of numpy's
`SeedSequence` (numpy/random/bit_generator.pyx, after O'Neill's randutils
`seed_seq_fe`: a pool of four uint32 words, hashed and mixed by uint32
multiply, xor and shift), over uint32 arrays with one element per row.
Integer arithmetic has no rounding, so every row's seed, and every row's
PCG64 state, is numpy's own, bit for bit.
"""
from __future__ import annotations

from functools import cache

import numpy as np

# SeedSequence's pool size and hash constants
_POOL_WORDS = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
#: rows below which `generators` seeds each row by numpy: a pass over the
#: rows costs about as much as numpy seeding this many
_PASS_ROWS = 8


def as_int(value, name: str) -> int:
    """`value`, an int or a numpy integer, as an int; else a TypeError naming `name`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return int(value)


def rng_from_seed(seed: int) -> np.random.Generator:
    """Generator for a single 64-bit seed."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed))))


def derive_seed(master_seed: int, index: int) -> int:
    """Pure-function sub-seed for replication `index` under `master_seed`."""
    ss = np.random.SeedSequence([as_int(master_seed, "master_seed"), as_int(index, "index")])
    return int(ss.generate_state(1, np.uint64)[0])


def derive_seeds(master_seed: int, lo: int, hi: int) -> np.ndarray:
    """`derive_seed(master_seed, i)` for i in lo..hi-1, as a uint64 array
    computed in one pass; an index is one entropy word, so hi is at most 2**32."""
    if not 0 <= lo <= hi <= 1 << 32:
        raise ValueError(f"indices {lo}..{hi} do not lie in [0, 2**32]")
    master = [np.full(hi - lo, w, np.uint32) for w in _words(as_int(master_seed, "master_seed"))]
    return _state(_mix_entropy([*master, np.arange(lo, hi, dtype=np.uint32)]), 1)[:, 0]


def generators(seeds) -> list[np.random.Generator]:
    """`rng_from_seed(s)` for each of `seeds`, their PCG64 seed words
    computed in one pass.

    A chunk of fewer than `_PASS_ROWS` seeds, or with a seed outside
    [0, 2**64), is seeded row by row by numpy, which also raises numpy's
    ValueError for a negative seed.
    """
    seeds = [int(s) for s in seeds]
    if len(seeds) < _PASS_ROWS or not 0 <= min(seeds) <= max(seeds) < 1 << 64:
        return [rng_from_seed(s) for s in seeds]
    # a seed below 2**32 is one entropy word; its zero high word hashes as
    # the pool's padding does, so every row takes two
    seeds = np.array(seeds, np.uint64)
    words = _state(_mix_entropy([(seeds & _MASK32).astype(np.uint32),
                                 (seeds >> 32).astype(np.uint32)]), 4)
    fixed = _fixed_words_class()
    generator, pcg64 = np.random.Generator, np.random.PCG64
    return [generator(pcg64(fixed(row))) for row in words]


@cache
def _fixed_words_class():
    """A seed sequence that hands PCG64 state words computed elsewhere. Its
    module, numpy.random, is imported here, when the first chunk is seeded:
    `import selfaffine` loads none of it."""
    from numpy.random.bit_generator import ISeedSequence

    class FixedWords(ISeedSequence):
        """The four uint64 words that PCG64 asks its seed sequence for."""

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != len(self.words) or dtype is not np.uint64:  # as PCG64 asks
                raise ValueError(f"holds {len(self.words)} np.uint64 words only")
            return self.words

    return FixedWords


def _words(n: int) -> list[int]:
    """The uint32 entropy words of a non-negative int, lowest first, as
    SeedSequence reads it: 0 is one word."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hashes(init: int, mult: int, n: int) -> np.ndarray:
    """The hash constants init * mult**k mod 2**32 for k = 0..n, as uint32."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, np.uint32)[:, None]


def _hash(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of each row of `value`, with its own constants."""
    value = value ^ xor
    value *= mult
    value ^= value >> 16
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of x and y, elementwise."""
    out = x * _MIX_MULT_L
    out -= y * _MIX_MULT_R
    out ^= out >> 16
    return out


def _mix_entropy(entropy: list[np.ndarray]) -> np.ndarray:
    """SeedSequence's `mix_entropy` of every row at once: the pool, a
    `(4, rows)` uint32 array, from one uint32 array per entropy word. The
    k-th hashmix call xors with the k-th hash constant and multiplies by the
    next, so consecutive calls whose inputs none of them changes run as one
    call over several words."""
    extra = max(len(entropy) - _POOL_WORDS, 0)
    h = _hashes(_INIT_A, _MULT_A, _POOL_WORDS * (_POOL_WORDS + extra))
    pool = np.zeros((_POOL_WORDS, len(entropy[0])), np.uint32)
    pool[:len(entropy)] = entropy[:_POOL_WORDS]
    pool = _hash(pool, h[:_POOL_WORDS], h[1:_POOL_WORDS + 1])
    k = _POOL_WORDS
    # every pool word into every other, so late words change early ones
    for src in range(_POOL_WORDS):
        dst = [i for i in range(_POOL_WORDS) if i != src]
        pool[dst] = _mix(pool[dst], _hash(pool[src], h[k:k + 3], h[k + 1:k + 4]))
        k += 3
    # entropy beyond the pool, each word into every pool word
    for word in entropy[_POOL_WORDS:]:
        pool = _mix(pool, _hash(word, h[k:k + 4], h[k + 1:k + 5]))
        k += 4
    return pool


def _state(pool: np.ndarray, n_words: int) -> np.ndarray:
    """`generate_state(n_words, np.uint64)` of every row, as a C-ordered
    `(rows, n_words)` uint64 array: the pool words in turn, each hashed, and
    each pair of them read as one little-endian uint64."""
    h = _hashes(_INIT_B, _MULT_B, 2 * n_words)
    words = _hash(pool[np.arange(2 * n_words) % _POOL_WORDS], h[:-1], h[1:])
    words = words.astype(np.uint64)
    return np.ascontiguousarray((words[0::2] | words[1::2] << 32).T)
