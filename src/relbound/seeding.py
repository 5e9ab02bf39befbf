"""numpy's ``SeedSequence`` hash as uint32 array arithmetic over many rows.

``SeedSequence`` is O'Neill's seed_seq mixer (O'Neill, *PCG: A Family of
Simple Fast Space-Efficient Statistically Good Algorithms for Random
Number Generation*, 2014): entropy words are hashed into a pool of four
uint32 words, mixed, and hashed out again as the state. Every step is
uint32 arithmetic whose constants do not depend on the data, so one pass
of array operations computes it for every row of a batch at once, word
for word what ``SeedSequence`` computes one row at a time. The audit
derives its trial seeds and its trials' PCG64 streams here.

Importing this module loads ``numpy.random``, which numpy 2 otherwise
loads only on first use (about 15 ms), so ``operational`` imports it
where a stream or a seed is made, not at package import.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

#: the pool's size in uint32 words, and the hash constants reduced to
#: 32 bits, as numpy's ``SeedSequence`` has them
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def entropy_words(value: int) -> list[int]:
    """A count's ``SeedSequence`` entropy: its 32-bit words, least
    significant first; 0 is one word."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hash_keys(const: int, mult: int) -> Iterator[tuple[int, int]]:
    """A hash's ``(xor, multiplier)`` constants, call by call: each call's
    multiplier is the next call's xor."""
    while True:
        following = const * mult & _MASK32
        yield const, following
        const = following


def _hashmix(value: np.ndarray, keys) -> np.ndarray:
    xor, mult = next(keys)
    value = (value ^ xor) * mult
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = x * _MIX_L - y * _MIX_R
    return value ^ (value >> 16)


def seed_states(entropy, n_words: int) -> np.ndarray:
    """``SeedSequence(row).generate_state(n_words)`` for every row of
    ``entropy`` (lists of uint32 words), as a ``(rows, n_words)`` uint32
    array.

    The hash runs down the rows' columns as uint32 arrays, which wrap as
    ``SeedSequence``'s C arithmetic does; the constants stay Python ints
    below 2**32, so they take the arrays' dtype. Rows of up to four words
    share one zero-padded pass: the pool hashes a missing word as 0. Each
    word past the fourth is mixed into the whole pool, so longer rows run
    one pass per word count.
    """
    states = np.empty((len(entropy), n_words), dtype=np.uint32)
    lengths = np.array([max(len(row), _POOL) for row in entropy], dtype=np.intp)
    for length in np.unique(lengths).tolist():
        members = np.flatnonzero(lengths == length)
        words = np.array(
            [entropy[i] + [0] * (length - len(entropy[i])) for i in members.tolist()],
            dtype=np.uint32,
        )
        keys = _hash_keys(_INIT_A, _MULT_A)
        pool = [_hashmix(words[:, i], keys) for i in range(_POOL)]
        for src in range(_POOL):
            for dst in range(_POOL):
                if src != dst:
                    pool[dst] = _mix(pool[dst], _hashmix(pool[src], keys))
        for src in range(_POOL, length):
            for dst in range(_POOL):
                pool[dst] = _mix(pool[dst], _hashmix(words[:, src], keys))
        keys = _hash_keys(_INIT_B, _MULT_B)
        for i in range(n_words):
            states[members, i] = _hashmix(pool[i % _POOL], keys)
    return states


class _StreamSeed(ISeedSequence):
    """A PCG64 stream's seeding: the state ``SeedSequence(seed)`` would
    generate for it, computed beforehand in a batch."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a stream seed holds PCG64's four uint64 words only")
        return self.state


def streams(seeds) -> list[np.random.Generator]:
    """``Generator(PCG64(SeedSequence(s)))`` for each count ``s`` in
    ``seeds``, their seeding hashed in one batch."""
    words = seed_states([entropy_words(s) for s in seeds], 8)
    # as SeedSequence builds uint64 words: little-endian pairs of uint32
    states = words.astype("<u4").view("<u8").astype(np.uint64)
    return [np.random.Generator(np.random.PCG64(_StreamSeed(state))) for state in states]
