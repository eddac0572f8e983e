"""The bootstrap's replicate streams, seeded a block of replicates at a time.

Replicate ``rep`` of a bootstrap with seed ``seed`` draws from exactly
``numpy.random.default_rng((seed, rep))``: a PCG64 generator whose four
seed words are ``SeedSequence((seed, rep)).generate_state(4, numpy.uint64)``.
Building that ``SeedSequence`` costs about 11 µs per replicate. Here its
entropy mixing and ``generate_state`` run once over a block of replicates
as array arithmetic on 32-bit words, and each row of seed words is handed
to ``PCG64`` directly: about 1.5 µs per replicate when a call has a few
hundred, after a fixed cost of about 45 µs per call. The words are held
in int64 and masked to 32 bits after each product: the estimators already
use numpy's int64 loops, while its uint32 bitwise loops would page in
about 64 KiB more of numpy's code.

This module imports ``numpy.random``, which takes about 14 ms, so the
estimators import it only when a bootstrap runs.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

#: Replicates seeded per pass: a large B allocates nothing up front. A
#: multiple of 2**32 is a multiple of it, so no block crosses one.
BLOCK = 1024

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of four
# 32-bit words, each hash step ending in a shift of 16
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


class _DerivedState(ISeedSequence):
    """Seed words already derived; ``PCG64`` accepts only an ``ISeedSequence``."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype: type = np.uint32) -> np.ndarray:
        return self.words  # PCG64 asks for (4, uint64), what the rows hold


def replicate_generators(seed: int, replicates: int) -> Iterator[Generator]:
    """``default_rng((seed, rep))`` for each rep in range(replicates), in order."""
    for start in range(0, replicates, BLOCK):
        for words in stream_states(seed, start, min(start + BLOCK, replicates)):
            yield Generator(PCG64(_DerivedState(words)))


def stream_states(seed: int, start: int, stop: int) -> np.ndarray:
    """Row ``rep - start`` is ``SeedSequence((seed, rep)).generate_state(4,
    numpy.uint64)``, for each rep in range(start, stop).

    The entropy is the seed's 32-bit words, then the rep's. Every rep below
    the next multiple of 2**32 shares its words above the lowest, so the
    range is split there.
    """
    edge = (start | _MASK) + 1
    if stop > edge:
        return np.concatenate([stream_states(seed, start, edge), stream_states(seed, edge, stop)])
    low = start & _MASK
    entropy = _words(int(seed)) + [np.arange(low, low + stop - start, dtype=np.int64)]
    if start > _MASK:
        entropy += _words(start >> 32)
    extra = entropy[4:]
    xor, mul = _constants(len(extra))
    pool = np.zeros((4, stop - start), np.int64)  # a short entropy is padded with 0 words
    for i, word in enumerate(entropy[:4]):
        pool[i] = word
    pool = _hashmix(pool, xor[:4], mul[:4])
    # each pool word is mixed into every other one, source by source
    for src in range(4):
        j = 4 + 4 * src
        mixed = _mix(pool, _hashmix(pool[src], xor[j : j + 4], mul[j : j + 4]))
        mixed[src] = pool[src]
        pool = mixed
    for i, word in enumerate(extra):  # entropy past the pool, into every pool word
        j = 20 + 4 * i
        pool = _mix(pool, _hashmix(word, xor[j : j + 4], mul[j : j + 4]))
    # generate_state: eight 32-bit words cycling through the pool, paired
    # low word first into four uint64
    state = _hashmix(np.concatenate([pool, pool]), xor[-8:], mul[-8:])
    state[1::2] <<= 32
    return np.ascontiguousarray((state[0::2] | state[1::2]).T).view(np.uint64)


def _words(value: int) -> list[int]:
    """The 32-bit words of a non-negative integer, lowest first; 0 is one word."""
    return [(value >> shift) & _MASK for shift in range(0, max(value.bit_length(), 1), 32)]


@lru_cache(maxsize=None)  # one entry per seed length in words
def _constants(extra: int) -> tuple[np.ndarray, np.ndarray]:
    """The hash constants of ``stream_states``, as (xor, multiplier) columns.

    Rows, in order: the four pool fills; four per mixing source, one per
    pool word (the source's own row is unused); four per entropy word past
    the pool; and generate_state's eight.
    """
    a, b = _powers(_INIT_A, _MULT_A, 16 + 4 * extra), _powers(_INIT_B, _MULT_B, 8)
    # mixing step j of source s goes to the j-th pool word other than s
    cross = [a[4 + 3 * s + d - (d > s)] if d != s else (0, 0) for s in range(4) for d in range(4)]
    table = np.array(a[:4] + cross + a[16:] + b, np.int64)[:, :, None]
    table.flags.writeable = False
    return table[:, 0], table[:, 1]


def _powers(init: int, mult: int, count: int) -> list[tuple[int, int]]:
    """``count`` successive (constant, next constant) pairs of one hash, from ``init``."""
    h = [init]
    for _ in range(count):
        h.append(h[-1] * mult & _MASK)
    return list(zip(h, h[1:]))


def _hashmix(value: np.ndarray | int, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    value = value ^ xor
    value *= mul
    value &= _MASK
    value ^= value >> 16
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x = x * _MIX_MULT_L
    x -= y * _MIX_MULT_R
    x &= _MASK
    x ^= x >> 16
    return x
