"""numpy's ``default_rng(seed)`` stream, computed without ``numpy.random``.

The search draws its few random refinement starts here, so a search never
imports ``numpy.random``: its ``mtrand``, its five bit generators and, through
``secrets``, OpenSSL's libcrypto, about 5 MB of resident memory under numpy
2.4 on Linux.  ``solver`` imports this module on its first search.
"""

from __future__ import annotations

import operator
from typing import Iterator

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def pcg64_doubles(seed: int) -> Iterator[float]:
    """The doubles of numpy's ``default_rng(seed).random()``, bit for bit.

    ``SeedSequence(seed)`` hashes the seed's 32-bit words into a pool of
    four and expands it into PCG64's 128-bit state and increment
    (``generate_state(4, uint64)``, then ``pcg64_set_seed``).  Each draw
    steps the LCG and takes the top 53 bits of its XSL-RR output (O'Neill,
    HMC-CS-2014-0905).  ``lo + (hi - lo) * u`` is then numpy's ``uniform``.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed & _MASK32]
    while seed := seed >> 32:
        words.append(seed & _MASK32)
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = 0x8B51F9DD
    state = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    # four little-endian uint64 words: the seed's high and low, the stream's high and low
    seed_hi, seed_lo, seq_hi, seq_lo = (state[k] | state[k + 1] << 32 for k in range(0, 8, 2))
    increment = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
    lcg = (increment + (seed_hi << 64 | seed_lo)) & _MASK128
    lcg = (lcg * _MULTIPLIER + increment) & _MASK128
    while True:
        lcg = (lcg * _MULTIPLIER + increment) & _MASK128
        folded = (lcg >> 64 ^ lcg) & _MASK64
        rotation = lcg >> 122
        output = (folded >> rotation | folded << (64 - rotation)) & _MASK64
        yield (output >> 11) * 2.0 ** -53
