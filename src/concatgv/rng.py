"""Deterministic counter-based PRNG (SplitMix64) and seed derivation.

Every sampling API in this package takes an explicit 64-bit seed and owns a
private stream, so results are bit-reproducible regardless of call order or
thread scheduling.  Parallel trials derive per-trial seeds with
:func:`derive_seed` instead of sharing a stream.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a 64-bit bijective hash."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master_seed: int, index: int) -> int:
    """Derive a per-trial seed from a master seed, stable across runs."""
    return mix64(mix64(master_seed & _MASK64) ^ mix64((index + 1) & _MASK64))


class SplitMix64:
    """SplitMix64 stream: state advances by a fixed increment, output is mix64.

    The generator is counter-based (output i is ``mix64(seed + i * gamma)``),
    so streams never collide state with derived sub-streams in practice and
    the implementation is identical on every platform.
    """

    __slots__ = ("_state", "_bitbuf", "_bitcount")

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64
        self._bitbuf = 0
        self._bitcount = 0

    def u64(self) -> int:
        """Next 64-bit output."""
        self._state = (self._state + _GOLDEN) & _MASK64
        return mix64(self._state)

    def bits(self, nbits: int) -> int:
        """Next `nbits` random bits as an int, low bits first, from an accumulator
        of unused bits; while it holds fewer than `nbits`, a whole ``u64()``
        output is appended above them."""
        if nbits < 0:
            raise ValueError("nbits must be nonnegative")
        while self._bitcount < nbits:
            self._bitbuf |= self.u64() << self._bitcount
            self._bitcount += 64
        out = self._bitbuf & ((1 << nbits) - 1)
        self._bitbuf >>= nbits
        self._bitcount -= nbits
        return out

    def randrange(self, n: int) -> int:
        """Uniform int in [0, n), by rejection from unbiased 64-bit draws."""
        if n <= 0:
            raise ValueError("n must be positive")
        if n == 1:
            return 0
        # Largest multiple of n that fits in 64 bits; reject above it.
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.u64()
            if x < limit:
                return x % n

    def uniform(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.u64() >> 11) * 2.0**-53
