"""Deterministic seeded randomness.

Every pseudo-random choice in the package (sample points, fit samples,
instance generation) is drawn from a SplitMix64 stream so that runs are
reproducible from a single 64-bit seed and so that the streams can be
replicated in any language. The generator is the one published by Steele,
Lea and Flood (used as the seeder of xoroshiro):

    state     <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z         <- state
    z         <- (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9  mod 2^64
    z         <- (z XOR (z >> 27)) * 0x94D049BB133111EB  mod 2^64
    output    <- z XOR (z >> 31)

`next_below(n)` is plain modular reduction (bias is irrelevant here, exact
reproducibility is not), and every derived helper documents its draw order.
"""

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & MASK64
        return z ^ (z >> 31)

    def next_below(self, n: int) -> int:
        """Uniform-ish draw from {0, ..., n-1}; one next_u64 call."""
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_u64() % n

    def next_int(self, lo: int, hi: int) -> int:
        """Draw from the inclusive range [lo, hi]; one next_u64 call."""
        return lo + self.next_below(hi - lo + 1)
