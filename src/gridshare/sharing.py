"""(N,N) additive secret sharing modulo an integer with fixed-point
encoding of signed kWh quantities.

Negotiation rounds share over the ring Z_2^64; commitment and online
rounds share over the commitment group order p.

`split` and `reconstruct` are the reference: one agent's shares, and one
sum of shares. A round over the ring runs through `ring_aggregates`,
which makes the same draws as `split` and costs one add and one mask
per agent: column sums come out of 128-bit lanes of two running ints,
so no N x N share table is built and no agent's row is summed.
"""

from __future__ import annotations

import functools
import struct
import sys
from dataclasses import dataclass

from .errors import (
    EncodingRangeError,
    IncompleteSharesError,
    InvalidPartyCountError,
)

# Modulus used for negotiation-round aggregation. The commitment group
# order (~20 bits by default) cannot hold transient per-iteration sums,
# which reach a few hundred kWh at scale 10^4 before the price settles,
# so those rounds share over the ring Z_2^64 instead: additive sharing
# needs no inverse, and a share is 64 random bits.
NEGOTIATION_MODULUS = 1 << 64
_WORD = NEGOTIATION_MODULUS - 1

DEFAULT_SCALE = 10_000


@dataclass(frozen=True)
class FixedPointCodec:
    """Maps signed real kWh values into Z_p via value*scale, centered:
    negatives occupy the upper half of the field."""

    modulus: int
    scale: int = DEFAULT_SCALE

    def __post_init__(self):
        if self.modulus < 3:
            raise EncodingRangeError("modulus too small for signed encoding")
        if self.scale < 1:
            raise EncodingRangeError("scale must be positive")

    @property
    def max_magnitude(self):
        """Largest |x| with a faithful round trip."""
        return (self.modulus - 1) // (2 * self.scale)

    def encode(self, x):
        """round(x*scale) mod p, rounding half away from zero.

        Raises EncodingRangeError for a value beyond max_magnitude and for
        a non-finite one. Over NEGOTIATION_MODULUS that bound is about
        9.2e14 kWh, so negotiation trades always encode.
        """
        scaled = x * self.scale
        try:
            m = int(abs(scaled) + 0.5)
        except (ValueError, OverflowError):     # NaN, +-inf
            raise EncodingRangeError(f"cannot encode {x!r}") from None
        if 2 * m >= self.modulus:
            raise EncodingRangeError(
                f"|{x}| * {self.scale} exceeds the centered range of "
                f"modulus {self.modulus}")
        if scaled < 0:
            m = -m
        return m % self.modulus

    def decode(self, v):
        """Inverse of encode for values whose centered magnitude < p/2."""
        v %= self.modulus
        if v > self.modulus // 2:
            v -= self.modulus
        return v / self.scale


def split(secret, n_parties, modulus, rng):
    """Share `secret` into n_parties uniform summands mod `modulus`.

    The first n_parties-1 shares are uniform; the last completes the sum.
    Over NEGOTIATION_MODULUS they come from one getrandbits call, unpacked
    as 64-bit words. A modulus of at most 32 bits takes them from bulk
    32-bit words (`_words_below`), and a wider one draws them with
    randrange.
    """
    if n_parties < 2:
        raise InvalidPartyCountError(f"need >= 2 parties, got {n_parties}")
    k = n_parties - 1
    if modulus == NEGOTIATION_MODULUS:
        words = rng.getrandbits(64 * k).to_bytes(8 * k, "little")
        shares = list(struct.unpack(f"<{k}Q", words))
    elif modulus.bit_length() <= 32:
        shares = _words_below(modulus, k, rng)
    else:
        shares = [rng.randrange(modulus) for _ in range(k)]
    shares.append((secret - sum(shares)) % modulus)
    return shares


def _words_below(modulus, k, rng):
    """k draws of rng.randrange(modulus) for 1 < modulus < 2**32, equal in
    value and in the generator state they leave.

    CPython's randrange keeps the top modulus.bit_length() bits of one
    32-bit word per candidate and rejects candidates >= modulus. Each pass
    here draws one word per missing share in a single getrandbits call, so
    it never reads past the k-th accepted word. (A memoryview reads the
    words because `struct` would cache a format per shortfall size.)"""
    shift = 32 - modulus.bit_length()
    limit = modulus << shift
    shares = []
    need = k
    while need:
        raw = rng.getrandbits(32 * need).to_bytes(4 * need, sys.byteorder)
        words = memoryview(raw).cast("I")
        if sys.byteorder == "big":
            words = words[::-1]     # getrandbits' first word is its lowest
        shares += [w >> shift for w in words if w < limit]
        need = k - len(shares)
    return shares


def ring_aggregates(values, rngs):
    """Per-peer aggregates of one (N,N) sharing round over
    NEGOTIATION_MODULUS: entry j is the sum of the j-th shares that
    `split(values[i], N, NEGOTIATION_MODULUS, rngs[i])` would give, in
    that order, and every generator ends where `split` leaves it.

    Each agent's N-1 drawn shares are one getrandbits integer x, added
    whole into `total` and as its even words (x & even) into `evens`.
    With the words paired into 128-bit lanes, `evens` holds the exact
    even-column sums and (total - evens) >> 64 the exact odd-column sums,
    each below N * 2**64, so no lane spills into the next. The completing
    shares sum to sum(values) minus every drawn share, which is
    sum(values) minus the N-1 column sums.
    """
    n = len(values)
    if n < 2:
        raise InvalidPartyCountError(f"need >= 2 parties, got {n}")
    if len(rngs) != n:
        raise InvalidPartyCountError(
            f"{n} values but {len(rngs)} generators")
    even, words = _lane_constants(n - 1)
    total = evens = 0
    for rng in rngs:
        x = rng.getrandbits(64 * (n - 1))
        total += x
        evens += x & even
    odds = (total - evens) >> 64
    # The low word of each lane is its column sum mod 2**64.
    columns = (evens & even) | ((odds & even) << 64)
    aggregates = list(words.unpack(columns.to_bytes(words.size, "little")))
    aggregates.append((sum(values) - sum(aggregates)) & _WORD)
    return aggregates


@functools.lru_cache(maxsize=16)
def _lane_constants(k):
    """For k drawn shares per agent: the mask of the low word of each of
    the ceil(k/2) 128-bit lanes, and the struct reading k words."""
    even = int.from_bytes((b"\xff" * 8 + b"\x00" * 8) * ((k + 1) // 2),
                          "little")
    return even, struct.Struct(f"<{k}Q")


def reconstruct(shares, modulus, n_parties=None):
    """Sum of all N shares mod `modulus`; every share is required."""
    if n_parties is not None and len(shares) != n_parties:
        raise IncompleteSharesError(
            f"expected {n_parties} shares, got {len(shares)}")
    if not shares:
        raise IncompleteSharesError("no shares given")
    return sum(shares) % modulus
