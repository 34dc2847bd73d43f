"""(N,N) additive secret sharing modulo an integer m with fixed-point
encoding of signed kWh quantities.

Negotiation rounds share over the ring Z_2^32; commitment and online
rounds share over the commitment group order p. One draw rule serves
every m >= 2. Shares come from w-bit words, w the smallest multiple of
32 with 2**w mod m <= 2**(w-32): 32 for the ring, the 32 bits the wire
model counts per share, and 64 for the ~20-bit default p. An agent
draws its N-1 words as one getrandbits(w*(N-1)), redrawn whole while
any word is >= L = 2**w - (2**w mod m), and share j is word j mod m, so
every share is exactly uniform over Z_m. Over the ring no word is ever
rejected and a share is its word.

`split` and `reconstruct` are the reference: one agent's shares, and one
sum of shares. A round only draws: `draw_shares` makes every agent's
accepted draw and builds no share. The operator's total is the plain
round's sum (`protocol._share_round`); the draws still fix every later
draw from the same generators.

A negotiation round's values need no encoding pass: `market.agent_step`
returns each trade as a signed fixed-point integer, by the same rounding
rule as `FixedPointCodec.encode_all`, which encodes the stored forecasts
and the actuals.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import (
    EncodingRangeError,
    IncompleteSharesError,
    InvalidParametersError,
    InvalidPartyCountError,
)

# Modulus used for negotiation-round aggregation. The commitment group
# order (~20 bits by default) cannot hold transient per-iteration sums,
# which reach a few hundred kWh at scale 10^4 before the price settles,
# so those rounds share over the ring Z_2^32 instead: additive sharing
# needs no inverse, and a share is 32 random bits, one wire scalar. A
# round total decodes faithfully within +-2**31/scale (214 748 kWh at
# scale 10^4); `protocol.run_negotiation` raises beyond that.
NEGOTIATION_MODULUS = 1 << 32

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
        """`encode_all` of the one value x."""
        return self.encode_all((x,))[0]

    def encode_all(self, xs):
        """round(x*scale) mod p for each x in xs, rounding half away from
        zero, in one pass: the codec's rounding rule, which
        `market.agent_step` applies to a negotiation round's trades.

        Raises EncodingRangeError at the first value beyond max_magnitude
        or not finite. Over NEGOTIATION_MODULUS at scale 10^4 that bound
        is 214 748 kWh, far above any one agent's trade.
        """
        scale, modulus = self.scale, self.modulus
        half = (modulus + 1) // 2           # 2*m >= modulus iff m >= half
        out = []
        append = out.append
        try:
            for x in xs:
                scaled = x * scale
                m = int(abs(scaled) + 0.5)
                if m >= half:
                    raise EncodingRangeError(
                        f"|{x}| * {scale} exceeds the centered range of "
                        f"modulus {modulus}")
                append(m if scaled >= 0 else -m % modulus)
        except (ValueError, OverflowError):     # NaN, +-inf
            raise EncodingRangeError(f"cannot encode {x!r}") from None
        return out

    def decode(self, v):
        """Inverse of encode for values whose centered magnitude < p/2."""
        v %= self.modulus
        if v > self.modulus // 2:
            v -= self.modulus
        return v / self.scale


def split(secret, n_parties, modulus, rng):
    """Share `secret` into n_parties uniform summands mod `modulus`.

    The first n_parties-1 shares are the w-bit words of one accepted draw
    (the module docstring's rule), each reduced mod `modulus`; the last
    completes the sum. `draw_shares` makes the same draw.
    """
    width, draw = _draw_rule(modulus, n_parties)
    x = draw(rng)
    mask = (1 << width) - 1
    shares = [((x >> (width * j)) & mask) % modulus
              for j in range(n_parties - 1)]
    shares.append((secret - sum(shares)) % modulus)
    return shares


def draw_shares(rngs, modulus):
    """Every agent's accepted draw of one (N,N) round mod `modulus`, N =
    len(rngs): each generator ends where `split` leaves it."""
    _, draw = _draw_rule(modulus, len(rngs))
    for rng in rngs:
        draw(rng)


@functools.lru_cache(maxsize=16)
def _draw_rule(modulus, n_parties):
    """(w, draw) for n_parties-1 shares mod `modulus`: the word width and
    a function making one agent's accepted draw."""
    if modulus < 2:
        raise InvalidParametersError(f"need a modulus >= 2, got {modulus}")
    if n_parties < 2:
        raise InvalidPartyCountError(f"need >= 2 parties, got {n_parties}")
    k = n_parties - 1
    w = 32
    while pow(2, w, modulus) > 1 << (w - 32):
        w += 32

    def spread(word):       # `word` in each of the k w-bit slots
        return int.from_bytes(word.to_bytes(w // 8, "little") * k, "little")

    bits = w * k
    excess = spread(pow(2, w, modulus))     # 2**w - L in every word
    carries = spread(1) << w                # the bit above every word

    def draw(rng):
        # Adding 2**w - L to every word carries out of the lowest word that
        # is >= L, and out of no word below it.
        x = rng.getrandbits(bits)
        while excess and ((x + excess) ^ x ^ excess) & carries:
            x = rng.getrandbits(bits)
        return x

    return w, draw


def reconstruct(shares, modulus, n_parties=None):
    """Sum of all N shares mod `modulus`; every share is required."""
    if modulus < 2:
        raise InvalidParametersError(f"need a modulus >= 2, got {modulus}")
    if n_parties is not None and len(shares) != n_parties:
        raise IncompleteSharesError(
            f"expected {n_parties} shares, got {len(shares)}")
    if not shares:
        raise IncompleteSharesError("no shares given")
    return sum(shares) % modulus
