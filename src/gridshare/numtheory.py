"""Arbitrary-precision modular arithmetic and commitment-group construction.

Builds the prime-order subgroup used by the commitment scheme: primes
p, q with q = b*p + 1 and two generators of the order-p subgroup of Z_q*.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import (
    GenerationFailureError,
    InvalidKeyError,
    InvalidParametersError,
)

# Miller-Rabin round count used when verifying primes; a composite
# passes with probability at most 4**-64.
DEFAULT_MR_ROUNDS = 64

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107,
                 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173]


def is_probable_prime(n, rounds=DEFAULT_MR_ROUNDS, rng=None):
    """Miller-Rabin primality test with random witnesses.

    Returns False for certain composites; True means prime except with
    probability <= 4**(-rounds). Witnesses are drawn from `rng` so runs
    are reproducible; an unseeded source is used when none is given.
    """
    if rounds < 1:
        raise InvalidParametersError("rounds must be >= 1")
    if n < 2:
        return False
    for sp in _SMALL_PRIMES:
        if n == sp:
            return True
        if n % sp == 0:
            return False
    if rng is None:
        rng = random
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def _random_prime(bits, rng, rounds):
    while True:
        cand = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(cand, rounds, rng):
            return cand


def gen_prime_pair(bits_p, bits_b, rng, rounds=DEFAULT_MR_ROUNDS):
    """Find primes (p, q) with q = b*p + 1 and a random cofactor b.

    p has exactly bits_p bits and q exactly bits_p + bits_b bits (b is
    resampled until the product lands on the target length, which keeps
    downstream size accounting deterministic). The search draws up to 50
    primes p and resamples b up to 10*bits_b times for each.
    """
    if bits_p < 8 or bits_b < 8:
        raise InvalidParametersError("bits_p and bits_b must each be >= 8")
    bits_q = bits_p + bits_b
    for _ in range(50):
        p = _random_prime(bits_p, rng, rounds)
        for _ in range(10 * bits_b):
            b = rng.getrandbits(bits_b) | (1 << (bits_b - 1))
            q = b * p + 1
            if q.bit_length() != bits_q:
                continue
            if is_probable_prime(q, rounds, rng):
                return p, q, b
    raise GenerationFailureError(
        f"no prime pair found for bits_p={bits_p}, bits_b={bits_b}")


@dataclass(frozen=True)
class GroupParams:
    """Commitment key ck = (G, q, p, g, h) with q = b*p + 1."""

    q: int
    p: int
    b: int
    g: int
    h: int

    @property
    def bits_q(self):
        return self.q.bit_length()

    @property
    def bits_p(self):
        return self.p.bit_length()

    def check_generators(self):
        """g and h are distinct non-identity elements of order p."""
        for name, x in (("g", self.g), ("h", self.h)):
            if x in (0, 1) or pow(x, self.p, self.q) != 1:
                raise InvalidKeyError(f"{name} is not a non-identity "
                                      "element of the subgroup")
        if self.g == self.h:
            raise InvalidKeyError("g and h must differ")

    def validate(self, rounds=DEFAULT_MR_ROUNDS, rng=None):
        if self.b * self.p + 1 != self.q:
            raise InvalidParametersError("q != b*p + 1")
        rng = rng or random.Random(0)
        for name, n in (("q", self.q), ("p", self.p)):
            if not is_probable_prime(n, rounds, rng):
                raise InvalidParametersError(f"{name} is not prime")
        self.check_generators()
        return self

    def serialize(self):
        """Text key-value record, decimal values, reusable across runs."""
        lines = [f"{k} = {getattr(self, k)}" for k in ("q", "p", "b", "g", "h")]
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text):
        fields = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            try:
                fields[key.strip()] = int(value.strip())
            except ValueError:
                raise InvalidParametersError(
                    f"malformed key line {line!r}") from None
        missing = {"q", "p", "b", "g", "h"} - set(fields)
        if missing:
            raise InvalidParametersError(f"missing key fields: {sorted(missing)}")
        return cls(**{k: fields[k] for k in ("q", "p", "b", "g", "h")})


def generate_group_params(bits_p, bits_b, rng, rounds=DEFAULT_MR_ROUNDS):
    """Full key generation: a prime pair, then g and h drawn as i^b mod q
    for uniform i in Z_q*, which is uniform over the order-p subgroup.

    Any non-identity element generates that subgroup, since its order is
    prime; g and h are redrawn until both differ from 1 and each other.
    """
    p, q, b = gen_prime_pair(bits_p, bits_b, rng, rounds=rounds)
    g = 1
    while g == 1:
        g = pow(rng.randrange(1, q), b, q)
    h = 1
    while h in (1, g):
        h = pow(rng.randrange(1, q), b, q)
    return GroupParams(q=q, p=p, b=b, g=g, h=h)
