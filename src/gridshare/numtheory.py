"""Arbitrary-precision modular arithmetic and commitment-group construction.

Builds the prime-order subgroup used by the commitment scheme: primes
p, q with q = b*p + 1 and two generators of the order-p subgroup of Z_q*.
p and p0, a prime factor of b, pass Miller-Rabin; q is then proven
prime by Pocklington's criterion on one witness.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass

from .errors import (
    GenerationFailureError,
    InvalidKeyError,
    InvalidParametersError,
)

# Miller-Rabin round count used when verifying primes; a composite
# passes with probability at most 4**-64. A generated key is unsound only
# if its p or p0 is such a composite, as its q is proven prime.
DEFAULT_MR_ROUNDS = 64

# Digit width W, in exponent bits, of a key's joint fixed-base table of g
# and h: ceil(bits_p / W) rows of 2**(2W) entries, one per pair of digits.
# A commitment makes one lookup and multiply mod q per row, so a wider digit
# cuts the rows but quadruples each one. At bits_p = 20 and bits_q = 1020,
# W = 5 gives 4 lookups (3 multiplies, as the first multiplies 1) and 4096
# entries, 0.69 MB per key, built in about 22 ms on a 2-vCPU Xeon under
# CPython 3.11. Separate tables of g and h would take 8 multiplies from 256
# entries (42 KB); in the benchmark's detection workload a key serves 16 080
# commitments (80 runs of 100 commitments, one check and 100 openings, by
# cProfile of op 0 at seed 1), so the joint table's build pays for itself.
FIXED_BASE_WINDOW = 5
_DIGIT_MASK = (1 << FIXED_BASE_WINDOW) - 1

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107,
                 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173]


def is_probable_prime(n, rounds=DEFAULT_MR_ROUNDS, rng=None):
    """Miller-Rabin primality test with random witnesses, after `_screen`.

    Returns False for certain composites; True means prime except with
    probability <= 4**(-rounds). Witnesses are drawn from `rng` so runs
    are reproducible; an unseeded source is used when none is given.
    """
    if rounds < 1:
        raise InvalidParametersError("rounds must be >= 1")
    if n <= _SMALL_PRIMES[-1]:
        return n in _SMALL_PRIMES
    if rng is None:
        rng = random
    failed = _screen(n)
    if failed:
        if failed == "sieve":
            # Such a composite fails the first witness except with
            # negligible probability (Damgard-Landrock-Pomerance, Math.
            # Comp. 1993); that witness is still drawn, so the generator
            # moves as under Miller-Rabin alone.
            rng.randrange(2, n - 1)
        return False
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


def _screen(n):
    """How n > 173 shows a small prime factor: "trial" for one of the
    primes to 173, "sieve" for one below 2**16 (sought by a gcd above 64
    bits only), or None if neither finds one."""
    for sp in _SMALL_PRIMES:
        if n % sp == 0:
            return "trial"
    if n.bit_length() > 64 and math.gcd(n, _sieve_product()) != 1:
        return "sieve"
    return None


@functools.cache
def _sieve_product():
    """The product of the primes from 179, the first after _SMALL_PRIMES,
    to 2**16: a 93 800-bit int, built at the first test of a large n."""
    limit = 1 << 16
    is_prime = bytearray([1]) * limit
    for i in range(2, math.isqrt(limit) + 1):
        if is_prime[i]:
            is_prime[i * i::i] = bytes(len(range(i * i, limit, i)))
    return math.prod(i for i in range(_SMALL_PRIMES[-1] + 1, limit)
                     if is_prime[i])


def _random_prime(bits, rng, rounds):
    while True:
        cand = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(cand, rounds, rng):
            return cand


def _pocklington(q, factors, a):
    """Whether witness a proves q prime, given primes `factors` whose
    product F divides q - 1 (Pocklington 1914; Brillhart-Lehmer-Selfridge,
    Math. Comp. 1975): F > sqrt(q), a^(q-1) = 1 mod q and gcd(a^((q-1)/f)
    - 1, q) = 1 for each f. a^(q-1) is y^f0 for y = a^((q-1)/f0), so a
    composite costs one full-size `pow`."""
    f_all = math.prod(factors)
    if f_all * f_all <= q:
        return False
    f0, *rest = factors
    y = pow(a, (q - 1) // f0, q)
    if pow(y, f0, q) != 1 or math.gcd(y - 1, q) != 1:
        return False
    return all(math.gcd(pow(a, (q - 1) // f, q) - 1, q) == 1 for f in rest)


def gen_prime_pair(bits_p, bits_b, rng, rounds=DEFAULT_MR_ROUNDS):
    """Find primes (p, q) with q = b*p + 1 and a random cofactor b = 2*t*p0.

    p has exactly bits_p bits and q exactly bits_p + bits_b bits, which
    keeps size accounting deterministic: t is uniform over the range that
    gives q that length. The prime p0, of ceil(bits_q/2) + 2 - bits_p bits
    and left out when p alone exceeds sqrt(q), makes p*p0 > sqrt(q), so a
    q that passes `_screen` is proven prime, given p and p0, by
    `_pocklington` on one witness. The search draws up to 50 primes p,
    each with its p0, and 10*bits_b values of t for each.
    """
    if bits_p < 8 or bits_b < 8:
        raise InvalidParametersError("bits_p and bits_b must each be >= 8")
    bits_q = bits_p + bits_b
    # Below 2 bits no p0 is needed: p >= 2**ceil(bits_q/2) > sqrt(q).
    bits_p0 = (bits_q + 1) // 2 + 2 - bits_p
    for _ in range(50):
        p = _random_prime(bits_p, rng, rounds)
        factors = (p,)
        if bits_p0 > 1:
            factors = (_random_prime(bits_p0, rng, rounds), p)
        step = 2 * math.prod(factors)
        # The t with 2**(bits_q - 1) <= step*t + 1 < 2**bits_q.
        t_lo = -(-((1 << (bits_q - 1)) - 1) // step)
        t_hi = ((1 << bits_q) - 2) // step
        for _ in range(10 * bits_b):
            q = step * rng.randrange(t_lo, t_hi + 1) + 1
            if (_screen(q) is None
                    and _pocklington(q, factors, rng.randrange(2, q - 1))):
                return p, q, q // p
    raise GenerationFailureError(
        f"no prime pair found for bits_p={bits_p}, bits_b={bits_b}")


KEY_FIELDS = ("q", "p", "b", "g", "h")


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
        """g and h are distinct non-identity elements of order p, written
        as residues 1 < g, h < q."""
        if self.p < 2:
            raise InvalidKeyError(f"group order p = {self.p} is below 2")
        for name, x in (("g", self.g), ("h", self.h)):
            if not 1 < x < self.q or pow(x, self.p, self.q) != 1:
                raise InvalidKeyError(f"{name} is not a non-identity "
                                      "element of the subgroup")
        if self.g == self.h:
            raise InvalidKeyError("g and h must differ")

    @functools.cached_property
    def _fixed_base_table(self):
        """One joint row per W-bit digit position, W = FIXED_BASE_WINDOW:
        row j at index d_g | d_h << W holds g^(d_g * 2^(W*j)) *
        h^(d_h * 2^(W*j)) mod q (Lim-Lee, CRYPTO 1994).

        Built from multiplications alone (no `pow`) at first use, from a
        W-bit row of each base that is dropped once its joint row is made.
        It is kept in this key object's instance dict, so it is freed with
        the key; eq, hash and `serialize` read only the dataclass fields."""
        q = self.q
        n_rows = -(-self.bits_p // FIXED_BASE_WINDOW)
        return tuple(
            [g_pow * h_pow % q for h_pow in h_row for g_pow in g_row]
            for g_row, h_row in zip(_fixed_base_rows(self.g, q, n_rows),
                                    _fixed_base_rows(self.h, q, n_rows)))

    def gh_power(self, m, r):
        """g^m * h^r mod q for exponents 0 <= m, r < p: one joint table
        multiply per digit pair (Brickell-Gordon-McCurley-Wilson,
        EUROCRYPT 1992; Lim-Lee, CRYPTO 1994), reducing mod q after each."""
        q = self.q
        acc = 1
        for row in self._fixed_base_table:
            acc = acc * row[(m & _DIGIT_MASK)
                            | (r & _DIGIT_MASK) << FIXED_BASE_WINDOW] % q
            m >>= FIXED_BASE_WINDOW
            r >>= FIXED_BASE_WINDOW
        return acc

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
        lines = [f"{k} = {getattr(self, k)}" for k in KEY_FIELDS]
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text):
        """Read a `serialize` record: each of q, p, b, g, h once."""
        fields = parse_key_values(text, dict.fromkeys(KEY_FIELDS, int),
                                  InvalidParametersError)
        missing = [k for k in KEY_FIELDS if k not in fields]
        if missing:
            raise InvalidParametersError(f"key lacks {', '.join(missing)}")
        return cls(**fields)


def parse_key_values(text, parsers, error):
    """{key: parsers[key](value)} from the `key = value` lines of key and
    scenario files, where `#` starts a comment. A malformed line, a key
    not in `parsers` or repeated, or a value whose parser raises
    ValueError or KeyError raises `error` with the line number."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise error(f"line {lineno}: expected 'key = value'")
        if key not in parsers:
            raise error(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise error(f"line {lineno}: repeated key {key!r}")
        try:
            values[key] = parsers[key](value)
        except (ValueError, KeyError):
            raise error(
                f"line {lineno}: bad value {value!r} for {key}") from None
    return values


def _fixed_base_rows(base, q, n_rows):
    """Yields n_rows rows of 2**FIXED_BASE_WINDOW powers; row j starts at 1
    and steps by base^(2^(W*j))."""
    for _ in range(n_rows):
        row = [1]
        for _ in range(_DIGIT_MASK):
            row.append(row[-1] * base % q)
        yield row
        base = row[-1] * base % q


def generate_group_params(bits_p, bits_b, rng, rounds=DEFAULT_MR_ROUNDS):
    """Full key generation: a prime pair, then g and h drawn as i^b mod q
    for uniform i in Z_q*, which is uniform over the order-p subgroup.

    As b = 2*t*p0, q is proven prime given p and p0: the key is unsound
    only if a composite p or p0 passed Miller-Rabin (4**-rounds each).

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
