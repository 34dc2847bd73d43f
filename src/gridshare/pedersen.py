"""Pedersen commitments over the order-p subgroup of Z_q*."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidParametersError


@dataclass(frozen=True)
class Commitment:
    """A group element g^m * h^r mod q; `bits` is its wire/storage size."""

    value: int
    bits: int


def commit(ck, message, randomness):
    """g^message * h^randomness mod q; exponents reduce mod the group
    order p. The key is checked once, when a slot accepts it
    (`GroupParams.check_generators`), not on every commitment."""
    value = (pow(ck.g, message % ck.p, ck.q)
             * pow(ck.h, randomness % ck.p, ck.q)) % ck.q
    return Commitment(value=value, bits=ck.bits_q)


def verify_open(ck, c, message, randomness):
    """True iff (message, randomness) opens the commitment c."""
    return commit(ck, message, randomness).value == c.value


def product(commitments, ck):
    """Homomorphic combination: the modular product of commitments."""
    if not commitments:
        raise InvalidParametersError("cannot take the product of no commitments")
    acc = 1
    for c in commitments:
        acc = (acc * c.value) % ck.q
    return Commitment(value=acc, bits=ck.bits_q)
