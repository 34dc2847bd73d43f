"""Pedersen commitments over the order-p subgroup of Z_q*."""

from __future__ import annotations

from .errors import InvalidParametersError


def commit(ck, message, randomness):
    """g^message * h^randomness mod q, as an int; exponents reduce mod
    the group order p. The key is checked once, when a slot accepts it
    (`GroupParams.check_generators`), not on every commitment."""
    return (pow(ck.g, message % ck.p, ck.q)
            * pow(ck.h, randomness % ck.p, ck.q)) % ck.q


def verify_open(ck, c, message, randomness):
    """True iff (message, randomness) opens the commitment c."""
    return commit(ck, message, randomness) == c


def product(commitments, ck):
    """Homomorphic combination: the modular product of commitments."""
    if not commitments:
        raise InvalidParametersError("cannot take the product of no commitments")
    acc = 1
    for c in commitments:
        acc = (acc * c) % ck.q
    return acc
