import random

import pytest

from gridshare import numtheory

# Miller-Rabin rounds for keys made in tests: the library default, which
# bounds the error at 4**-64.
TEST_MR_ROUNDS = numtheory.DEFAULT_MR_ROUNDS

TOY_KEY = numtheory.GroupParams(q=11, p=5, b=2, g=3, h=4)


@pytest.fixture(scope="session")
def toy_key():
    return TOY_KEY


@pytest.fixture(scope="session")
def full_key():
    """A full-size (bits_q = 1020) commitment key, generated once."""
    rng = random.Random("tests/full_key")
    return numtheory.generate_group_params(20, 1000, rng,
                                           rounds=TEST_MR_ROUNDS)


@pytest.fixture(scope="session")
def short_key():
    """A 20 + 100-bit key, to check size accounting at a second bits_q."""
    return numtheory.generate_group_params(20, 100, random.Random(0),
                                           rounds=TEST_MR_ROUNDS)


class SequenceRng:
    """Forces the shares `sharing.split` draws over a modulus whose word
    width is 64 bits, such as 101: getrandbits emits each value as one
    64-bit word, first value lowest."""

    def __init__(self, values):
        self.values = list(values)

    def getrandbits(self, k):
        return sum(self.values.pop(0) << (64 * i) for i in range(k // 64))
