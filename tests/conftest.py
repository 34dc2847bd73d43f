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
    """Feeds predetermined values to randrange; used to force shares."""

    def __init__(self, values):
        self.values = list(values)

    def randrange(self, *_args):
        return self.values.pop(0)
