import random

import pytest

from gridshare import harness, numtheory, pedersen
from gridshare.errors import InvalidKeyError, InvalidParametersError


def test_commit_hand_values(toy_key):
    assert pedersen.commit(toy_key, 2, 3) == 4
    assert pedersen.commit(toy_key, 0, 0) == 1


def test_commit_reduces_exponents(toy_key):
    assert (pedersen.commit(toy_key, 7, 9)
            == pedersen.commit(toy_key, 7 % 5, 9 % 5))


def test_commit_bits_matches_key(short_key, full_key):
    # Each agent sends its commitment as one bits_q-bit value, beside the
    # two 32-bit share rounds of E_n and r_n. A supplied key must have the
    # config's sizes.
    n = 4
    for ck in (short_key, full_key):
        report = harness.run_scenario(harness.ScenarioConfig(
            n_tas=n, bits_b=ck.bits_q - ck.bits_p), ck=ck)
        assert report.traffic_kb["commitment"]["TA"] * 8 * 1024 == \
            2 * 32 * n + ck.bits_q


def test_commit_rejects_bad_key():
    # The key is checked once, where a slot accepts it, not per commit.
    config = harness.ScenarioConfig(n_tas=4)
    bad = numtheory.GroupParams(q=11, p=5, b=2, g=2, h=4)   # 2 has order 10
    same = numtheory.GroupParams(q=11, p=5, b=2, g=3, h=3)
    # 14 = 3 mod 11 has order 5, but a residue >= q does not fit the
    # bits_q bits that the wire model gives g.
    unreduced = numtheory.GroupParams(q=11, p=5, b=2, g=14, h=4)
    for key in (bad, same, unreduced):
        with pytest.raises(InvalidKeyError):
            harness.run_scenario(config, ck=key)
        with pytest.raises(InvalidKeyError):
            key.validate()
    # Keys that fail structurally, before any order check could run: a
    # zero modulus, and a negative order with a non-invertible g mod 4.
    for key in (numtheory.GroupParams(q=0, p=5, b=2, g=3, h=4),
                numtheory.GroupParams(q=4, p=-1, b=-3, g=2, h=3)):
        with pytest.raises(InvalidKeyError):
            harness.run_scenario(config, ck=key)


def pow_commit(ck, message, randomness):
    """The two-`pow` form of a commitment, the oracle for the tables."""
    return (pow(ck.g, message % ck.p, ck.q)
            * pow(ck.h, randomness % ck.p, ck.q)) % ck.q


def test_commit_equals_pow_oracle_exhaustive_toy(toy_key):
    p = toy_key.p
    for m in range(-2 * p, 2 * p):
        for r in range(-2 * p, 2 * p):
            assert pedersen.commit(toy_key, m, r) == pow_commit(toy_key, m, r)


def assert_commit_equals_oracle(ck, rng):
    # Messages and randomness below 0 and at or above p, both reduced
    # mod p before any table lookup.
    p = ck.p
    edges = [0, 1, p - 1, p, p + 1, -1, -p, -p - 1, 2 * p - 1,
             (1 << ck.bits_p) - 1, 1 << ck.bits_p, -(1 << 70)]
    values = edges + [rng.randrange(-5 * p, 5 * p) for _ in range(200)]
    for m, r in zip(values, reversed(values)):
        assert pedersen.commit(ck, m, r) == pow_commit(ck, m, r)


def test_commit_equals_pow_oracle_test_keys(short_key, full_key):
    for ck in (short_key, full_key):
        assert_commit_equals_oracle(ck, random.Random(ck.bits_q))


@pytest.mark.parametrize("bits_p", [8, 2 * numtheory.FIXED_BASE_WINDOW,
                                    2 * numtheory.FIXED_BASE_WINDOW + 1])
def test_commit_equals_pow_oracle_digit_edges(bits_p):
    # 2W bits fill two table rows exactly; 2W + 1 bits, and 8 bits at
    # W = 5, end in a digit shorter than W bits.
    ck = numtheory.generate_group_params(bits_p, 100, random.Random(bits_p))
    assert ck.bits_p == bits_p
    assert_commit_equals_oracle(ck, random.Random(bits_p))


def test_verify_open_hand_values(toy_key):
    c = pedersen.commit(toy_key, 2, 3)
    assert pedersen.verify_open(toy_key, c, 2, 3)
    assert not pedersen.verify_open(toy_key, c, 2, 4)


def test_verify_open_round_trip(full_key):
    rng = random.Random(0)
    for _ in range(1000):
        m, r = rng.randrange(full_key.p), rng.randrange(full_key.p)
        c = pedersen.commit(full_key, m, r)
        assert pedersen.verify_open(full_key, c, m, r)


def test_homomorphism_exhaustive_toy(toy_key):
    p = toy_key.p
    for m1 in range(p):
        for r1 in range(p):
            for m2 in range(p):
                for r2 in range(p):
                    combined = pedersen.product(
                        [pedersen.commit(toy_key, m1, r1),
                         pedersen.commit(toy_key, m2, r2)], toy_key)
                    direct = pedersen.commit(toy_key, m1 + m2, r1 + r2)
                    assert combined == direct


def test_homomorphism_random_full_size(full_key):
    rng = random.Random(1)
    for _ in range(1000):
        m1, r1 = rng.randrange(full_key.p), rng.randrange(full_key.p)
        m2, r2 = rng.randrange(full_key.p), rng.randrange(full_key.p)
        combined = pedersen.product(
            [pedersen.commit(full_key, m1, r1),
             pedersen.commit(full_key, m2, r2)], full_key)
        direct = pedersen.commit(full_key, (m1 + m2) % full_key.p,
                                 (r1 + r2) % full_key.p)
        assert combined == direct


def test_product_hand_and_edge_cases(toy_key):
    c1, c2 = pedersen.commit(toy_key, 2, 3), pedersen.commit(toy_key, 1, 1)
    assert pedersen.product([c1, c2], toy_key) == \
        pedersen.commit(toy_key, 3, 4)
    assert pedersen.product([c1], toy_key) == c1
    inverse = pedersen.commit(toy_key, toy_key.p - 2, toy_key.p - 3)
    assert pedersen.product([c1, inverse], toy_key) == 1
    with pytest.raises(InvalidParametersError):
        pedersen.product([], toy_key)


def test_perfectly_hiding_toy(toy_key):
    # Every message yields the same multiset of commitment values as r
    # ranges over Z_p, so a commitment reveals nothing about m.
    reference = sorted(pedersen.commit(toy_key, 0, r)
                       for r in range(toy_key.p))
    for m in range(1, toy_key.p):
        values = sorted(pedersen.commit(toy_key, m, r)
                        for r in range(toy_key.p))
        assert values == reference


def test_binding_surrogate_toy(toy_key):
    # For a fixed commitment, each candidate message admits exactly one
    # opening randomness; equivocating m therefore requires solving the
    # discrete log between g and h.
    c = pedersen.commit(toy_key, 2, 3)
    for m in range(toy_key.p):
        openings = [r for r in range(toy_key.p)
                    if pedersen.verify_open(toy_key, c, m, r)]
        assert len(openings) == 1
