import random

import pytest

from gridshare import harness, numtheory
from gridshare.errors import InvalidParametersError
from tests.conftest import TEST_MR_ROUNDS


def _is_prime_trial(n):
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def test_is_probable_prime_known_values():
    rng = random.Random(1)
    assert numtheory.is_probable_prime(11, TEST_MR_ROUNDS, rng)
    assert not numtheory.is_probable_prime(12, TEST_MR_ROUNDS, rng)
    assert numtheory.is_probable_prime(2**31 - 1, TEST_MR_ROUNDS, rng)
    assert _is_prime_trial(2**31 - 1)


def test_is_probable_prime_matches_trial_division():
    rng = random.Random(2)
    for n in range(2, 20_000):
        assert numtheory.is_probable_prime(n, 16, rng) == _is_prime_trial(n), n


def test_gen_prime_pair_structure_and_bits():
    rng = random.Random(3)
    p, q, b = numtheory.gen_prime_pair(20, 40, rng, rounds=TEST_MR_ROUNDS)
    assert q == b * p + 1
    assert p.bit_length() == 20
    assert q.bit_length() == 60
    assert numtheory.is_probable_prime(p, TEST_MR_ROUNDS)
    assert numtheory.is_probable_prime(q, TEST_MR_ROUNDS)


def test_gen_prime_pair_deterministic():
    first = numtheory.gen_prime_pair(16, 16, random.Random(4),
                                     rounds=TEST_MR_ROUNDS)
    second = numtheory.gen_prime_pair(16, 16, random.Random(4),
                                      rounds=TEST_MR_ROUNDS)
    assert first == second


def test_gen_prime_pair_rejects_tiny_sizes():
    with pytest.raises(InvalidParametersError):
        numtheory.gen_prime_pair(3, 2, random.Random(0))


def test_fast_mode_samples_are_subgroup_members():
    # g and h are drawn as i^b mod q for uniform i in Z_q*; each draw must
    # land in the order-p subgroup.
    for seed in range(20):
        ck = numtheory.generate_group_params(12, 12, random.Random(seed),
                                             rounds=TEST_MR_ROUNDS)
        assert pow(ck.g, ck.p, ck.q) == 1
        assert pow(ck.h, ck.p, ck.q) == 1
        ck.check_generators()


def test_pick_generators_are_subgroup_members():
    ck = numtheory.generate_group_params(12, 12, random.Random(6),
                                         rounds=TEST_MR_ROUNDS)
    g, h = ck.g, ck.h
    assert g != h and g != 1 and h != 1
    assert pow(g, ck.p, ck.q) == 1 and pow(h, ck.p, ck.q) == 1
    again = numtheory.generate_group_params(12, 12, random.Random(6),
                                            rounds=TEST_MR_ROUNDS)
    assert (g, h) == (again.g, again.h)


def test_group_params_validate_and_serialize(toy_key):
    toy_key.validate(rounds=TEST_MR_ROUNDS)
    parsed = numtheory.GroupParams.parse(toy_key.serialize())
    assert parsed == toy_key
    with pytest.raises(InvalidParametersError):
        numtheory.GroupParams(q=11, p=5, b=2, g=3, h=3).validate()
    with pytest.raises(InvalidParametersError):
        numtheory.GroupParams(q=12, p=5, b=2, g=3, h=4).validate()


def test_group_params_parse_rejects_malformed_text(toy_key):
    text = toy_key.serialize()
    for bad in (text.replace("q = 11", "q = abc"), text + "p 5\n"):
        with pytest.raises(InvalidParametersError):
            numtheory.GroupParams.parse(bad)


def test_broadcast_bits_model(short_key, full_key):
    # The operator broadcasts and stores q, g and h as bits_q-bit values
    # and p as a bits_p-bit value.
    assert full_key.bits_q == 1020
    assert full_key.bits_p == 20
    for ck in (short_key, full_key):
        report = harness.run_scenario(harness.ScenarioConfig(n_tas=4), ck=ck)
        key_bits = 3 * ck.bits_q + ck.bits_p
        assert report.traffic_kb["keygen"]["TO"] * 8 * 1024 == key_bits
        assert report.storage_kb["keygen"]["TO"] * 8 * 1024 == key_bits
    assert abs(report.traffic_kb["keygen"]["TO"] - 0.376) < 0.001


def test_generate_group_params_deterministic():
    a = numtheory.generate_group_params(12, 12, random.Random(7),
                                        rounds=TEST_MR_ROUNDS)
    b = numtheory.generate_group_params(12, 12, random.Random(7),
                                        rounds=TEST_MR_ROUNDS)
    assert a == b
    a.validate(rounds=TEST_MR_ROUNDS)
