import hashlib
import math
import random

import pytest

from gridshare import harness, numtheory
from gridshare.errors import GenerationFailureError, InvalidParametersError
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
    for n in (1, 0, -7):
        assert not numtheory.is_probable_prime(n, TEST_MR_ROUNDS, rng)
    for rounds in (0, -1):
        with pytest.raises(InvalidParametersError):
            numtheory.is_probable_prime(11, rounds, rng)


def test_is_probable_prime_matches_trial_division():
    rng = random.Random(2)
    for n in range(2, 20_000):
        assert numtheory.is_probable_prime(n, 16, rng) == _is_prime_trial(n), n


# 2**1279 - 1 is a Mersenne prime, so 179 (the first prime after the
# trial-division list) and 65521 (the last prime below 2**16) are the
# smallest factors of these composites.
@pytest.mark.parametrize("factor", [179, 181, 65521])
def test_sieve_rejects_composite_without_pow(monkeypatch, factor):
    n = factor * (2**1279 - 1)

    def no_pow(*args):
        raise AssertionError("the sieve should reject before any pow")

    monkeypatch.setattr(numtheory, "pow", no_pow, raising=False)
    rng, copy = random.Random(factor), random.Random(factor)
    assert not numtheory.is_probable_prime(n, TEST_MR_ROUNDS, rng)
    # The sieve draws the one witness Miller-Rabin would have drawn.
    copy.randrange(2, n - 1)
    assert rng.getstate() == copy.getstate()


# A 65-bit Carmichael number whose three prime factors all exceed 2**16,
# so it passes trial division, the gcd sieve and a base-2 Fermat test:
# only Miller-Rabin's witnesses can reject it. The digest pins each
# generator's next getrandbits(32) after the call, and so how many
# witnesses were drawn.
CARMICHAEL_65 = 1501081 * 3002161 * 4503241
CARMICHAEL_STREAM_SHA256 = (
    "d1a7693fb077552b24c00d8de64694af58c429389a94f1319ddbe6bf01db204b")


def test_miller_rabin_rejects_carmichael_past_the_sieve():
    n = CARMICHAEL_65
    assert n.bit_length() == 65 and pow(2, n - 1, n) == 1
    assert math.gcd(n, numtheory._sieve_product()) == 1
    digest = hashlib.sha256()
    for seed in range(20):
        rng = random.Random(seed)
        assert not numtheory.is_probable_prime(n, TEST_MR_ROUNDS, rng), seed
        digest.update(rng.getrandbits(32).to_bytes(4, "little"))
    assert digest.hexdigest() == CARMICHAEL_STREAM_SHA256


# A change to the search, the screen or the witnesses that moves any key,
# or where any generator ends, changes this digest.
KEY_STREAM_SHA256 = (
    "a60bcc6747be284af2bc4f7cd23e927edd42c50c19511be69536a2d1183a4fa4")


def test_key_stream_is_pinned():
    # 30 keys whose q candidates are 220-320 bits, each with a p0 of
    # 92-142 bits.
    digest = hashlib.sha256()
    for seed in range(30):
        rng = random.Random(f"key-stream/{seed}")
        ck = numtheory.generate_group_params(20, 200 + 10 * (seed % 11), rng,
                                             rounds=TEST_MR_ROUNDS)
        digest.update(ck.serialize().encode())
        digest.update(b"%d\n" % rng.getrandbits(64))
    assert digest.hexdigest() == KEY_STREAM_SHA256


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


class StuckRng:
    """getrandbits always returns 3 and randrange(a, b) returns a."""

    def __init__(self):
        self.getrandbits_calls = 0
        self.randrange_calls = 0

    def getrandbits(self, k):
        self.getrandbits_calls += 1
        return 3

    def randrange(self, a, b):
        self.randrange_calls += 1
        return a


def test_gen_prime_pair_gives_up_after_fifty_primes():
    # At 8 + 9 bits every p drawn is 131 and every p0 is 7, both found by
    # trial division without a witness, and every t is the least, 36, so
    # each q is 2*36*7*131 + 1 = 66025 = 5**2 * 19 * 139, which the screen
    # rejects: 50 times p and p0, each with 10*9 draws of t.
    rng = StuckRng()
    with pytest.raises(GenerationFailureError):
        numtheory.gen_prime_pair(8, 9, rng, rounds=4)
    assert rng.getrandbits_calls == 50 * 2
    assert rng.randrange_calls == 50 * 10 * 9


def _sieve(limit):
    is_prime = bytearray([0, 0]) + bytearray([1]) * (limit - 2)
    for i in range(2, math.isqrt(limit) + 1):
        if is_prime[i]:
            is_prime[i * i::i] = bytes(len(range(i * i, limit, i)))
    return is_prime


@pytest.mark.parametrize("factors", [(5, 3), (7, 13), (11, 5), (19, 43),
                                     (31, 37), (3, 347), (257,), (1031,)])
def test_pocklington_accepts_only_primes(factors):
    # Every q = 2*t*F + 1 below 2**20, F the product of the factors, under
    # the witnesses 2-39. While F > sqrt(q) the certificate must accept
    # each prime under some witness and no composite under any; beyond
    # that F proves nothing, and it must refuse every q. F > 2**10 puts
    # every q in the first range.
    limit = 1 << 20
    is_prime = _sieve(limit)
    f_all = math.prod(factors)
    for q in range(2 * f_all + 1, limit, 2 * f_all):
        accepted = [a for a in range(2, 40)
                    if numtheory._pocklington(q, factors, a)]
        assert bool(accepted) == (is_prime[q] and f_all * f_all > q), \
            (q, accepted)


# p0 has ceil(bits_q/2) + 2 - bits_p bits: 2, its least, at bits_p and
# bits_b of 8 and 9; 1 at 10 + 8, where p alone exceeds sqrt(q) and no p0
# is drawn, as wherever bits_p exceeds bits_b by 2 or more.
@pytest.mark.parametrize("bits_p", [8, 9, 10, 20, 33, 64, 256])
def test_gen_prime_pair_size_grid(bits_p):
    for bits_b in (8, 9, 25, 100, 1000):
        for seed in range(3 if bits_b < 1000 else 1):
            rng = random.Random(f"size-grid/{bits_p}/{bits_b}/{seed}")
            ck = numtheory.generate_group_params(bits_p, bits_b, rng,
                                                 rounds=TEST_MR_ROUNDS)
            assert ck.q == ck.b * ck.p + 1
            assert (ck.bits_p, ck.bits_q) == (bits_p, bits_p + bits_b)
            assert numtheory.is_probable_prime(ck.q, 64, random.Random(seed))
            ck.check_generators()


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
    # Key files share the scenario file syntax: a comment may fill a line
    # or end one.
    commented = "# toy key\n\n" + toy_key.serialize().replace(
        "b = 2", "b = 2   # cofactor")
    assert numtheory.GroupParams.parse(commented) == toy_key
    with pytest.raises(InvalidParametersError):
        numtheory.GroupParams(q=11, p=5, b=2, g=3, h=3).validate()
    with pytest.raises(InvalidParametersError):
        numtheory.GroupParams(q=12, p=5, b=2, g=3, h=4).validate()
    # q = b*p + 1 holds, but q = 16 is composite.
    with pytest.raises(InvalidParametersError, match="q is not prime"):
        numtheory.GroupParams(q=16, p=5, b=3, g=3, h=4).validate()


def test_group_params_parse_rejects_malformed_text(toy_key):
    text = toy_key.serialize()
    for bad in (text.replace("q = 11", "q = abc"), text + "p 5\n"):
        with pytest.raises(InvalidParametersError):
            numtheory.GroupParams.parse(bad)
    with pytest.raises(InvalidParametersError, match="line 3: bad value"):
        numtheory.GroupParams.parse(text.replace("b = 2", "b = two"))
    with pytest.raises(InvalidParametersError, match="key lacks g, h"):
        numtheory.GroupParams.parse(text.replace("g = 3\n", "")
                                    .replace("h = 4\n", ""))


@pytest.mark.parametrize("extra", ["q = 47\n", "zz = 1\n", "q = 11\n"])
def test_group_params_parse_rejects_duplicate_and_unknown_fields(
        toy_key, extra):
    # A repeated field, even with the same value, or an unknown one is an
    # error rather than last-wins or ignored.
    with pytest.raises(InvalidParametersError):
        numtheory.GroupParams.parse(toy_key.serialize() + extra)
    with pytest.raises(InvalidParametersError):
        numtheory.GroupParams.parse(extra + toy_key.serialize())


def test_broadcast_bits_model(short_key, full_key):
    # The operator broadcasts and stores q, g and h as bits_q-bit values
    # and p as a bits_p-bit value, under a config of the key's sizes.
    assert full_key.bits_q == 1020
    assert full_key.bits_p == 20
    for ck in (short_key, full_key):
        report = harness.run_scenario(harness.ScenarioConfig(
            n_tas=4, bits_b=ck.bits_q - ck.bits_p), ck=ck)
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
