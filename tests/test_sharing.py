import random
import struct
from types import SimpleNamespace

import pytest

from gridshare import market, protocol, sharing
from gridshare.errors import (
    EncodingRangeError,
    IncompleteSharesError,
    InvalidParametersError,
    InvalidPartyCountError,
)
from gridshare.transport import Transcript
from tests import reference_slot
from tests.conftest import SequenceRng

RING = sharing.NEGOTIATION_MODULUS
P40 = (1 << 40) - 285           # a prime whose shares use 96-bit words
ODD256 = 3 ** 161               # 256 bits; its shares use 288-bit words
# Word width w of the draw rule, by hand: the smallest multiple of 32 with
# 2**w mod m <= 2**(w - 32). Every other modulus here has w = 64.
WIDTH = {RING: 32, 3: 32, 1 << 19: 32, P40: 96, ODD256: 288}
MODULI = [3, 11, 101, 1 << 19, 886387, (1 << 20) + 7, (1 << 31) + 1,
          (1 << 32) - 5, P40, ODD256]


def _name(value):
    return "3**161" if value == ODD256 else str(value)


def test_encode_hand_values():
    codec = sharing.FixedPointCodec((1 << 20) + 7, 10_000)
    assert codec.encode(2.0) == 20_000
    assert sharing.FixedPointCodec(101, 1).encode(-5) == 96
    big = sharing.FixedPointCodec(sharing.NEGOTIATION_MODULUS, 10_000)
    assert big.encode(1.00005) == 10_001


def test_decode_hand_values():
    assert sharing.FixedPointCodec(101, 1).decode(96) == -5
    codec = sharing.FixedPointCodec((1 << 20) + 7, 10_000)
    assert codec.decode(20_000) == 2.0
    assert codec.decode(0) == 0.0


def test_round_trip_error_bound():
    codec = sharing.FixedPointCodec((1 << 20) + 7, 10_000)
    rng = random.Random(0)
    for _ in range(1000):
        x = rng.uniform(-codec.max_magnitude, codec.max_magnitude)
        assert abs(codec.decode(codec.encode(x)) - x) <= 1 / (2 * codec.scale)


def test_encode_range_check():
    codec = sharing.FixedPointCodec(101, 1)
    with pytest.raises(EncodingRangeError):
        codec.encode(51)
    # Signed encoding needs a modulus of 3 or more and a positive scale.
    for modulus, scale in ((2, 1), (1, 1), (101, 0), (101, -1)):
        with pytest.raises(EncodingRangeError):
            sharing.FixedPointCodec(modulus, scale)


def test_encode_rejects_non_finite():
    codec = sharing.FixedPointCodec((1 << 20) + 7, 10_000)
    for x in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(EncodingRangeError):
            codec.encode(x)


# (modulus, scale) pairs for the rounding oracle: a tiny field, the
# default ~20-bit group order p and the negotiation ring.
ORACLE_CODECS = [(101, 1), (886387, 10_000), (RING, 10_000), (RING, 1)]


def _oracle_values(codec, rng):
    """Seeded values across the codec's range and the rounding edge cases:
    signed zeros, ties k + 1/2 after scaling, the float just below 1/2
    (which `+ 0.5` rounds up to 1.0), subnormals and +-max_magnitude."""
    scale, bound = codec.scale, codec.max_magnitude
    values = [rng.uniform(-bound, bound) for _ in range(2000)]
    values += [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
               -2.225073858507201e-308, bound, -bound, float(bound),
               -float(bound)]
    edges = [k + 0.5 for k in range(-20, 20)] + [0.49999999999999994,
                                                  -0.49999999999999994]
    exact = [e / scale for e in edges if (e / scale) * scale == e]
    assert len(exact) >= 10
    return values + exact


@pytest.mark.parametrize("modulus,scale", ORACLE_CODECS)
def test_encode_all_matches_the_per_value_reference(modulus, scale):
    codec = sharing.FixedPointCodec(modulus, scale)
    values = _oracle_values(codec, random.Random(f"oracle/{modulus}"))
    got = codec.encode_all(values)
    assert got == [reference_slot.encode(x, scale, modulus) for x in values]
    assert got == [codec.encode(x) for x in values]
    assert codec.encode_all([]) == []
    if scale == 1:
        assert codec.encode(0.49999999999999994) == 1


@pytest.mark.parametrize("modulus,scale", ORACLE_CODECS)
def test_encode_all_raises_at_the_first_bad_value(modulus, scale):
    codec = sharing.FixedPointCodec(modulus, scale)
    beyond = (modulus // 2 + 1) / scale
    for bad in (float("nan"), float("inf"), float("-inf"), beyond, -beyond):
        with pytest.raises(EncodingRangeError) as expected:
            reference_slot.encode(bad, scale, modulus)
        for xs in ([bad], [1.0, -2.0, bad], [0.0, bad, float("nan"), beyond]):
            with pytest.raises(EncodingRangeError) as raised:
                codec.encode_all(xs)
            assert str(raised.value) == str(expected.value)
        with pytest.raises(EncodingRangeError) as raised:
            codec.encode(bad)
        assert str(raised.value) == str(expected.value)


def test_split_forced_randomness():
    shares = sharing.split(42, 3, 101, SequenceRng([10, 20]))
    assert shares == [10, 20, 12]
    assert sum(shares) % 101 == 42


def test_draw_rule_word_width():
    # The ring draws one 32-bit word per share, the wire model's scalar;
    # every ~20-bit p keeps its 64-bit words.
    expected = {m: WIDTH.get(m, 64) for m in [RING, *MODULI]}
    assert {m: sharing._draw_rule(m, 2)[0] for m in expected} == expected


def test_ring_split_sums_to_secret():
    assert RING == 1 << 32
    rng = random.Random(6)
    for secret in (0, 1, RING - 1, rng.randrange(RING)):
        for n in (2, 3, 17):
            shares = sharing.split(secret, n, RING, rng)
            assert len(shares) == n
            assert all(0 <= s < RING for s in shares)
            assert sum(shares) % RING == secret


def test_ring_split_is_one_bulk_draw():
    # The n-1 random shares are exactly one getrandbits(32*(n-1)) draw,
    # read as little-endian 32-bit words.
    n = 9
    shares = sharing.split(12345, n, RING, random.Random(7))
    bits = random.Random(7).getrandbits(32 * (n - 1))
    words = struct.unpack(f"<{n - 1}I", bits.to_bytes(4 * (n - 1), "little"))
    assert shares[:-1] == list(words)


def _share_round(values, rngs, modulus=RING):
    """protocol._share_round with one agent per generator."""
    tas = [SimpleNamespace(id=f"TA{i}", rng=rng) for i, rng in enumerate(rngs)]
    return protocol._share_round(tas, tuple(ta.id for ta in tas), values,
                                 modulus, Transcript(), "negotiation")


def _assert_total_matches_split(values, make_rng, modulus=RING):
    # The share round's total is the reconstruct of split's per-peer
    # aggregates, and it leaves every generator where split leaves it.
    n = len(values)
    rngs = [make_rng(i) for i in range(n)]
    references = [make_rng(i) for i in range(n)]
    rows = [sharing.split(v, n, modulus, rng)
            for v, rng in zip(values, references)]
    aggregates = [sharing.reconstruct(col, modulus, n) for col in zip(*rows)]
    assert (_share_round(values, rngs, modulus)
            == sharing.reconstruct(aggregates, modulus, n))
    assert ([rng.getstate() for rng in rngs]
            == [rng.getstate() for rng in references])


def _assert_total_matches_split_for(n, modulus):
    pick = random.Random(n)
    for values in ([0] * n, [modulus - 1] * n,
                   [pick.randrange(modulus) for _ in range(n)]):
        _assert_total_matches_split(
            values, lambda i: random.Random(f"{n}/{i}"), modulus)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 100, 101, 400])
def test_ring_aggregates_equal_split_and_reconstruct(n):
    _assert_total_matches_split_for(n, RING)


@pytest.mark.parametrize("modulus,n", [
    *[(m, n) for m in MODULI for n in (2, 3, 4, 5, 100, 101)],
    (886387, 400)], ids=_name)
def test_share_aggregates_equal_split_and_reconstruct(modulus, n):
    # The ring case is test_ring_aggregates_equal_split_and_reconstruct.
    _assert_total_matches_split_for(n, modulus)


class SaturatedRng:
    """Every getrandbits bit is set, so each drawn ring share is 2**32 - 1."""

    def getrandbits(self, k):
        return (1 << k) - 1

    def getstate(self):
        return ()


def test_ring_aggregates_saturated_draws():
    # Every drawn share is 2**32 - 1, the largest the ring allows.
    n = 400
    _assert_total_matches_split([RING - 1] * n, lambda i: SaturatedRng())


class ForcedWordRng:
    """A seeded generator whose first getrandbits result has word `index`
    (of `width` bits) replaced by `word`; it records every result."""

    def __init__(self, seed, width, index, word):
        self.inner = random.Random(seed)
        self.width, self.index, self.word = width, index, word
        self.draws = []

    def getrandbits(self, k):
        x = self.inner.getrandbits(k)
        if not self.draws:
            shift = self.width * self.index
            x &= ~(((1 << self.width) - 1) << shift)
            x |= self.word << shift
        self.draws.append(x)
        return x

    def getstate(self):
        return self.inner.getstate(), len(self.draws)


def _words(x, width, k):
    return [(x >> (width * j)) & ((1 << width) - 1) for j in range(k)]


@pytest.mark.parametrize("modulus", [3, 101, 886387, (1 << 32) - 5, P40,
                                     ODD256], ids=_name)
@pytest.mark.parametrize("n", [2, 5, 101])
def test_draw_with_a_word_at_the_limit_is_redrawn(modulus, n):
    # L = 2**w - (2**w mod m) is the smallest rejected word: a draw holding
    # it is redrawn whole, and a draw whose largest word is L - 1 is kept.
    w = WIDTH.get(modulus, 64)
    limit = (1 << w) - pow(2, w, modulus)
    for word, n_draws in ((limit, 2), ((1 << w) - 1, 2), (limit - 1, 1)):
        rng = ForcedWordRng(f"{modulus}/{n}", w, (n - 1) // 2, word)
        shares = sharing.split(7, n, modulus, rng)
        assert len(rng.draws) == n_draws
        assert shares[:-1] == [v % modulus
                               for v in _words(rng.draws[-1], w, n - 1)]
        assert sum(shares) % modulus == 7 % modulus
        _assert_total_matches_split(
            list(range(n)),
            lambda i: ForcedWordRng(f"{i}", w, i % (n - 1), word), modulus)


@pytest.mark.parametrize("n", [0, 1])
def test_ring_aggregates_rejects_fewer_than_two_parties(n):
    for modulus in (RING, 886387):
        with pytest.raises(InvalidPartyCountError):
            sharing.draw_shares([random.Random(0)] * n, modulus)


@pytest.mark.parametrize("modulus", [1, 0, -7])
def test_modulus_below_two_is_rejected_before_any_draw(modulus):
    rngs = [random.Random(i) for i in range(3)]
    with pytest.raises(InvalidParametersError):
        sharing.split(1, 3, modulus, rngs[0])
    with pytest.raises(InvalidParametersError):
        sharing.draw_shares(rngs, modulus)
    # Not a sum mod 0 (ZeroDivisionError) or a negative one mod -7.
    with pytest.raises(InvalidParametersError):
        sharing.reconstruct([1, 2], modulus)
    assert ([rng.getstate() for rng in rngs]
            == [random.Random(i).getstate() for i in range(3)])


def test_ring_round_decodes_signed_aggregate():
    codec = sharing.FixedPointCodec(RING, 10_000)
    total = _share_round([codec.encode(-3.5), codec.encode(1.25)],
                         [random.Random(f"8/{i}") for i in range(2)])
    assert codec.decode(total) == -2.25


def _negotiation_rounds(tas, secure, varsigma=1, signed_trade=None):
    """Run a worst-case negotiation of `tas` over the ring at scale 10^4
    and return each round's (float trades read from the states at the
    yield, decoded total); `signed_trade`, if given, replaces each
    round's step by every agent's trade of its state, fixed-point by the
    per-value reference encoding, and leaves the states alone."""
    seen = []
    clearing_rounds = market.clearing_rounds

    def recorded(states, *args, **kwargs):
        for k, gamma, total, status in clearing_rounds(states, *args,
                                                       **kwargs):
            seen.append(([market.signed_trade(st) for st in states], total))
            yield k, gamma, total, status

    def fixed_trades(agents, gamma, zeta, codec):
        half = codec.modulus // 2
        return [v - codec.modulus if v > half else v
                for v in (reference_slot.encode(signed_trade(st), codec.scale,
                                                codec.modulus)
                          for st, *_ in agents)]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(market, "clearing_rounds", recorded)
        if signed_trade is not None:
            mp.setattr(market, "agent_step", fixed_trades)
        protocol.run_negotiation(
            tas, market.MarketConfig(varsigma=varsigma),
            sharing.FixedPointCodec(RING, 10_000), Transcript(),
            secure=secure, worst_case=True)
    return seen


def _fixed_trade_totals(kwh, n, secure):
    # One round in which each of n agents trades `kwh`, whatever its step.
    role = market.SELLER if kwh >= 0 else market.BUYER
    tas = [protocol.TAgent(market.TAProfile(i, role, kwh, 0.0, 3.0, 30.0,
                                            0.1), random.Random(i))
           for i in range(n)]
    return [total for _, total in _negotiation_rounds(
        tas, secure, signed_trade=lambda st: st.profile.E_n_tot)]


def test_ring_round_headroom():
    # 800 agents at the 500 kWh extreme sum to 400 000 kWh, past the
    # +-214 748 kWh that Z_2^32 holds at scale 10^4: the total would wrap,
    # so negotiation raises in both modes instead of pricing on it.
    for secure in (True, False):
        for kwh in (500.0, -500.0):
            with pytest.raises(EncodingRangeError, match="wraps"):
                _fixed_trade_totals(kwh, 800, secure)


def test_ring_round_largest_inside_total_decodes_exactly():
    # 800 trades of +-268.435 kWh total +-214 748 kWh, the codec's
    # max_magnitude over the ring: the largest total it promises.
    limit = sharing.FixedPointCodec(RING, 10_000).max_magnitude
    assert limit == 214_748
    for secure in (True, False):
        for sign in (1, -1):
            assert (_fixed_trade_totals(sign * 268.435, 800, secure)
                    == [sign * limit])


def test_ring_round_total_at_exactly_half_the_ring():
    # Two trades of 2**30 at scale 10^4 total 2**31, half the ring. The
    # operator reads it centred, as `decode` does: +2**31 is the largest
    # total it decodes, and -2**31 reads as +2**31, so it wraps.
    kwh = 2**30 / 10_000
    for secure in (True, False):
        assert _fixed_trade_totals(kwh, 2, secure) == [214_748.3648]
        with pytest.raises(EncodingRangeError, match="wraps"):
            _fixed_trade_totals(-kwh, 2, secure)


def test_plain_worst_case_negotiation_at_n800_stays_inside_the_ring():
    # Every round total is the quantised integer sum of its trades, and
    # the largest |total|, 869.5 kWh, stays far inside the ring's
    # +-214 748 kWh.
    profiles = market.sample_profiles(800, market.random_source(1,
                                                                "profiles"))
    tas = [protocol.TAgent(p, random.Random(p.index)) for p in profiles]
    rounds = _negotiation_rounds(tas, secure=False, varsigma=100)
    assert len(rounds) == 100
    wide = sharing.FixedPointCodec(1 << 64, 10_000)
    for trades, total in rounds:
        quantised = sum(round(wide.decode(wide.encode(t)) * 10_000)
                        for t in trades)
        assert total == quantised / 10_000
    assert 100 < max(abs(total) for _, total in rounds) < 1000


def test_ring_share_top_byte_uniform_chi_square():
    scipy_stats = pytest.importorskip("scipy.stats")
    trials, bins = 25_600, 256
    rng = random.Random(10)
    for position in (0, -1):      # a drawn share and the completing one
        tally = [0] * bins
        for _ in range(trials):
            tally[sharing.split(42, 3, RING, rng)[position] >> 24] += 1
        expected = trials / bins
        stat = sum((c - expected) ** 2 / expected for c in tally)
        assert scipy_stats.chi2.sf(stat, bins - 1) > 0.01


def test_split_zero_secret():
    shares = sharing.split(0, 5, 101, random.Random(1))
    assert sum(shares) % 101 == 0


def test_split_rejects_single_party():
    with pytest.raises(InvalidPartyCountError):
        sharing.split(1, 1, 101, random.Random(0))


def test_reconstruct_hand_value():
    assert sharing.reconstruct([10, 20, 12], 101) == 42


def test_reconstruct_requires_all_shares():
    with pytest.raises(IncompleteSharesError):
        sharing.reconstruct([1, 2], 101, n_parties=3)
    with pytest.raises(IncompleteSharesError):
        sharing.reconstruct([], 101)


def test_split_reconstruct_round_trip():
    rng = random.Random(2)
    p = (1 << 20) + 7
    codec = sharing.FixedPointCodec(p, 10_000)
    for _ in range(1000):
        x = rng.uniform(-50, 50)
        enc = codec.encode(x)
        n = rng.randrange(2, 12)
        back = sharing.reconstruct(sharing.split(enc, n, p, rng), p, n)
        assert back == enc
        assert codec.decode(back) == codec.decode(enc)


@pytest.mark.parametrize("p", [3, 101, 1 << 19, 833821, 886387,
                               (1 << 20) + 7, (1 << 31) + 1, (1 << 32) - 5,
                               P40, ODD256], ids=_name)
def test_split_over_p_is_the_word_stream(p):
    # The n - 1 random shares are the w-bit words of one getrandbits draw,
    # each reduced mod p, and the generator ends after that one draw (no
    # word of these seeds reaches the rejection limit).
    w = WIDTH.get(p, 64)
    for n in (2, 3, 17, 100, 400):
        for seed in range(5):
            rng, reference = random.Random(seed), random.Random(seed)
            shares = sharing.split(seed % p, n, p, rng)
            words = _words(reference.getrandbits(w * (n - 1)), w, n - 1)
            assert shares[:-1] == [v % p for v in words]
            assert rng.getstate() == reference.getstate()
            assert sum(shares) % p == seed % p


def test_signed_round_trip_toy():
    codec = sharing.FixedPointCodec(101, 1)
    shares = sharing.split(codec.encode(-5), 3, 101, random.Random(3))
    assert sharing.reconstruct(shares, 101) == 96
    assert codec.decode(96) == -5


def test_two_layer_aggregation_hand_case():
    # Secrets 3 = 1 + 2 and 4 = 3 + 1 over p = 101.
    rows = [sharing.split(3, 2, 101, SequenceRng([1])),
            sharing.split(4, 2, 101, SequenceRng([3]))]
    assert rows == [[1, 2], [3, 1]]
    agg1 = sharing.reconstruct([rows[0][0], rows[1][0]], 101, 2)
    agg2 = sharing.reconstruct([rows[0][1], rows[1][1]], 101, 2)
    assert (agg1, agg2) == (4, 3)
    assert (agg1 + agg2) % 101 == 7


@pytest.mark.parametrize("n", [2, 3, 10, 100])
def test_two_layer_aggregation_equals_plain_sum(n):
    rng = random.Random(n)
    p = (1 << 20) + 7
    secrets = [rng.randrange(p) for _ in range(n)]
    rows = [sharing.split(s, n, p, rng) for s in secrets]
    aggregates = [sharing.reconstruct(list(col), p, n)
                  for col in zip(*rows)]
    assert sum(aggregates) % p == sum(secrets) % p


def test_balanced_market_cancellation():
    p = (1 << 20) + 7
    codec = sharing.FixedPointCodec(p, 10_000)
    rng = random.Random(4)
    rows = [sharing.split(codec.encode(2.0), 2, p, rng),
            sharing.split(codec.encode(-2.0), 2, p, rng)]
    total = sum(sum(col) % p for col in zip(*rows)) % p
    assert codec.decode(total) == 0.0


def test_single_share_indistinguishable_chi_square():
    scipy_stats = pytest.importorskip("scipy.stats")
    p, trials = 11, 100_000
    rng = random.Random(5)
    counts = {42: [0] * p, 43: [0] * p}
    for secret, tally in counts.items():
        for _ in range(trials):
            tally[sharing.split(secret, 3, p, rng)[0]] += 1
    expected = trials / p
    for tally in counts.values():
        stat = sum((c - expected) ** 2 / expected for c in tally)
        assert scipy_stats.chi2.sf(stat, p - 1) > 0.01
    # The two secrets' first-share distributions also match each other.
    stat = sum((a - b) ** 2 / (a + b)
               for a, b in zip(counts[42], counts[43]) if a + b)
    assert scipy_stats.chi2.sf(stat, p - 1) > 0.01


def test_partial_shares_exhaustively_uniform():
    # At p=11, N=3: for any secret, every (share1, share2) pair occurs
    # exactly once, so any 2 shares reveal nothing.
    p = 11
    for secret in (0, 5):
        seen = set()
        for s1 in range(p):
            for s2 in range(p):
                s3 = (secret - s1 - s2) % p
                assert (s1 + s2 + s3) % p == secret
                seen.add((s1, s2))
        assert len(seen) == p * p
