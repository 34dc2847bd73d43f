import collections
import itertools
import math
import random
from fractions import Fraction

import pytest

from gridshare import harness, market, pedersen, protocol, sharing
from gridshare.errors import (
    EncodingRangeError,
    InvalidParametersError,
    LifecycleError,
)
from gridshare.transport import (SCALAR_BITS, SHARE_TRANSFER, TO_ID,
                                 Transcript)
from tests.conftest import SequenceRng

SCALE = 1000
SIGMA = harness.ScenarioConfig().sigma_policy()


def _slot_codec(key):
    return sharing.FixedPointCodec(key.p, SCALE)


def _make_tas(forecasts, seed=0):
    """Agents with fixed signed trades, bypassing negotiation."""
    tas = []
    for i, f in enumerate(forecasts):
        role = market.SELLER if f >= 0 else market.BUYER
        profile = market.TAProfile(i, role, f, 0.0, 3.0, 30.0, 0.1)
        ta = protocol.TAgent(profile, market.random_source(seed, f"ta{i}"))
        ta.state.E = abs(f)
        tas.append(ta)
    return tas


def _committed_slot(full_key, forecasts, seed=0):
    """Run commitment + check for fixed forecasts; returns ready state,
    with the accepted (ck, commitments, e_total) that `run_online` takes."""
    codec = _slot_codec(full_key)
    transcript = Transcript()
    tas = _make_tas(forecasts, seed)
    protocol.store_forecasts(tas, codec, transcript)
    commitments, e_tot, r_tot = protocol.run_commitment(tas, full_key,
                                                        transcript)
    result = protocol.run_commitment_check(full_key, commitments, e_tot,
                                           r_tot, transcript)
    assert result == "accept"
    protocol.honest_actuals(tas, codec)
    return tas, (full_key, commitments, e_tot), codec, transcript


def test_store_forecasts_projects_onto_feasible_range():
    # A 20-bit field holds at most 26 kWh at scale 10^4; a negotiated
    # trade above the agent's |E_n_tot| is stored at that bound.
    codec = sharing.FixedPointCodec((1 << 19) + 1, 10_000)
    tas = _make_tas([20.0, -20.0, 10.0])
    tas[0].state.E = tas[1].state.E = 29.0
    tas[2].state.E = 4.0
    protocol.store_forecasts(tas, codec, Transcript())
    assert [codec.decode(ta.E_n) for ta in tas] == [20.0, -20.0, 4.0]


def test_honest_end_to_end_accepts_and_stays_quiet(full_key):
    tas, accepted, codec, transcript = _committed_slot(full_key,
                                                       [5.0, -3.0, -2.0])
    report = protocol.run_online(tas, *accepted, codec, transcript,
                                 beta=0.1, sigma_policy=SIGMA)
    assert not report.triggered
    assert report.t_m_list == set() and report.t_f_list == set()
    assert report.e_total == pytest.approx(0.0)


def test_corrupted_commitment_rejected(full_key):
    codec = _slot_codec(full_key)
    transcript = Transcript()
    tas = _make_tas([4.0, -4.0])
    protocol.store_forecasts(tas, codec, transcript)
    commitments, e_tot, r_tot = protocol.run_commitment(tas, full_key,
                                                        transcript)
    corrupted = [pedersen.commit(full_key, tas[0].E_n + 1, tas[0].r_n),
                 commitments[1]]
    assert protocol.run_commitment_check(full_key, corrupted, e_tot, r_tot,
                                         transcript) == "reject"
    # The operator stores nothing on a reject.
    assert transcript.storage_bits["commitment_check"][TO_ID] == 0


def test_actual_deviation_lands_in_t_m(full_key):
    # A 5.0 kWh forecast metered at 5.5 kWh against sigma = 0.25.
    tas, accepted, codec, transcript = _committed_slot(full_key, [5.0, -5.0])
    tas[0].e_actual = 5.5
    report = protocol.run_online(tas, *accepted, codec, transcript,
                                 beta=0.4, sigma_policy=lambda _f: 0.25)
    assert report.triggered
    assert report.t_m_list == {0}
    assert report.t_f_list == set()


def test_out_of_range_actual_lands_in_t_m(full_key):
    # A reading past the field's range is metered at the bound: the slot
    # runs on and the agent is flagged, in both modes.
    tas, accepted, codec, transcript = _committed_slot(full_key, [5.0, -5.0])
    tas[0].e_actual = codec.max_magnitude + 100.0
    report = protocol.run_online(tas, *accepted, codec, transcript,
                                 beta=0.1, sigma_policy=lambda _f: 0.25,
                                 force_reveal=True)
    assert report.t_m_list == {0}
    assert report.t_f_list == set()
    plain = protocol.run_online_plain(tas, codec, Transcript(),
                                      sigma_policy=lambda _f: 0.25)
    assert plain.t_m_list == {0}


def test_deviation_is_measured_on_decoded_kwh(full_key):
    # A forecast of +bound metered at -bound differs by almost the whole
    # field; mod p that wraps to a difference under 2 kWh.
    codec = _slot_codec(full_key)
    bound = codec.max_magnitude
    tas = _make_tas([bound, -bound])
    protocol.store_forecasts(tas, codec, Transcript())
    tas[0].e_actual = -bound
    tas[1].e_actual = -bound
    report = protocol.run_online_plain(tas, codec, Transcript(),
                                       sigma_policy=lambda _f: 2.0)
    assert report.t_m_list == {0}


def test_forecast_reveal_perturbation_lands_in_t_f(full_key):
    tas, accepted, codec, transcript = _committed_slot(full_key, [5.0, -5.0])
    tas[1].reveal_E = (tas[1].E_n + 7) % full_key.p
    report = protocol.run_online(tas, *accepted, codec, transcript,
                                 beta=0.1, sigma_policy=SIGMA,
                                 force_reveal=True)
    assert report.t_f_list == {1}
    assert report.t_m_list == set()


def test_forecast_reveal_beyond_the_field_is_projected_and_flagged():
    # At the default key's p = 886387 the field holds +-44.3 kWh; agents
    # 24 and 40 scaled by 1.5 reveal 48.4 kWh, which a bare encode
    # rejected, aborting the slot instead of flagging them.
    scenario = protocol.AdversaryScenario((24, 40), protocol.FORECAST_FIELD,
                                          1.5, 1.5)
    report = harness.run_scenario(harness.ScenarioConfig(
        adversary=(scenario,), force_reveal=True))
    assert report.ck.p == 886387
    assert report.detection.t_f_list == {24, 40}
    assert report.detection.t_m_list == set()


def test_randomness_reveal_perturbation_lands_in_t_f(full_key):
    tas, accepted, codec, transcript = _committed_slot(full_key, [5.0, -5.0])
    tas[0].reveal_r = (tas[0].r_n + 1) % full_key.p
    report = protocol.run_online(tas, *accepted, codec, transcript,
                                 beta=0.1, sigma_policy=SIGMA,
                                 force_reveal=True)
    assert report.t_f_list == {0}


def test_reveal_refusal_lands_in_t_f(full_key):
    tas, accepted, codec, transcript = _committed_slot(full_key, [5.0, -5.0])
    tas[1].refuse_reveal = True
    report = protocol.run_online(tas, *accepted, codec, transcript,
                                 beta=0.1, sigma_policy=SIGMA,
                                 force_reveal=True)
    assert report.t_f_list == {1}


def test_lists_are_exclusive_under_mixed_adversary(full_key):
    tas, accepted, codec, transcript = _committed_slot(
        full_key, [6.0, 5.0, -4.0, -7.0])
    rng = random.Random(0)
    scenarios = (
        protocol.AdversaryScenario((0,), protocol.E_FIELD),
        protocol.AdversaryScenario((1,), protocol.FORECAST_FIELD),
        protocol.AdversaryScenario((2,), protocol.RANDOMNESS_FIELD),
    )
    effective = protocol.apply_adversary(scenarios, tas, codec, rng)
    assert effective == {0: protocol.E_FIELD, 1: protocol.FORECAST_FIELD,
                         2: protocol.RANDOMNESS_FIELD}
    report = protocol.run_online(tas, *accepted, codec, transcript,
                                 beta=0.01,
                                 sigma_policy=lambda f: 0.02 * abs(f))
    assert report.t_m_list == {0}
    assert report.t_f_list == {1, 2}
    assert not (report.t_m_list & report.t_f_list)
    assert 3 not in report.t_m_list | report.t_f_list


def test_zero_perturbation_is_a_no_op(full_key):
    tas, accepted, codec, transcript = _committed_slot(full_key, [5.0, -5.0])
    scenario = protocol.AdversaryScenario((0,), protocol.E_FIELD,
                                          perturb_lo=0.0, perturb_hi=0.0)
    effective = protocol.apply_adversary((scenario,), tas, codec,
                                         random.Random(0))
    assert effective == {}
    report = protocol.run_online(tas, *accepted, codec, transcript,
                                 beta=0.1, sigma_policy=SIGMA)
    assert not report.triggered


def test_perturbing_a_zero_value_is_ineffective(full_key):
    tas, accepted, codec, transcript = _committed_slot(full_key, [0.0, -0.0])
    scenario = protocol.AdversaryScenario((0, 1), protocol.E_FIELD,
                                          perturb_lo=0.5, perturb_hi=0.5)
    effective = protocol.apply_adversary((scenario,), tas, codec,
                                         random.Random(0))
    assert effective == {}


@pytest.mark.parametrize("modulus,honest,lo,hi", [
    (886387, 3, 0.5, 0.5),          # 3 * 1.5 = 4.5 rounds up to 5
    (3 ** 161, 3 ** 160 + 12345, 0.05, 0.10),
    ((1 << 1030) + 1, (1 << 1029) + 12345, 0.05, 0.10)])
def test_randomness_perturbation_is_exact_in_any_field(modulus, honest, lo,
                                                        hi):
    # r_n * factor is rounded half up in exact rationals. In floats a
    # 1030-bit r_n raised OverflowError, and a 256-bit one came back with
    # its low 16 bits all 0.
    codec = sharing.FixedPointCodec(modulus, 10_000)
    tas = _make_tas([5.0])
    tas[0].r_n = honest
    scenario = protocol.AdversaryScenario((0,), protocol.RANDOMNESS_FIELD,
                                          lo, hi)
    factor = 1.0 + random.Random(0).uniform(lo, hi)
    effective = protocol.apply_adversary((scenario,), tas, codec,
                                         random.Random(0))
    assert effective == {0: protocol.RANDOMNESS_FIELD}
    assert tas[0].reveal_r == (math.floor(honest * Fraction(factor)
                                          + Fraction(1, 2)) % modulus)
    assert tas[0].reveal_r & 0xFFFF


def test_randomness_perturbation_rounds_as_exact_rationals():
    # The integer rounding of r_n * factor equals rounding half up in
    # Fractions, byte for byte, on seeded r_n and factors at every width
    # up to bits_p = 256. Every fourth case is an exact tie, r_n odd at
    # factor 1.5.
    rng = random.Random(33)
    for bits_p in (8, 20, 32, 64, 256):
        modulus = rng.getrandbits(bits_p) | (1 << (bits_p - 1)) | 1
        codec = sharing.FixedPointCodec(modulus, 10_000)
        for case in range(200):
            if case % 4 == 0:
                honest, lo, hi = rng.randrange(modulus // 2) * 2 + 1, 0.5, 0.5
            else:
                honest, lo = rng.randrange(modulus), rng.uniform(0, 0.5)
                hi = lo + rng.uniform(0, 0.5)
            seed = rng.getrandbits(32)
            tas = _make_tas([5.0])
            tas[0].r_n = honest
            protocol.apply_adversary(
                (protocol.AdversaryScenario((0,), protocol.RANDOMNESS_FIELD,
                                            lo, hi),),
                tas, codec, random.Random(seed))
            factor = 1.0 + random.Random(seed).uniform(lo, hi)
            assert tas[0].reveal_r == (math.floor(
                honest * Fraction(factor) + Fraction(1, 2)) % modulus), (
                bits_p, honest, factor)


def test_lifecycle_errors(full_key):
    codec = _slot_codec(full_key)
    transcript = Transcript()
    tas = _make_tas([1.0, -1.0])
    with pytest.raises(LifecycleError):
        protocol.run_commitment(tas, full_key, transcript)
    with pytest.raises(LifecycleError):
        protocol.run_commitment_plain(tas, codec, transcript)


def test_run_keygen_accepts_only_fast_mode():
    with pytest.raises(InvalidParametersError):
        protocol.run_keygen(12, 12, random.Random(0), Transcript(),
                            mode="lazy")


def test_negotiation_secure_equals_plain(full_key):
    config = market.MarketConfig(varsigma=50)
    codec = sharing.FixedPointCodec(sharing.NEGOTIATION_MODULUS, 10_000)
    profiles = market.sample_profiles(10, random.Random(1))
    results = []
    for secure in (True, False):
        tas = [protocol.TAgent(p, market.random_source(2, f"ta{p.index}"))
               for p in profiles]
        results.append(protocol.run_negotiation(tas, config, codec,
                                                Transcript(), secure=secure))
    assert results[0] == results[1]
    reference = market.central_clearing(profiles, config, quantize=codec)
    assert results[0][0] == reference.gamma
    assert results[0][1] == reference.iterations


@pytest.mark.parametrize("secure", [True, False])
def test_negotiation_rejects_a_trade_the_codec_cannot_hold(secure):
    # At zeta = 1, with zero duals, a seller's first trade is its drift
    # (psi - gamma)/chi: 300 000 kWh, past the ring's +-214 748 kWh at
    # scale 10^4, and then +inf. The step raises before any round total.
    codec = sharing.FixedPointCodec(sharing.NEGOTIATION_MODULUS, 10_000)
    buyer = market.TAProfile(1, market.BUYER, -10.0, 0.0, 0.0, 30.0, 0.1)
    for psi, chi in ((300_010.0, 1.0), (1e308, 1e-10)):
        seller = market.TAProfile(0, market.SELLER, 10.0, 0.0, 0.0, psi, chi)
        tas = [protocol.TAgent(p, random.Random(p.index))
               for p in (seller, buyer)]
        with pytest.raises(EncodingRangeError, match="exceeds|encode"):
            protocol.run_negotiation(tas, market.MarketConfig(zeta=1.0),
                                     codec, Transcript(), secure=secure)


def test_negotiation_makes_no_encoding_pass(monkeypatch):
    # A round is one `agent_step` pass that returns fixed-point trades:
    # negotiation calls neither `encode_all` nor `encode`, which calls it.
    calls = []
    encode_all = sharing.FixedPointCodec.encode_all

    def counted(codec, xs):
        calls.append(codec)
        return encode_all(codec, xs)
    monkeypatch.setattr(sharing.FixedPointCodec, "encode_all", counted)
    codec = sharing.FixedPointCodec(sharing.NEGOTIATION_MODULUS, 10_000)
    profiles = market.sample_profiles(10, random.Random(1))
    for secure in (True, False):
        tas = [protocol.TAgent(p, market.random_source(2, f"ta{p.index}"))
               for p in profiles]
        _, k, _ = protocol.run_negotiation(
            tas, market.MarketConfig(varsigma=20), codec, Transcript(),
            secure=secure, worst_case=True)
        assert k == 20
    assert calls == []
    codec.encode(1.0)
    assert calls == [codec]


class CountingRng:
    """Delegates to a generator and counts the random bits asked of it."""

    def __init__(self, inner):
        self.inner, self.bits = inner, 0

    def getrandbits(self, k):
        self.bits += k
        return self.inner.getrandbits(k)


class KindTranscript(Transcript):
    """A transcript that also counts each sender's bits per message kind;
    each member of a tuple sender (`send_each`) is credited its share."""

    def __init__(self):
        super().__init__()
        self.kind_bits = collections.Counter()

    def send(self, phase, kind, sender, receiver, bits):
        super().send(phase, kind, sender, receiver, bits)
        senders = sender if type(sender) is tuple else (sender,)
        for member in senders:
            self.kind_bits[(member, kind)] += bits / len(senders)


def test_negotiation_draws_the_share_bits_it_sends():
    # Each agent draws exactly the bits of the shares the wire model
    # counts it sending: SCALAR_BITS per share, N-1 shares per round.
    n, rounds = 10, 7
    codec = sharing.FixedPointCodec(sharing.NEGOTIATION_MODULUS, 10_000)
    tas = [protocol.TAgent(p, CountingRng(random.Random(p.index)))
           for p in market.sample_profiles(n, random.Random(4))]
    transcript = KindTranscript()
    protocol.run_negotiation(tas, market.MarketConfig(varsigma=rounds),
                             codec, transcript, worst_case=True)
    for ta in tas:
        assert (ta.rng.bits
                == transcript.kind_bits[(ta.id, SHARE_TRANSFER)]
                == SCALAR_BITS * (n - 1) * rounds)


def test_worst_case_negotiation_runs_full_cap(full_key):
    config = market.MarketConfig(varsigma=7)
    codec = sharing.FixedPointCodec(sharing.NEGOTIATION_MODULUS, 10_000)
    tas = _make_tas([0.0, -0.0])
    _, k, status = protocol.run_negotiation(tas, config, codec,
                                            Transcript(), worst_case=True)
    assert (k, status) == (7, market.ITERATION_CAP)


def test_share_view_reveals_nothing_about_secret():
    # Exhaustive at p=11, N=2: whatever the secret, the share sent to
    # the peer takes every field value as the kept share varies.
    p = 11
    for secret in range(p):
        sent = {(secret - kept) % p for kept in range(p)}
        assert sent == set(range(p))


def _operator_share_round_view(inputs, m):
    """How often the operator sees each tuple of per-peer aggregates in
    one share round mod `m`, over every word vector `sharing.split` can
    draw for each agent; agent i's share j goes to agent j."""
    n = len(inputs)
    words = list(itertools.product(range(m), repeat=n - 1))
    view = collections.Counter({(0,) * n: 1})
    for secret in inputs:
        rows = [sharing.split(secret, n, m, SequenceRng(w)) for w in words]
        step = collections.Counter()
        for aggregates, count in view.items():
            for row in rows:
                key = tuple((a + s) % m for a, s in zip(aggregates, row))
                step[key] += count
        view = step
    return view


def test_operator_view_of_a_share_round_depends_only_on_the_sum():
    # Exact enumeration at m = 7, N = 3: each agent's two 64-bit words take
    # each of the 49 pairs of values below 7, so all 7**6 draws of the
    # round are counted, and the view is uniform over the 49 triples that
    # sum to 6. Enumeration idealises the generator as uniform, so it
    # cannot see that peers who collect enough of an agent's MT19937
    # outputs can clone it and predict its later shares.
    m = 7
    view = _operator_share_round_view((1, 2, 3), m)
    assert view == _operator_share_round_view((3, 2, 1), m)
    assert view == {t: 2401 for t in itertools.product(range(m), repeat=3)
                    if sum(t) % m == 6}
    assert _operator_share_round_view((0, 0, 0), m) != view


def test_operator_view_depends_only_on_totals(full_key):
    # Swapping two agents' forecasts changes nothing the operator sees
    # beyond per-share randomness: totals and check outcome agree.
    results = []
    for forecasts in ([5.0, -2.0, -3.0], [-2.0, 5.0, -3.0]):
        codec = _slot_codec(full_key)
        transcript = Transcript()
        tas = _make_tas(forecasts, seed=3)
        protocol.store_forecasts(tas, codec, transcript)
        _, e_tot, _ = protocol.run_commitment(tas, full_key, transcript)
        results.append(e_tot)
    assert results[0] == results[1]


def test_public_price_gives_one_agent_its_peers_trade_at_n2(monkeypatch):
    # gamma_k = max(0, gamma_{k-1} + zeta * sum_E): while the new price
    # stays above 0, anyone who hears two consecutive price broadcasts
    # reads the round's quantised sum, shares or not. At N=2 one agent
    # subtracts its own quantised trade and has its peer's.
    config = harness.ScenarioConfig(n_tas=2, worst_case=True)
    market_config = config.market_config()
    codec = sharing.FixedPointCodec(sharing.NEGOTIATION_MODULUS, config.scale)
    clearing_rounds, rounds = market.clearing_rounds, []

    def recording(states, *args, **kwargs):
        for k, gamma, total, status in clearing_rounds(states, *args,
                                                       **kwargs):
            rounds.append((gamma, [codec.encode(market.signed_trade(st))
                                   for st in states]))
            yield k, gamma, total, status
    monkeypatch.setattr(market, "clearing_rounds", recording)
    protocol.run_negotiation(harness.build_agents(config), market_config,
                             codec, Transcript(), worst_case=True)

    def centred(v):
        return v - codec.modulus if v > codec.modulus // 2 else v
    gamma, read = market_config.gamma_init, 0
    for gamma_new, (own, peer) in rounds:
        if gamma_new > 0:
            heard = round((gamma_new - gamma) / market_config.zeta
                          * config.scale)
            assert heard - centred(own) == centred(peer)
            read += 1
        gamma = gamma_new
    # At these seeds the price stays above 0 throughout, so every round
    # gives the peer's trade away.
    assert read == len(rounds) == config.varsigma


def _untemper(y):
    """The MT19937 state word whose tempered output is y."""
    y ^= y >> 18
    y ^= (y << 15) & 0xEFC60000
    x = y
    for _ in range(4):          # each pass fixes 7 more low bits
        x = y ^ ((x << 7) & 0x9D2C5680)
    y = x ^ (x >> 11)
    return y ^ (y >> 22)


def _temper(x):
    x ^= x >> 11
    x ^= (x << 7) & 0x9D2C5680
    x ^= (x << 15) & 0xEFC60000
    return x ^ (x >> 18)


def test_twenty_peer_slots_clone_an_agents_generator(full_key, monkeypatch):
    # MT19937 is linear and its tempering inverts: output t's state word
    # follows from those of outputs t-624, t-623 and t-227. Over the ring
    # an agent's N-1 shares of a round are consecutive 32-bit outputs, so
    # peers that hold shares 0-19 of agent ta7's 100 worst-case rounds at
    # N = 100 clone its generator and predict the r_n it commits with.
    # With a cryptographic generator this prediction must fail.
    build_agents, tas, draws = harness.build_agents, [], []

    def recording_build(config):
        tas.extend(build_agents(config))
        rng = tas[7].rng
        getrandbits = rng.getrandbits

        def recorded(k):
            draws.append((k, getrandbits(k)))
            return draws[-1][1]
        rng.getrandbits = recorded
        return tas
    monkeypatch.setattr(harness, "build_agents", recording_build)
    config = harness.ScenarioConfig(n_tas=100, worst_case=True)
    harness.run_scenario(config, ck=full_key)

    words = config.n_tas - 1                  # outputs per round
    assert [k for k, _ in draws[:100]] == [32 * words] * 100
    state = {}                                # output index -> state word
    for r, (_, x) in enumerate(draws[:100]):
        for j in range(20):
            state[words * r + j] = _untemper(x >> (32 * j) & 0xFFFFFFFF)
    for t in range(624, 100 * words + 64):
        if t not in state and all(u in state
                                  for u in (t - 624, t - 623, t - 227)):
            y = (state[t - 624] & 0x80000000) | (state[t - 623]
                                                 & 0x7FFFFFFF)
            state[t] = (state[t - 227] ^ (y >> 1)
                        ^ (0x9908B0DF if y & 1 else 0))
    # The clone knows every word of the last round,
    assert [_temper(state[99 * words + j]) for j in range(words)] == [
        draws[99][1] >> (32 * j) & 0xFFFFFFFF for j in range(words)]
    # and r_n = randrange(p): the top bits of the next outputs, the first
    # below p.
    k, t = full_key.p.bit_length(), 100 * words
    while (r_n := _temper(state[t]) >> (32 - k)) >= full_key.p:
        t += 1
    assert r_n == tas[7].r_n
