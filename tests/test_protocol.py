import random

import pytest

from gridshare import harness, market, pedersen, protocol, sharing
from gridshare.errors import InvalidParametersError, LifecycleError
from gridshare.transport import Transcript

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
    """Run commitment + check for fixed forecasts; returns ready state."""
    codec = _slot_codec(full_key)
    transcript = Transcript()
    tas = _make_tas(forecasts, seed)
    protocol.store_forecasts(tas, codec, transcript)
    to = protocol.Operator(ck=full_key)
    commitments, e_tot, r_tot = protocol.run_commitment(tas, to, codec,
                                                        transcript)
    result = protocol.run_commitment_check(to, commitments, e_tot, r_tot,
                                           transcript)
    assert result == "accept"
    protocol.honest_actuals(tas, codec)
    return tas, to, codec, transcript


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
    tas, to, codec, transcript = _committed_slot(full_key, [5.0, -3.0, -2.0])
    report = protocol.run_online(tas, to, codec, transcript, beta=0.1,
                                 sigma_policy=SIGMA)
    assert not report.triggered
    assert report.t_m_list == set() and report.t_f_list == set()
    assert report.e_total == pytest.approx(0.0)


def test_corrupted_commitment_rejected(full_key):
    codec = _slot_codec(full_key)
    transcript = Transcript()
    tas = _make_tas([4.0, -4.0])
    protocol.store_forecasts(tas, codec, transcript)
    to = protocol.Operator(ck=full_key)
    commitments, e_tot, r_tot = protocol.run_commitment(tas, to, codec,
                                                        transcript)
    corrupted = [pedersen.commit(full_key, tas[0].E_n + 1, tas[0].r_n),
                 commitments[1]]
    assert protocol.run_commitment_check(to, corrupted, e_tot, r_tot,
                                         transcript) == "reject"
    assert to.stored_commitments is None


def test_actual_deviation_lands_in_t_m(full_key):
    # A 5.0 kWh forecast metered at 5.5 kWh against sigma = 0.25.
    tas, to, codec, transcript = _committed_slot(full_key, [5.0, -5.0])
    tas[0].e_actual = 5.5
    report = protocol.run_online(tas, to, codec, transcript, beta=0.4,
                                 sigma_policy=lambda _f: 0.25)
    assert report.triggered
    assert report.t_m_list == {0}
    assert report.t_f_list == set()


def test_out_of_range_actual_lands_in_t_m(full_key):
    # A reading past the field's range is metered at the bound: the slot
    # runs on and the agent is flagged, in both modes.
    tas, to, codec, transcript = _committed_slot(full_key, [5.0, -5.0])
    tas[0].e_actual = codec.max_magnitude + 100.0
    report = protocol.run_online(tas, to, codec, transcript, beta=0.1,
                                 sigma_policy=lambda _f: 0.25,
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
    tas, to, codec, transcript = _committed_slot(full_key, [5.0, -5.0])
    tas[1].reveal_E = (tas[1].E_n + 7) % full_key.p
    report = protocol.run_online(tas, to, codec, transcript, beta=0.1,
                                 sigma_policy=SIGMA, force_reveal=True)
    assert report.t_f_list == {1}
    assert report.t_m_list == set()


def test_randomness_reveal_perturbation_lands_in_t_f(full_key):
    tas, to, codec, transcript = _committed_slot(full_key, [5.0, -5.0])
    tas[0].reveal_r = (tas[0].r_n + 1) % full_key.p
    report = protocol.run_online(tas, to, codec, transcript, beta=0.1,
                                 sigma_policy=SIGMA, force_reveal=True)
    assert report.t_f_list == {0}


def test_reveal_refusal_lands_in_t_f(full_key):
    tas, to, codec, transcript = _committed_slot(full_key, [5.0, -5.0])
    tas[1].refuse_reveal = True
    report = protocol.run_online(tas, to, codec, transcript, beta=0.1,
                                 sigma_policy=SIGMA, force_reveal=True)
    assert report.t_f_list == {1}


def test_lists_are_exclusive_under_mixed_adversary(full_key):
    tas, to, codec, transcript = _committed_slot(full_key,
                                                 [6.0, 5.0, -4.0, -7.0])
    rng = random.Random(0)
    scenarios = (
        protocol.AdversaryScenario((0,), protocol.E_FIELD),
        protocol.AdversaryScenario((1,), protocol.FORECAST_FIELD),
        protocol.AdversaryScenario((2,), protocol.RANDOMNESS_FIELD),
    )
    effective = protocol.apply_adversary(scenarios, tas, codec, rng)
    assert effective == {0: protocol.E_FIELD, 1: protocol.FORECAST_FIELD,
                         2: protocol.RANDOMNESS_FIELD}
    report = protocol.run_online(tas, to, codec, transcript, beta=0.01,
                                 sigma_policy=lambda f: 0.02 * abs(f))
    assert report.t_m_list == {0}
    assert report.t_f_list == {1, 2}
    assert not (report.t_m_list & report.t_f_list)
    assert 3 not in report.t_m_list | report.t_f_list


def test_zero_perturbation_is_a_no_op(full_key):
    tas, to, codec, transcript = _committed_slot(full_key, [5.0, -5.0])
    scenario = protocol.AdversaryScenario((0,), protocol.E_FIELD,
                                          perturb_lo=0.0, perturb_hi=0.0)
    effective = protocol.apply_adversary((scenario,), tas, codec,
                                         random.Random(0))
    assert effective == {}
    report = protocol.run_online(tas, to, codec, transcript, beta=0.1,
                                 sigma_policy=SIGMA)
    assert not report.triggered


def test_perturbing_a_zero_value_is_ineffective(full_key):
    tas, to, codec, transcript = _committed_slot(full_key, [0.0, -0.0])
    scenario = protocol.AdversaryScenario((0, 1), protocol.E_FIELD,
                                          perturb_lo=0.5, perturb_hi=0.5)
    effective = protocol.apply_adversary((scenario,), tas, codec,
                                         random.Random(0))
    assert effective == {}


def test_lifecycle_errors(full_key):
    codec = _slot_codec(full_key)
    transcript = Transcript()
    tas = _make_tas([1.0, -1.0])
    to = protocol.Operator(ck=full_key)
    with pytest.raises(LifecycleError):
        protocol.run_commitment(tas, to, codec, transcript)
    with pytest.raises(LifecycleError):
        protocol.run_online(tas, to, codec, transcript, beta=0.1,
                            sigma_policy=SIGMA)


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


def test_operator_view_depends_only_on_totals(full_key):
    # Swapping two agents' forecasts changes nothing the operator sees
    # beyond per-share randomness: totals and check outcome agree.
    results = []
    for forecasts in ([5.0, -2.0, -3.0], [-2.0, 5.0, -3.0]):
        codec = _slot_codec(full_key)
        transcript = Transcript()
        tas = _make_tas(forecasts, seed=3)
        protocol.store_forecasts(tas, codec, transcript)
        to = protocol.Operator(ck=full_key)
        _, e_tot, _ = protocol.run_commitment(tas, to, codec, transcript)
        results.append(e_tot)
    assert results[0] == results[1]
