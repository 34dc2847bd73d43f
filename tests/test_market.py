import array
import dataclasses
import functools
import itertools
import math
import operator
import random

import pytest

from gridshare import market, sharing
from gridshare.errors import (
    DegeneratePreferenceError,
    EncodingRangeError,
    InvalidConfigError,
)
from tests import reference_slot


def test_update_duals_hand_values():
    v_lo, v_hi = market.update_duals(0.5, 0.0, 2.0, 3.0, 0.1)
    assert v_lo == pytest.approx(0.3)
    v_lo, _ = market.update_duals(0.1, 0.0, 2.0, 3.0, 0.1)
    assert v_lo == 0.0   # clamped
    _, v_hi = market.update_duals(0.0, 0.0, 5.0, 3.0, 0.1)
    assert v_hi == pytest.approx(0.2)


def test_update_energy_hand_values():
    assert market.update_energy(0.0, 10.0, 0.1, 30.0, 0.1, 0.0, 0.0) == \
        pytest.approx(20.0)
    assert market.update_energy(0.0, 10.0, 0.1, 10.0, 0.1, 0.0, 0.0) == 0.0
    # Strongly negative drift clamps at zero.
    assert market.update_energy(0.0, 30.0, 0.1, 10.0, 0.1, 0.0, 0.0) == 0.0
    with pytest.raises(DegeneratePreferenceError):
        market.update_energy(0.0, 1.0, 0.1, 1.0, 0.0, 0.0, 0.0)


def test_update_price_hand_values():
    assert market.update_price(10.0, 0.1, -2.0) == pytest.approx(9.8)
    assert market.update_price(10.0, 0.1, 0.0) == 10.0
    assert market.update_price(0.1, 0.1, -2.0) == 0.0   # clamped


def test_check_convergence_statuses():
    config = market.MarketConfig()
    assert market.check_convergence(10.0005, 10.0, 5, config) == \
        market.CONVERGED
    assert market.check_convergence(11.0, 10.0, 101, config) == \
        market.ITERATION_CAP
    assert market.check_convergence(10.01, 10.0, 5, config) == market.CONTINUE
    # Convergence wins over the cap when both hold.
    assert market.check_convergence(10.0005, 10.0, 101, config) == \
        market.CONVERGED


def test_sample_profiles_ranges_and_balance():
    profiles = market.sample_profiles(100, random.Random(0))
    sellers = [p for p in profiles if p.role == market.SELLER]
    buyers = [p for p in profiles if p.role == market.BUYER]
    assert len(sellers) == len(buyers) == 50
    for p in profiles:
        assert market.V_LO_RANGE[0] <= p.v_lo_init <= market.V_LO_RANGE[1]
        assert market.V_HI_RANGE[0] <= p.v_hi_init <= market.V_HI_RANGE[1]
        assert market.CHI_RANGE[0] <= p.chi <= market.CHI_RANGE[1]
        assert market.PSI_RANGE[0] <= p.psi <= market.PSI_RANGE[1]
        assert abs(p.E_n_tot) <= market.E_TOT_RANGE[1]
        assert (p.E_n_tot >= 0) == (p.role == market.SELLER)


def test_sample_profiles_deterministic_and_minimal():
    a = market.sample_profiles(4, random.Random(1))
    b = market.sample_profiles(4, random.Random(1))
    assert a == b
    pair = market.sample_profiles(2, random.Random(2))
    assert [p.role for p in pair] == [market.SELLER, market.BUYER]
    with pytest.raises(InvalidConfigError):
        market.sample_profiles(3, random.Random(0))


def test_profile_validation():
    with pytest.raises(InvalidConfigError):
        market.TAProfile(0, "broker", 1.0, 0.0, 3.0, 30.0, 0.1)
    with pytest.raises(DegeneratePreferenceError):
        market.TAProfile(0, market.SELLER, 1.0, 0.0, 3.0, 30.0, 0.0)
    with pytest.raises(DegeneratePreferenceError):
        market.TAProfile(0, market.SELLER, 1.0, 0.0, 3.0, 30.0, -math.inf)
    # Unchecked, each of these cleared against `buyer` in
    # `central_clearing`: a NaN psi or an infinite chi or v_hi_init
    # "converged" at gamma = 10.0 in one round, a NaN forecast ran to the
    # cap at gamma ~ 37.8, and a seller with a deficit cleared with every
    # trade at 0.
    seller = market.TAProfile(0, market.SELLER, 10.0, 0.0, 3.0, 30.0, 0.1)
    buyer = market.TAProfile(1, market.BUYER, -10.0, 0.0, 3.0, 30.0, 0.1)
    nan, inf = math.nan, math.inf
    for overrides in (dict(psi=nan), dict(chi=inf), dict(chi=nan),
                      dict(v_hi_init=inf), dict(v_lo_init=nan),
                      dict(v_lo_init=-inf), dict(E_n_tot=nan),
                      dict(E_n_tot=inf), dict(E_n_tot=-10.0)):
        with pytest.raises(InvalidConfigError):
            dataclasses.replace(seller, **overrides)
    with pytest.raises(InvalidConfigError):
        dataclasses.replace(buyer, E_n_tot=10.0)
    # No forecast is a legal forecast for either role.
    for profile in (seller, buyer):
        for zero in (0.0, -0.0):
            dataclasses.replace(profile, E_n_tot=zero)


def test_non_negativity_under_random_updates():
    rng = random.Random(3)
    for _ in range(100_000):
        zeta = rng.uniform(0.001, 0.2)
        v_lo, v_hi = market.update_duals(
            rng.uniform(0, 5), rng.uniform(0, 20), rng.uniform(-30, 30),
            rng.uniform(0, 20), zeta)
        assert v_lo >= 0 and v_hi >= 0
        e = market.update_energy(rng.uniform(0, 30), rng.uniform(0, 50),
                                 zeta, rng.uniform(0, 50),
                                 rng.uniform(0.05, 0.2),
                                 v_lo, v_hi)
        assert e >= 0
        assert market.update_price(rng.uniform(0, 50), zeta,
                                   rng.uniform(-400, 400)) >= 0


def _step_rounds():
    """(gamma, zeta, agents) rounds, each agent a (magnitude, v_lo, v_hi,
    E, psi, chi): 1000 rounds of 100 agents in criterion 9's ranges, then
    edges where a projection meets -0.0 or clips to exactly 0, and large
    steps."""
    rng = random.Random(29)
    for _ in range(1000):
        gamma, zeta = rng.uniform(0, 50), rng.uniform(0.001, 0.2)
        yield gamma, zeta, [
            (rng.uniform(0, 20), rng.uniform(0, 5), rng.uniform(0, 20),
             rng.uniform(-30, 30), rng.uniform(0, 50), rng.uniform(0.05, 0.2))
            for _ in range(100)]
    z = -0.0
    yield 10.0, 0.01, [(magnitude, v_lo, v_hi, E, 30.0, 0.1)
                       for E in (z, 0.0) for v_lo in (z, 0.0)
                       for v_hi in (z, 0.0) for magnitude in (z, 0.0, 2.0)]
    yield 10.0, 0.5, [(5.0, 1.0, 3.0, 2.0, 30.0, 0.1),     # v_lo: 1 - 1
                      (2.0, 3.0, 1.0, 0.0, 30.0, 0.1)]     # v_hi: 1 - 1
    yield 11.0, 0.5, [(2.0, 0.0, 0.0, 1.0, 10.0, 1.0)]     # E: 1 - 1
    # The energy step's product underflows to -0.0 onto E = -0.0.
    yield 5e-324, 0.01, [(0.0, 0.0, 0.0, z, 0.0, 1.0)]
    yield 0.0, 0.01, [(0.0, 0.0, 0.0, z, 5e-324, 1.0)]
    for zeta in (1.0, 7.5, 1e6):
        yield 26.0, zeta, [(12.0, 4.0, 15.0, 8.0, 31.0, 0.09)]


def _step_states(agents, roles=(market.SELLER, market.BUYER)):
    # Each agent once per role in `roles`, interleaved.
    return [market.AgentState(
        market.TAProfile(0, role, forecast, v_lo, v_hi, psi, chi),
        v_lo, v_hi, E)
        for magnitude, v_lo, v_hi, E, psi, chi in agents
        for role, forecast in ((market.SELLER, magnitude),
                               (market.BUYER, -magnitude))
        if role in roles]


def test_agent_step_is_bit_equal_to_the_reference_formulas():
    for gamma, zeta, agents in _step_rounds():
        states = _step_states(agents)
        expected = [reference_slot.agent_update(st.profile, st.v_lo, st.v_hi,
                                                st.E, gamma, zeta)
                    for st in states]
        trades = market.agent_step(market.agent_rows(states), gamma, zeta)
        got = [(st.v_lo, st.v_hi, st.E, trade)
               for st, trade in zip(states, trades)]
        assert len(trades) == len(states)
        for g, e, st in zip(got, expected, states):
            assert [x.hex() for x in g] == [x.hex() for x in e], (
                st.profile, gamma, zeta)


# The negotiation ring at scale 10^4, and an odd modulus whose +-500 kWh
# range the trades of a large community at zeta = 0.2 pass.
STEP_CODECS = (sharing.FixedPointCodec(sharing.NEGOTIATION_MODULUS, 10_000),
               sharing.FixedPointCodec(1_000_003, 1_000))


def _centred(codec, values):
    half = codec.modulus // 2
    return [v - codec.modulus if v > half else v for v in values]


def _fused_step(states, gamma, zeta, codec):
    """`agent_step` with `codec` on a copy of `states`, and the float step
    then `codec.encode_all` on another. Asserts that both give the same
    centred ints, or both raise EncodingRangeError, and bit-equal states;
    returns the fused step's states, or None if both raised."""
    results = []
    for fused in (True, False):
        stepped = [market.AgentState(st.profile, st.v_lo, st.v_hi, st.E)
                   for st in states]
        rows = market.agent_rows(stepped)
        try:
            trades = (market.agent_step(rows, gamma, zeta, codec) if fused
                      else _centred(codec, codec.encode_all(
                          market.agent_step(rows, gamma, zeta))))
        except EncodingRangeError:
            trades, stepped = EncodingRangeError, None
        results.append((trades, stepped))
    (fused, fused_states), (two_pass, two_pass_states) = results
    where = (codec, gamma, zeta)
    assert fused == two_pass, where
    if fused is not EncodingRangeError:
        assert all(type(v) is int for v in fused), where
        assert _state_bits(fused_states) == _state_bits(two_pass_states), \
            where
    return fused_states


def _boundary_rounds(codec):
    """(gamma, zeta, agents) rounds, as `_step_rounds` yields them, whose
    one seller trades psi and whose one buyer trades gamma: at zeta = 1,
    zero duals and E = 0, the step sets E to the drift. The trades are a
    tie, x*scale = 2.5 exactly, then around the smallest |x| that
    `encode_all` rejects, and +inf."""
    edge = ((codec.modulus + 1) // 2 - 0.5) / codec.scale
    for x in (2.5 / codec.scale, codec.max_magnitude,
              math.nextafter(edge, 0.0), edge,
              math.nextafter(edge, math.inf), 2.0 * edge, math.inf):
        seller = (1e308, 0.0, 0.0, 0.0, min(x, 1e308),
                  1.0 if x < math.inf else 1e-10)
        yield 0.0, 1.0, [seller]
        yield min(x, 1e308), 1.0, [(1e308, 0.0, 0.0, 0.0, 0.0, seller[5])]


def test_fused_agent_step_matches_the_float_step_then_encode_all():
    # Every `_step_rounds` round, edges included, and trades at the
    # codec's bound, each agent as both roles.
    raised = {codec: [] for codec in STEP_CODECS}
    for gamma, zeta, agents in _step_rounds():
        states = _step_states(agents)
        for codec in STEP_CODECS:
            raised[codec].append(
                _fused_step(states, gamma, zeta, codec) is None)
    for codec in STEP_CODECS:
        for i, (gamma, zeta, agents) in enumerate(_boundary_rounds(codec)):
            role = market.SELLER if i % 2 == 0 else market.BUYER
            raised[codec].append(_fused_step(
                _step_states(agents, (role,)), gamma, zeta, codec) is None)
        # Both sides raise at zeta = 1e6 and past the bound, and only there.
        assert raised[codec][-14:] == [False] * 6 + [True] * 8
        assert sum(raised[codec]) == 9


@pytest.mark.parametrize("n", [2, 100, 400])
def test_fused_agent_step_matches_over_seeded_communities(n):
    # 100 worst-case rounds of a seeded community at the default zeta,
    # and at zeta = 0.2, where the larger communities' trades grow past
    # the odd modulus's range; a run stops at the round that raised.
    profiles = market.sample_profiles(n, market.random_source(n, "profiles"))
    stopped = []
    for codec, zeta in itertools.product(STEP_CODECS, (0.01, 0.2)):
        states = [market.AgentState.initial(p) for p in profiles]
        gamma = 10.0
        for _ in range(100):
            states = _fused_step(states, gamma, zeta, codec)
            if states is None:
                stopped.append((codec.modulus, zeta))
                break
            gamma = market.update_price(gamma, zeta, sum(
                market.signed_trade(st) for st in states))
    assert stopped == ([] if n == 2 else [(1_000_003, 0.2)])


def _fixed_point_profiles(gamma_init):
    # psi = gamma for both roles with zero duals and zero trades: every
    # update leaves the state unchanged.
    return [
        market.TAProfile(0, market.SELLER, 10.0, 0.0, 0.0, gamma_init, 0.1),
        market.TAProfile(1, market.BUYER, -10.0, 0.0, 0.0, gamma_init, 0.1),
    ]


def test_fixed_point_stationarity():
    config = market.MarketConfig()
    profiles = _fixed_point_profiles(config.gamma_init)
    result = market.central_clearing(profiles, config)
    assert result.status == market.CONVERGED
    assert result.iterations <= 2
    assert result.gamma == config.gamma_init
    assert result.energies == [0.0, 0.0]


def test_market_config_rejects_bad_settings():
    # Unchecked, a NaN zeta clears at price 0.0 as "converged" in 2 rounds.
    nan, inf = float("nan"), float("inf")
    for overrides in (dict(zeta=0.0), dict(epsilon=-1.0), dict(varsigma=0),
                      dict(zeta=nan), dict(zeta=inf), dict(epsilon=nan),
                      dict(epsilon=inf), dict(gamma_init=nan),
                      dict(gamma_init=-inf)):
        with pytest.raises(InvalidConfigError):
            market.MarketConfig(**overrides)


def test_central_clearing_iteration_cap():
    config = market.MarketConfig(varsigma=10)
    profiles = market.sample_profiles(10, random.Random(4))
    result = market.central_clearing(profiles, config)
    assert result.status in (market.CONVERGED, market.ITERATION_CAP)
    assert result.iterations <= 10


def test_central_clearing_worst_case_runs_full_cap():
    config = market.MarketConfig(varsigma=20)
    profiles = _fixed_point_profiles(config.gamma_init)
    result = market.central_clearing(profiles, config, worst_case=True)
    assert result.status == market.ITERATION_CAP
    assert result.iterations == 20


# Unquantized central clearing at N=100 and the default MarketConfig:
# seed -> ((gamma.hex(), iterations, status) with worst_case False,
# the same with worst_case True). Seeds 0-4 run to the cap either way;
# seed 9 converges early unless worst_case forces the full cap. The
# float sum runs left to right from 0.0, so any change to its order or
# to compensated summation moves these bits.
FLOAT_CLEARING = {
    0: (("0x1.fffdda3c69764p+4", 100, market.ITERATION_CAP),
        ("0x1.fffdda3c69764p+4", 100, market.ITERATION_CAP)),
    1: (("0x1.e229e60934c44p+4", 100, market.ITERATION_CAP),
        ("0x1.e229e60934c44p+4", 100, market.ITERATION_CAP)),
    2: (("0x1.b806d25f9610fp+4", 100, market.ITERATION_CAP),
        ("0x1.b806d25f9610fp+4", 100, market.ITERATION_CAP)),
    3: (("0x1.bf39b436408bap+4", 100, market.ITERATION_CAP),
        ("0x1.bf39b436408bap+4", 100, market.ITERATION_CAP)),
    4: (("0x1.db67465ec5163p+4", 100, market.ITERATION_CAP),
        ("0x1.db67465ec5163p+4", 100, market.ITERATION_CAP)),
    9: (("0x1.2502e7b5f49c8p+5", 18, market.CONVERGED),
        ("0x1.d6fca4f3cf65cp+4", 100, market.ITERATION_CAP)),
}


@pytest.mark.parametrize("seed", sorted(FLOAT_CLEARING))
def test_central_clearing_float_path_is_pinned(seed):
    config = market.MarketConfig()
    profiles = market.sample_profiles(
        100, market.random_source(seed, "profiles"))
    for worst_case, expected in zip((False, True), FLOAT_CLEARING[seed]):
        r = market.central_clearing(profiles, config, worst_case=worst_case)
        assert (r.gamma.hex(), r.iterations, r.status) == expected


def _clearing_rounds(seed, config, aggregate, worst_case, check):
    """All rounds of `clearing_rounds` on a seeded N=100 community, and
    the profiles; `check(states, total)` runs at every yield."""
    profiles = market.sample_profiles(
        100, market.random_source(seed, "profiles"))
    states = [market.AgentState.initial(p) for p in profiles]
    rounds = []
    for k, gamma, total, status in market.clearing_rounds(
            states, config, aggregate, worst_case):
        check(states, total)
        rounds.append((k, gamma, total, status))
    return rounds, profiles


@pytest.mark.parametrize("worst_case", [False, True])
@pytest.mark.parametrize("seed,varsigma", [(0, 100), (9, 100), (9, 30)])
def test_clearing_rounds_contract(seed, varsigma, worst_case):
    config = market.MarketConfig(varsigma=varsigma)

    def left_to_right(trades):
        return functools.reduce(operator.add, trades, 0.0)

    def check(states, total):
        # The total is this round's: no agent steps again before the yield.
        assert total == left_to_right(market.signed_trade(s)
                                      for s in states)

    rounds, profiles = _clearing_rounds(seed, config, left_to_right,
                                        worst_case, check)
    ks = [r[0] for r in rounds]
    statuses = [r[3] for r in rounds]
    assert ks == list(range(1, len(rounds) + 1))
    assert statuses[:-1] == [market.CONTINUE] * (len(rounds) - 1)
    assert statuses[-1] != market.CONTINUE
    if worst_case:
        assert len(rounds) == varsigma
        assert statuses[-1] == market.ITERATION_CAP
    reference = market.central_clearing(profiles, config,
                                        worst_case=worst_case)
    k, gamma, _, status = rounds[-1]
    assert (gamma, k, status) == (reference.gamma, reference.iterations,
                                  reference.status)


@pytest.mark.parametrize("worst_case", [False, True])
@pytest.mark.parametrize("seed", [0, 9])
def test_clearing_rounds_quantized_totals(seed, worst_case):
    config = market.MarketConfig()
    codec = sharing.FixedPointCodec(sharing.NEGOTIATION_MODULUS, 10_000)

    def quantized_sum(trades):
        return codec.decode(sum(codec.encode(t) for t in trades))

    def check(states, total):
        assert total == quantized_sum(market.signed_trade(s) for s in states)

    rounds, profiles = _clearing_rounds(seed, config, quantized_sum,
                                        worst_case, check)
    reference = market.central_clearing(profiles, config, quantize=codec,
                                        worst_case=worst_case)
    k, gamma, _, status = rounds[-1]
    assert (gamma, k, status) == (reference.gamma, reference.iterations,
                                  reference.status)


def test_clearing_rounds_calls_agent_step_through_the_module_once_per_round(
        monkeypatch):
    step, calls = market.agent_step, []

    def counted(agents, gamma, zeta, codec=None):
        calls.append(len(agents))
        return step(agents, gamma, zeta, codec)

    monkeypatch.setattr(market, "agent_step", counted)
    profiles = market.sample_profiles(10, market.random_source(0, "profiles"))
    result = market.central_clearing(profiles, market.MarketConfig(
        varsigma=30), worst_case=True)
    assert result.iterations == 30
    assert calls == [10] * 30


def _bits(values):
    # Bit-exact, so -0.0 differs from 0.0 and NaN equals itself.
    return array.array("d", values).tobytes()


def _state_bits(states):
    return _bits(x for st in states for x in (st.v_lo, st.v_hi, st.E))


@pytest.mark.parametrize("quantized", [False, True])
@pytest.mark.parametrize("n", [2, 4, 30, 100, 400])
def test_clearing_rounds_match_the_reference_clearing(n, quantized):
    # Every round's (k, gamma, total, status) and every agent's state at
    # each yield, bit for bit, against `reference_slot.clearing`. At
    # zeta = 0.2 the larger communities oscillate with growing totals, so
    # the ring sum wraps; both sides get the same wrapped total. Quantized,
    # `clearing_rounds` runs twice: once encoding the float trades in its
    # aggregate, and once with the codec, so that `agent_step` returns
    # fixed-point trades, as in `protocol.run_negotiation`. The reference
    # encodes by its per-value formula.
    codec = sharing.FixedPointCodec(sharing.NEGOTIATION_MODULUS, 10_000)

    def ring_sum(trades):
        return codec.decode(sum(codec.encode(t) for t in trades)
                            % codec.modulus)

    def reference_ring_sum(trades):
        return codec.decode(sum(reference_slot.encode(t, codec.scale,
                                                      codec.modulus)
                                for t in trades) % codec.modulus)

    def fixed_point_sum(values):
        return codec.decode(sum(values))

    def float_sum(trades):
        return functools.reduce(operator.add, trades, 0.0)

    reference_total = reference_ring_sum if quantized else float_sum
    drivers = ([(ring_sum, None), (fixed_point_sum, codec)] if quantized
               else [(float_sum, None)])
    profiles = market.sample_profiles(n, market.random_source(n, "profiles"))
    for (total_of, step_codec), worst_case, varsigma, zeta in (
            itertools.product(drivers, (False, True), (1, 30, 100),
                              (0.001, 0.01, 0.2))):
        config = market.MarketConfig(zeta=zeta, varsigma=varsigma)
        states = [market.AgentState.initial(p) for p in profiles]
        rounds = itertools.zip_longest(
            market.clearing_rounds(states, config, total_of, worst_case,
                                   step_codec),
            reference_slot.clearing(profiles, config, reference_total,
                                    worst_case))
        for got, (k, gamma, total, status, expected) in rounds:
            where = (step_codec, worst_case, varsigma, zeta, k)
            assert got[0] == k and got[3] == status, where
            assert _bits(got[1:3]) == _bits((gamma, total)), where
            assert _state_bits(states) == _bits(
                x for st in expected for x in st), where
        result = market.central_clearing(
            profiles, config, codec if quantized else None, worst_case)
        assert (result.iterations, result.status) == (k, status)
        assert _bits([result.gamma]) == _bits([gamma])
        assert _bits(result.energies) == _bits(
            market.signed_trade(st) for st in states)
