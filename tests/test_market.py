import random

import pytest

from gridshare import market
from gridshare.errors import DegeneratePreferenceError, InvalidConfigError


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
