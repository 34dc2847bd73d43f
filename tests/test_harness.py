import dataclasses

import pytest

from gridshare import harness, market, pedersen, protocol
from gridshare.errors import (
    AsymmetricTranscriptError,
    InvalidConfigError,
    ProtocolAbortError,
)
from gridshare.transport import PHASES, Transcript
from tests.conftest import TEST_MR_ROUNDS


def _config(**overrides):
    base = dict(n_tas=10, mr_rounds=TEST_MR_ROUNDS)
    base.update(overrides)
    return harness.ScenarioConfig(**base)


def test_validate_rejects_bad_configs():
    # An adversary is a tuple of scenarios: a bare one, a list or a tuple
    # holding anything else is rejected.
    e_n = protocol.AdversaryScenario((1,), protocol.E_FIELD)
    for overrides in (dict(n_tas=7), dict(n_tas=0), dict(bits_p=4),
                      dict(scale=0), dict(mode="hybrid"),
                      dict(keygen_mode="lazy"), dict(keygen_mode="faithful"),
                      dict(beta=-1.0),
                      dict(zeta=0.0), dict(beta=float("nan")),
                      dict(zeta=float("inf")), dict(epsilon=float("nan")),
                      dict(gamma_init=float("inf")),
                      dict(sigma_frac=float("nan")),
                      dict(sigma_floor=float("-inf")),
                      dict(sigma_frac=-0.1), dict(sigma_floor=-0.1),
                      dict(adversary=(protocol.AdversaryScenario(
                          (20,), protocol.E_FIELD),)),
                      dict(adversary=(protocol.AdversaryScenario(
                          (-1,), protocol.E_FIELD),)),
                      dict(adversary=(protocol.AdversaryScenario(
                          (0, 10), protocol.E_FIELD),)),
                      dict(adversary=e_n), dict(adversary=[e_n]),
                      dict(adversary=(e_n, (1,)))):
        with pytest.raises(InvalidConfigError):
            harness.validate_config(_config(**overrides))


def test_scenario_defaults_are_the_market_defaults():
    assert harness.ScenarioConfig().market_config() == market.MarketConfig()


def test_validate_field_capacity_guard():
    # 20 kWh at scale 10^4 does not fit a 16-bit field.
    with pytest.raises(InvalidConfigError):
        harness.validate_config(_config(bits_p=16))
    harness.validate_config(_config(bits_p=16, scale=100))


def test_scenario_file_round_trip():
    text = """
    # community size
    n_tas = 20
    zeta = 0.02
    mode = plain
    worst_case = yes
    beta = none
    seed_profiles = 9
    """
    config = harness.parse_scenario_file(text)
    assert config.n_tas == 20
    assert config.zeta == 0.02
    assert config.mode == "plain"
    assert config.worst_case is True
    assert config.beta is None
    assert config.seed_profiles == 9
    assert config.bits_p == 20   # untouched default


def test_scenario_file_rejects_garbage():
    # Only beta, the one optional float, accepts "none".
    for text in ("n_tas", "frobnicate = 3", "n_tas = many",
                 "worst_case = maybe", "zeta = none", "sigma_frac = none",
                 "n_tas = none", "worst_case = none",
                 "balance_constrained = true"):
        with pytest.raises(InvalidConfigError):
            harness.parse_scenario_file(text)


def test_plain_mode_rejects_reveal_side_adversary():
    # Plain slots have no reveal and no r_n; only e_n can be perturbed.
    e_n = protocol.AdversaryScenario((1,), protocol.E_FIELD)
    harness.run_scenario(_config(mode="plain", adversary=(e_n,)))
    for fld in (protocol.FORECAST_FIELD, protocol.RANDOMNESS_FIELD):
        adversary = (e_n, protocol.AdversaryScenario((2,), fld))
        with pytest.raises(InvalidConfigError):
            harness.run_scenario(_config(mode="plain", adversary=adversary))


def test_rejected_commitment_check_aborts_slot(monkeypatch, full_key):
    real_product = pedersen.product

    def off_by_one(commitments, ck):
        # The product times g opens to the aggregate forecast plus one.
        return real_product(commitments, ck) * ck.g % ck.q

    monkeypatch.setattr(pedersen, "product", off_by_one)
    with pytest.raises(ProtocolAbortError, match="rejected"):
        harness.run_scenario(_config(), ck=full_key)


def test_run_scenario_secure_report_shape():
    report = harness.run_scenario(_config())
    assert report.status in ("converged", "iteration_cap")
    assert report.check_result == "accept"
    assert set(report.timings) == set(PHASES)
    for phase in PHASES:
        assert set(report.traffic_kb[phase]) == {"TA", "TO"}
        assert report.traffic_kb[phase]["TA"] >= 0
    assert report.detection is not None and not report.detection.triggered


def test_run_scenario_deterministic_except_timing():
    a = harness.run_scenario(_config())
    b = harness.run_scenario(_config())
    assert a.clearing_price == b.clearing_price
    assert a.iterations == b.iterations
    assert a.traffic_kb == b.traffic_kb
    assert a.storage_kb == b.storage_kb
    assert a.ck == b.ck


def test_run_scenario_plain_mode():
    report = harness.run_scenario(_config(mode="plain", worst_case=True,
                                          varsigma=20))
    assert report.iterations == 20
    assert report.traffic_kb["keygen"]["TO"] == 0.0
    assert report.traffic_kb["commitment"]["TA"] == pytest.approx(32 / 8 / 1024)
    # Negotiation: one 32-bit submission per round.
    assert report.traffic_kb["negotiation"]["TA"] == \
        pytest.approx(20 * 32 / 8 / 1024)


def test_measure_sizes_rejects_asymmetric_agents():
    transcript = Transcript()
    for ta in ("TA0", "TA1", "TA2"):
        transcript.send("negotiation", "ShareTransfer", ta, "PEERS", 64)
        transcript.store(ta, "online", 32)
    traffic, _ = harness.measure_sizes(transcript, 3)
    assert traffic["negotiation"]["TA"] == 64 / 8 / 1024
    transcript.send("commitment", "AggregateSubmit", "TA2", "TO", 32)
    with pytest.raises(AsymmetricTranscriptError, match="TA2 commitment"):
        harness.measure_sizes(transcript, 3)
    transcript = Transcript()
    transcript.store("TA1", "online", 32)
    with pytest.raises(AsymmetricTranscriptError, match="storage"):
        harness.measure_sizes(transcript, 2)


def test_key_reuse_skips_generation():
    first = harness.run_scenario(_config())
    second = harness.run_scenario(_config(), ck=first.ck)
    assert second.ck == first.ck
    assert second.traffic_kb["keygen"] == first.traffic_kb["keygen"]


def test_compare_baseline_prices_equal():
    report = harness.compare_baseline(_config())
    assert report.prices_equal
    assert report.secure.total_traffic_kb("TA") > \
        report.plain.total_traffic_kb("TA")
    assert report.secure.total_storage_kb("TO") > \
        report.plain.total_storage_kb("TO")


def test_sweep_axes_and_csv_schema():
    rows = harness.sweep(_config(varsigma=10), "n_tas", [4, 6])
    assert len(rows) == 2 * len(PHASES) * 2
    assert [r["phase"] for r in rows[:10:2]] == list(PHASES)
    assert list(rows[0]) == ["axis_value", "phase", "entity", "seconds",
                             "traffic_kb", "storage_kb"]
    with pytest.raises(InvalidConfigError):
        harness.sweep(_config(), "zeta", [0.1])
    with pytest.raises(InvalidConfigError):
        harness.sweep(_config(), "n_tas", [])
    with pytest.raises(InvalidConfigError):
        harness.sweep(_config(), "n_tas", [4], repeats=0)


def test_single_value_sweep_matches_run_scenario():
    config = _config(varsigma=10)
    rows = harness.sweep(config, "n_tas", [config.n_tas])
    report = harness.run_scenario(config)
    for row in rows:
        assert row["traffic_kb"] == \
            report.traffic_kb[row["phase"]][row["entity"]]
        assert row["storage_kb"] == \
            report.storage_kb[row["phase"]][row["entity"]]


def test_bits_q_sweep_scales_key_broadcast():
    rows = harness.sweep(_config(n_tas=4, varsigma=5), "bits_q", [120, 220])
    keygen = {r["axis_value"]: r["traffic_kb"] for r in rows
              if r["phase"] == "keygen" and r["entity"] == "TO"}
    assert keygen[120] == pytest.approx((3 * 120 + 20) / 8 / 1024)
    assert keygen[220] == pytest.approx((3 * 220 + 20) / 8 / 1024)


def test_bits_p_sweep_scales_key_broadcast():
    # The key broadcast is 3*bits_q + bits_p bits, bits_q = bits_p + bits_b;
    # a 16-bit field needs scale 100 to hold a 20 kWh trade.
    config = _config(n_tas=4, varsigma=5, scale=100)
    rows = harness.sweep(config, "bits_p", [16, 20])
    keygen = {r["axis_value"]: r["traffic_kb"] for r in rows
              if r["phase"] == "keygen" and r["entity"] == "TO"}
    for bits_p in (16, 20):
        key_bits = 3 * (bits_p + config.bits_b) + bits_p
        assert keygen[bits_p] == pytest.approx(key_bits / 8 / 1024)


def test_detection_experiment_small():
    summary = harness.detection_experiment(_config(n_tas=30), n_targets=6,
                                           n_runs=5)
    assert summary.runs == 5
    assert summary.false_negatives == 0
    assert summary.false_positives == 0
    assert summary.wrong_list == 0
    assert summary.true_positives == 30
    assert summary.accuracy == 1.0


def test_detection_experiment_honest_baseline():
    summary = harness.detection_experiment(_config(n_tas=10), n_targets=0,
                                           n_runs=3)
    assert summary.untriggered_runs == 3
    assert summary.true_positives == summary.false_positives == 0


def test_detection_experiment_rejects_impossible_targets():
    for n_targets, n_runs in ((5, 1), (-1, 1), (0, 0), (0, -1)):
        with pytest.raises(InvalidConfigError):
            harness.detection_experiment(_config(n_tas=4),
                                         n_targets=n_targets, n_runs=n_runs)


def test_detection_experiment_rejects_bad_settings_before_the_head(
        monkeypatch):
    # Plain mode and force_reveal would be overridden by the experiment's
    # own secure slots and audit rule; a bad perturbation range (an
    # infinite bound would report the projected ring bound as the slot's
    # aggregate) would surface only at the first run's adversary, after
    # the slot head.
    def no_head(*args):
        raise AssertionError("slot head ran")

    monkeypatch.setattr(harness, "_run_head", no_head)
    inf, nan = float("inf"), float("nan")
    for overrides, perturb_range in ((dict(mode="plain"), (0.05, 0.10)),
                                     (dict(force_reveal=True), (0.05, 0.10)),
                                     ({}, (-0.1, 0.1)), ({}, (0.1, 0.05)),
                                     ({}, (0.05, inf)), ({}, (nan, 0.1))):
        with pytest.raises(InvalidConfigError):
            harness.detection_experiment(_config(n_tas=30, **overrides),
                                         n_targets=3,
                                         perturb_range=perturb_range,
                                         n_runs=2)
    for args in (((0,), "voltage"), ((0,), protocol.E_FIELD, 0.2, 0.1),
                 ((0,), protocol.E_FIELD, 0.05, inf),
                 ((0,), protocol.E_FIELD, inf, inf),
                 ((0,), protocol.E_FIELD, 0.05, nan)):
        with pytest.raises(InvalidConfigError):
            protocol.AdversaryScenario(*args)


def test_config_is_frozen():
    config = _config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.n_tas = 4
