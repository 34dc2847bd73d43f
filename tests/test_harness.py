import dataclasses
import random
import statistics

import pytest

from gridshare import harness, market, numtheory, pedersen, protocol
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
    # holding anything else is rejected. Every field holds its annotated
    # type: an int field no float or bool, a bool field no string. A
    # scale whose round totals can wrap the 32-bit negotiation ring used
    # to pass and then fail in the first round, or overflow a float.
    e_n = protocol.AdversaryScenario((1,), protocol.E_FIELD)
    for overrides in (dict(n_tas=7), dict(n_tas=0), dict(bits_p=4),
                      dict(n_tas=4.0), dict(n_tas=True), dict(varsigma=2.5),
                      dict(scale=2.5), dict(force_reveal="no"),
                      dict(seed_profiles="x"), dict(zeta="0.01"),
                      dict(beta=True),
                      dict(scale=0), dict(mr_rounds=0), dict(mr_rounds=-5),
                      dict(n_tas=4, mode="plain", bits_p=40, scale=10**9,
                           varsigma=5), dict(scale=10**400),
                      dict(mode="hybrid"),
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
    # Only beta, the one optional float, accepts "none". A repeated key
    # would silently replace the first value.
    for text in ("n_tas", "frobnicate = 3", "n_tas = many",
                 "worst_case = maybe", "zeta = none", "sigma_frac = none",
                 "n_tas = none", "worst_case = none",
                 "balance_constrained = true", "n_tas = 4\nn_tas = 6",
                 "beta = none\nbeta = 1.5"):
        with pytest.raises(InvalidConfigError):
            harness.parse_scenario_file(text)


def test_plain_mode_rejects_reveal_side_adversary():
    # Plain slots have no reveal and no r_n; only e_n can be perturbed.
    e_n = protocol.AdversaryScenario((1,), protocol.E_FIELD)
    harness.run_scenario(_config(mode="plain", adversary=(e_n,)))
    for fld in protocol.REVEAL_FIELDS:
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


def test_supplied_key_must_match_the_config_sizes(monkeypatch, short_key):
    # Under the default 20+1000-bit config a 20+100-bit key ran and
    # reported its own 0.0464 KB broadcast; a 12+12-bit key ran all of
    # negotiation, then its field could not encode a forecast.
    small = numtheory.generate_group_params(12, 12, random.Random(7),
                                            rounds=TEST_MR_ROUNDS)

    def no_negotiation(*args, **kwargs):
        raise AssertionError("negotiation ran")

    monkeypatch.setattr(protocol, "run_negotiation", no_negotiation)
    for key in (short_key, small):
        with pytest.raises(InvalidConfigError):
            harness.run_scenario(harness.ScenarioConfig(n_tas=4, varsigma=5),
                                 ck=key)


def test_huge_randomness_perturbation_runs():
    # A factor of 1e303 made the float r_n product infinite, and
    # apply_adversary raised OverflowError instead of finishing the slot.
    r_n = protocol.AdversaryScenario((0,), protocol.RANDOMNESS_FIELD,
                                     1e303, 1e303)
    for force_reveal in (False, True):
        report = harness.run_scenario(harness.ScenarioConfig(
            n_tas=4, mr_rounds=4, adversary=(r_n,),
            force_reveal=force_reveal))
        assert report.detection.t_f_list == ({0} if force_reveal else set())
    # The detection experiment's r_n targets raised it the same way. It
    # rejects such a range before any slot, since its e_n targets cannot
    # be shown in the field.
    with pytest.raises(InvalidConfigError, match="perturb_range .* too large"):
        harness.detection_experiment(
            _config(n_tas=30, bits_b=32), n_targets=3,
            perturb_range=(1e308, 1e308), n_runs=1)


def test_detection_rejects_range_whose_beta_overflows():
    # Two e_n targets at 1e308 put beta at inf, which validate_config
    # rejected as if the caller had set beta.
    with pytest.raises(InvalidConfigError, match="perturb_range .* too large"):
        harness.detection_experiment(
            _config(n_tas=30, bits_b=32), n_targets=6,
            perturb_range=(1e308, 1e308), n_runs=2)


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


@pytest.mark.parametrize("mode, generators", [("plain", 2), ("secure", 12)])
def test_only_secure_agents_get_generators(monkeypatch, full_key, mode,
                                           generators):
    # Generators made: profiles and adversary, plus one per agent in a
    # secure slot only. The supplied key makes no keygen generator.
    made, agents = [], []
    original_source = market.random_source
    original_build = harness.build_agents

    def recording_source(*args, **kwargs):
        made.append(args)
        return original_source(*args, **kwargs)

    def recording_build(*args, **kwargs):
        agents.extend(original_build(*args, **kwargs))
        return agents
    monkeypatch.setattr(market, "random_source", recording_source)
    monkeypatch.setattr(harness, "build_agents", recording_build)
    harness.run_scenario(_config(mode=mode),
                         ck=full_key if mode == "secure" else None)
    assert len(made) == generators
    assert len(agents) == 10
    assert all((ta.rng is None) == (mode == "plain") for ta in agents)


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


@pytest.mark.parametrize("n", [2, 3, 400])
def test_grouped_sends_and_stores_count_as_one_per_agent(n):
    # One send_each or store_each over all n agents measures the same as
    # n single calls, and each agent's own counter is still checked.
    ids = tuple(f"TA{i}" for i in range(n))
    single, grouped = Transcript(), Transcript()
    for ta in ids:
        single.send("negotiation", "ShareTransfer", ta, "PEERS", 32 * (n - 1))
        single.send("commitment", "CommitmentSubmit", ta, "TO", 1020)
        single.store(ta, "online", 32)
    grouped.send_each("negotiation", "ShareTransfer", ids, "PEERS",
                      32 * (n - 1))
    grouped.send_each("commitment", "CommitmentSubmit", ids, "TO", 1020)
    grouped.store_each(ids, "online", 32)
    assert (harness.measure_sizes(grouped, n)
            == harness.measure_sizes(single, n))
    assert harness.measure_sizes(grouped, n)[1]["online"]["TA"] == 32 / 8192
    # A group that leaves out the last agent.
    grouped.send_each("online", "AggregateSubmit", ids[:-1], "TO", 32)
    with pytest.raises(AsymmetricTranscriptError,
                       match=f"TA{n - 1} online traffic is 0 bits"):
        harness.measure_sizes(grouped, n)
    partial = Transcript()
    partial.store_each(ids[1:], "keygen", 32)
    with pytest.raises(AsymmetricTranscriptError, match="keygen storage"):
        harness.measure_sizes(partial, n)


def test_grouped_counters_reject_unknown_phases_and_uneven_totals():
    transcript = Transcript()
    with pytest.raises(KeyError, match="'negotiaton'"):
        transcript.send_each("negotiaton", "AggregateSubmit", ("TA0", "TA1"),
                             "TO", 32)
    with pytest.raises(KeyError, match="'onlin'"):
        transcript.store_each(("TA0", "TA1"), "onlin", 32)
    # A group total is split over its members, never floored.
    transcript.send("commitment", "AggregateSubmit", ("TA0", "TA1"), "TO", 65)
    with pytest.raises(AsymmetricTranscriptError, match="split evenly"):
        harness.measure_sizes(transcript, 2)
    transcript = Transcript()
    transcript.store(("TA0", "TA1", "TA2"), "online", 64)
    with pytest.raises(AsymmetricTranscriptError, match="split evenly"):
        harness.measure_sizes(transcript, 3)


def test_transcript_rejects_unknown_phase():
    transcript = Transcript()
    with pytest.raises(KeyError, match="'negotiaton'"):
        transcript.send("negotiaton", "AggregateSubmit", "TA0", "TO", 32)
    with pytest.raises(KeyError, match="'onlin'"):
        transcript.store("TA0", "onlin", 32)
    with pytest.raises(KeyError, match="'keygen2'"):
        transcript.broadcast("keygen2", "KeyBroadcast", "TO", 32)
    assert all(not table for tables in (transcript.traffic_bits,
                                        transcript.storage_bits)
               for table in tables.values())
    assert set(transcript.traffic_bits) == set(PHASES)


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
    with pytest.raises(InvalidConfigError):
        harness.sweep(_config(), "n_tas", [4.5])


@pytest.mark.parametrize("repeats", [1, 3, 4])
def test_sweep_reports_the_median_seconds_of_its_repeats(monkeypatch,
                                                         repeats):
    seconds = iter([0.5, 0.125, 0.25, 1.0][:repeats] * 2)
    monkeypatch.setattr(harness, "run_scenario", lambda cfg: next(seconds))
    monkeypatch.setattr(harness, "phase_rows",
                        lambda s: [{"phase": "x", "seconds": s}])
    rows = harness.sweep(_config(), "n_tas", [4, 6], repeats=repeats)
    median = statistics.median([0.5, 0.125, 0.25, 1.0][:repeats])
    assert rows == [{"axis_value": n, "phase": "x", "seconds": median}
                    for n in (4, 6)]


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


def test_detection_experiment_audits_reveal_side_targets():
    # At these factors no e_n or E_n target changes its encoding, so the
    # aggregate never moves and beta = 0 never triggers: only the audit
    # of reveal-side targets reveals the r_n targets that did change.
    summary = harness.detection_experiment(_config(n_tas=30), n_targets=6,
                                           perturb_range=(0.0, 2e-6),
                                           n_runs=10)
    assert summary.true_positives == summary.t_f_total == 6
    assert summary.t_m_total == 0
    assert summary.false_negatives == summary.false_positives == 0
    assert summary.wrong_list == 0
    assert summary.untriggered_runs == 4


@pytest.mark.parametrize("online,expected", [
    # The real online phase flags all 12 effective targets in the right list.
    (None, dict(true_positives=12, false_negatives=0, wrong_list=0)),
    # A phase that flags nothing counts every target as missed.
    ("empty", dict(true_positives=0, false_negatives=12, wrong_list=0,
                   untriggered_runs=2)),
    # A phase that swaps the lists flags every target in the wrong one.
    ("swapped", dict(true_positives=12, false_negatives=0, wrong_list=12)),
])
def test_detection_experiment_tallies_misses(monkeypatch, online, expected):
    run_online = protocol.run_online

    def altered(*args, **kwargs):
        report = run_online(*args, **kwargs)
        if online == "empty":
            return protocol.DetectionReport()
        return dataclasses.replace(report, t_m_list=report.t_f_list,
                                   t_f_list=report.t_m_list)

    if online is not None:
        monkeypatch.setattr(protocol, "run_online", altered)
    summary = harness.detection_experiment(_config(n_tas=30), n_targets=6,
                                           n_runs=2)
    assert {k: getattr(summary, k) for k in expected} == expected


def test_detection_experiment_honest_baseline():
    summary = harness.detection_experiment(_config(n_tas=10), n_targets=0,
                                           n_runs=3)
    assert summary.untriggered_runs == 3
    assert summary.true_positives == summary.false_positives == 0


def test_detection_runs_draw_from_the_head_agents_generators(monkeypatch):
    # Generators: the profiles, one per agent, the key and one adversary
    # per run. Each agent draws every run's shares and r_n from the one
    # generator it negotiated with.
    made = []
    original = market.random_source

    def recording(*args, **kwargs):
        made.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(market, "random_source", recording)
    harness.detection_experiment(_config(n_tas=30), n_targets=6, n_runs=3)
    assert len(made) == 2 + 30 + 3


def test_detection_runs_commit_with_fresh_randomness(monkeypatch):
    # Each run is the next stretch of every agent's stream, so no two runs
    # commit with the same r_n vector, as they would if a run reseeded or
    # copied the generators.
    committed = []
    run_commitment = protocol.run_commitment

    def recording(tas, *args, **kwargs):
        result = run_commitment(tas, *args, **kwargs)
        committed.append(tuple(ta.r_n for ta in tas))
        return result
    monkeypatch.setattr(protocol, "run_commitment", recording)
    harness.detection_experiment(_config(n_tas=30), n_targets=6, n_runs=5)
    assert len(committed) == len(set(committed)) == 5


def test_detection_experiment_rejects_impossible_targets():
    for n_targets, n_runs in ((5, 1), (-1, 1), (0, 0), (0, -1), (1.5, 1),
                              (0, 2.5)):
        with pytest.raises(InvalidConfigError):
            harness.detection_experiment(_config(n_tas=4),
                                         n_targets=n_targets, n_runs=n_runs)
    # At this seed one of the four agents trades >= 0.5 kWh, and it is a
    # buyer, so there is no surplus forecast to take the e_n target.
    config = _config(n_tas=4, seed_profiles=3)
    with pytest.raises(InvalidConfigError,
                       match="only 1 agents trade >= 0.5 kWh; cannot target 3"):
        harness.detection_experiment(config, n_targets=3, n_runs=1)
    with pytest.raises(InvalidConfigError,
                       match="only 0 agents forecast a surplus >= 0.5 kWh"):
        harness.detection_experiment(config, n_targets=1, n_runs=1)


def test_detection_experiment_rejects_bad_settings_before_the_head(
        monkeypatch):
    # Plain mode, force_reveal, beta, the sigma settings and an adversary
    # would be overridden by the experiment's own secure slots, thresholds,
    # targets and audit rule; a bad perturbation range (an
    # infinite bound would report the projected ring bound as the slot's
    # aggregate) would surface only at the first run's adversary, after
    # the slot head, and one that is not two numbers as a TypeError. A
    # factor of 10 scales a 20 kWh trade past the 20-bit field, where a
    # target is projected onto the field's range and can go unflagged.
    def no_head(*args):
        raise AssertionError("slot head ran")

    monkeypatch.setattr(harness, "_run_head", no_head)
    inf, nan = float("inf"), float("nan")
    e_n = protocol.AdversaryScenario((0,), protocol.E_FIELD)
    for overrides, perturb_range in ((dict(mode="plain"), (0.05, 0.10)),
                                     (dict(force_reveal=True), (0.05, 0.10)),
                                     (dict(beta=1000.0), (0.05, 0.10)),
                                     (dict(sigma_frac=0.9), (0.05, 0.10)),
                                     (dict(sigma_floor=50.0), (0.05, 0.10)),
                                     (dict(adversary=(e_n,)), (0.05, 0.10)),
                                     ({}, (-0.1, 0.1)), ({}, (0.1, 0.05)),
                                     ({}, (0.05, inf)), ({}, (nan, 0.1)),
                                     ({}, (10, 10)), ({}, 5), ({}, (0.05,)),
                                     ({}, ("0.05", "0.1"))):
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
