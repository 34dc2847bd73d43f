"""Golden report digests: a fixed N=10 report matrix and a small
detection experiment must each hash to a pinned value, so a change that
means to keep every reported number identical can show that it did.
Additive sharing hides every share from the reports, so a third pin
fingerprints where each agent's generator ends, which a share round that
drew different randomness would move.

A change that moves these numbers on purpose updates the digest and
says why in CHANGES.md.
"""

import dataclasses
import hashlib
import json

from gridshare import harness, market, protocol

GOLDEN_SHA256 = (
    "cb1f46941dd083abd2ba02b9ec2be5bbefa91872c0a62009f410456d4529476f")

_SECURE_ADVERSARY_FIELDS = (None, *protocol.ADVERSARY_FIELDS)
# Plain slots have no reveal and no commitment randomness.
_PLAIN_ADVERSARY_FIELDS = (None, protocol.E_FIELD)


def _matrix():
    for mode, adversary_fields in (("secure", _SECURE_ADVERSARY_FIELDS),
                                   ("plain", _PLAIN_ADVERSARY_FIELDS)):
        for worst_case in (False, True):
            for force_reveal in (False, True):
                for fld in adversary_fields:
                    adversary = (() if fld is None else
                                 (protocol.AdversaryScenario((1, 2, 3), fld),))
                    yield harness.ScenarioConfig(
                        n_tas=10, mode=mode, worst_case=worst_case,
                        force_reveal=force_reveal, adversary=adversary)


def _row(report):
    detection = report.detection
    return {
        "price": repr(report.clearing_price),
        "iterations": report.iterations,
        "status": report.status,
        "check": report.check_result,
        "traffic": report.traffic_kb,
        "storage": report.storage_kb,
        "e_total": repr(detection.e_total),
        "triggered": detection.triggered,
        "t_m": sorted(detection.t_m_list),
        "t_f": sorted(detection.t_f_list),
    }


def test_report_matrix_digest(full_key):
    rows = [_row(harness.run_scenario(config, ck=full_key))
            for config in _matrix()]
    assert len(rows) == 24
    text = json.dumps(rows, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256


# detection_experiment at N=30: 10 runs of 6 targets each.
GOLDEN_DETECTION_SHA256 = (
    "10b5555aaab53d44f42683e3ee24fef13a8449f48ee041aa0bd75277c57e9fc5")


def test_detection_summary_digest():
    summary = harness.detection_experiment(
        harness.ScenarioConfig(n_tas=30, mr_rounds=64), n_targets=6,
        n_runs=10)
    assert (summary.true_positives, summary.false_negatives) == (60, 0)
    text = json.dumps(dataclasses.asdict(summary), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        GOLDEN_DETECTION_SHA256


# Generators made through market.random_source: a secure N=10 worst-case
# slot with forced reveals under the full key, then a detection experiment
# at N=30 (3 runs of 3 targets): 12 generators in the slot (profiles, 10
# agents, adversary) and 35 in the experiment (profiles, 30 agents that
# draw every run's r_n and shares, keygen, one adversary per run). Hashes
# each one's next getrandbits(64). Negotiation shares are 32-bit words
# over Z_2^32.
GOLDEN_GENERATORS_SHA256 = (
    "de5f13b0a3df1f8d1236bad774f86b3257afadc0069a622f6932936dad8528ce")


def test_generator_end_states_digest(full_key, monkeypatch):
    made = []
    original = market.random_source

    def recording(*args, **kwargs):
        rng = original(*args, **kwargs)
        made.append(rng)
        return rng
    monkeypatch.setattr(market, "random_source", recording)
    harness.run_scenario(harness.ScenarioConfig(
        n_tas=10, worst_case=True, force_reveal=True), ck=full_key)
    harness.detection_experiment(
        harness.ScenarioConfig(n_tas=30, mr_rounds=64), n_targets=3,
        n_runs=3)
    assert len(made) == 47
    draws = b"".join(rng.getrandbits(64).to_bytes(8, "little")
                     for rng in made)
    assert hashlib.sha256(draws).hexdigest() == GOLDEN_GENERATORS_SHA256
