"""Golden report digests: a fixed N=10 report matrix and a small
detection experiment must each hash to a pinned value, so a change that
means to keep every reported number identical can show that it did.

A change that moves these numbers on purpose updates the digest and
says why in CHANGES.md.
"""

import dataclasses
import hashlib
import json

from gridshare import harness, protocol

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
