"""The benchmark's workloads: how each one sets up, runs one op and
checks that op's outputs.

Every op derives its three scenario seeds from the workload seed and the
op's index, so a run is reproducible from `--seed` alone. The benchmark
reaches gridshare only through `harness.run_scenario`,
`harness.detection_experiment`, `protocol.run_keygen` and
`market.central_clearing` (plus the data types they take).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random

from gridshare import harness, market, protocol, sharing
from gridshare.transport import Transcript

# Wire model (normative): a scalar is 32 bits, notifications are free, a
# commitment is bits_q bits and the key broadcast is 3*bits_q + bits_p.
SCALAR = 32
KB_BITS = 8 * 1024


def op_seeds(workload, seed, index):
    rng = random.Random(f"perfbench/{workload}/{seed}/op{index}")
    return {"seed_profiles": rng.getrandbits(32),
            "seed_crypto": rng.getrandbits(32),
            "seed_adversary": rng.getrandbits(32)}


def digest(outputs):
    text = json.dumps(outputs, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def wire_bits(cfg):
    """Closed-form bits per slot under the wire model, as (TA sent, TO sent,
    TO stored), for a worst-case slot with forced reveals.

    At N=400, ς=100 and a 20+1000-bit key this gives, in KB, secure
    161.07373046875 / 0.7666015625 / 50.1845703125 and plain
    0.3984375 / 0.390625 / 1.5625.
    """
    n, rounds = cfg.n_tas, cfg.varsigma
    if cfg.mode == "plain":
        # One aggregate per round, the forecast, the metered actual.
        return rounds * SCALAR + 2 * SCALAR, rounds * SCALAR, n * SCALAR
    bits_q = cfg.bits_p + cfg.bits_b
    key = 3 * bits_q + cfg.bits_p
    share_round = n * SCALAR           # N-1 shares out, one aggregate in
    ta = (rounds * share_round         # negotiation
          + 2 * share_round + bits_q   # commitment: E_n, r_n, commitment
          + share_round + 3 * SCALAR)  # online: actuals, one reveal
    to = rounds * SCALAR + key         # price signals, key broadcast
    to_store = key + n * bits_q + SCALAR
    return ta, to, to_store


class SlotWorkload:
    """One N=400 worst-case slot with forced reveals per op.

    `worst_case` fixes the negotiation at ς rounds whether or not the
    seed converges, so the work per op does not depend on the seed.
    """

    N_TAS = 400
    runs_per_op = 1

    def __init__(self, name, mode):
        self.name = name
        self.mode = mode
        self.key = None

    def prepare(self, seed):
        """One-off set-up. The secure slot generates the commitment key
        that every op reuses, at the library defaults; repeating the
        set-up regenerates the same key."""
        if self.mode == "secure":
            cfg = harness.ScenarioConfig()
            self.key = protocol.run_keygen(
                cfg.bits_p, cfg.bits_b,
                random.Random(f"perfbench/{self.name}/{seed}/key"),
                Transcript(), mode=cfg.keygen_mode, rounds=cfg.mr_rounds)

    def config(self, seed, index):
        return harness.ScenarioConfig(
            n_tas=self.N_TAS, mode=self.mode, worst_case=True,
            force_reveal=True, **op_seeds(self.name, seed, index))

    def run(self, cfg):
        return harness.run_scenario(cfg, ck=self.key)

    def outputs(self, report):
        d = report.detection
        return {"price": report.clearing_price.hex(),
                "iterations": report.iterations, "status": report.status,
                "check": report.check_result,
                "traffic_kb": report.traffic_kb,
                "storage_kb": report.storage_kb,
                "e_total": d.e_total.hex(), "triggered": d.triggered,
                "t_m": sorted(d.t_m_list), "t_f": sorted(d.t_f_list)}

    def sizes_kb(self, report):
        return {"ta_traffic_kb": report.total_traffic_kb("TA"),
                "to_traffic_kb": report.total_traffic_kb("TO"),
                "to_storage_kb": report.total_storage_kb("TO")}

    def check(self, cfg, report, traced_bits=None):
        """Problems with one op's outputs; empty when all checks pass."""
        problems = []
        profiles = market.sample_profiles(
            cfg.n_tas, market.random_source(cfg.seed_profiles, "profiles"))
        reference = market.central_clearing(
            profiles, cfg.market_config(),
            quantize=sharing.FixedPointCodec(sharing.NEGOTIATION_MODULUS,
                                             cfg.scale),
            worst_case=True)
        if report.clearing_price != reference.gamma:
            problems.append(f"price {report.clearing_price!r} != central "
                            f"clearing {reference.gamma!r}")
        if report.iterations != cfg.varsigma:
            problems.append(f"{report.iterations} rounds, expected "
                            f"{cfg.varsigma} under worst_case")
        if report.check_result != "accept":
            problems.append(f"commitment check {report.check_result!r}")
        d = report.detection
        if d.t_m_list or d.t_f_list:
            problems.append(f"honest agents flagged: t_m={sorted(d.t_m_list)}"
                            f" t_f={sorted(d.t_f_list)}")
        ta, to, to_store = wire_bits(cfg)
        expected = {"ta_traffic_kb": ta / KB_BITS,
                    "to_traffic_kb": to / KB_BITS,
                    "to_storage_kb": to_store / KB_BITS}
        for name, value in self.sizes_kb(report).items():
            if value != expected[name]:
                problems.append(f"{name} {value!r} != wire model "
                                f"{expected[name]!r}")
        if traced_bits is not None and traced_bits != cfg.n_tas * ta + to:
            problems.append(f"traced transport.bits {traced_bits} != "
                            f"{cfg.n_tas} * {ta} + {to}")
        return problems


class DetectWorkload:
    """One `detection_experiment` per op at the paper's N=100 with 15
    targets and a 5-10% perturbation. Each op generates its own key
    (at 64 Miller-Rabin rounds) and negotiates once before its runs."""

    N_TAS = 100
    TARGETS = 15
    PERTURB = (0.05, 0.10)
    MR_ROUNDS = 64
    RUNS = 80
    runs_per_op = RUNS
    name = "detect"

    def prepare(self, seed):
        pass

    def config(self, seed, index):
        return harness.ScenarioConfig(n_tas=self.N_TAS,
                                      mr_rounds=self.MR_ROUNDS,
                                      **op_seeds(self.name, seed, index))

    def run(self, cfg):
        return harness.detection_experiment(
            cfg, n_targets=self.TARGETS, perturb_range=self.PERTURB,
            n_runs=self.RUNS)

    def outputs(self, summary):
        return dataclasses.asdict(summary)

    def sizes_kb(self, summary):
        return {}

    def check(self, cfg, summary, traced_bits=None):
        problems = []
        if summary.runs != self.RUNS:
            problems.append(f"{summary.runs} runs, expected {self.RUNS}")
        for name in ("false_negatives", "false_positives", "wrong_list"):
            if getattr(summary, name):
                problems.append(f"{name} = {getattr(summary, name)}")
        return problems


WORKLOADS = {
    "slot": lambda: SlotWorkload("slot", "secure"),
    "plain": lambda: SlotWorkload("plain", "plain"),
    "detect": DetectWorkload,
}
