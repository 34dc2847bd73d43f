"""Scenario configuration, orchestration, metrics, and the experiment
suite (traffic tables, baseline comparison, detection accuracy, sweeps)."""

from __future__ import annotations

import contextlib
import math
import statistics
import time
import typing
from dataclasses import dataclass, field, replace

from . import market, numtheory, protocol, sharing
from .errors import (
    AsymmetricTranscriptError,
    InvalidConfigError,
    ProtocolAbortError,
)
from .transport import PHASES, TO_ID, Transcript, ta_id

MAX_TRADE_KWH = market.E_TOT_RANGE[1]


@dataclass(frozen=True)
class ScenarioConfig:
    n_tas: int = 100
    bits_p: int = 20
    bits_b: int = 1000
    scale: int = sharing.DEFAULT_SCALE
    zeta: float = market.MarketConfig.zeta
    epsilon: float = market.MarketConfig.epsilon
    varsigma: int = market.MarketConfig.varsigma
    gamma_init: float = market.MarketConfig.gamma_init
    beta: float | None = None          # None -> sum(sigma)/2 after negotiation
    sigma_frac: float = 0.05
    sigma_floor: float = 0.1
    mode: str = "secure"               # secure | plain
    keygen_mode: str = "fast"          # fast, the only key generation
    mr_rounds: int = numtheory.DEFAULT_MR_ROUNDS
    seed_profiles: int = 1
    seed_crypto: int = 2
    seed_adversary: int = 3
    worst_case: bool = False           # run negotiation for all varsigma rounds
    force_reveal: bool = False         # exercise the online reveal branch
    adversary: tuple[protocol.AdversaryScenario, ...] = ()  # applied in order

    def market_config(self):
        return market.MarketConfig(zeta=self.zeta, epsilon=self.epsilon,
                                   varsigma=self.varsigma,
                                   gamma_init=self.gamma_init)

    def sigma_policy(self):
        frac, floor = self.sigma_frac, self.sigma_floor
        return lambda forecast: max(floor, frac * abs(forecast))


def validate_config(config):
    c = config
    if c.n_tas < 2 or c.n_tas % 2 != 0:
        raise InvalidConfigError("n_tas must be even and >= 2")
    if c.bits_p < 8 or c.bits_b < 8:
        raise InvalidConfigError("bits_p and bits_b must each be >= 8")
    if c.scale < 1:
        raise InvalidConfigError("scale must be >= 1")
    if c.mode not in ("secure", "plain"):
        raise InvalidConfigError(f"unknown mode {c.mode!r}")
    if c.keygen_mode != "fast":
        raise InvalidConfigError(f"unknown keygen mode {c.keygen_mode!r}")
    for name in ("beta", "sigma_frac", "sigma_floor"):
        value = getattr(c, name)
        if value is not None and not math.isfinite(value):
            raise InvalidConfigError(f"{name} must be finite, got {value!r}")
    if c.beta is not None and c.beta < 0:
        raise InvalidConfigError("beta must be >= 0")
    if c.sigma_frac < 0 or c.sigma_floor < 0:
        raise InvalidConfigError("sigma_frac and sigma_floor must be >= 0")
    c.market_config()   # raises on bad zeta/epsilon/varsigma/gamma_init
    if not (isinstance(c.adversary, tuple) and all(
            isinstance(sc, protocol.AdversaryScenario) for sc in c.adversary)):
        raise InvalidConfigError(
            f"adversary must be a tuple of AdversaryScenario: {c.adversary!r}")
    for sc in c.adversary:
        if any(i not in range(c.n_tas) for i in sc.target_indices):
            raise InvalidConfigError(
                f"adversary targets {sc.target_indices} must be agent "
                f"indices in [0, {c.n_tas})")
        if c.mode == "plain" and sc.target_field != protocol.E_FIELD:
            raise InvalidConfigError(
                "plain slots have no reveal and no r_n; an adversary there "
                "can only target e_n")
    # Worst-case group order for the requested size; individual encoded
    # trades must fit its centered range.
    if c.scale * MAX_TRADE_KWH >= 1 << (c.bits_p - 2):
        raise InvalidConfigError(
            f"scale {c.scale} cannot represent {MAX_TRADE_KWH} kWh in a "
            f"{c.bits_p}-bit field")
    return config


@dataclass
class RunReport:
    config: ScenarioConfig
    clearing_price: float = 0.0
    iterations: int = 0
    status: str = ""
    check_result: str = ""
    detection: protocol.DetectionReport | None = None
    timings: dict = field(                             # phase -> seconds
        default_factory=lambda: dict.fromkeys(PHASES, 0.0))
    traffic_kb: dict = field(default_factory=dict)     # phase -> {TA, TO}
    storage_kb: dict = field(default_factory=dict)
    transcript: Transcript | None = None
    ck: object = None

    def total_traffic_kb(self, entity):
        return sum(self.traffic_kb[ph][entity] for ph in PHASES)

    def total_storage_kb(self, entity):
        return sum(self.storage_kb[ph][entity] for ph in PHASES)


def phase_rows(report):
    """The per-phase table that `run` prints and writes and `sweep`
    repeats per axis value: one row per phase and entity class."""
    for phase in PHASES:
        for entity in ("TA", "TO"):
            yield {"phase": phase, "entity": entity,
                   "seconds": report.timings[phase],
                   "traffic_kb": report.traffic_kb[phase][entity],
                   "storage_kb": report.storage_kb[phase][entity]}


def measure_sizes(transcript, n_tas):
    """Per-phase traffic and storage in KB, per entity class.

    The TA column is per single agent; the protocol is symmetric, so
    every agent's counters agree and TA0 is representative. That is
    checked: counters that differ raise AsymmetricTranscriptError.
    """
    traffic = {}
    storage = {}
    ta0 = ta_id(0)
    for phase in PHASES:
        for counters, what in ((transcript.traffic_bits, "traffic"),
                               (transcript.storage_bits, "storage")):
            expected = counters.get((ta0, phase), 0)
            for n in range(1, n_tas):
                got = counters.get((ta_id(n), phase), 0)
                if got != expected:
                    raise AsymmetricTranscriptError(
                        f"{ta_id(n)} {phase} {what} is {got} bits, "
                        f"{ta0} has {expected}")
        traffic[phase] = {"TA": transcript.traffic_kb(ta0, phase),
                          "TO": transcript.traffic_kb(TO_ID, phase)}
        storage[phase] = {"TA": transcript.storage_kb(ta0, phase),
                          "TO": transcript.storage_kb(TO_ID, phase)}
    return traffic, storage


def build_agents(config, profiles=None, run_label=""):
    profiles = profiles or market.sample_profiles(
        config.n_tas, market.random_source(config.seed_profiles, "profiles"))
    tas = [protocol.TAgent(p, market.random_source(
        config.seed_crypto, f"{run_label}ta{p.index}")) for p in profiles]
    return tas


def resolve_beta(config, tas, slot_codec):
    if config.beta is not None:
        return config.beta
    policy = config.sigma_policy()
    return sum(policy(slot_codec.decode(ta.E_n)) for ta in tas) / 2


@contextlib.contextmanager
def _timed(timings, phase):
    """Record the wall time of the enclosed block as `phase`'s timing."""
    t0 = time.perf_counter()
    yield
    timings[phase] = time.perf_counter() - t0


def _run_head(report, ck=None):
    """The adversary-independent start of a slot: in secure mode, accept
    a key (`ck` if given, else a generated one); then negotiate and store
    the forecasts. Fills the report's key, price and timings, and returns
    the agents, the operator and the slot codec."""
    config, transcript = report.config, report.transcript
    secure = config.mode == "secure"
    tas = build_agents(config)
    to = protocol.Operator()
    negotiation_codec = sharing.FixedPointCodec(sharing.NEGOTIATION_MODULUS,
                                                config.scale)
    slot_codec = negotiation_codec
    if secure:
        with _timed(report.timings, "keygen"):
            if ck is None:
                ck = protocol.run_keygen(
                    config.bits_p, config.bits_b,
                    market.random_source(config.seed_crypto, "keygen"),
                    transcript, mode=config.keygen_mode,
                    rounds=config.mr_rounds)
            else:
                protocol.log_key_broadcast(ck, transcript)
            ck.check_generators()
        to.ck = report.ck = ck
        slot_codec = sharing.FixedPointCodec(ck.p, config.scale)
    with _timed(report.timings, "negotiation"):
        report.clearing_price, report.iterations, report.status = \
            protocol.run_negotiation(
                tas, config.market_config(), negotiation_codec,
                transcript, secure=secure, worst_case=config.worst_case)
        protocol.store_forecasts(tas, slot_codec, transcript)
    return tas, to, slot_codec


def _run_tail(report, tas, to, slot_codec, adversary, adversary_rng,
              force_reveal):
    """The rest of a slot: commitment, its check (a reject aborts the
    slot), honest actuals, the adversary, then the online phase.

    `force_reveal` maps the adversary's effective targets ({index: field})
    to whether the online phase reveals whatever the aggregate shows.
    Fills the report's check result, detection and timings, and returns
    the effective targets.
    """
    config, transcript = report.config, report.transcript
    secure = config.mode == "secure"
    with _timed(report.timings, "commitment"):
        if secure:
            openings = protocol.run_commitment(tas, to, slot_codec,
                                               transcript)
        else:
            protocol.run_commitment_plain(tas, transcript)
    report.check_result = "accept"
    if secure:
        with _timed(report.timings, "commitment_check"):
            report.check_result = protocol.run_commitment_check(
                to, *openings, transcript)
        if report.check_result == "reject":
            raise ProtocolAbortError("commitment check rejected; slot aborted")
    protocol.honest_actuals(tas, slot_codec)
    effective = protocol.apply_adversary(adversary, tas, slot_codec,
                                         adversary_rng)
    with _timed(report.timings, "online"):
        if secure:
            report.detection = protocol.run_online(
                tas, to, slot_codec, transcript,
                resolve_beta(config, tas, slot_codec),
                config.sigma_policy(), force_reveal=force_reveal(effective))
        else:
            report.detection = protocol.run_online_plain(
                tas, slot_codec, transcript, config.sigma_policy())
    return effective


def run_scenario(config, ck=None):
    """Execute one full slot under the configured mode and return a
    report whose traffic/storage numbers come solely from the transcript."""
    validate_config(config)
    report = RunReport(config=config, transcript=Transcript())
    tas, to, slot_codec = _run_head(report, ck)
    _run_tail(report, tas, to, slot_codec, config.adversary,
              market.random_source(config.seed_adversary, "adversary"),
              lambda _effective: config.force_reveal)
    report.traffic_kb, report.storage_kb = measure_sizes(report.transcript,
                                                         config.n_tas)
    return report


@dataclass
class ComparisonReport:
    secure: RunReport
    plain: RunReport
    prices_equal: bool


def compare_baseline(config):
    """Run secure and plain with identical seeds; price equality is
    asserted into the report, not silently dropped."""
    secure = run_scenario(replace(config, mode="secure"))
    plain = run_scenario(replace(config, mode="plain"))
    return ComparisonReport(
        secure=secure, plain=plain,
        prices_equal=secure.clearing_price == plain.clearing_price)


@dataclass
class DetectionSummary:
    runs: int = 0
    targets_per_run: int = 0
    true_positives: int = 0
    false_negatives: int = 0
    false_positives: int = 0
    wrong_list: int = 0
    t_m_total: int = 0
    t_f_total: int = 0
    untriggered_runs: int = 0
    list_overlaps: int = 0

    @property
    def accuracy(self):
        total = self.true_positives + self.false_negatives
        return self.true_positives / total if total else 1.0


# Detection-experiment thresholds: sigma strictly below the smallest
# injected relative deviation, beta below the smallest aggregate one.
DETECT_MIN_TRADE_KWH = 0.5
DETECT_HONEST_BETA_KWH = 0.1


def detection_experiment(base_config, n_targets=15, perturb_range=(0.05, 0.10),
                         n_runs=500):
    """Repeated adversarial slots measuring two-phase detection accuracy.

    The slot head (key and negotiation) runs once, since the key is
    one-off and the forecasts do not depend on the adversary; each run
    then executes the slot tail with fresh crypto and adversary
    randomness.
    Targets rotate through the three fields and are drawn among agents
    with a non-negligible trade, since scaling a zero value changes
    nothing observable.
    """
    if base_config.mode != "secure" or base_config.force_reveal:
        raise InvalidConfigError(
            "the detection experiment runs secure slots with its own reveal "
            "rule; plain mode and force_reveal do not apply")
    if not 0 <= n_targets <= base_config.n_tas:
        raise InvalidConfigError(f"need 0 <= n_targets <= {base_config.n_tas}")
    if n_runs < 1:
        raise InvalidConfigError(f"need n_runs >= 1, got {n_runs}")
    # The adversary's own check on the range, before the slot head runs.
    protocol.AdversaryScenario((), protocol.E_FIELD, *perturb_range)
    sigma_frac = perturb_range[0] / 2
    n_e_targets = (n_targets + 2) // 3
    # Half the guaranteed aggregate shift from the actual-meter targets;
    # honest aggregates deviate by exactly zero, so any positive beta
    # separates them.
    if n_e_targets:
        beta = n_e_targets * perturb_range[0] * DETECT_MIN_TRADE_KWH / 2
    else:
        beta = DETECT_HONEST_BETA_KWH
    base = validate_config(replace(base_config, sigma_frac=sigma_frac,
                                   sigma_floor=0.0, beta=beta))

    head = RunReport(config=base, transcript=Transcript())
    tas0, _, slot_codec = _run_head(head)
    forecasts = {ta.profile.index: ta.E_n for ta in tas0}
    profiles = [ta.profile for ta in tas0]

    eligible = [i for i, e in forecasts.items()
                if abs(slot_codec.decode(e)) >= DETECT_MIN_TRADE_KWH]
    # Actual-meter perturbations must all push the aggregate the same
    # way, or opposite-signed trades cancel below the trigger threshold.
    eligible_pos = [i for i in eligible if slot_codec.decode(forecasts[i]) > 0]
    if len(eligible) < n_targets or len(eligible_pos) < n_e_targets:
        raise InvalidConfigError(
            f"only {len(eligible)} agents trade >= {DETECT_MIN_TRADE_KWH} kWh; "
            f"cannot target {n_targets}")

    # The e_n targets, then the others alternating E_n and r_n.
    target_fields = ([protocol.E_FIELD] * n_e_targets
                     + [protocol.FORECAST_FIELD, protocol.RANDOMNESS_FIELD]
                     * n_targets)
    summary = DetectionSummary(runs=n_runs, targets_per_run=n_targets)
    expected_list = {protocol.E_FIELD: "t_m", protocol.FORECAST_FIELD: "t_f",
                     protocol.RANDOMNESS_FIELD: "t_f"}
    for run in range(n_runs):
        tas = build_agents(base, profiles=profiles, run_label=f"run{run}/")
        for ta in tas:
            ta.E_n = forecasts[ta.profile.index]

        adv_rng = market.random_source(base.seed_adversary, f"run{run}")
        e_targets = adv_rng.sample(eligible_pos, n_e_targets)
        others = adv_rng.sample([i for i in eligible if i not in e_targets],
                                n_targets - n_e_targets)
        scenarios = tuple(
            protocol.AdversaryScenario((idx,), fld, *perturb_range)
            for idx, fld in zip(e_targets + others, target_fields))

        slot = RunReport(config=base, transcript=Transcript())
        effective = _run_tail(slot, tas, protocol.Operator(ck=head.ck),
                              slot_codec, scenarios, adv_rng,
                              _audit_reveal_side)
        report = slot.detection
        if not report.triggered:
            summary.untriggered_runs += 1
        flagged = report.t_m_list | report.t_f_list
        summary.t_m_total += len(report.t_m_list)
        summary.t_f_total += len(report.t_f_list)
        summary.list_overlaps += len(report.t_m_list & report.t_f_list)
        for idx, fld in effective.items():
            if idx not in flagged:
                summary.false_negatives += 1
            else:
                summary.true_positives += 1
                actual = "t_m" if idx in report.t_m_list else "t_f"
                if actual != expected_list[fld]:
                    summary.wrong_list += 1
        summary.false_positives += len(flagged - set(effective))
    return summary


def _audit_reveal_side(effective):
    """Reveal-side fields (E_n, r_n) never move the aggregate, so no beta
    could trigger a run whose only effective targets are such fields;
    those runs are audited explicitly."""
    return bool(effective) and protocol.E_FIELD not in effective.values()


# Sweep axes in `--axis` order, each mapping an axis value onto the
# config it runs; bits_q = bits_p + bits_b.
SWEEP_AXES = {
    "n_tas": lambda c, value: replace(c, n_tas=value),
    "bits_q": lambda c, value: replace(c, bits_b=value - c.bits_p),
    "bits_p": lambda c, value: replace(c, bits_p=value),
}


def sweep(config, axis, values, repeats=1):
    """One scenario per axis value with otherwise fixed seeds: the
    `phase_rows` of each value behind an `axis_value` column, with the
    median seconds over `repeats` runs."""
    if axis not in SWEEP_AXES:
        raise InvalidConfigError(f"unknown sweep axis {axis!r}")
    if not values:
        raise InvalidConfigError("sweep needs at least one value")
    if repeats < 1:
        raise InvalidConfigError("sweep needs repeats >= 1")
    rows = []
    for value in values:
        cfg = SWEEP_AXES[axis](config, int(value))
        reports = [run_scenario(cfg) for _ in range(repeats)]
        for repeated in zip(*map(phase_rows, reports)):
            row = {"axis_value": value, **repeated[0]}
            row["seconds"] = statistics.median(r["seconds"] for r in repeated)
            rows.append(row)
    return rows


_BOOL_VALUES = {"true": True, "1": True, "yes": True,
                "false": False, "0": False, "no": False}

# Scenario-file parser per ScenarioConfig field type; only an optional
# float accepts "none". A parser raises ValueError or KeyError on bad text.
_PARSERS = {
    int: int,
    float: float,
    float | None: lambda v: None if v.lower() == "none" else float(v),
    bool: lambda v: _BOOL_VALUES[v.lower()],
    str: str,
}
_FIELD_PARSERS = {name: _PARSERS[hint] for name, hint
                  in typing.get_type_hints(ScenarioConfig).items()
                  if name != "adversary"}


def parse_scenario_file(text):
    """Line-oriented key = value scenario description; unknown keys and
    malformed values are rejected."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise InvalidConfigError(f"line {lineno}: expected 'key = value'")
        if key not in _FIELD_PARSERS:
            raise InvalidConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            values[key] = _FIELD_PARSERS[key](value)
        except (ValueError, KeyError):
            raise InvalidConfigError(
                f"line {lineno}: bad value {value!r} for {key}") from None
    return ScenarioConfig(**values)
