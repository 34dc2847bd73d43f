"""Scenario configuration, orchestration, metrics, and the experiment
suite (traffic tables, baseline comparison, detection accuracy, sweeps)."""

from __future__ import annotations

import contextlib
import math
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

MAX_TRADE_KWH = int(market.E_TOT_RANGE[1])


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


# Each setting's type, read by `validate_config` and by `FIELD_PARSERS`.
FIELD_TYPES = typing.get_type_hints(ScenarioConfig)


def _has_type(value, hint):
    """Whether `value` holds `hint`: an int is no bool, a float a finite
    int or float, a tuple (`tuple[X, ...]` or `tuple[X, Y]`) its items."""
    if hint == float | None:
        return value is None or _has_type(value, float)
    if hint is float:
        return type(value) is int or (isinstance(value, float)
                                      and math.isfinite(value))
    if typing.get_origin(hint) is tuple:
        if type(value) is not tuple:
            return False
        items = typing.get_args(hint)
        items = items[:1] * len(value) if items[-1] is ... else items
        return len(items) == len(value) and all(map(_has_type, value, items))
    return type(value) is hint


def validate_config(config):
    c = config
    for name, hint in FIELD_TYPES.items():
        value = getattr(c, name)
        if not _has_type(value, hint):
            kind = hint.__name__ if isinstance(hint, type) else hint
            raise InvalidConfigError(
                f"{name} must be {kind}, finite if a number: {value!r}")
    if c.n_tas < 2 or c.n_tas % 2 != 0:
        raise InvalidConfigError("n_tas must be even and >= 2")
    if c.bits_p < 8 or c.bits_b < 8:
        raise InvalidConfigError("bits_p and bits_b must each be >= 8")
    if c.scale < 1 or c.mr_rounds < 1:
        raise InvalidConfigError("scale and mr_rounds must each be >= 1")
    if c.mode not in ("secure", "plain"):
        raise InvalidConfigError(f"unknown mode {c.mode!r}")
    if c.keygen_mode != "fast":
        raise InvalidConfigError(f"unknown keygen mode {c.keygen_mode!r}")
    if c.beta is not None and c.beta < 0:
        raise InvalidConfigError("beta must be >= 0")
    if c.sigma_frac < 0 or c.sigma_floor < 0:
        raise InvalidConfigError("sigma_frac and sigma_floor must be >= 0")
    c.market_config()   # raises on bad zeta/epsilon/varsigma/gamma_init
    for sc in c.adversary:
        if any(i not in range(c.n_tas) for i in sc.target_indices):
            raise InvalidConfigError(
                f"adversary targets {sc.target_indices} must be agent "
                f"indices in [0, {c.n_tas})")
        if c.mode == "plain" and sc.target_field in protocol.REVEAL_FIELDS:
            raise InvalidConfigError(
                "plain slots have no reveal and no r_n; an adversary there "
                "can only target e_n")
    # Worst-case group order for the requested size; individual encoded
    # trades must fit its centered range.
    if c.scale * MAX_TRADE_KWH >= 1 << (c.bits_p - 2):
        raise InvalidConfigError(
            f"scale {c.scale} cannot represent {MAX_TRADE_KWH} kWh in a "
            f"{c.bits_p}-bit field")
    # A negotiation round's total must fit the ring's centred range.
    if c.n_tas * MAX_TRADE_KWH * c.scale >= sharing.NEGOTIATION_MODULUS // 2:
        raise InvalidConfigError(
            f"{c.n_tas} trades of up to {MAX_TRADE_KWH} kWh at scale "
            f"{c.scale} can wrap the negotiation ring")
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
    """Per-phase traffic and storage in KB (1024 bytes), per entity class.

    The TA column is per single agent; the protocol is symmetric, so
    every agent's counters agree and TA0 is representative. That is
    checked per agent, each group total split evenly over its members:
    counters that differ, or a total that does not split evenly, raise
    AsymmetricTranscriptError.
    """
    traffic, storage = {}, {}
    tables = ((transcript.traffic_bits, "traffic", traffic),
              (transcript.storage_bits, "storage", storage))
    ta0, *others = map(ta_id, range(n_tas))
    for phase in PHASES:
        for tables_by_phase, what, table in tables:
            counters = _per_member(tables_by_phase[phase], phase, what)
            expected = counters.get(ta0, 0)
            for ta in others:
                got = counters.get(ta, 0)
                if got != expected:
                    raise AsymmetricTranscriptError(
                        f"{ta} {phase} {what} is {got} bits, "
                        f"{ta0} has {expected}")
            table[phase] = {"TA": expected / 8 / 1024,
                            "TO": counters.get(TO_ID, 0) / 8 / 1024}
    return traffic, storage


def _per_member(counters, phase, what):
    """`counters` with each tuple entity's total split evenly over its ids."""
    split = {}
    for entity, bits in counters.items():
        members = entity if type(entity) is tuple else (entity,)
        each, rest = divmod(bits, len(members))
        if rest:
            raise AsymmetricTranscriptError(
                f"a group of {len(members)} has {phase} {what} of {bits} "
                "bits, which does not split evenly over its members")
        for member in members:
            split[member] = split.get(member, 0) + each
    return split


def build_agents(config):
    """One agent per sampled profile. Only a secure slot's agents draw
    (shares and r_n), so only they get a generator, else `rng=None`."""
    profiles = market.sample_profiles(
        config.n_tas, market.random_source(config.seed_profiles, "profiles"))
    if config.mode != "secure":
        return [protocol.TAgent(p, None) for p in profiles]
    return [protocol.TAgent(p, market.random_source(
        config.seed_crypto, f"ta{p.index}")) for p in profiles]


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
    a key (`ck` if given, which must have the config's bits_p and bits_q,
    else a generated one); then negotiate and store the forecasts. Fills
    the report's key, price and timings, and returns the agents and the
    slot codec."""
    config, transcript = report.config, report.transcript
    secure = config.mode == "secure"
    tas = build_agents(config)
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
                # A generated key has exact sizes and generators of order
                # p by construction; only a supplied one can be wrong.
                ck.check_generators()
                if (ck.bits_p, ck.bits_q) != (config.bits_p,
                                              config.bits_p + config.bits_b):
                    raise InvalidConfigError(
                        f"the key has bits_p={ck.bits_p}, bits_q="
                        f"{ck.bits_q}; the config needs {config.bits_p} "
                        f"and {config.bits_p + config.bits_b}")
                protocol.log_key_broadcast(ck, transcript)
        report.ck = ck
        slot_codec = sharing.FixedPointCodec(ck.p, config.scale)
    with _timed(report.timings, "negotiation"):
        report.clearing_price, report.iterations, report.status = \
            protocol.run_negotiation(
                tas, config.market_config(), negotiation_codec,
                transcript, secure=secure, worst_case=config.worst_case)
        protocol.store_forecasts(tas, slot_codec, transcript)
    return tas, slot_codec


def _run_tail(report, tas, slot_codec, adversary, adversary_rng,
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
            commitments, e_total, r_total = protocol.run_commitment(
                tas, report.ck, transcript)
        else:
            protocol.run_commitment_plain(tas, slot_codec, transcript)
    report.check_result = "accept"
    if secure:
        with _timed(report.timings, "commitment_check"):
            report.check_result = protocol.run_commitment_check(
                report.ck, commitments, e_total, r_total, transcript)
        if report.check_result == "reject":
            raise ProtocolAbortError("commitment check rejected; slot aborted")
    protocol.honest_actuals(tas, slot_codec)
    effective = protocol.apply_adversary(adversary, tas, slot_codec,
                                         adversary_rng)
    with _timed(report.timings, "online"):
        if secure:
            report.detection = protocol.run_online(
                tas, report.ck, commitments, e_total, slot_codec, transcript,
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
    tas, slot_codec = _run_head(report, ck)
    _run_tail(report, tas, slot_codec, config.adversary,
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


def detection_experiment(base_config, n_targets=15, perturb_range=(0.05, 0.10),
                         n_runs=500):
    """Repeated adversarial slots measuring two-phase detection accuracy.

    The slot head (key and negotiation) runs once, since the key is
    one-off and the forecasts do not depend on the adversary; each run
    then executes the slot tail with fresh adversary randomness and the
    next stretch of each agent's one generator, carried on from the head.
    Targets rotate through the three fields and are drawn among agents
    with a non-negligible trade, since scaling a zero value changes
    nothing observable.
    """
    c = base_config
    if (c.mode != "secure" or c.force_reveal or c.beta is not None
            or c.adversary or (c.sigma_frac, c.sigma_floor)
            != (ScenarioConfig.sigma_frac, ScenarioConfig.sigma_floor)):
        raise InvalidConfigError(
            "the detection experiment runs secure slots with its own "
            "adversary, thresholds and reveal rule; plain mode, "
            "force_reveal, beta, sigma_frac, sigma_floor and adversary do "
            "not apply")
    if not (_has_type(n_targets, int) and _has_type(n_runs, int)
            and _has_type(perturb_range, tuple[float, float])):
        raise InvalidConfigError(
            "n_targets and n_runs must be ints and perturb_range a pair "
            f"of numbers: {n_targets!r}, {n_runs!r}, {perturb_range!r}")
    if not 0 <= n_targets <= base_config.n_tas:
        raise InvalidConfigError(f"need 0 <= n_targets <= {base_config.n_tas}")
    if n_runs < 1:
        raise InvalidConfigError(f"need n_runs >= 1, got {n_runs}")
    # The adversary's own check on the range, before the slot head runs.
    protocol.AdversaryScenario((), protocol.E_FIELD, *perturb_range)
    sigma_frac = perturb_range[0] / 2
    n_e_targets = (n_targets + 2) // 3
    # Half the guaranteed aggregate shift from the actual-meter targets.
    # An honest aggregate deviates by exactly zero, which even beta = 0
    # (no targets) does not trigger.
    beta = n_e_targets * perturb_range[0] * DETECT_MIN_TRADE_KWH / 2
    if not math.isfinite(beta):
        raise InvalidConfigError(
            f"perturb_range {perturb_range!r} is too large: beta is {beta!r}")
    base = validate_config(replace(base_config, sigma_frac=sigma_frac,
                                   sigma_floor=0.0, beta=beta))
    # validate_config's field bound, for a trade scaled by the largest
    # factor: past it a target is projected onto the field's range and
    # can go unflagged.
    top_trade = (1 + perturb_range[1]) * base.scale * MAX_TRADE_KWH
    if top_trade >= 1 << (base.bits_p - 2):
        raise InvalidConfigError(
            f"perturb_range {perturb_range!r} is too large: a {MAX_TRADE_KWH} "
            f"kWh trade scaled by it does not fit a {base.bits_p}-bit field")

    head = RunReport(config=base, transcript=Transcript())
    tas0, slot_codec = _run_head(head)
    forecasts = {ta.profile.index: ta.E_n for ta in tas0}

    eligible = [i for i, e in forecasts.items()
                if abs(slot_codec.decode(e)) >= DETECT_MIN_TRADE_KWH]
    # Actual-meter perturbations must all push the aggregate the same
    # way, or opposite-signed trades cancel below the trigger threshold.
    eligible_pos = [i for i in eligible if slot_codec.decode(forecasts[i]) > 0]
    if len(eligible) < n_targets:
        raise InvalidConfigError(
            f"only {len(eligible)} agents trade >= {DETECT_MIN_TRADE_KWH} kWh; "
            f"cannot target {n_targets}")
    if len(eligible_pos) < n_e_targets:
        raise InvalidConfigError(
            f"only {len(eligible_pos)} agents forecast a surplus >= "
            f"{DETECT_MIN_TRADE_KWH} kWh; cannot make {n_e_targets} e_n "
            "targets")

    # The e_n targets, then the others cycling through the reveal fields.
    target_fields = ([protocol.E_FIELD] * n_e_targets
                     + list(protocol.REVEAL_FIELDS) * n_targets)
    summary = DetectionSummary(runs=n_runs, targets_per_run=n_targets)
    for run in range(n_runs):
        tas = [protocol.TAgent(ta.profile, ta.rng) for ta in tas0]
        for ta in tas:
            ta.E_n = forecasts[ta.profile.index]

        adv_rng = market.random_source(base.seed_adversary, f"run{run}")
        e_targets = adv_rng.sample(eligible_pos, n_e_targets)
        others = adv_rng.sample([i for i in eligible if i not in e_targets],
                                n_targets - n_e_targets)
        scenarios = tuple(
            protocol.AdversaryScenario((idx,), fld, *perturb_range)
            for idx, fld in zip(e_targets + others, target_fields))

        slot = RunReport(config=base, transcript=Transcript(), ck=head.ck)
        effective = _run_tail(slot, tas, slot_codec, scenarios, adv_rng,
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
                # A reveal-side target belongs in t_f, an e_n one in t_m.
                if (idx in report.t_m_list) == (fld in protocol.REVEAL_FIELDS):
                    summary.wrong_list += 1
        summary.false_positives += len(flagged - set(effective))
    return summary


def _audit_reveal_side(effective):
    """`protocol.REVEAL_FIELDS` never move the aggregate, so no beta could
    trigger a run whose only effective targets are such fields; those
    runs are audited explicitly."""
    return bool(effective) and all(fld in protocol.REVEAL_FIELDS
                                   for fld in effective.values())


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
        cfg = SWEEP_AXES[axis](config, value)
        reports = [run_scenario(cfg) for _ in range(repeats)]
        for repeated in zip(*map(phase_rows, reports)):
            row = {"axis_value": value, **repeated[0]}
            seconds = sorted(r["seconds"] for r in repeated)
            mid = len(seconds) // 2
            row["seconds"] = (seconds[mid] if len(seconds) % 2
                              else (seconds[mid - 1] + seconds[mid]) / 2)
            rows.append(row)
    return rows


_BOOL_VALUES = {"true": True, "1": True, "yes": True,
                "false": False, "0": False, "no": False}


def float_or_none(text):
    """A float, or None for "none"."""
    return None if text.lower() == "none" else float(text)


# The text parser of each ScenarioConfig field but `adversary`, by its
# type, for scenario files and CLI flags alike; only an optional float
# accepts "none". A parser raises ValueError or KeyError on bad text.
_PARSERS = {
    int: int,
    float: float,
    float | None: float_or_none,
    bool: lambda v: _BOOL_VALUES[v.lower()],
    str: str,
}
FIELD_PARSERS = {name: _PARSERS[hint] for name, hint in FIELD_TYPES.items()
                 if name != "adversary"}


def parse_scenario_file(text):
    """A `key = value` scenario description, each key a field of
    `FIELD_PARSERS`; see `numtheory.parse_key_values`."""
    return ScenarioConfig(**numtheory.parse_key_values(
        text, FIELD_PARSERS, InvalidConfigError))
