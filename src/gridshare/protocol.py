"""The five-phase trading protocol as message-passing state machines.

One slot runs negotiation -> key generation (or key reuse) ->
commitment -> commitment check -> online over an in-memory bus with
bit-exact size accounting. A plain variant skips sharing and
commitments to form the no-security baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import market, numtheory, pedersen, sharing
from .errors import InvalidConfigError, InvalidParametersError, LifecycleError
from .transport import (
    ACCEPT_NOTIFY,
    AGGREGATE_SUBMIT,
    COMMITMENT_SUBMIT,
    FLAG_NOTIFY,
    KEY_BROADCAST,
    NOTIFY_BITS,
    PRICE_SIGNAL,
    REJECT_NOTIFY,
    REVEAL,
    REVEAL_REQUEST,
    SCALAR_BITS,
    SHARE_TRANSFER,
    TO_ID,
    ta_id,
)

E_FIELD = "e_n"
FORECAST_FIELD = "E_n"
RANDOMNESS_FIELD = "r_n"
ADVERSARY_FIELDS = (E_FIELD, FORECAST_FIELD, RANDOMNESS_FIELD)


@dataclass(frozen=True)
class AdversaryScenario:
    """Perturbs one field of the targeted agents by a relative factor.

    e_n is altered before the online phase shares it; E_n and r_n are
    altered at reveal time (the commitments were made on honest values).
    """

    target_indices: tuple
    target_field: str
    perturb_lo: float = 0.05
    perturb_hi: float = 0.10

    def __post_init__(self):
        if self.target_field not in ADVERSARY_FIELDS:
            raise InvalidConfigError(
                f"unknown target field {self.target_field!r}")
        # NaN fails every comparison, so it lands in the error branch.
        if not 0 <= self.perturb_lo <= self.perturb_hi < math.inf:
            raise InvalidConfigError(
                "need finite 0 <= perturb_lo <= perturb_hi")


@dataclass
class DetectionReport:
    t_m_list: set = field(default_factory=set)
    t_f_list: set = field(default_factory=set)
    e_total: float = 0.0
    triggered: bool = False


class TAgent:
    """One transactive agent's protocol-side state for a slot."""

    def __init__(self, profile, rng):
        self.profile = profile
        self.rng = rng
        self.state = market.AgentState.initial(profile)
        self.E_n = None            # encoded forecast, fixed after negotiation
        self.r_n = None            # commitment randomness, fresh per slot
        self.e_actual = None       # metered kWh, signed
        self.reveal_E = None
        self.reveal_r = None
        self.refuse_reveal = False

    @property
    def id(self):
        return ta_id(self.profile.index)


class Operator:
    """The semi-honest operator's protocol-side state for a slot."""

    def __init__(self, ck=None):
        self.ck = ck
        self.stored_commitments = None
        self.E_total = None        # encoded aggregate, mod group order


def _share_round(tas, values, modulus, transcript, phase):
    """One full share-distribute-aggregate round.

    Every agent splits its value into N shares, sends N-1 of them to its
    peers, then submits the sum of the N shares it received (own kept
    share included) to the operator. Returns the operator-side total.
    """
    n = len(tas)
    rows = []
    for ta, value in zip(tas, values):
        rows.append(sharing.split(value, n, modulus, ta.rng))
        transcript.send(phase, SHARE_TRANSFER, ta.id, "PEERS",
                        SCALAR_BITS * (n - 1))
    aggregates = [sharing.reconstruct(col, modulus, n) for col in zip(*rows)]
    for ta in tas:
        transcript.send(phase, AGGREGATE_SUBMIT, ta.id, TO_ID, SCALAR_BITS)
    return sharing.reconstruct(aggregates, modulus, n)


def run_negotiation(tas, config, codec, transcript, secure=True,
                    worst_case=False):
    """Iterative price negotiation; returns (price, rounds, status).

    In secure mode each round's trades cross the bus as additive shares;
    in plain mode agents submit their quantized trades directly. Both
    modes apply identical fixed-point quantization, so the price
    trajectories agree bit for bit.
    """
    phase = "negotiation"
    gamma = config.gamma_init
    k = 1
    while True:
        transcript.broadcast(phase, PRICE_SIGNAL, TO_ID, SCALAR_BITS)
        trades = []
        for ta in tas:
            market.agent_step(ta.state, gamma, config.zeta)
            trades.append(codec.encode(market.signed_trade(ta.state)))
        if secure:
            total_enc = _share_round(tas, trades, codec.modulus, transcript,
                                     phase)
        else:
            for ta in tas:
                transcript.send(phase, AGGREGATE_SUBMIT, ta.id, TO_ID,
                                SCALAR_BITS)
            total_enc = sum(trades) % codec.modulus
        total = codec.decode(total_enc)
        gamma_new = market.update_price(gamma, config.zeta, total)
        status = market.check_convergence(gamma_new, gamma, k + 1, config,
                                          worst_case)
        gamma = gamma_new
        if status != market.CONTINUE:
            break
        k += 1
    transcript.broadcast(phase, ACCEPT_NOTIFY, TO_ID, NOTIFY_BITS)
    return gamma, k, status


def store_forecasts(tas, slot_codec, transcript):
    """Each agent stores its negotiated trade, projected onto its feasible
    range (magnitude at most |E_n_tot|) and re-encoded into the
    commitment field.

    Negotiation enforces the bound only through its dual variables, so a
    trade can end above it; the projection keeps every forecast within
    the 20 kWh that `validate_config` checks the field against.
    """
    for ta in tas:
        ta.E_n = _encode_projected(slot_codec, market.signed_trade(ta.state),
                                   abs(ta.profile.E_n_tot))
        transcript.store(ta.id, "negotiation", SCALAR_BITS)


def run_keygen(bits_p, bits_b, rng, transcript, mode="fast",
               rounds=numtheory.DEFAULT_MR_ROUNDS):
    """Operator-side commitment key generation and broadcast. `mode`
    accepts only "fast", the one key generation there is."""
    if mode != "fast":
        raise InvalidParametersError(f"unknown keygen mode {mode!r}")
    ck = numtheory.generate_group_params(bits_p, bits_b, rng, rounds=rounds)
    log_key_broadcast(ck, transcript)
    return ck


def log_key_broadcast(ck, transcript):
    """Account for broadcasting and storing an existing key: q, g and h
    travel as bits_q-bit values, p as bits_p bits."""
    bits = 3 * ck.bits_q + ck.bits_p
    transcript.broadcast("keygen", KEY_BROADCAST, TO_ID, bits)
    transcript.store(TO_ID, "keygen", bits)


def run_commitment(tas, to, slot_codec, transcript):
    """Each agent commits to its forecast and shares (E_n, r_n); the
    aggregated openings and the commitment go to the operator."""
    phase = "commitment"
    ck = to.ck
    n = len(tas)
    commitments = []
    for ta in tas:
        if ta.E_n is None:
            raise LifecycleError(f"{ta.id} has no stored forecast")
        ta.r_n = ta.rng.randrange(ck.p)
        commitments.append(pedersen.commit(ck, ta.E_n, ta.r_n))
    e_total = _share_round(tas, [ta.E_n for ta in tas], ck.p, transcript,
                           phase)
    r_total = _share_round(tas, [ta.r_n for ta in tas], ck.p, transcript,
                           phase)
    for ta in tas:
        transcript.send(phase, COMMITMENT_SUBMIT, ta.id, TO_ID, ck.bits_q)
        transcript.store(ta.id, phase, SCALAR_BITS)   # r_n kept for reveal
    # Aggregate submissions already counted inside the share rounds; the
    # operator now holds the combined openings and every commitment.
    return commitments, e_total, r_total


def run_commitment_check(to, commitments, e_total, r_total, transcript):
    """Homomorphic consistency check; on success the operator stores the
    commitments and the aggregate forecast."""
    phase = "commitment_check"
    ck = to.ck
    if pedersen.product(commitments, ck) == pedersen.commit(ck, e_total,
                                                            r_total):
        to.stored_commitments = list(commitments)
        to.E_total = e_total
        transcript.store(TO_ID, phase,
                         len(commitments) * ck.bits_q + SCALAR_BITS)
        transcript.broadcast(phase, ACCEPT_NOTIFY, TO_ID, NOTIFY_BITS)
        return "accept"
    transcript.broadcast(phase, REJECT_NOTIFY, TO_ID, NOTIFY_BITS)
    return "reject"


def _encode_projected(slot_codec, kwh, bound):
    """Encode a kWh value projected onto [-bound, bound]."""
    return slot_codec.encode(max(-bound, min(bound, kwh)))


def _encode_actual(slot_codec, kwh):
    """Encode a meter reading projected onto the field's range: a reading
    beyond it is flagged at the bound instead of aborting the slot."""
    return _encode_projected(slot_codec, kwh, slot_codec.max_magnitude)


def _deviates(slot_codec, forecast_enc, actual_enc, sigma_policy):
    """|forecast - actual| > sigma(forecast), on the decoded kWh."""
    forecast = slot_codec.decode(forecast_enc)
    actual = slot_codec.decode(actual_enc)
    return abs(forecast - actual) > sigma_policy(forecast)


def run_online(tas, to, slot_codec, transcript, beta, sigma_policy,
               force_reveal=False):
    """Post-slot verification: share the metered actuals, compare the
    aggregate against the committed total, and on deviation reveal and
    classify every agent. `sigma_policy` maps a forecast in kWh to that
    agent's deviation threshold."""
    phase = "online"
    if to.stored_commitments is None:
        raise LifecycleError("online phase requires an accepted commitment check")
    p = slot_codec.modulus
    actuals_enc = [_encode_actual(slot_codec, ta.e_actual) for ta in tas]
    e_total = _share_round(tas, actuals_enc, p, transcript, phase)
    for ta in tas:
        transcript.store(ta.id, phase, SCALAR_BITS)   # metered actual
    report = DetectionReport(e_total=slot_codec.decode(e_total))
    deviation = abs(slot_codec.decode((to.E_total - e_total) % p))
    if deviation <= beta and not force_reveal:
        return report
    report.triggered = True
    transcript.broadcast(phase, REVEAL_REQUEST, TO_ID, NOTIFY_BITS)
    for ta, c, e_enc in zip(tas, to.stored_commitments, actuals_enc):
        reveal_E = ta.reveal_E if ta.reveal_E is not None else ta.E_n
        reveal_r = ta.reveal_r if ta.reveal_r is not None else ta.r_n
        transcript.send(phase, REVEAL, ta.id, TO_ID, 3 * SCALAR_BITS)
        if ta.refuse_reveal or not pedersen.verify_open(to.ck, c, reveal_E,
                                                        reveal_r):
            report.t_f_list.add(ta.profile.index)
            transcript.send(phase, FLAG_NOTIFY, TO_ID, ta.id, NOTIFY_BITS)
            continue
        if _deviates(slot_codec, reveal_E, e_enc, sigma_policy):
            report.t_m_list.add(ta.profile.index)
            transcript.send(phase, FLAG_NOTIFY, TO_ID, ta.id, NOTIFY_BITS)
    return report


def run_online_plain(tas, slot_codec, transcript, sigma_policy):
    """Baseline online phase: actuals travel in the clear; deviation is
    checked per agent with no commitment verification."""
    phase = "online"
    report = DetectionReport()
    total = 0
    for ta in tas:
        e_enc = _encode_actual(slot_codec, ta.e_actual)
        transcript.send(phase, AGGREGATE_SUBMIT, ta.id, TO_ID, SCALAR_BITS)
        transcript.store(ta.id, phase, SCALAR_BITS)
        total = (total + e_enc) % slot_codec.modulus
        if _deviates(slot_codec, ta.E_n, e_enc, sigma_policy):
            report.t_m_list.add(ta.profile.index)
    report.e_total = slot_codec.decode(total)
    return report


def run_commitment_plain(tas, transcript):
    """Baseline forecast submission: each agent sends its quantized
    forecast directly and the operator stores it."""
    phase = "commitment"
    for ta in tas:
        if ta.E_n is None:
            raise LifecycleError(f"{ta.id} has no stored forecast")
        transcript.send(phase, AGGREGATE_SUBMIT, ta.id, TO_ID, SCALAR_BITS)
    transcript.store(TO_ID, phase, len(tas) * SCALAR_BITS)


def honest_actuals(tas, slot_codec):
    """Meter readings for a deviation-free slot: each actual equals the
    agent's stored forecast."""
    for ta in tas:
        ta.e_actual = slot_codec.decode(ta.E_n)


def apply_adversary(scenarios, tas, slot_codec, rng):
    """Mutate the targeted agents' inputs by each AdversaryScenario in
    the tuple `scenarios`, in order; returns {index: field} for targets
    whose value actually changed (a 5-10% scaling of a zero value is a
    no-op and cannot be observed by any detector)."""
    by_index = {ta.profile.index: ta for ta in tas}
    effective = {}
    for sc in scenarios:
        for idx in sc.target_indices:
            ta = by_index[idx]
            factor = 1.0 + rng.uniform(sc.perturb_lo, sc.perturb_hi)
            if sc.target_field == E_FIELD:
                honest = ta.e_actual
                ta.e_actual = honest * factor
                if (_encode_actual(slot_codec, ta.e_actual)
                        != _encode_actual(slot_codec, honest)):
                    effective[idx] = E_FIELD
            elif sc.target_field == FORECAST_FIELD:
                perturbed = slot_codec.encode(
                    slot_codec.decode(ta.E_n) * factor)
                ta.reveal_E = perturbed
                if perturbed != ta.E_n:
                    effective[idx] = FORECAST_FIELD
            else:
                perturbed = int(ta.r_n * factor + 0.5) % slot_codec.modulus
                ta.reveal_r = perturbed
                if perturbed != ta.r_n:
                    effective[idx] = RANDOMNESS_FIELD
    return effective
