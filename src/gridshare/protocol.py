"""The five-phase trading protocol as message-passing state machines.

One slot runs negotiation -> key generation (or key reuse) ->
commitment -> commitment check -> online over an in-memory bus with
bit-exact size accounting. A plain variant skips sharing and
commitments to form the no-security baseline. Every per-agent value
reaches the operator through one plain round, in which each agent
submits one scalar; a secure round is that plain round plus sharing.
Each phase builds its agents' id tuple once for `Transcript.send_each`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import market, numtheory, pedersen, sharing
from .errors import (
    EncodingRangeError,
    InvalidConfigError,
    InvalidParametersError,
    LifecycleError,
)
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
# Altered at reveal time, after the commitments: such a target never
# moves the aggregate, lands in t_f, and has no plain-slot counterpart.
REVEAL_FIELDS = (FORECAST_FIELD, RANDOMNESS_FIELD)
ADVERSARY_FIELDS = (E_FIELD, *REVEAL_FIELDS)


@dataclass(frozen=True)
class AdversaryScenario:
    """Perturbs one field of the targeted agents by a relative factor.

    e_n is altered before the online phase shares it; the
    `REVEAL_FIELDS` at reveal time (the commitments hold honest values).
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
    """One transactive agent's protocol-side state for a slot; `rng`, which
    draws its shares and r_n, is None in a plain slot."""

    def __init__(self, profile, rng):
        self.profile = profile
        self.id = ta_id(profile.index)
        self.rng = rng
        self.state = market.AgentState.initial(profile)
        self.E_n = None            # encoded forecast, fixed after negotiation
        self.r_n = None            # commitment randomness, fresh per slot
        self.e_actual = None       # metered kWh, signed
        self.reveal_E = None
        self.reveal_r = None
        self.refuse_reveal = False


def _plain_round(senders, values, modulus, transcript, phase):
    """One value per agent to the operator: each agent of the id tuple
    `senders` submits its value as one scalar, and the operator's total
    is their sum mod `modulus`."""
    transcript.send_each(phase, AGGREGATE_SUBMIT, senders, TO_ID, SCALAR_BITS)
    return sum(values) % modulus


def _share_round(tas, senders, values, modulus, transcript, phase):
    """The plain round plus sharing: every agent first splits its value
    into N shares and sends N-1 of them to its peers, then submits in the
    plain round the sum of the N shares it received (own kept share
    included); `senders` holds their ids. `sharing.draw_shares` makes the
    draws, over the negotiation ring and over p alike. Returns the plain
    round's sum, which is the operator's total: each agent's completing
    share closes its row, so the per-peer aggregates always sum to it,
    whatever was drawn.
    """
    sharing.draw_shares([ta.rng for ta in tas], modulus)
    transcript.send_each(phase, SHARE_TRANSFER, senders, "PEERS",
                         SCALAR_BITS * (len(tas) - 1))
    return _plain_round(senders, values, modulus, transcript, phase)


def run_negotiation(tas, config, codec, transcript, secure=True,
                    worst_case=False):
    """Iterative price negotiation over `market.clearing_rounds`; returns
    (price, rounds, status).

    A round is one `market.agent_step` pass, which steps every agent and
    returns its trade as a signed fixed-point integer of `codec`. In
    secure mode those cross the bus as additive shares; in plain mode
    agents submit them directly. Both modes sum the same integers, so
    the price trajectories agree bit for bit. Both raise
    EncodingRangeError for a trade the codec cannot hold, and when a
    round total wraps the codec's modulus. The operator broadcasts each
    round's price, and an accept notice once the loop stops.
    """
    phase = "negotiation"
    senders = tuple(ta.id for ta in tas)
    modulus = codec.modulus

    def aggregate(values):
        total = (_share_round(tas, senders, values, modulus, transcript,
                              phase) if secure else
                 _plain_round(senders, values, modulus, transcript, phase))
        signed = sum(values)
        # The operator reads the total centred, as `codec.decode` does.
        if (total if total <= modulus // 2 else total - modulus) != signed:
            raise EncodingRangeError(
                f"the round total {signed / codec.scale} kWh wraps modulus "
                f"{modulus}, which holds ±{codec.max_magnitude} kWh")
        return codec.decode(total)

    for k, gamma, _, status in market.clearing_rounds(
            [ta.state for ta in tas], config, aggregate, worst_case, codec):
        transcript.broadcast(phase, PRICE_SIGNAL, TO_ID, SCALAR_BITS)
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
    transcript.store_each(tuple(ta.id for ta in tas), "negotiation",
                          SCALAR_BITS)


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


def run_commitment(tas, ck, transcript):
    """Each agent commits to its forecast and shares (E_n, r_n); the
    aggregated openings and the commitment go to the operator."""
    phase = "commitment"
    senders = tuple(ta.id for ta in tas)
    commitments = []
    for ta in tas:
        if ta.E_n is None:
            raise LifecycleError(f"{ta.id} has no stored forecast")
        ta.r_n = ta.rng.randrange(ck.p)
        commitments.append(pedersen.commit(ck, ta.E_n, ta.r_n))
    e_total = _share_round(tas, senders, [ta.E_n for ta in tas], ck.p,
                           transcript, phase)
    r_total = _share_round(tas, senders, [ta.r_n for ta in tas], ck.p,
                           transcript, phase)
    transcript.send_each(phase, COMMITMENT_SUBMIT, senders, TO_ID, ck.bits_q)
    transcript.store_each(senders, phase, SCALAR_BITS)   # r_n for the reveal
    # Aggregate submissions already counted inside the share rounds; the
    # operator now holds the combined openings and every commitment.
    return commitments, e_total, r_total


def run_commitment_check(ck, commitments, e_total, r_total, transcript):
    """Homomorphic consistency check; on success the operator stores the
    commitments and the aggregate forecast, which the online phase takes."""
    phase = "commitment_check"
    if pedersen.product(commitments, ck) == pedersen.commit(ck, e_total,
                                                            r_total):
        transcript.store(TO_ID, phase,
                         len(commitments) * ck.bits_q + SCALAR_BITS)
        transcript.broadcast(phase, ACCEPT_NOTIFY, TO_ID, NOTIFY_BITS)
        return "accept"
    transcript.broadcast(phase, REJECT_NOTIFY, TO_ID, NOTIFY_BITS)
    return "reject"


def _encode_projected(slot_codec, kwh, bound):
    """Encode a kWh value projected onto [-bound, bound]."""
    return slot_codec.encode(max(-bound, min(bound, kwh)))


def _encode_actuals(slot_codec, kwhs):
    """Encode meter readings or perturbed reveals, each projected onto the
    field's range, in one pass: a value beyond it is flagged at the bound
    instead of aborting the slot."""
    bound = slot_codec.max_magnitude
    return slot_codec.encode_all([max(-bound, min(bound, kwh))
                                  for kwh in kwhs])


def _deviates(slot_codec, forecast_enc, actual_enc, sigma_policy):
    """|forecast - actual| > sigma(forecast), on the decoded kWh."""
    forecast = slot_codec.decode(forecast_enc)
    actual = slot_codec.decode(actual_enc)
    return abs(forecast - actual) > sigma_policy(forecast)


def run_online(tas, ck, commitments, E_total, slot_codec, transcript, beta,
               sigma_policy, force_reveal=False):
    """Post-slot verification: share the metered actuals, compare the
    aggregate against the accepted total `E_total`, and on deviation
    reveal and classify every agent against its accepted commitment.
    `sigma_policy` maps a forecast in kWh to an agent's threshold."""
    phase = "online"
    p = slot_codec.modulus
    senders = tuple(ta.id for ta in tas)
    actuals_enc = _encode_actuals(slot_codec, [ta.e_actual for ta in tas])
    e_total = _share_round(tas, senders, actuals_enc, p, transcript, phase)
    transcript.store_each(senders, phase, SCALAR_BITS)   # metered actual
    report = DetectionReport(e_total=slot_codec.decode(e_total))
    deviation = abs(slot_codec.decode((E_total - e_total) % p))
    if deviation <= beta and not force_reveal:
        return report
    report.triggered = True
    transcript.broadcast(phase, REVEAL_REQUEST, TO_ID, NOTIFY_BITS)
    for ta, c, e_enc in zip(tas, commitments, actuals_enc):
        reveal_E = ta.reveal_E if ta.reveal_E is not None else ta.E_n
        reveal_r = ta.reveal_r if ta.reveal_r is not None else ta.r_n
        transcript.send(phase, REVEAL, ta.id, TO_ID, 3 * SCALAR_BITS)
        if ta.refuse_reveal or not pedersen.verify_open(ck, c, reveal_E,
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
    senders = tuple(ta.id for ta in tas)
    actuals_enc = _encode_actuals(slot_codec, [ta.e_actual for ta in tas])
    e_total = _plain_round(senders, actuals_enc, slot_codec.modulus,
                           transcript, phase)
    transcript.store_each(senders, phase, SCALAR_BITS)
    report = DetectionReport(e_total=slot_codec.decode(e_total))
    for ta, e_enc in zip(tas, actuals_enc):
        if _deviates(slot_codec, ta.E_n, e_enc, sigma_policy):
            report.t_m_list.add(ta.profile.index)
    return report


def run_commitment_plain(tas, slot_codec, transcript):
    """Baseline forecast submission: each agent sends its quantized
    forecast directly and the operator stores it."""
    phase = "commitment"
    for ta in tas:
        if ta.E_n is None:
            raise LifecycleError(f"{ta.id} has no stored forecast")
    _plain_round(tuple(ta.id for ta in tas), [ta.E_n for ta in tas],
                 slot_codec.modulus, transcript, phase)
    transcript.store(TO_ID, phase, len(tas) * SCALAR_BITS)


def honest_actuals(tas, slot_codec):
    """Meter readings for a deviation-free slot: each actual equals the
    agent's stored forecast."""
    for ta in tas:
        ta.e_actual = slot_codec.decode(ta.E_n)


def apply_adversary(scenarios, tas, slot_codec, rng):
    """Mutate the targeted agents' inputs by each AdversaryScenario in
    the tuple `scenarios`, in order; returns {index: field} for targets
    whose encoded value changed (a 5-10% scaling of a zero value is a
    no-op and cannot be observed by any detector)."""
    by_index = {ta.profile.index: ta for ta in tas}
    effective = {}
    for sc in scenarios:
        for idx in sc.target_indices:
            ta = by_index[idx]
            factor = 1.0 + rng.uniform(sc.perturb_lo, sc.perturb_hi)
            if sc.target_field == E_FIELD:
                honest, perturbed = _encode_actuals(
                    slot_codec, (ta.e_actual, ta.e_actual * factor))
                ta.e_actual *= factor
            elif sc.target_field == FORECAST_FIELD:
                honest = ta.E_n
                perturbed, = _encode_actuals(
                    slot_codec, (slot_codec.decode(honest) * factor,))
                ta.reveal_E = perturbed
            else:
                # Round half up in exact integers: a float product
                # overflows or drops low bits once p is wide.
                honest = ta.r_n
                num, den = factor.as_integer_ratio()
                perturbed = ta.reveal_r = ((2 * honest * num + den)
                                           // (2 * den) % slot_codec.modulus)
            if perturbed != honest:
                effective[idx] = sc.target_field
    return effective
