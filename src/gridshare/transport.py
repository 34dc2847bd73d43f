"""In-memory message bus with bit-exact size accounting.

The wire model is normative for all reported traffic and storage:
scalars (field values, prices, aggregates, reveal components) are 32
bits, a commitment is bits_q bits, the key broadcast is 3*bits_q +
bits_p bits, and notifications are free. A transcript counts them in one
entity -> bits table per phase.
"""

from __future__ import annotations

from collections import defaultdict

SCALAR_BITS = 32
NOTIFY_BITS = 0

PHASES = ("negotiation", "keygen", "commitment", "commitment_check", "online")

# Message kinds.
PRICE_SIGNAL = "PriceSignal"
SHARE_TRANSFER = "ShareTransfer"
AGGREGATE_SUBMIT = "AggregateSubmit"
COMMITMENT_SUBMIT = "CommitmentSubmit"
KEY_BROADCAST = "KeyBroadcast"
ACCEPT_NOTIFY = "AcceptNotify"
REJECT_NOTIFY = "RejectNotify"
REVEAL_REQUEST = "RevealRequest"
REVEAL = "Reveal"
FLAG_NOTIFY = "FlagNotify"


class Transcript:
    """Per-phase, per-entity traffic and storage counters, exact to the
    bit: one entity -> bits table per phase in `PHASES`, read as
    `traffic_bits[phase][entity]`. A phase outside `PHASES` raises
    KeyError. Only the counters are kept: a send's `kind` and `receiver`
    name the message but are not recorded.
    """

    def __init__(self):
        self.traffic_bits = {ph: defaultdict(int) for ph in PHASES}
        self.storage_bits = {ph: defaultdict(int) for ph in PHASES}

    def send(self, phase, kind, sender, receiver, bits):
        self.traffic_bits[phase][sender] += bits

    def broadcast(self, phase, kind, sender, bits):
        """A broadcast counts once against the sender, per the wire model."""
        self.send(phase, kind, sender, "ALL", bits)

    def store(self, entity, phase, bits):
        self.storage_bits[phase][entity] += bits


def ta_id(n):
    return f"TA{n}"


TO_ID = "TO"
