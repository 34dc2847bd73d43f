"""Per-layer tracing for the gridshare benchmark.

The tracer works from outside the package: it replaces module and class
attributes of gridshare with wrappers and puts them back afterwards.
Phase and op boundaries become spans with parent links. Hot per-agent
calls (split, encode/decode, send, agent_step, commit, prime tests) are
recorded as call counts and summed inclusive seconds only, because one
span per call would cost more than the calls themselves. Counting `pow`
shims placed in the `gridshare.pedersen` and `gridshare.numtheory`
namespaces count modular exponentiations without timing them.

Wrappers call straight through, so a traced run draws exactly the same
randomness as an untraced one; `RandomnessProbe` lets the benchmark check
that.
"""

from __future__ import annotations

import builtins
import contextlib
import functools
import hashlib
import inspect
import json
import os
import time
from collections import defaultdict

from gridshare import harness, market, numtheory, pedersen, protocol, sharing
from gridshare import transport

# Phase-level functions: (owner, attribute, span name). The plain
# baseline's commitment and online phases share the secure names.
SPANNED = (
    (protocol, "run_keygen", "protocol.keygen"),
    (protocol, "run_negotiation", "protocol.negotiation"),
    (protocol, "run_commitment", "protocol.commitment"),
    (protocol, "run_commitment_plain", "protocol.commitment"),
    (protocol, "run_commitment_check", "protocol.commitment_check"),
    (protocol, "run_online", "protocol.online"),
    (protocol, "run_online_plain", "protocol.online"),
    (numtheory, "generate_group_params", "numtheory.generate_group_params"),
    (harness, "build_agents", "harness.build_agents"),
)

_MR_ROUNDS_DEFAULT = inspect.signature(
    numtheory.is_probable_prime).parameters["rounds"].default


class Tracer:
    """Collects spans and per-layer counters while installed.

    `counts` maps a metric name to a number: `<name>.calls` and `<name>.s`
    for every wrapped function, plus the extra counters below. Recording
    is suspended while `active` is False, so the benchmark's own output
    checks (which call into gridshare too) are not attributed to ops.
    """

    def __init__(self):
        self.counts = defaultdict(float)
        self.spans = []
        self.active = True
        self.trace_id = None
        self._stack = []
        self._patches = []
        self._origin = time.perf_counter()

    # -- recording -------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        """A span with a parent link to the innermost open span."""
        record = {"id": len(self.spans), "trace": self.trace_id,
                  "name": name,
                  "parent": self._stack[-1] if self._stack else None}
        self.spans.append(record)
        self._stack.append(record["id"])
        t0 = time.perf_counter()
        try:
            yield record
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            record["start_s"] = t0 - self._origin
            record["end_s"] = t1 - self._origin
            self.counts[name + ".s"] += t1 - t0
            self.counts[name + ".calls"] += 1

    def take(self):
        """Return the counters gathered so far and start new ones."""
        taken, self.counts = self.counts, defaultdict(float)
        return taken

    def write_spans(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)

    # -- wrappers --------------------------------------------------------

    def _spanned(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _hot(self, name, fn, note=None):
        calls, secs = name + ".calls", name + ".s"
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            t0 = clock()
            result = fn(*args, **kwargs)
            counts = self.counts
            counts[secs] += clock() - t0
            counts[calls] += 1
            if note is not None:
                note(counts, args, kwargs, result)
            return result
        return wrapper

    def _counting_pow(self, name):
        def counting_pow(*args):
            if self.active:
                self.counts[name] += 1
            return builtins.pow(*args)
        return counting_pow

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, replacement)

    def install(self):
        for owner, attr, name in SPANNED:
            self._patch(owner, attr, self._spanned(name, getattr(owner, attr)))
        codec = sharing.FixedPointCodec
        hot = (
            (sharing, "split", "sharing.split", _note_split),
            (codec, "encode", "sharing.codec", None),
            (codec, "decode", "sharing.codec", None),
            (protocol, "_share_round", "protocol.share_round", None),
            (market, "agent_step", "market.agent_step", None),
            (market, "random_source", "market.random_source", None),
            (transport.Transcript, "send", "transport.send", _note_send),
            (pedersen, "commit", "pedersen.commit", None),
            (pedersen, "verify_open", "pedersen.verify_open", None),
            (pedersen, "product", "pedersen.product", None),
            (numtheory, "is_probable_prime", "numtheory.prime_test",
             _note_prime_test),
        )
        for owner, attr, name, note in hot:
            self._patch(owner, attr, self._hot(name, getattr(owner, attr),
                                               note))
        self._patch(pedersen, "pow", self._counting_pow("pedersen.modexp"))
        self._patch(numtheory, "pow", self._counting_pow("numtheory.modexp"))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


class RandomnessProbe:
    """Fingerprints the generators gridshare makes through
    `market.random_source`.

    Additive sharing hides share values from every output, so equal
    outputs do not show that two runs of an op drew the same randomness.
    The next draw of each generator made during the op does.
    """

    def __init__(self):
        self._sources = []
        self._original = None

    def install(self):
        original = self._original = market.random_source

        @functools.wraps(original)
        def random_source(*args, **kwargs):
            rng = original(*args, **kwargs)
            self._sources.append(rng)
            return rng
        market.random_source = random_source

    def uninstall(self):
        market.random_source = self._original

    def take(self):
        """Fingerprint of the generators made since the last call."""
        draws = b"".join(rng.getrandbits(64).to_bytes(8, "little")
                         for rng in self._sources)
        self._sources = []
        return hashlib.sha256(draws).hexdigest()[:16]


def _note_split(counts, args, kwargs, result):
    counts["sharing.shares_drawn"] += len(result) - 1


def _note_send(counts, args, kwargs, result):
    # Transcript.send(self, phase, kind, sender, receiver, bits)
    kind, bits = args[2], args[5]
    counts["transport.bits"] += bits
    if kind == transport.PRICE_SIGNAL:
        counts["market.rounds"] += 1
    elif kind == transport.REVEAL:
        counts["protocol.reveals"] += 1
    elif kind == transport.FLAG_NOTIFY:
        counts["protocol.flags"] += 1


def _note_prime_test(counts, args, kwargs, result):
    if result:
        rounds = args[1] if len(args) > 1 else kwargs.get(
            "rounds", _MR_ROUNDS_DEFAULT)
        counts["numtheory.primes_found"] += 1
        counts["numtheory.mr_rounds_on_primes"] += rounds


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(op_counts, setup_counts, n_ops):
    """Per-layer numbers: per op, except that key generation (`numtheory.*`
    and `protocol.keygen.s`) is per generated key, wherever it ran.

    On `slot` the only key is made in set-up; on `detect` each op makes
    one; `plain` makes none and reports zeros there.
    """
    op = defaultdict(float, {k: v / n_ops for k, v in op_counts.items()})
    keyed = defaultdict(float)
    for counts in (setup_counts, op_counts):
        for k, v in counts.items():
            keyed[k] += v
    keys = keyed["numtheory.generate_group_params.calls"]
    per_key = defaultdict(float,
                          {k: _ratio(v, keys) for k, v in keyed.items()})
    return {
        "sharing.split.calls": op["sharing.split.calls"],
        "sharing.split.s": op["sharing.split.s"],
        "sharing.shares_drawn": op["sharing.shares_drawn"],
        "sharing.ns_per_share": 1e9 * _ratio(op["sharing.split.s"],
                                             op["sharing.shares_drawn"]),
        "sharing.codec.calls": op["sharing.codec.calls"],
        "sharing.codec.s": op["sharing.codec.s"],
        "protocol.share_round.calls": op["protocol.share_round.calls"],
        # split runs only inside the share round.
        "protocol.share_round.self_s": (op["protocol.share_round.s"]
                                        - op["sharing.split.s"]),
        "protocol.negotiation.s": op["protocol.negotiation.s"],
        "protocol.commitment.s": op["protocol.commitment.s"],
        "protocol.commitment_check.s": op["protocol.commitment_check.s"],
        "protocol.online.s": op["protocol.online.s"],
        "protocol.keygen.s": per_key["protocol.keygen.s"],
        "protocol.reveals": op["protocol.reveals"],
        "protocol.reveal_yield": _ratio(op["protocol.flags"],
                                        op["protocol.reveals"]),
        "market.agent_step.calls": op["market.agent_step.calls"],
        "market.agent_step.s": op["market.agent_step.s"],
        "market.rounds": op["market.rounds"],
        "market.random_source.calls": op["market.random_source.calls"],
        "transport.send.calls": op["transport.send.calls"],
        "transport.send.s": op["transport.send.s"],
        "transport.bits": op["transport.bits"],
        "pedersen.commit.calls": op["pedersen.commit.calls"],
        "pedersen.commit.s": op["pedersen.commit.s"],
        "pedersen.verify_open.calls": op["pedersen.verify_open.calls"],
        "pedersen.verify_open.s": op["pedersen.verify_open.s"],
        "pedersen.product.s": op["pedersen.product.s"],
        "pedersen.modexp": op["pedersen.modexp"],
        "numtheory.generate_group_params.s":
            per_key["numtheory.generate_group_params.s"],
        "numtheory.prime_tests": per_key["numtheory.prime_test.calls"],
        "numtheory.prime_yield": _ratio(keyed["numtheory.primes_found"],
                                        keyed["numtheory.prime_test.calls"]),
        "numtheory.mr_rounds_on_primes":
            per_key["numtheory.mr_rounds_on_primes"],
        "numtheory.modexp": per_key["numtheory.modexp"],
        "harness.build_agents.s": op["harness.build_agents.s"],
    }
