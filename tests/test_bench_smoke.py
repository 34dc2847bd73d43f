"""Smoke tests of `perfbench/run.py`: a short `plain` run, untraced and
traced, and short traced `slot` and `detect` runs end correct with no
failed op.
A rename in gridshare that the tracer's wrappers depend on fails here
rather than in a benchmark run. The traced `detect` run also compares
each traced op's outputs and randomness fingerprint with an untraced
run of the same op, through the commitment and online share rounds
that `plain` never makes. The traced `plain` run pins the per-op
counters that the clearing loop feeds, so a change that stops calling
`market.agent_step`, one call per round that steps every agent, through
the module or merges the per-round price broadcasts fails here instead
of zeroing a benchmark counter. The
traced `slot` run pins the same counters for a secure slot, with its
share rounds, so a change that calls `protocol._share_round` other than
through the module fails here too. All three pin `market.random_source`
calls, so a change that seeds generators a plain slot never draws from,
drops one a secure slot needs or reseeds agents for each detection run,
fails here rather than only costing time or memory. Every run's first
digest, that of op 0 run untraced, is pinned, so a change that moves any
workload output fails here. A negotiation round is one `agent_step`
pass that returns fixed-point integers, and `FixedPointCodec.encode_all`
encodes only the stored forecasts and the actuals; `perfbench/tracing.py`
does not wrap it, so `sharing.codec.*` counts single encodes and
decodes only.
`transport.send.calls` counts one call per round, not one per message:
a message every agent sends in a round is one `Transcript.send_each`,
which is one `send` of the group's total. A reveal stays one send per
agent, and the `slot` pin on `protocol.reveals` holds that count, which
`protocol.reveal_yield` divides by."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# The digest of op 0's outputs at seed 1, per workload.
OP0_DIGESTS = {"slot": "7fcac88ac3416dc6", "plain": "c2cfe2a9ece955e4",
               "detect": "11fc8cbf8501279a"}


def _run_perfbench(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "0.5",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, done.stdout
    digests, = (line.split()[1:] for line in lines
                if line.startswith("digests: "))
    assert digests[0] == OP0_DIGESTS[workload]
    return result


# Per-op counters of a traced N=400 worst-case plain slot at seed 1:
# 100 rounds, each with one agent_step call over all 400 agents, one
# grouped aggregate send and one price signal, then the accept notice and
# the grouped forecast and actual sends. Only the profiles and the
# adversary get a generator; plain agents draw nothing. The single codec
# calls are the 400 stored forecasts' encodes and 1301 decodes.
PLAIN_OP_COUNTS = {"market.agent_step.calls": 100, "market.rounds": 100,
                   "sharing.codec.calls": 1701,
                   "transport.send.calls": 203,
                   "market.random_source.calls": 2}


# Per-op counters of a traced N=400 worst-case secure slot at seed 1:
# 100 negotiation share rounds, two commitment rounds and one online,
# each two grouped sends, and 400 reveals, one send each. Generators: the
# profiles, one per agent and the adversary; the key is reused.
SLOT_OP_COUNTS = {"protocol.share_round.calls": 103,
                  "market.agent_step.calls": 100,
                  "sharing.codec.calls": 2102,
                  "transport.send.calls": 711,
                  "protocol.reveals": 400,
                  "market.random_source.calls": 402}


# Per-op counters of a traced detection op at seed 1 (N=100, 80 runs,
# each triggered): per run, 100 commitments, the check's one and 100
# reveals opened. Generators: the profiles, one per agent that it keeps
# for every run, the key and one adversary per run.
DETECT_OP_COUNTS = {"pedersen.commit.calls": 16080,
                    "market.random_source.calls": 182}


def _counts(result, expected):
    return {name: result["metrics"][name]["value"] for name in expected}


@pytest.mark.parametrize("trace", [0, 1])
def test_perfbench_plain_smoke(trace):
    result = _run_perfbench("plain", trace)
    if trace:
        assert _counts(result, PLAIN_OP_COUNTS) == PLAIN_OP_COUNTS


def test_perfbench_slot_traced_smoke():
    result = _run_perfbench("slot", 1)
    assert _counts(result, SLOT_OP_COUNTS) == SLOT_OP_COUNTS


def test_perfbench_detect_traced_smoke():
    result = _run_perfbench("detect", 1)
    assert _counts(result, DETECT_OP_COUNTS) == DETECT_OP_COUNTS
