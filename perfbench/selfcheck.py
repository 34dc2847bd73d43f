"""Self-check of the benchmark's determinism and output checks.

    python3 perfbench/selfcheck.py [--workload slot --workload plain ...]

For each workload it runs `run.py` four times with `--seconds 1`:
twice untraced with one seed, once traced with the same seed, and once
untraced with a held-out seed. It fails unless every run reports
`correct` with no failed op, the two untraced runs give identical op
output digests, and the traced run's ops give the same digests as the
untraced ones (the traced run also compares the outputs and randomness
of its own traced and untraced ops). The held-out seed is not one the
benchmark was tuned on.

Run from the root of a source checkout; takes about three minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 11
HELD_OUT_SEED = 8675309


def bench(workload, seed, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited "
                           f"{done.returncode}:\n{done.stderr}")
    digests = next(line.split()[1:] for line in lines
                   if line.startswith("digests:"))
    for line in lines:
        if line.startswith("FAILED"):
            print(f"  {line}")
    return json.loads(lines[-1]), digests


def passed(result):
    """Every op completed and every output check held."""
    return result["correct"] and result["failed"] == 0


def same_prefix(a, b):
    return all(x == y for x, y in zip(a, b))


def check_workload(workload, seed, held_out):
    first, d1 = bench(workload, seed, 0)
    second, d2 = bench(workload, seed, 0)
    traced, d3 = bench(workload, seed, 1)
    other, _ = bench(workload, held_out, 0)
    verdicts = {
        "untraced runs pass": passed(first) and passed(second),
        "traced run passes": passed(traced),
        "held-out seed passes": passed(other),
        "repeat gives same outputs": same_prefix(d1, d2),
        "traced gives same outputs": same_prefix(d1, d3),
    }
    for name, ok in verdicts.items():
        print(f"{workload}: {name}: {'ok' if ok else 'FAILED'}")
    return all(verdicts.values())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=["slot", "plain", "detect"])
    args = parser.parse_args(argv)
    ok = True
    for workload in args.workload or ["slot", "plain", "detect"]:
        ok &= check_workload(workload, SEED, HELD_OUT_SEED)
    print("selfcheck " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
