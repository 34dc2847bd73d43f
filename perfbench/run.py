"""gridshare benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload {slot,plain,detect} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; gridshare is imported from
`src/`. One process and one thread drive the workload: each op starts
when the previous one has finished. Every op's outputs are checked, and
an op that raises a GridShareError or fails a check counts as failed.

With `--trace 0` the run prints the end-to-end metrics, measured with
no tracing installed. With `--trace 1` it first runs the same ops
untraced, then installs the tracer from `tracing.py` and runs them
again, and prints the per-layer metrics; the traced ops must give the
same outputs, and draw the same randomness, as the untraced ones. Spans
are written to `perfbench/out/` when the run ends.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Set-up repeats at least SETUP_MIN_REPS times and until SETUP_MIN_SECONDS
# have been spent (at most SETUP_MAX_REPS), so a cheap set-up gets enough
# samples for a steady median.
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 25
SETUP_MIN_SECONDS = 1.0

IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import gridshare; "
                "print(repr(time.perf_counter() - t0))")


def import_seconds():
    """Time `import gridshare` in a fresh interpreter, as a user pays it."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


def setup(workload, seed):
    """Median of repeated set-ups, each a fresh-interpreter import plus the
    workload's one-off preparation."""
    times = []
    while len(times) < SETUP_MIN_REPS or (
            sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPS):
        t_import = import_seconds()
        t0 = time.perf_counter()
        workload.prepare(seed)
        times.append(t_import + time.perf_counter() - t0)
    return statistics.median(times), times


@dataclasses.dataclass
class OpRecord:
    """One op: its wall time, a digest of its deterministic outputs, the
    GridShareError it raised (if any) and the output checks it failed."""

    index: int
    seconds: float
    digest: str
    randomness: str | None = None
    error: str | None = None
    problems: list = dataclasses.field(default_factory=list)
    sizes: dict = dataclasses.field(default_factory=dict)

    @property
    def completed(self):
        return self.error is None

    @property
    def failed(self):
        return self.error is not None or bool(self.problems)


def measure(workload, seed, seconds, tracer=None, probe=None):
    """Closed loop: run ops back to back until `seconds` have passed (at
    least one op), checking each op's outputs after it ends. A
    `tracing.RandomnessProbe`, if given, fingerprints each op's
    randomness."""
    from gridshare.errors import GridShareError
    from workloads import digest

    records = []
    start = time.perf_counter()
    while not records or time.perf_counter() - start < seconds:
        index = len(records)
        cfg = workload.config(seed, index)
        bits_before = tracer.counts["transport.bits"] if tracer else 0
        if probe is not None:
            probe.take()    # drop generators made by the previous check
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = workload.run(cfg)
            else:
                tracer.trace_id = f"op{index}"
                with tracer.span("op"):
                    result = workload.run(cfg)
        except GridShareError as exc:
            elapsed = time.perf_counter() - t0
            error = f"{type(exc).__name__}: {exc}"
            records.append(OpRecord(index, elapsed, digest({"error": error}),
                                    error=error))
            continue
        elapsed = time.perf_counter() - t0
        randomness = probe.take() if probe is not None else None
        traced_bits = None
        if tracer is not None:
            traced_bits = tracer.counts["transport.bits"] - bits_before
            tracer.active = False
        problems = workload.check(cfg, result, traced_bits=traced_bits)
        if tracer is not None:
            tracer.active = True
        records.append(OpRecord(index, elapsed,
                                digest(workload.outputs(result)),
                                randomness=randomness, problems=problems,
                                sizes=workload.sizes_kb(result)))
    return records


def report_failures(records, label):
    for r in records:
        if r.error is not None:
            print(f"FAILED {label} op{r.index} raised {r.error}")
        for problem in r.problems:
            print(f"FAILED {label} op{r.index} output check: {problem}")


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def end_to_end(workload, args):
    setup_s, setup_times = setup(workload, args.seed)
    records = measure(workload, args.seed, args.seconds)
    report_failures(records, args.workload)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Latency counts only ops that ran to the end; ops that raised are
    # reported as `failed`. If none completed, the run's time is all
    # there is to report (and the run is not `correct`).
    op_times = [r.seconds for r in records if r.completed] or [
        r.seconds for r in records]
    n = len(op_times)
    metrics = {
        "setup_s": setup_s,
        "op_s_p50": statistics.median(op_times),
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"setup_s samples: {len(setup_times)}, from {min(setup_times):.4f}"
          f" to {max(setup_times):.4f} s")
    print(f"ops: {len(records)}, completed {n}")
    # A p90 is reported only with at least ten samples beyond it.
    if n >= 100:
        print(f"op_s_p90 {percentile(op_times, 90):.6f} s (n={n})")
    if workload.runs_per_op > 1:
        print(f"detection runs per second "
              f"{workload.runs_per_op / metrics['op_s_p50']:.4f} "
              f"(at the median op)")
    for record in records:
        for name, value in record.sizes.items():
            print(f"{name} {value!r} KB per slot")
        if record.sizes:
            break
    return records, metrics


def traced(workload, args):
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.trace_id = "setup"
        with tracer.span("setup"):
            workload.prepare(args.seed)
    finally:
        tracer.uninstall()
    setup_counts = tracer.take()
    probe = tracing.RandomnessProbe()
    probe.install()
    try:
        plain_records = measure(workload, args.seed, args.seconds,
                                probe=probe)
    finally:
        probe.uninstall()
    tracer.install()
    probe.install()
    try:
        records = measure(workload, args.seed, args.seconds, tracer=tracer,
                          probe=probe)
    finally:
        probe.uninstall()
        tracer.uninstall()
    op_counts = tracer.take()
    spans_path = os.path.join(
        OUT, f"trace-{args.workload}-seed{args.seed}.json")
    tracer.write_spans(spans_path)

    report_failures(plain_records, f"{args.workload} untraced")
    report_failures(records, f"{args.workload} traced")
    mismatched = [r.index for r, u in zip(records, plain_records)
                  if (r.digest, r.randomness) != (u.digest, u.randomness)]
    for index in mismatched:
        records[index].problems.append(
            "traced outputs or randomness differ from untraced")
        print(f"FAILED {args.workload} traced op{index}: outputs or "
              f"randomness differ from the untraced op")
    n = len(records)
    layers = tracing.layer_metrics(op_counts, setup_counts, n)
    traced_op = statistics.median(r.seconds for r in records)
    untraced_op = statistics.median(r.seconds for r in plain_records)
    layers["trace.op_s"] = traced_op
    layers["trace.overhead_frac"] = traced_op / untraced_op - 1

    print(f"ops: {len(plain_records)} untraced, {n} traced; "
          f"spans in {os.path.relpath(spans_path, ROOT)}")
    mean_op = sum(r.seconds for r in records) / n
    shares = {
        "sharing.split": layers["sharing.split.s"],
        "protocol.share_round self": layers["protocol.share_round.self_s"],
        "market.agent_step": layers["market.agent_step.s"],
        "transport.send": layers["transport.send.s"],
        "sharing.codec": layers["sharing.codec.s"],
        # commit.s includes the commits made inside verify_open.
        "pedersen": layers["pedersen.commit.s"] + layers["pedersen.product.s"],
    }
    print("share of traced op time: " + ", ".join(
        f"{name} {100 * s / mean_op:.1f}%" for name, s in shares.items()))
    return plain_records + records, layers


def declared_units(trace):
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["slot", "plain", "detect"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gridshare", "__init__.py")):
        print(f"perfbench: no gridshare sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import gridshare
    if not os.path.abspath(gridshare.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported gridshare from {gridshare.__file__}, "
              f"not {SRC}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    units = declared_units(args.trace)
    if args.trace:
        records, metrics = traced(workload, args)
    else:
        records, metrics = end_to_end(workload, args)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           f"disagree with BENCHMARK.json")
    print("digests: " + " ".join(r.digest for r in records[:4]))

    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    # `correct` says that ops produced outputs and every one was right; an
    # op that raised produced none and counts only in `failed`.
    correct = (any(r.completed for r in records)
               and not any(r.problems for r in records))
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": sum(1 for r in records if r.failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
