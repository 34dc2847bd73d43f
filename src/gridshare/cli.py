"""Command-line front end: run, sweep, detect, compare, keygen."""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import sys

from . import harness, market, numtheory
from .errors import GridShareError, InvalidConfigError

# The ScenarioConfig fields that run, sweep, detect and compare set by flag.
_SCENARIO_FLAGS = ("n_tas", "bits_p", "bits_b", "scale", "zeta",
                   "varsigma", "beta", "mode", "mr_rounds", "worst_case",
                   "force_reveal", "seed_profiles", "seed_crypto",
                   "seed_adversary")


def _add_scenario_args(parser):
    parser.add_argument("--scenario", help="key = value scenario file")
    # `--n-tas` sets `n_tas`, parsed as that scenario key is; a bool field
    # is a switch. A flag left out is absent from the parsed arguments.
    for name in _SCENARIO_FLAGS:
        flag = "--" + name.replace("_", "-")
        if harness.FIELD_TYPES[name] is bool:
            parser.add_argument(flag, action="store_true",
                                default=argparse.SUPPRESS)
        else:
            parser.add_argument(flag, type=harness.FIELD_PARSERS[name],
                                default=argparse.SUPPRESS)


def build_config(args):
    if args.scenario:
        with open(args.scenario, encoding="utf-8") as fh:
            config = harness.parse_scenario_file(fh.read())
    else:
        config = harness.ScenarioConfig()
    # Only the flags given are parsed arguments; each sets its field.
    return dataclasses.replace(config, **{
        name: value for name, value in vars(args).items()
        if name in _SCENARIO_FLAGS})


def _print_report(report):
    print(f"status: {report.status} after {report.iterations} iterations")
    print(f"clearing price: {report.clearing_price:.6f}")
    print(f"commitment check: {report.check_result}")
    if report.detection is not None:
        d = report.detection
        print(f"detection: triggered={d.triggered} "
              f"t_m={sorted(d.t_m_list)} t_f={sorted(d.t_f_list)}")
    print(f"{'phase':<17}{'entity':<8}{'seconds':>10}"
          f"{'traffic_kb':>12}{'storage_kb':>12}")
    for row in harness.phase_rows(report):
        print("{phase:<17}{entity:<8}{seconds:>10.4f}{traffic_kb:>12.6f}"
              "{storage_kb:>12.6f}".format(**row))


def _open_out(path):
    """Open `--out` before any work, so a bad path costs nothing; a run
    that fails after this leaves the file empty."""
    return open(path, "w", newline="") if path else contextlib.nullcontext()


def _write_csv(fh, rows):
    """Write dict rows under a header of the first row's keys."""
    rows = list(rows)
    writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)


def _read_key(path, config):
    """The `--key` file as a validated key; `run_scenario` checks that
    its sizes match the config."""
    if config.mode == "plain":
        raise InvalidConfigError("--key is unused in plain mode")
    with open(path, encoding="utf-8") as fh:
        return numtheory.GroupParams.parse(fh.read()).validate(
            rounds=config.mr_rounds)


def cmd_run(args):
    config = build_config(args)
    ck = _read_key(args.key, config) if args.key else None
    with _open_out(args.out) as fh:
        report = harness.run_scenario(config, ck=ck)
        _print_report(report)
        if fh:
            _write_csv(fh, harness.phase_rows(report))
            print(f"wrote {args.out}")
    return 0


def cmd_sweep(args):
    config = build_config(args)
    try:
        values = [int(v) for v in args.values.split(",")]
    except ValueError:
        raise InvalidConfigError(
            f"--values must be integers, got {args.values!r}") from None
    with _open_out(args.out) as fh:
        rows = harness.sweep(config, args.axis, values, repeats=args.repeats)
        _write_csv(fh, rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_detect(args):
    summary = harness.detection_experiment(
        build_config(args), n_targets=args.targets, n_runs=args.runs)
    print(f"runs: {summary.runs}, targets per run: {summary.targets_per_run}")
    print(f"true positives: {summary.true_positives}")
    print(f"false negatives: {summary.false_negatives}")
    print(f"false positives: {summary.false_positives}")
    print(f"wrong list: {summary.wrong_list}")
    print(f"t_m flags: {summary.t_m_total}, t_f flags: {summary.t_f_total}")
    print(f"accuracy: {summary.accuracy:.4f}")
    return 0 if summary.false_negatives == 0 else 1


def cmd_compare(args):
    report = harness.compare_baseline(build_config(args))
    print(f"{'mode':<8}{'ta_traffic_kb':>15}{'to_traffic_kb':>15}"
          f"{'to_storage_kb':>15}{'clearing_price':>16}")
    for mode, rep in (("secure", report.secure), ("plain", report.plain)):
        print(f"{mode:<8}{rep.total_traffic_kb('TA'):>15.6f}"
              f"{rep.total_traffic_kb('TO'):>15.6f}"
              f"{rep.total_storage_kb('TO'):>15.6f}"
              f"{rep.clearing_price:>16.6f}")
    print(f"prices equal: {report.prices_equal}")
    return 0 if report.prices_equal else 1


def cmd_keygen(args):
    rng = market.random_source(args.seed, "keygen")
    with _open_out(args.out) as fh:
        text = numtheory.generate_group_params(
            args.bits_p, args.bits_b, rng, rounds=args.mr_rounds).serialize()
        if fh:
            fh.write(text)
            print(f"wrote {args.out}")
        else:
            print(text, end="")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gridshare",
        description="Privacy-preserving energy trading simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute one full trading slot")
    _add_scenario_args(p)
    p.add_argument("--out", help="write the per-phase table as CSV")
    p.add_argument("--key", help="use this keygen output as the key")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="scale one axis and record metrics")
    _add_scenario_args(p)
    p.add_argument("--axis", required=True, choices=list(harness.SWEEP_AXES))
    p.add_argument("--values", required=True,
                   help="comma-separated axis values")
    p.add_argument("--repeats", type=int, default=5,
                   help="timing repeats per value (median reported)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("detect", help="run the detection-accuracy experiment")
    _add_scenario_args(p)
    p.add_argument("--runs", type=int, default=500)
    p.add_argument("--targets", type=int, default=15)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("compare",
                       help="secure vs plain baseline on identical seeds")
    _add_scenario_args(p)
    p.set_defaults(func=cmd_compare)

    # A bare keygen writes the key that a default run generates.
    defaults = harness.ScenarioConfig()
    p = sub.add_parser("keygen", help="generate and print a commitment key")
    for flag, name in (("--bits-p", "bits_p"), ("--bits-b", "bits_b"),
                       ("--seed", "seed_crypto"),
                       ("--mr-rounds", "mr_rounds")):
        p.add_argument(flag, type=harness.FIELD_PARSERS[name],
                       default=getattr(defaults, name))
    p.add_argument("--out")
    p.set_defaults(func=cmd_keygen)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    # A file that cannot be read or written is a bad argument too; exit
    # status 1 stays reserved for detection misses and price mismatches.
    try:
        return args.func(args)
    except (GridShareError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
