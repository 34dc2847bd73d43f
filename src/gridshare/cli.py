"""Command-line front end: run, sweep, detect, compare, keygen."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys

from . import harness, market, numtheory
from .errors import GridShareError, InvalidConfigError
from .transport import PHASES


def _add_seed_args(parser):
    parser.add_argument("--seed-profiles", type=int)
    parser.add_argument("--seed-crypto", type=int)
    parser.add_argument("--seed-adversary", type=int)


def _add_scenario_args(parser):
    parser.add_argument("--scenario", help="key = value scenario file")
    parser.add_argument("--n-tas", type=int)
    parser.add_argument("--bits-p", type=int)
    parser.add_argument("--bits-b", type=int)
    parser.add_argument("--scale", type=int)
    parser.add_argument("--zeta", type=float)
    parser.add_argument("--varsigma", type=int)
    parser.add_argument("--beta", type=float)
    parser.add_argument("--mode", choices=["secure", "plain"])
    parser.add_argument("--mr-rounds", type=int)
    parser.add_argument("--worst-case", action="store_true", default=None)
    parser.add_argument("--force-reveal", action="store_true", default=None)
    _add_seed_args(parser)


def build_config(args):
    if getattr(args, "scenario", None):
        with open(args.scenario, encoding="utf-8") as fh:
            config = harness.parse_scenario_file(fh.read())
    else:
        config = harness.ScenarioConfig()
    # A scenario flag's parsed name is the ScenarioConfig field it sets.
    overrides = {}
    for fld in dataclasses.fields(config):
        value = getattr(args, fld.name, None)
        if value is not None:
            overrides[fld.name] = value
    return dataclasses.replace(config, **overrides)


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
    for phase, entity, sec, tkb, skb in _report_rows(report):
        print(f"{phase:<17}{entity:<8}{sec:>10.4f}{tkb:>12.6f}{skb:>12.6f}")


def _report_rows(report):
    for phase in PHASES:
        sec = report.timings.get(phase, 0.0)
        for entity in ("TA", "TO"):
            yield (phase, entity, sec, report.traffic_kb[phase][entity],
                   report.storage_kb[phase][entity])


def _write_report_csv(report, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["phase", "entity", "seconds", "traffic_kb",
                         "storage_kb"])
        writer.writerows(_report_rows(report))


def cmd_run(args):
    report = harness.run_scenario(build_config(args))
    _print_report(report)
    if args.out:
        _write_report_csv(report, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_sweep(args):
    config = build_config(args)
    try:
        values = [int(v) for v in args.values.split(",")]
    except ValueError:
        raise InvalidConfigError(
            f"--values must be integers, got {args.values!r}") from None
    rows = harness.sweep(config, args.axis, values, repeats=args.repeats)
    harness.write_sweep_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_detect(args):
    config = build_config(args)
    # The experiment runs secure slots and decides reveals by its own
    # audit rule, so these settings would be silently ignored.
    if config.mode != "secure" or config.force_reveal:
        raise InvalidConfigError(
            "detect runs secure slots with its own reveal rule; "
            "--mode plain and --force-reveal do not apply")
    summary = harness.detection_experiment(
        config, n_targets=args.targets, n_runs=args.runs)
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
    for row in report.rows():
        print(f"{row['mode']:<8}{row['ta_traffic_kb']:>15.6f}"
              f"{row['to_traffic_kb']:>15.6f}{row['to_storage_kb']:>15.6f}"
              f"{row['clearing_price']:>16.6f}")
    print(f"prices equal: {report.prices_equal}")
    return 0 if report.prices_equal else 1


def cmd_keygen(args):
    rng = market.random_source(args.seed, "keygen")
    ck = numtheory.generate_group_params(args.bits_p, args.bits_b, rng,
                                         rounds=args.mr_rounds)
    text = ck.serialize()
    if args.out:
        with open(args.out, "w") as fh:
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
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="scale one axis and record metrics")
    _add_scenario_args(p)
    p.add_argument("--axis", required=True,
                   choices=["n_tas", "bits_q", "bits_p"])
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
    p.add_argument("--bits-p", type=int, default=defaults.bits_p)
    p.add_argument("--bits-b", type=int, default=defaults.bits_b)
    p.add_argument("--seed", type=int, default=defaults.seed_crypto)
    p.add_argument("--mr-rounds", type=int, default=defaults.mr_rounds)
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
