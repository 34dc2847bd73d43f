"""A seeded fuzz of the entry points: scenarios, the baseline comparison,
the detection experiment, scenario and key files, and CLI argv.

Every case draws edge values, so most inputs are invalid. Each must run
or raise a GridShareError, which the CLI turns into exit status 2. Four
fields are always drawn from small values (N <= 6, varsigma <= 5,
mr_rounds <= 4, bits_b <= 32), so one case takes milliseconds. An escape
this test finds belongs as a named input in the test of the code that
raised it.
"""

import collections
import contextlib
import io
import math
import random

import pytest

from gridshare import cli, harness, numtheory, protocol
from gridshare.errors import GridShareError

SEED = 2
CASES = 1000
BAD_ODDS = 0.1       # the chance that a drawn value is an invalid edge

NAN, INF = math.nan, math.inf
FLOATS = ((1e-300, 0.05, 1.0, 7, 1e308), (0.0, -0.0, -1.0, NAN, INF, -INF))
SIGNED = ((0.0, -0.0, 1e-300, -1.0, 7, 1e308), (NAN, INF, -INF, "1"))
SEEDS = ((0, -1, 2**64), (1.5, None))

# (valid values, invalid values) of each field. The first four bound a
# case's cost, and every case sets them; a few other fields are drawn too.
BOUNDED = {
    "n_tas": ((2, 4, 6), (0, 1, 3, -2, 4.0, True)),
    "varsigma": ((1, 3, 5), (0, -1, 2.5)),
    "mr_rounds": ((1, 4), (0, -1)),
    "bits_b": ((8, 9, 32), (7, 8.0)),
}
EDGES = {
    "bits_p": ((8, 12, 20, 32, 40, 64), (7, 20.0)),
    "scale": ((1, 3, 10_000, 10**6), (0, -1, 2.5, 10**400)),
    "zeta": FLOATS,
    "epsilon": FLOATS,
    "gamma_init": SIGNED,
    "beta": ((None, 0.0, 1e-300, 1.0, 1e308), (-1.0, NAN, INF)),
    "sigma_frac": SIGNED,
    "sigma_floor": SIGNED,
    "mode": (("secure", "plain"), ("hybrid", None)),
    "keygen_mode": (("fast",), ("lazy",)),
    "seed_profiles": SEEDS,
    "seed_crypto": SEEDS,
    "seed_adversary": SEEDS,
    "worst_case": ((True, False), ("no", 1)),
    "force_reveal": ((True, False), ("yes",)),
}
FACTORS = ((0.0, 0.05, 0.5, 1.0, 1e10, 1e300, 1e303, 1e308), (-0.1, NAN, INF))

# Text versions for scenario files and CLI flags.
BOUNDED_TEXT = {
    "n_tas": (("2", "4", "6"), ("0", "3", "-2", "4.0", "x")),
    "varsigma": (("1", "5"), ("0", "-1", "2.5")),
    "mr_rounds": (("1", "4"), ("0", "-1")),
    "bits_b": (("8", "32"), ("7", "8.0")),
}
TEXT = ("0", "-1", "1", "3", "20", "40", "1e308", "1e999", "nan", "-inf",
        "none", "yes", "no", "plain", "secure", "fast", "x", "9" * 5000)


def _pick(rng, values):
    good, bad = values
    return rng.choice(bad if rng.random() < BAD_ODDS else good)


def _adversary(rng):
    return tuple(
        protocol.AdversaryScenario(
            tuple(rng.choice((0, 1, 3, 5, 6, -1))
                  for _ in range(rng.randrange(1, 3))),
            _pick(rng, (protocol.ADVERSARY_FIELDS, ("x",))),
            *sorted((_pick(rng, FACTORS), _pick(rng, FACTORS))))
        for _ in range(rng.randrange(3)))


def _config(rng, adversary_odds=0.4):
    fields = {name: _pick(rng, values) for name, values in BOUNDED.items()}
    for name in rng.sample(sorted(EDGES), rng.randrange(4)):
        fields[name] = _pick(rng, EDGES[name])
    if rng.random() < adversary_odds:
        fields["adversary"] = _adversary(rng)
    return harness.ScenarioConfig(**fields)


def _scenario_text(rng, extra_lines):
    lines = [f"{name} = {_pick(rng, values)}"
             for name, values in BOUNDED_TEXT.items()]
    for _ in range(rng.randrange(extra_lines + 1)):
        name = rng.choice(sorted(EDGES))
        lines.append(_pick(rng, (
            (f"{name} = {rng.choice(TEXT)}", "# a comment",
             f"{name} = {rng.choice(TEXT)}  # note"),
            ("n_tas", "= 3", "frobnicate = 1", "adversary = none",
             "mode ="))))
    rng.shuffle(lines)
    return "\n".join(lines)


def _run_scenario(rng, tmp_path):
    return lambda: harness.run_scenario(_config(rng))


def _compare_baseline(rng, tmp_path):
    return lambda: harness.compare_baseline(_config(rng))


def _detection_experiment(rng, tmp_path):
    n_targets = _pick(rng, ((0, 1, 2, 3, 6), (7, -1, 1.5, True)))
    n_runs = _pick(rng, ((1, 2), (0, -1, 2.0)))
    perturb_range = _pick(rng, (((0.05, 0.10), (0.0, 0.0), (1e308, 1e308)),
                                ((0.1, 0.05), (NAN, 1.0), (0.05,),
                                 [0.05, 0.1], (0, INF))))
    return lambda: harness.detection_experiment(
        _config(rng, adversary_odds=BAD_ODDS), n_targets=n_targets, perturb_range=perturb_range,
        n_runs=n_runs)


def _scenario_file(rng, tmp_path):
    text = _scenario_text(rng, 4)
    return lambda: harness.run_scenario(harness.parse_scenario_file(text))


SMALL_KEY = numtheory.generate_group_params(8, 8, random.Random(0), rounds=4)


def _key_file(rng, tmp_path):
    lines = []
    for name in numtheory.KEY_FIELDS:
        value = getattr(SMALL_KEY, name)
        for _ in range(_pick(rng, ((1,), (0, 2)))):
            lines.append(f"{name} = " + str(_pick(rng, (
                (value,), (value + 1, 0, 1, -1, 2**127 - 1, "x", "0x10",
                           "1e3", "")))))
    lines += rng.sample(("# key", "g = 3 # note", "r = 5", "q"),
                        _pick(rng, ((0, 1), (2,))))
    rng.shuffle(lines)
    text = "\n".join(lines)
    return lambda: numtheory.GroupParams.parse(text).validate(rounds=4)


def _flag(name):
    return "--" + name.replace("_", "-")


def _cli(rng, tmp_path):
    command = rng.choice(("run", "sweep", "detect", "compare", "keygen"))
    argv = [command]
    if command == "keygen":
        for flag, values in (
                ("--bits-p", (("8", "20", "64"), ("7", "x"))),
                ("--bits-b", BOUNDED_TEXT["bits_b"]),
                ("--mr-rounds", BOUNDED_TEXT["mr_rounds"]),
                ("--seed", (("0", "-1"), ("x",)))):
            argv += [flag, _pick(rng, values)]
    else:
        for name, values in BOUNDED_TEXT.items():
            argv += [_flag(name), _pick(rng, values)]
        for name in rng.sample(cli._SCENARIO_FLAGS, rng.randrange(3)):
            argv += ([_flag(name)] if harness.FIELD_TYPES[name] is bool
                     else [_flag(name), rng.choice(TEXT)])
        if rng.random() < 0.3:
            scenario = tmp_path / "scenario.cfg"
            scenario.write_text(_scenario_text(rng, 2))
            argv += ["--scenario", str(scenario)]
    if command == "sweep":
        argv += ["--axis", _pick(rng, (tuple(harness.SWEEP_AXES), ("x",))),
                 "--values", _pick(rng, (("2,4", "6", "20", "28", "40"),
                                         ("3", "-2", "x", ""))),
                 "--repeats", _pick(rng, (("1",), ("0", "-1", "x")))]
    if command == "detect":
        argv += ["--runs", _pick(rng, (("1", "2"), ("0", "-1", "x"))),
                 "--targets", _pick(rng, (("0", "1", "3"), ("9", "-1")))]
    if command in ("run", "sweep", "keygen") and rng.random() < 0.7:
        out = _pick(rng, ((tmp_path / "out.csv",), (tmp_path / "no" / "out",)))
        argv += ["--out", str(out)]

    def call():
        # Detection misses and unequal prices exit 1 by design.
        succeeded = {0, 1} if command in ("detect", "compare") else {0}
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                status = cli.main(argv)
            except SystemExit as exc:      # argparse rejects the argv
                status = exc.code
        assert status in succeeded | {2}, (argv, status)
    return call


ROUTES = (_run_scenario, _compare_baseline, _detection_experiment,
          _scenario_file, _key_file, _cli)


def test_fuzzed_inputs_run_or_raise_grid_share_error(tmp_path):
    rng = random.Random(SEED)
    completed = collections.Counter()
    for case in range(CASES):
        route = rng.choice(ROUTES)
        call = route(rng, tmp_path)
        try:
            call()
        except GridShareError:
            continue
        except Exception as exc:
            pytest.fail(f"case {case} ({route.__name__}) escaped with "
                        f"{exc!r}")
        completed[route] += 1
    # Every way in also ran inputs to the end, not only rejections.
    assert len(completed) == len(ROUTES)
    assert min(completed.values()) >= 5
