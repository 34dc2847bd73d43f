import argparse
import csv
import os
import re
import subprocess
import sys

import pytest

import gridshare
from gridshare import cli, harness, numtheory
from tests.conftest import TEST_MR_ROUNDS

MR = str(TEST_MR_ROUNDS)


def test_run_subcommand(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = cli.main(["run", "--n-tas", "6", "--mr-rounds", MR,
                     "--out", str(out)])
    assert code == 0
    assert "clearing price" in capsys.readouterr().out
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["phase", "entity", "seconds", "traffic_kb",
                             "storage_kb"]
    assert {r["phase"] for r in rows} == {"negotiation", "keygen",
                                          "commitment", "commitment_check",
                                          "online"}


def test_import_loads_no_exact_arithmetic_or_statistics_modules():
    # Each costs start-up time on every CLI call, and the package needs
    # none of them.
    src = os.path.dirname(os.path.dirname(gridshare.__file__))
    done = subprocess.run(
        [sys.executable, "-c",
         f"import sys; sys.path.insert(0, {src!r}); import gridshare; "
         "print(sorted({'statistics', 'fractions', 'decimal'} "
         "& set(sys.modules)))"],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_run_rejects_bad_config(capsys):
    for flags in (["--n-tas", "7"], ["--n-tas", "6", "--beta", "nan"]):
        assert cli.main(["run", *flags]) == 2
        assert "error:" in capsys.readouterr().err


def test_run_with_scenario_file(tmp_path, capsys):
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text("n_tas = 4\nvarsigma = 10\n"
                        f"mr_rounds = {MR}\nmode = plain\n")
    assert cli.main(["run", "--scenario", str(scenario)]) == 0
    assert "status:" in capsys.readouterr().out


def test_scenario_file_seeds_reach_the_run(tmp_path):
    # A seed flag left unset keeps the scenario file's seed.
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text("seed_profiles = 9\n")
    args = cli.build_parser().parse_args(["run", "--scenario", str(scenario)])
    assert cli.build_config(args).seed_profiles == 9
    args = cli.build_parser().parse_args(["run", "--scenario", str(scenario),
                                          "--seed-profiles", "4"])
    assert cli.build_config(args).seed_profiles == 4


def test_beta_none_flag_overrides_the_scenario_file(tmp_path, capsys):
    # --beta parses as the beta key does, so "none" (beta = sum(sigma)/2)
    # overrides a file's number instead of failing to parse.
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(f"beta = 5\nn_tas = 6\nmr_rounds = {MR}\n")
    argv = ["run", "--scenario", str(scenario), "--beta", "none"]
    assert cli.build_config(cli.build_parser().parse_args(argv)).beta is None
    assert cli.main(argv) == 0
    assert "status:" in capsys.readouterr().out


def test_bad_flag_values_exit_2(capsys):
    # A value its field's parser rejects is an argparse error; a mode that
    # parses but is unknown is rejected by validate_config.
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--beta", "x"])
    assert exc.value.code == 2
    assert "invalid float_or_none value: 'x'" in capsys.readouterr().err
    assert cli.main(["run", "--n-tas", "4", "--mode", "hybrid"]) == 2
    assert "unknown mode 'hybrid'" in capsys.readouterr().err


def test_subcommand_options_are_pinned():
    # The scenario flags are generated from field names, so a field added
    # to or dropped from that list would change these sets.
    scenario = {"--scenario", "--n-tas", "--bits-p", "--bits-b", "--scale",
                "--zeta", "--varsigma", "--beta", "--mode", "--mr-rounds",
                "--worst-case", "--force-reveal", "--seed-profiles",
                "--seed-crypto", "--seed-adversary", "-h", "--help"}
    expected = {
        "run": scenario | {"--out", "--key"},
        "sweep": scenario | {"--axis", "--values", "--repeats", "--out"},
        "detect": scenario | {"--runs", "--targets"},
        "compare": scenario,
        "keygen": {"--bits-p", "--bits-b", "--seed", "--mr-rounds", "--out",
                   "-h", "--help"},
    }
    sub, = (a for a in cli.build_parser()._actions
            if isinstance(a, argparse._SubParsersAction))
    assert {name: set(p._option_string_actions)
            for name, p in sub.choices.items()} == expected


def test_sweep_subcommand(tmp_path):
    out = tmp_path / "sweep.csv"
    code = cli.main(["sweep", "--axis", "n_tas", "--values", "4,6",
                     "--repeats", "1", "--varsigma", "10",
                     "--mr-rounds", MR, "--out", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["axis_value", "phase", "entity", "seconds",
                             "traffic_kb", "storage_kb"]
    assert {r["axis_value"] for r in rows} == {"4", "6"}


def test_sweep_rejects_bad_values_and_repeats(tmp_path, capsys):
    out = str(tmp_path / "sweep.csv")
    for flags in (["--values", "4,x"], ["--values", "4", "--repeats", "0"]):
        code = cli.main(["sweep", "--axis", "n_tas", "--out", out, *flags])
        assert code == 2
        assert "error:" in capsys.readouterr().err


def test_detect_subcommand(capsys):
    code = cli.main(["detect", "--n-tas", "30", "--runs", "2",
                     "--targets", "3", "--mr-rounds", MR])
    assert code == 0
    assert "accuracy: 1.0000" in capsys.readouterr().out


def test_detect_rejects_ignored_flags(capsys):
    for flags in (["--mode", "plain"], ["--force-reveal"],
                  ["--beta", "1000"]):
        code = cli.main(["detect", "--n-tas", "30", "--runs", "2",
                         "--targets", "3", "--mr-rounds", MR, *flags])
        assert code == 2
        assert "error:" in capsys.readouterr().err


def test_compare_subcommand(capsys):
    code = cli.main(["compare", "--n-tas", "6", "--mr-rounds", MR])
    assert code == 0
    assert "prices equal: True" in capsys.readouterr().out


def test_keygen_subcommand(tmp_path, capsys):
    out = tmp_path / "key.txt"
    argv = ["keygen", "--bits-p", "12", "--bits-b", "12", "--mr-rounds", MR]
    assert cli.main([*argv, "--out", str(out)]) == 0
    key = numtheory.GroupParams.parse(out.read_text())
    key.validate(rounds=TEST_MR_ROUNDS)
    assert key.bits_p == 12
    # Without --out the key is printed instead.
    capsys.readouterr()
    assert cli.main(argv) == 0
    assert numtheory.GroupParams.parse(capsys.readouterr().out) == key


def _without_seconds(text):
    # The phase table's third column is wall time, the one varying field.
    return re.sub(r"^(\S+\s+(?:TA|TO)\s+)\d+\.\d+", r"\1-", text,
                  flags=re.MULTILINE)


def test_run_with_a_keygen_key_matches_a_bare_run(tmp_path, capsys):
    key = tmp_path / "key.txt"
    assert cli.main(["keygen", "--mr-rounds", MR, "--out", str(key)]) == 0
    capsys.readouterr()
    run = ["run", "--n-tas", "6", "--mr-rounds", MR]
    assert cli.main(run) == 0
    bare = capsys.readouterr().out
    assert cli.main([*run, "--key", str(key)]) == 0
    keyed = capsys.readouterr().out
    assert "keygen           TO" in bare
    assert _without_seconds(keyed) == _without_seconds(bare)


def test_run_rejects_bad_keys(tmp_path, capsys):
    # A key that does not parse, fails validation or has other sizes than
    # the config, or any key in plain mode, ends in status 2 before the
    # slot prints anything.
    malformed = tmp_path / "malformed.txt"
    malformed.write_text("q = 23\np = eleven\n")
    broken = tmp_path / "broken.txt"
    broken.write_text("q = 23\np = 11\nb = 3\ng = 4\nh = 9\n")
    small = tmp_path / "small.txt"
    assert cli.main(["keygen", "--bits-p", "12", "--bits-b", "12",
                     "--mr-rounds", MR, "--out", str(small)]) == 0
    capsys.readouterr()
    run = ["run", "--n-tas", "6", "--mr-rounds", MR]
    for argv in ([*run, "--key", str(malformed)],
                 [*run, "--key", str(broken)],
                 [*run, "--key", str(small)],
                 [*run, "--key", str(small), "--mode", "plain"]):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert captured.out == "", argv


def test_keygen_defaults_match_a_default_run():
    # A bare keygen writes the key that a default run generates.
    args = cli.build_parser().parse_args(["keygen"])
    config = harness.ScenarioConfig()
    assert (args.bits_p, args.bits_b, args.seed, args.mr_rounds) == (
        config.bits_p, config.bits_b, config.seed_crypto, config.mr_rounds)


def test_bad_paths_exit_2(tmp_path, capsys):
    # Exit status 1 means a detection miss, so a path that cannot be read
    # or written must end in "error:" and status 2, not a traceback. An
    # --out path is opened first, so nothing runs or prints before that.
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"\xff\xfe n_tas = 4\n")
    missing = tmp_path / "missing"
    small = ["--n-tas", "4", "--varsigma", "10", "--mode", "plain"]
    for argv in (["run", "--scenario", str(tmp_path / "absent.cfg")],
                 ["run", "--scenario", str(tmp_path)],
                 ["run", "--scenario", str(binary)],
                 ["run", *small, "--out", str(missing / "run.csv")],
                 ["sweep", "--axis", "n_tas", "--values", "4",
                  "--repeats", "1", *small, "--out", str(missing / "s.csv")],
                 ["keygen", "--bits-p", "12", "--bits-b", "12",
                  "--mr-rounds", MR, "--out", str(missing / "key.txt")]):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert captured.out == "", argv
