import argparse
import json
import re
from pathlib import Path

import pytest

from spinref import analysis, cli, cooling


def run(argv):
    return cli.main(argv)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_unknown_flag_rejected(tmp_path, capsys):
    assert run(["pipeline", "--frobnicate"]) == cli.EXIT_USAGE


@pytest.mark.parametrize("argv,flag", [
    (["phase", "1", "--mode", "binomial"], "--mode"),
    (["pipeline", "--trial", "2"], "--trial"),
])
def test_abbreviated_flag_rejected(tmp_path, capsys, argv, flag):
    out = tmp_path / "o"
    assert run(argv + ["--n", "1000", "--out", str(out)]) == cli.EXIT_USAGE
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_validation_error_exit_code(tmp_path):
    assert run(["pipeline", "--n", "0", "--out", str(tmp_path)]) == cli.EXIT_USAGE


def test_pipeline_outputs_and_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["pipeline", "--n", "20000", "--epsilon", "0.25", "--seed", "7",
            "--trials", "3"]
    assert run(args + ["--out", str(a), "--jobs", "1"]) == cli.EXIT_OK
    assert run(args + ["--out", str(b), "--jobs", "2"]) == cli.EXIT_OK
    for name in ("rounds.csv", "ledger.json"):
        assert read(a / name) == read(b / name)
    header = read(a / "rounds.csv").decode().splitlines()[0]
    assert header == "phase,round,n_in,n_out,ones_in,ones_out,bias_emp,bias_pred,steps"
    ledger = json.loads(read(a / "ledger.json"))
    assert len(ledger["trials"]) == 3
    assert all(t["ones_out"] == 0 for t in ledger["trials"])


def _one_in_prefix(res):
    res.bits = res.bits.copy()
    res.bits[-1] = 1


def _no_yield(res):
    res.bits, res.clean_bits = res.bits[:0], 0


@pytest.mark.parametrize("spoil", [_one_in_prefix, _no_yield])
def test_pipeline_exits_2_on_a_dirty_or_empty_prefix(tmp_path, monkeypatch, spoil):
    # the simulator knows the ground truth, so the CLI checks it
    real = cooling.pipeline

    def spoiled(*args, **kwargs):
        res = real(*args, **kwargs)
        spoil(res)
        return res

    args = ["pipeline", "--n", "20000", "--epsilon", "0.25", "--seed", "7", "--trials", "2"]
    assert run(args + ["--out", str(tmp_path / "ok")]) == cli.EXIT_OK
    monkeypatch.setattr(cooling, "pipeline", spoiled)
    assert run(args + ["--out", str(tmp_path / "bad")]) == cli.EXIT_CONFORMANCE
    assert (tmp_path / "bad" / "ledger.json").exists()


def test_pipeline_repeat_identical_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["pipeline", "--n", "10000", "--epsilon", "0.3", "--seed", "5"]
    run(args + ["--out", str(a)])
    run(args + ["--out", str(b)])
    assert read(a / "rounds.csv") == read(b / "rounds.csv")
    assert read(a / "ledger.json") == read(b / "ledger.json")


def test_phase_subcommand(tmp_path):
    assert (
        run(["phase", "1", "--n", "50000", "--epsilon", "0.2", "--seed", "1",
             "--out", str(tmp_path)])
        == cli.EXIT_OK
    )
    summary = json.loads(read(tmp_path / "phase1_summary.json"))
    assert summary["rounds"] == 3
    csv = read(tmp_path / "phase1_rounds.csv").decode()
    assert len(csv.splitlines()) == 4  # header + 3 rounds


@pytest.mark.parametrize("which", [2, 3])
def test_phase_2_and_3_run_their_planned_rounds(tmp_path, which):
    n = 20000
    assert (
        run(["phase", str(which), "--n", str(n), "--seed", "1", "--out", str(tmp_path)])
        == cli.EXIT_OK
    )
    if which == 2:
        entry = cooling.PHASE2_DELTA_MAX
        planned = len(cooling.phase2_plan(entry, n))
    else:
        cert = analysis.phase3_certificate(n)
        entry, planned = cert.deltas[0], cert.rounds
    assert planned >= 1
    rows = read(tmp_path / f"phase{which}_rounds.csv").decode().splitlines()
    assert len(rows) == 1 + planned
    assert json.loads(read(tmp_path / f"phase{which}_summary.json"))["rounds"] == planned
    # the input bits are drawn at the level the plan enters at
    first = dict(zip(rows[0].split(","), rows[1].split(",")))
    assert int(first["n_in"]) == n
    sigma = (entry * (1 - entry) / n) ** 0.5
    assert abs(int(first["ones_in"]) / n - entry) < 5 * sigma


@pytest.mark.parametrize("command", [["pipeline"], ["analyze"], ["phase", "1"]])
@pytest.mark.parametrize("epsilon", ["0", "-0.1", "1.5"])
def test_epsilon_outside_unit_interval_rejected(tmp_path, capsys, command, epsilon):
    argv = command + ["--epsilon", epsilon, "--n", "1000", "--out", str(tmp_path)]
    assert run(argv) == cli.EXIT_USAGE
    assert "--epsilon" in capsys.readouterr().err
    assert not (tmp_path / "ledger.json").exists()


@pytest.mark.parametrize("argv,flag", [
    (["phase", "1", "--target-bias", "1.5"], "--target-bias"),
    (["phase", "1", "--target-bias", "0"], "--target-bias"),
    (["pipeline", "--model", "markov", "--mode", "shuffled-blocks", "--ell", "0"], "--ell"),
    (["bench", "--ell", "-3"], "--ell"),
])
def test_invalid_value_rejected_naming_its_flag(tmp_path, capsys, argv, flag):
    out = tmp_path / "o"
    assert run(argv + ["--out", str(out)]) == cli.EXIT_USAGE
    assert flag in capsys.readouterr().err
    assert not out.exists()


# values that the library would reject in its own terms ("n must be >= 64"),
# or that bench would take and then fail as a conformance failure
@pytest.mark.parametrize("argv,message", [
    (["pipeline", "--n", "1"], "--n must be >= 64 for the mod-4 certificate"),
    (["pipeline", "--n", "2", "--mode", "shuffled-blocks"],
     "--n must be >= 64 for the mod-4 certificate"),
    (["phase", "2", "--n", "1"], "--n must be >= 2 for the parity-binning plan"),
    (["phase", "3", "--n", "10"], "--n must be >= 64 for the mod-4 certificate"),
    (["arch", "--periods", "0"], "--periods must be >= 1"),
    (["bench", "--tol", "-1"], "--tol must be a number >= 0"),
    (["bench", "--tol", "nan"], "--tol must be a number >= 0"),
    (["pipeline", "--seed", "-1"], "--seed must be >= 0"),
    (["phase", "2", "--seed", "-1"], "--seed must be >= 0"),
    (["equiv", "--seed", "-1"], "--seed must be >= 0"),
    (["bench", "--seed", "-1"], "--seed must be >= 0"),
    (["arch", "--pattern", "ABCDE"], "--pattern must be ABC or ABCD"),
    # the ledger's 19.5/epsilon^2 overflows below about 3.3e-154, and
    # epsilon^2 underflows to 0 below about 1.5e-162
    (["pipeline", "--n", "1000", "--epsilon", "1e-200"], "--epsilon must lie in [1e-150, 1]"),
    (["pipeline", "--n", "1000", "--epsilon", "1e-155"], "--epsilon must lie in [1e-150, 1]"),
    (["bench", "--epsilon", "1e-200"], "--epsilon must lie in [1e-150, 1]"),
])
def test_out_of_range_value_rejected_naming_its_flag(tmp_path, capsys, monkeypatch, argv,
                                                     message):
    def no_pipeline(*args, **kwargs):
        raise AssertionError("a pipeline ran before the flags were checked")

    monkeypatch.setattr(cooling, "pipeline", no_pipeline)
    out = tmp_path / "o"
    assert run(argv + ["--out", str(out)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"spinref: {message}\n"
    assert not out.exists()


def test_target_bias_below_the_entry_bias_that_pairing_passes_is_accepted(tmp_path):
    # phase 1 runs pairing alone, so it takes any target: the orbit 0.25,
    # 0.4706, 0.7706, 0.9653 stops short of 0.856 on its way to 0.5 and
    # passes it on its way to 0.8
    for target, rounds in (("0.5", 2), ("0.8", 3)):
        argv = ["phase", "1", "--n", "10000", "--epsilon", "0.25", "--target-bias", target]
        assert run(argv + ["--out", str(tmp_path)]) == cli.EXIT_OK, argv
        assert json.loads(read(tmp_path / "phase1_summary.json"))["rounds"] == rounds


def test_smallest_n_each_run_takes_is_accepted(tmp_path):
    for argv in (["phase", "2", "--n", "2"], ["phase", "3", "--n", "64"],
                 ["analyze", "--n", "64"]):
        assert run(argv + ["--out", str(tmp_path)]) == cli.EXIT_OK, argv


@pytest.mark.parametrize("n,rounds", [(1, 0), (5, 2), (13, 2)])
def test_phase_1_too_few_bits_names_n(tmp_path, capsys, n, rounds):
    out = tmp_path / "o"
    argv = ["phase", "1", "--n", str(n), "--seed", "3", "--out", str(out)]
    assert run(argv) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith(
        f"spinref: --n {n} is too small: population exhausted after {rounds} pairing rounds;"
    )
    assert not out.exists()


# (subcommand, flags it does not read, so does not accept); a case's test id
# is its position in the flattened list, so new rows go last
DROPPED = [
    (("phase", "1"), ["--trials", "--jobs"]),
    (("analyze",), ["--model", "--ell", "--seed", "--trials", "--format", "--jobs"]),
    (("arch",), ["--n", "--epsilon", "--model", "--ell", "--seed", "--trials",
                 "--target-bias", "--alpha", "--format", "--jobs"]),
    (("equiv",), ["--n", "--epsilon", "--model", "--ell", "--trials", "--target-bias",
                  "--alpha", "--format", "--jobs"]),
    (("bench",), ["--n", "--trials", "--target-bias", "--alpha", "--format", "--jobs"]),
    (("phase", "1"), ["--alpha"]),
    (("phase", "2"), ["--epsilon", "--model", "--ell", "--target-bias", "--trials", "--jobs"]),
    (("phase", "3"), ["--epsilon", "--model", "--ell", "--target-bias", "--alpha", "--trials",
                      "--jobs"]),
    # no subcommand reads --alpha
    (("pipeline",), ["--alpha"]),
    (("analyze",), ["--alpha"]),
    (("phase", "2"), ["--alpha"]),
    # both pair to the fixed entry bias of phase 2; only phase 1 takes a target
    (("pipeline",), ["--target-bias"]),
    (("analyze",), ["--target-bias"]),
]
FLAG_VALUES = {"--model": "binomial", "--format": "json", "--epsilon": "0.3",
               "--target-bias": "0.856", "--alpha": "0.3"}


@pytest.mark.parametrize(
    "command,flag", [(c, f) for c, flags in DROPPED for f in flags]
)
def test_subcommand_rejects_flags_it_does_not_read(tmp_path, capsys, command, flag):
    out = tmp_path / "o"
    argv = list(command) + [flag, FLAG_VALUES.get(flag, "1"), "--out", str(out)]
    assert run(argv) == cli.EXIT_USAGE
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_shared_config_values_of_unread_flags_are_ignored(tmp_path):
    # a config written for pipeline runs does not break arch or equiv, and
    # a phase-1 target moves no pipeline or analyze output
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 0, "epsilon": 0, "trials": 0, "seed": 4,
                               "target_bias": 0.5}))
    assert run(["arch", "--config", str(cfg), "--out", str(tmp_path / "a")]) == cli.EXIT_OK
    assert run(["equiv", "--config", str(cfg), "--out", str(tmp_path / "e")]) == cli.EXIT_OK
    assert run(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "p")]) == cli.EXIT_USAGE
    argv = ["analyze", "--n", "1000", "--epsilon", "0.25", "--out"]
    assert run(argv + [str(tmp_path / "y"), "--config", str(cfg)]) == cli.EXIT_OK
    assert run(argv + [str(tmp_path / "z")]) == cli.EXIT_OK
    assert read(tmp_path / "y" / "analysis.json") == read(tmp_path / "z" / "analysis.json")


def test_phase_json_format(tmp_path):
    run(["phase", "1", "--n", "10000", "--epsilon", "0.3", "--seed", "1",
         "--format", "json", "--out", str(tmp_path)])
    rows = json.loads(read(tmp_path / "phase1_rounds.json"))
    assert rows and rows[0]["phase"] == 1


def test_analyze_paper_orbit(tmp_path):
    assert (
        run(["analyze", "--epsilon", "0.009985", "--n", "1000000", "--out", str(tmp_path)])
        == cli.EXIT_OK
    )
    payload = json.loads(read(tmp_path / "analysis.json"))
    assert payload["phase1_rounds"] == 7
    orbit = read(tmp_path / "bias_orbit.csv").decode().splitlines()
    assert len(orbit) == 9  # header + 8 orbit points


@pytest.mark.parametrize("epsilon", ["0.9", "1"])
def test_analyze_at_or_past_the_target_bias(tmp_path, epsilon):
    # no pairing round is planned, so phase 1 costs no bits
    argv = ["analyze", "--epsilon", epsilon, "--n", "64", "--out", str(tmp_path)]
    assert run(argv) == cli.EXIT_OK
    payload = json.loads(read(tmp_path / "analysis.json"))
    assert payload["phase1_rounds"] == 0 and payload["phase1_overhead_sq"] == 1.0


def test_arch_two_tape(tmp_path):
    assert (
        run(["arch", "--pattern", "ABCD", "--periods", "3", "--out", str(tmp_path)])
        == cli.EXIT_OK
    )
    payload = json.loads(read(tmp_path / "arch.json"))
    assert payload["bd_fixed"] and payload["ac_advance_one_period"]


def test_arch_single_tape(tmp_path):
    assert (
        run(["arch", "--pattern", "ABC", "--periods", "4", "--out", str(tmp_path)])
        == cli.EXIT_OK
    )
    payload = json.loads(read(tmp_path / "arch.json"))
    assert payload["n_applications_identity"]


def test_equiv_suite(tmp_path):
    assert run(["equiv", "--seed", "0", "--out", str(tmp_path)]) == cli.EXIT_OK
    payload = json.loads(read(tmp_path / "equiv.json"))
    assert payload["phase1_w8"]["mismatches"] == 0
    assert payload["phase2_n12_k3"]["cases"] == 4096


def test_bench_small(tmp_path):
    assert (
        run(["bench", "--sizes", "729,2187,6561,19683", "--epsilon", "0.25",
             "--seed", "1", "--out", str(tmp_path)])
        == cli.EXIT_OK
    )
    payload = json.loads(read(tmp_path / "bench.json"))
    assert abs(payload["slopes"]["single"] - 2.0) <= 0.15
    assert abs(payload["slopes"]["two_tape"] - 4 / 3) <= 0.15
    assert abs(payload["slopes"]["two_tape_ca"] - 1.0) <= 0.15


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    # "alpha" names a flag no subcommand reads any more, so it is ignored
    cfg.write_text(json.dumps({"n": 10000, "epsilon": 0.3, "seed": 13, "alpha": 0.3}))
    out1 = tmp_path / "o1"
    assert (
        run(["pipeline", "--config", str(cfg), "--out", str(out1)]) == cli.EXIT_OK
    )
    ledger = json.loads(read(out1 / "ledger.json"))
    assert ledger["config"]["n"] == 10000
    assert ledger["config"]["epsilon"] == 0.3
    assert ledger["config"]["seed"] == 13
    # explicit flag beats the file
    out2 = tmp_path / "o2"
    run(["pipeline", "--config", str(cfg), "--epsilon", "0.5", "--out", str(out2)])
    ledger2 = json.loads(read(out2 / "ledger.json"))
    assert ledger2["config"]["epsilon"] == 0.5


@pytest.mark.parametrize("config,flag", [
    ({"model": "gauss"}, "--model"),
    ({"epsilon": "0.25"}, "--epsilon"),
    ({"n": "1000"}, "--n"),
    ({"n": 1000.5}, "--n"),
    ({"n": 1000, "trials": True}, "--trials"),
    ({"n": 1000, "seed": -1}, "--seed"),
])
def test_config_values_checked_like_flags(tmp_path, capsys, config, flag):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "o"
    assert run(["pipeline", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_USAGE
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_config_number_flags_take_json_integers_as_floats(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2000, "epsilon": 1, "model": "binomial"}))
    assert run(["pipeline", "--config", str(cfg), "--out", str(tmp_path)]) == cli.EXIT_OK
    config = json.loads(read(tmp_path / "ledger.json"))["config"]
    assert config["epsilon"] == 1.0 and isinstance(config["epsilon"], float)


@pytest.mark.parametrize("sizes", ["3,abc", "27", "729,2187,6561", "729,729,729,729"])
def test_bench_sizes_checked_before_any_pipeline(tmp_path, capsys, monkeypatch, sizes):
    def no_pipeline(*args, **kwargs):
        raise AssertionError("bench ran a pipeline before checking --sizes")

    monkeypatch.setattr(cooling, "pipeline", no_pipeline)
    out = tmp_path / "o"
    assert run(["bench", "--sizes", sizes, "--out", str(out)]) == cli.EXIT_USAGE
    assert "--sizes" in capsys.readouterr().err
    assert not out.exists()


def test_env_seed_default(tmp_path, monkeypatch):
    monkeypatch.setenv("SPINREF_SEED", "77")
    out = tmp_path / "o"
    run(["pipeline", "--n", "5000", "--epsilon", "0.4", "--out", str(out)])
    ledger = json.loads(read(out / "ledger.json"))
    assert ledger["config"]["seed"] == 77


@pytest.mark.parametrize("value", ["abc", "-2"])
def test_env_seed_must_be_an_integer(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("SPINREF_SEED", value)
    out = tmp_path / "o"
    assert run(["phase", "1", "--n", "1000", "--out", str(out)]) == cli.EXIT_USAGE
    assert "SPINREF_SEED" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", [[], ["--mode", "binomial-direct"]])
def test_markov_model_rejected_in_binomial_direct(tmp_path, capsys, mode):
    out = tmp_path / "o"
    argv = ["pipeline", "--model", "markov", "--n", "1000000", "--seed", "1", "--out", str(out)]
    assert run(argv + mode) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "--model" in err and "--mode" in err
    assert not out.exists()


def test_markov_model_flags(tmp_path):
    out = tmp_path / "m"
    assert (
        run(["phase", "1", "--model", "markov", "--ell", "10", "--epsilon", "0.3",
             "--n", "30000", "--seed", "2", "--out", str(out)])
        == cli.EXIT_OK
    )
    summary = json.loads(read(out / "phase1_summary.json"))
    assert summary["rounds"] == 3


def _readme_flag_table():
    """README's subcommand/flags table: {"pipeline": ["--n", ...], ...},
    with each ``{a,b}`` choice list kept after its flag."""
    lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| subcommand | flags |") + 2
    rows = {}
    for line in lines[start:]:
        m = re.fullmatch(r"\| `([^`]+)` \| `([^`]*)` \|", line)
        if not m:
            break
        rows[m[1]] = m[2].split()
    return rows


def _leaf_parsers(parser, row=()):
    """{"pipeline": parser, ..., "phase 2": parser, ...}: every parser that
    takes flags, keyed by the words that select it."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {" ".join(row): parser}
    return {k: p for name, sub in subs[0].choices.items()
            for k, p in _leaf_parsers(sub, row + (name,)).items()}


def test_readme_flag_table_matches_the_parsers():
    parsers = _leaf_parsers(cli._build_parser())
    table = _readme_flag_table()
    assert set(table) == set(parsers)
    for row, words in table.items():
        actions = {o: a for a in parsers[row]._actions for o in a.option_strings}
        accepted = set(actions) - {"-h", "--help", "--out", "--config"}
        listed = [w for w in words if w.startswith("--")]
        assert sorted(listed) == sorted(accepted), row
        # a choice list, where given, is the flag's choices
        for flag, word in zip(words, words[1:]):
            if word.startswith("{"):
                assert word[1:-1].split(",") == list(actions[flag].choices), (row, flag)


@pytest.mark.parametrize("which", ["1", "2", "3"])
def test_phase_help_lists_exactly_the_flags_it_reads(capsys, which):
    assert run(["phase", which, "--help"]) == cli.EXIT_OK
    listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    readme = {w for w in _readme_flag_table()[f"phase {which}"] if w.startswith("--")}
    assert listed == readme | {"--help", "--out", "--config"}


def test_flag_before_the_phase_number_rejected(tmp_path):
    out = tmp_path / "o"
    assert run(["phase", "--n", "5000", "1", "--out", str(out)]) == cli.EXIT_USAGE
    assert not out.exists()


def test_config_fills_the_arch_and_bench_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"periods": 5, "pattern": "abcd", "tol": 0.5,
                               "sizes": "729,2187,6561,19683"}))
    for argv, want in ((["arch"], {"pattern": "ABCD", "periods": 5}),
                       (["arch", "--periods", "4"], {"pattern": "ABCD", "periods": 4})):
        out = tmp_path / "o"
        assert run(argv + ["--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
        payload = json.loads(read(out / "arch.json"))
        assert {k: payload[k] for k in want} == want, argv
    out = tmp_path / "b"
    assert run(["bench", "--seed", "1", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    payload = json.loads(read(out / "bench.json"))
    assert payload["tolerance"] == 0.5 and payload["sizes"] == [729, 2187, 6561, 19683]
    # an explicit flag still wins; bench.json is written before the exit code
    argv = ["bench", "--seed", "1", "--sizes", "64,128,256,512", "--tol", "0", "--config"]
    assert run(argv + [str(cfg), "--out", str(out)]) == cli.EXIT_CONFORMANCE
    payload = json.loads(read(out / "bench.json"))
    assert payload["tolerance"] == 0.0 and payload["sizes"] == [64, 128, 256, 512]


PHASES = "'1', '2', '3'"


@pytest.mark.parametrize("argv,slot,refused", [
    ([], "SUBCOMMAND", None),
    (["phase"], "PHASE", None),
    (["pipline"], "SUBCOMMAND", "'pipline' (choose from 'pipeline', 'phase', 'analyze', 'arch',"),
    (["phase", "4"], "PHASE", f"'4' (choose from {PHASES})"),
    (["phase", "--n", "5000", "1"], "PHASE", f"'5000' (choose from {PHASES})"),
], ids=["bare", "bare-phase", "typo", "phase-4", "flag-first"])
def test_missing_or_unknown_subcommand_names_its_slot(capsys, argv, slot, refused):
    assert run(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "argument command" not in err and "required: command" not in err
    if refused is None:
        assert f"the following arguments are required: {slot}" in err
    else:
        assert f"argument {slot}: invalid choice: {refused}" in err
