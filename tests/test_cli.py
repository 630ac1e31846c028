"""CLI contract: report schema, exit codes, determinism, golden diffs."""

import importlib.util
import json
import os
import pathlib
import re
import subprocess
import sys
from fractions import Fraction as F

import pytest

from skewcert import cli, harness
from skewcert.pbw import jacobi_check

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

# scripts/regen_goldens.py writes every golden: its command lines, exit
# codes, scrub and render are the ones the golden tests below diff with
_spec = importlib.util.spec_from_file_location("regen_goldens", ROOT / "scripts" / "regen_goldens.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)
scrub = regen.scrub


def run_cli(argv, capsys):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_schema_fields(capsys):
    code, report = run_cli(["verify", "valuation"], capsys)
    assert code == 0
    assert set(report) == {"schema", "command", "params", "verdicts", "elapsed_ms", "seed"}
    assert report["schema"] == 1
    for v in report["verdicts"]:
        assert set(v) == {"claim", "paper_label", "verdict", "data"}


def test_exit_code_counterexample(capsys):
    code, report = run_cli(
        ["certify", "cauchon", "--alpha", "5/6", "--beta", "5/6", "--shift", "2"], capsys
    )
    assert code == 2
    assert any(v["verdict"] == "failed" for v in report["verdicts"])


def test_rationals_serialized_as_strings(capsys):
    code, report = run_cli(["verify", "valuation"], capsys)
    data = report["verdicts"][0]["data"]
    assert data["chi(V)"] == {"got": "-6", "want": "-6"}


def test_determinism_byte_identical(capsys):
    runs = []
    for _ in range(2):
        code, report = run_cli(["certify", "groupring", "--max-word-len", "2"], capsys)
        assert code == 0
        runs.append(json.dumps(scrub(report), sort_keys=True))
    assert runs[0] == runs[1]


def src_env(**extra):
    """The environment of a child interpreter that imports this checkout."""
    src = str(ROOT / "src")
    return dict(os.environ, **extra,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_report_independent_of_hash_seed():
    # witnesses come from sets of atom names; their order must not follow
    # the string hash seed of the interpreter
    reports = []
    for hash_seed in ("0", "3"):
        proc = subprocess.run(
            [sys.executable, "-m", "skewcert.cli", "certify", "heisenberg", "--max-word-len", "1"],
            capture_output=True, text=True, env=src_env(PYTHONHASHSEED=hash_seed), check=True,
        )
        reports.append(scrub(json.loads(proc.stdout)))
    assert reports[0] == reports[1]


@pytest.mark.parametrize("name, argv, want_code",
                         [(name, argv, code) for name, (argv, code) in regen.COMMANDS.items()])
def test_golden_reports(name, argv, want_code, tmp_path):
    # compare the rendered text, as the benchmark's gate does: equal dicts
    # would also let 1 stand for 1.0 or True
    code, text = regen.render(argv, tmp_path / "report.json")
    assert code == want_code
    assert text == (GOLDEN / name).read_text()


def test_golden_cases_match_regen_script():
    # every golden file has its command line in scripts/regen_goldens.py,
    # and every command line there its golden file
    assert set(regen.COMMANDS) == {p.name for p in GOLDEN.iterdir()}


def test_output_file(tmp_path, capsys):
    out = tmp_path / "r.json"
    code, report = run_cli(["verify", "valuation", "--output", str(out)], capsys)
    assert code == 0
    assert scrub(json.loads(out.read_text())) == scrub(report)


ALGEBRA_TEXT = """\
# the free nilpotent class-3 table, in the external format
basis u v w n1 n2
weight u = 1
weight v = 1
weight w = 2
weight n1 = 3
weight n2 = 3
bracket v u = w
bracket w u = n1
bracket w v = n2
"""


def test_parse_lie_algebra():
    L = cli.parse_lie_algebra(ALGEBRA_TEXT)
    assert L.basis == ("u", "v", "w", "n1", "n2")
    assert L.graded
    assert jacobi_check(L)
    assert L.bracket_pairs(2, 0) == ((3, 1),)


def test_parse_reversed_pair_and_sums():
    L = cli.parse_lie_algebra(
        "basis x y z\nbracket x y = -z\nweight z = 2\n"
    )
    # [x, y] = -z stored antisymmetrically as [y, x] = z
    assert L.bracket_pairs(1, 0) == ((2, 1),)
    L2 = cli.parse_lie_algebra(
        "basis a b c\nbracket b a = 2*c + -1/3*a\n"
    )
    assert dict(L2.bracket_pairs(1, 0)) == {2: F(2), 0: F(-1, 3)}


def test_parse_errors():
    with pytest.raises(ValueError):
        cli.parse_lie_algebra("weight x = 1\n")
    with pytest.raises(ValueError):
        cli.parse_lie_algebra("basis x\nbracket x x = x\n")
    with pytest.raises(ValueError):
        cli.parse_lie_algebra("basis x y\nfrobnicate\n")


def test_check_algebra_command(tmp_path, capsys):
    path = tmp_path / "alg.txt"
    path.write_text(ALGEBRA_TEXT)
    code, report = run_cli(["check-algebra", str(path)], capsys)
    assert code == 0
    assert report["verdicts"][0]["data"]["graded"] is True
    bad = tmp_path / "bad.txt"
    bad.write_text(
        "basis x y z\nbracket y x = z\nbracket z x = x\nbracket z y = y\n"
    )
    code, report = run_cli(["check-algebra", str(bad)], capsys)
    assert code == 2


@pytest.mark.parametrize(
    "text, message",
    [
        ("basis u v w\nbracket v u = q\n", "line 2: 'q' is not a basis element"),
        ("basis u v w\nbracket v u = 2*\n", "line 2: '' is not a basis element"),
        ("basis u v w\nweight q = 2\n", "line 2: 'q' is not a basis element"),
        # the basis may come last, so names are checked after every line
        ("weight q = 2\nbracket v u = w\nbasis u v w\n", "line 1: 'q' is not a basis element"),
        ("bracket v u = w\nbasis u v\n", "line 1: 'w' is not a basis element"),
    ],
)
def test_check_algebra_rejects_unknown_names(text, message, capsys, tmp_path):
    path = tmp_path / "alg.txt"
    path.write_text(text)
    code = cli.run(["check-algebra", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "text, message",
    [
        # the reversed pair says [v, u] = -w; it once cancelled to a zero bracket
        ("basis u v w\nbracket v u = w\nbracket u v = w\n",
         "line 3: the bracket of u and v is already given on line 2"),
        # a repeated line once replaced the earlier one
        ("basis u v w\nbracket v u = w\n\nbracket v u = 2*w\n",
         "line 4: the bracket of v and u is already given on line 2"),
        ("basis u u v\nbracket v u = u\n", "line 1: 'u' appears twice in the basis"),
        # a second basis or weight line once replaced the first
        ("basis u v w\nbracket v u = w\nbasis x y z\n",
         "line 3: the basis is already given on line 1"),
        ("basis u v w\nweight u = 1\nweight u = 3\n",
         "line 3: the weight of u is already given on line 2"),
        # an empty basis line once read as a missing one
        ("basis\nbracket v u = w\n", "line 1: the basis names no element"),
        # a malformed number once gave the parser's error without its line
        ("basis u v w\nweight u = x\n", "line 2: invalid literal for int() with base 10: 'x'"),
        ("basis u v w\nweight u = 1.5\n",
         "line 2: invalid literal for int() with base 10: '1.5'"),
        ("basis u v w\nbracket v u = x*w\n", "line 2: Invalid literal for Fraction: 'x'"),
        ("basis u v w\n\nbracket v u = *u\n", "line 3: Invalid literal for Fraction: ''"),
        ("basis u v w\nbracket v u = 1/0*w\n", "line 2: zero denominator in '1/0'"),
        # a nonzero self-bracket once gave its error without its line
        ("basis u v\n\nbracket u u = v\n", "line 3: [u, u] must be zero"),
    ],
)
def test_check_algebra_rejects_contradictory_tables(text, message, capsys, tmp_path):
    path = tmp_path / "alg.txt"
    path.write_text(text)
    code = cli.run(["check-algebra", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_python_m_skewcert_runs_the_cli():
    proc = subprocess.run([sys.executable, "-m", "skewcert", "verify", "valuation"],
                          capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["command"] == "verify valuation"


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "cauchon", "--alpha", "abc", "--beta", "1"],
        ["certify", "groupring", "--max-word-len", "-1"],
        ["check-algebra", "no-such-algebra.txt"],
        ["verify", "scaling", "--lambda", "0"],
        ["certify", "heisenberg", "--max-word-len", "-1"],
        ["certify", "twodim", "--max-word-len", "-1"],
        ["certify", "nilpotent", "--order", "0"],
        ["certify", "nilpotent", "--order", "-2"],
        ["verify", "scaling", "--order", "0"],
        ["verify", "scaling", "--lambda", "1/0"],
        ["certify", "cauchon", "--alpha", "1/0", "--beta", "1"],
        ["certify", "heisenberg", "--max-word-len", "0"],
        ["certify", "twodim", "--max-word-len", "0"],
        ["certify", "groupring", "--max-word-len", "0"],
        ["certify", "cauchon", "--alpha", "5/6", "--beta", "1/6", "--max-word-len", "0"],
        ["verify", "valuation", "--output", "missing-dir/r.json"],
    ],
)
def test_bad_input_is_a_one_line_error(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    if "--order" in argv:
        assert captured.err == "error: --order must be at least 1\n"
    if "--max-word-len" in argv:
        assert captured.err == "error: --max-word-len must be at least 1\n"


@pytest.mark.parametrize("target", ["heisenberg", "twodim"])
def test_skew_presets_take_no_order(target, capsys):
    # the evaluated p-jets size their order from the word count, so
    # --order is not a flag of these commands
    code = cli.run(["certify", target, "--order", "8"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith(f"usage: skewcert certify {target} ")
    assert captured.err.endswith(
        f"skewcert certify {target}: error: unrecognized argument '--order'\n")
    assert captured.out == ""


STUBS = {"heisenberg": "run_certify_skew", "twodim": "run_certify_skew",
         "groupring": "run_certify_groupring", "cauchon": "run_certify_cauchon"}


@pytest.mark.parametrize("target", sorted(STUBS))
@pytest.mark.parametrize("length", ["99999999999999999999", str(cli.MAX_WORD_LEN + 1)])
def test_word_length_above_the_bound_is_a_one_line_error(target, length, capsys, monkeypatch):
    # the pipeline is stubbed to fail: the bound refuses before any work
    def pipeline(*args):
        raise AssertionError("the pipeline ran")

    monkeypatch.setattr(harness, STUBS[target], pipeline)
    extra = ["--alpha", "5/6", "--beta", "1/6"] if target == "cauchon" else []
    code = cli.run(["certify", target, *extra, "--max-word-len", length])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: --max-word-len must be at most {cli.MAX_WORD_LEN}\n"
    assert captured.out == ""


@pytest.mark.parametrize("target", sorted(STUBS))
def test_word_length_at_the_bound_is_accepted(target, capsys, monkeypatch):
    calls = []

    def pipeline(*args):
        calls.append(args)
        return [harness.verdict("stub", "label", True)]

    monkeypatch.setattr(harness, STUBS[target], pipeline)
    extra = ["--alpha", "5/6", "--beta", "1/6"] if target == "cauchon" else []
    code, report = run_cli(["certify", target, *extra, "--max-word-len", str(cli.MAX_WORD_LEN)], capsys)
    assert code == 0 and len(calls) == 1
    assert report["params"]["max_word_len"] == cli.MAX_WORD_LEN


def test_word_length_bound_admits_every_length_in_use():
    # the goldens and the benchmark name their lengths in code; the README
    # runs groupring at 10 and ROADMAP item 1 heisenberg and twodim up to 8
    used = [10, 8]
    for path in (ROOT / "scripts" / "regen_goldens.py", ROOT / "perfbench" / "run.py"):
        used += [int(n) for n in re.findall(r'"--max-word-len", "(\d+)"', path.read_text())]
    assert len(used) > 2 and max(used) <= cli.MAX_WORD_LEN


def _freeness(report):
    (v,) = [v for v in report["verdicts"] if "jets" in v["data"]]
    return v


def test_jet_escalation_reexpands_generators(capsys, monkeypatch):
    # at order 4 the evaluated p-jets are rank-deficient at any number of
    # points; escalation must re-evaluate the words from generators expanded
    # at the grown order, and the report must name that order instead of
    # the ceiling
    monkeypatch.setattr(harness, "first_jet_attempt", lambda *args: (4, 5))
    code, report = run_cli(["certify", "heisenberg", "--max-word-len", "2"], capsys)
    assert code == 0
    v = _freeness(report)
    assert v["verdict"] == "certified"
    jets = v["data"]["jets"]
    assert jets["verdict"] == "certified" and jets["rank"] == 7
    assert jets["truncation_order"] == 6
    assert jets["params"]["coordinatizer"] == "pjet-residues"
    assert (jets["params"]["order"], jets["params"]["points"]) == (6, 8)
    assert v["data"]["paths_agree"]


def test_deficient_jets_are_inconclusive_never_exit_2(capsys, monkeypatch):
    # monoid jets at the order ceiling whose W = L points may not grow stay
    # rank-deficient; that is a limit of the jets, so the verdict is
    # inconclusive with exit 3, never exit 2, even though the second proof,
    # sized as usual below the ceiling, certifies
    from skewcert import harness

    real = harness.first_jet_attempt

    def points_at_the_top_power(word_count, top_power, step):
        # the monoid words at L = 2 have top power 2, the group half's 4
        return (8, top_power) if top_power == 2 else real(word_count, top_power, step)

    monkeypatch.setattr(harness, "JET_ORDER_CEILING", 8)
    monkeypatch.setattr(harness, "first_jet_attempt", points_at_the_top_power)
    code, report = run_cli(["certify", "heisenberg", "--max-word-len", "2"], capsys)
    assert code == 3
    v = _freeness(report)
    assert v["verdict"] == "inconclusive"
    jets = v["data"]["jets"]
    assert jets["verdict"] == "inconclusive" and jets["rank"] < 7
    assert jets["truncation_order"] == 8
    assert (jets["params"]["order"], jets["params"]["points"]) == (8, 2)
    assert v["data"]["group"]["verdict"] == v["data"]["groupring"]["verdict"] == "certified"
    assert not v["data"]["paths_agree"]


def test_too_few_points_escalate_instead_of_exit_2(capsys, monkeypatch):
    # at W = 4 points Sbar^4 is a combination of lower powers of Sbar at
    # every point, so a first attempt at L = 4 is deficient; W grows past L
    # and the run certifies
    from skewcert import harness

    steps = []
    real = harness.skew_residue_coordinatizer

    def recording(order, points):
        steps.append((order, points))
        return real(order, points)

    monkeypatch.setattr(harness, "first_jet_attempt", lambda *args: (16, 4))
    monkeypatch.setattr(harness, "skew_residue_coordinatizer", recording)
    code, report = run_cli(["certify", "twodim", "--max-word-len", "4"], capsys)
    assert code == 0
    v = _freeness(report)
    assert v["verdict"] == "certified" and v["data"]["paths_agree"]
    assert steps[:2] == [(16, 4), (24, 6)]
    assert (v["data"]["jets"]["params"]["points"], v["data"]["jets"]["rank"]) == (6, 31)


@pytest.mark.parametrize("name, argv", [(name, argv) for name, (argv, _) in regen.COMMANDS.items()
                                        if argv[1] in ("cauchon", "heisenberg", "twodim")])
def test_golden_jets_certify_at_their_first_attempt(name, argv, capsys, monkeypatch):
    # the first (N, W) is sized from the word count: every evaluated path of
    # a golden command line certifies there, with no escalation
    runs, steps = [], []
    real_jets, real_coord = harness.certify_skew_jets, harness.skew_residue_coordinatizer

    def jets(*args, **kwargs):
        runs.append(args[0])
        return real_jets(*args, **kwargs)

    def recording(order, points):
        steps.append((order, points))
        return real_coord(order, points)

    monkeypatch.setattr(harness, "certify_skew_jets", jets)
    monkeypatch.setattr(harness, "skew_residue_coordinatizer", recording)
    run_cli(argv, capsys)
    assert len(steps) == len(runs) == {"cauchon.json": 1, "cauchon_refused.json": 0}.get(name, 2)


def test_cauchon_certifies_at_length_three(capsys):
    code, report = run_cli(["certify", "cauchon", "--alpha", "5/6", "--beta", "1/6",
                            "--max-word-len", "3"], capsys)
    assert code == 0
    v = report["verdicts"][-1]
    assert v["verdict"] == v["data"]["verdict"] == "certified"
    assert (v["data"]["rank"], v["data"]["word_count"]) == (53, 53)
    assert v["data"]["params"]["coordinatizer"] == "pjet-residues"


def test_cauchon_claim_writes_a_negative_shift_with_a_plus(capsys):
    # a shift of -1 once read "z -> z - -1"; a shift >= 0 reads as before
    code, report = run_cli(["certify", "cauchon", "--alpha", "1/2", "--beta", "0",
                            "--shift", "-1"], capsys)
    assert code == 0
    claim = report["verdicts"][0]["claim"]
    assert claim == "orbits of 1/2 and 0 under z -> z + 1 are infinite and distinct"
    code, report = run_cli(["certify", "cauchon", "--alpha", "1/2", "--beta", "0",
                            "--shift", "0"], capsys)
    assert code == 2
    claim = report["verdicts"][0]["claim"]
    assert claim == "orbits of 1/2 and 0 under z -> z - 0 are infinite and distinct"


@pytest.mark.parametrize("argv", [["certify", "nilpotent", "--order", "1"],
                                  ["verify", "scaling", "--order", "1"]])
def test_order_one_class3_cross_check_is_a_one_line_error(argv, capsys, tmp_path, monkeypatch):
    # at order 1 the S/T jets and A*A^-1 all have trunc 0, so the class-3
    # cross-checks would pass without comparing a coefficient
    monkeypatch.chdir(tmp_path)
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: --order must be at least 2 for the class-3 jet cross-checks\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv", [["certify", "nilpotent", "--seed", "x"],
                                  ["certify", "nilpotent", "--no-such-flag"],
                                  []])
def test_usage_error_exits_one(argv, capsys):
    # exit 2 means a relation or counterexample was found; argparse's own
    # usage errors must not claim it
    assert cli.run(argv) == 1
    captured = capsys.readouterr()
    assert "usage:" in captured.err
    assert captured.out == ""


def test_help_exits_zero(capsys):
    assert cli.run(["certify", "nilpotent", "--help"]) == 0
    assert "usage:" in capsys.readouterr().out


def test_flag_equals_value_is_the_same_as_two_words(capsys):
    reports = [scrub(run_cli(["certify", "heisenberg", *length], capsys)[1])
               for length in (["--max-word-len=1"], ["--max-word-len", "1"])]
    assert reports[0]["params"] == {"max_word_len": 1}
    assert reports[0] == reports[1]


@pytest.mark.parametrize("argv", [["certify", "nilpotent", "--order", "-2"],
                                  ["certify", "nilpotent", "--order=-2"],
                                  ["verify", "scaling", "--order", "-2"]])
def test_negative_values_reach_the_range_checks(argv, capsys):
    assert cli.run(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --order must be at least 1\n"
    assert captured.out == ""


def test_repeated_lambda_keeps_every_value(capsys):
    code, report = run_cli(["verify", "scaling", "--lambda", "2", "--lambda=5", "--order", "2"],
                           capsys)
    assert code == 0
    assert report["params"]["lams"] == ["2", "5"]


@pytest.mark.parametrize("argv", [
    ["certify", "cauchon", "--beta", "1/6"],  # --alpha is required
    ["certify", "no-such-target"],
    ["certify", "nilpotent", "--order"],  # a flag with no value
    ["certify", "cauchon", "--alpha", "--beta", "1/6"],  # a flag where the value should be
    ["verify", "valuation", "--seed", "x"],
    ["selftest", "--bogus"],
    ["selftest", "--quick=yes"],  # a switch takes no value
    ["check-algebra"],
    ["check-algebra", "a.txt", "b.txt"],
])
def test_malformed_command_line_is_a_usage_error(argv, capsys):
    assert cli.run(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: skewcert ")
    assert "error: " in captured.err.splitlines()[-1]
    assert captured.out == ""


@pytest.mark.parametrize("words, count", [([], 9), (["certify"], 5), (["certify", "cauchon"], 1)])
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_at_every_level_prints_usage(words, count, flag, capsys):
    assert cli.run(words + [flag]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: skewcert ")
    # one line for each command line under the words given
    lines = [line.removeprefix("usage:").split() for line in captured.out.splitlines()]
    assert len(lines) == count
    assert all(line[1:1 + len(words)] == words for line in lines)
    assert captured.err == ""


@pytest.mark.parametrize("argv, code, stream", [(["--help"], 0, "stdout"), ([], 1, "stderr")])
def test_python_m_skewcert_reads_sys_argv(argv, code, stream):
    proc = subprocess.run([sys.executable, "-m", "skewcert", *argv],
                          capture_output=True, text=True, env=src_env())
    assert proc.returncode == code, proc.stderr
    assert getattr(proc, stream).startswith("usage: skewcert ")


def test_readme_usage_block_is_what_help_prints():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Command line\n\n```\n", 1)[1].split("```\n", 1)[0]
    assert block == cli.usage(())


def _stub_pipelines(monkeypatch):
    """Replace every harness.run_* by a stub with one certified verdict;
    returns the list of the positional arguments of each call."""
    calls = []

    def stub(*args, **kwargs):
        calls.append(args)
        return [harness.verdict("stub", "label", True)]

    for name in dir(harness):
        if name.startswith("run_"):
            monkeypatch.setattr(harness, name, stub)
    return calls


@pytest.mark.parametrize("key", cli.COMMANDS, ids=" ".join)
def test_every_row_runs_and_reports_its_own_flags(key, capsys, monkeypatch, tmp_path):
    # the pipelines are stubbed: the row alone names the command and its params
    _stub_pipelines(monkeypatch)
    (tmp_path / "alg.txt").write_text("basis x\n")
    given = {"--alpha": "5/6", "--beta": "1/6", "PATH": str(tmp_path / "alg.txt")}
    argv, want = list(key), {}
    for flag, (dest, default) in cli.COMMANDS[key][1].items():
        if default is cli.REQUIRED:
            default = given[flag]
            argv += [default] if flag == "PATH" else [flag, default]
        if dest not in ("seed", "output"):
            want[dest] = ["2", "3"] if dest == "lams" else default
    code, report = run_cli(argv, capsys)
    assert code == 0
    assert report["command"] == " ".join(key)
    assert report["params"] == want


def test_lambda_is_reported_in_lowest_terms(capsys, monkeypatch):
    calls = _stub_pipelines(monkeypatch)
    code, report = run_cli(["verify", "scaling", "--lambda", "4/2"], capsys)
    assert code == 0
    assert report["params"]["lams"] == ["2"]
    assert calls == [((F(2),), harness.DEFAULT_SEED)]


def test_run_all_certifications_writes_one_report_per_command(tmp_path, monkeypatch, capsys):
    # a value such as cauchon's 5/6 must not name a directory of the report path
    spec = importlib.util.spec_from_file_location(
        "run_all_certifications", ROOT / "scripts" / "run_all_certifications.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    written = []

    def run(argv):
        # like cli.emit_report: the report goes to the file and to stdout
        path = pathlib.Path(argv[argv.index("--output") + 1])
        text = json.dumps({"verdicts": [harness.verdict("stub", "stub", True)]}, indent=2)
        path.write_text(text)
        sys.stdout.write(text + "\n")
        written.append(path)
        return 0

    monkeypatch.setattr(script, "OUT", tmp_path)
    monkeypatch.setattr(cli, "run", run)
    assert script.main() == 0
    assert len(set(written)) == len(script.COMMANDS)
    assert all(path.parent == tmp_path for path in written)
    assert len(capsys.readouterr().out.splitlines()) == len(script.COMMANDS)
