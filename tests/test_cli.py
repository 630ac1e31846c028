"""CLI contract: report schema, exit codes, determinism, golden diffs."""

import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction as F

import pytest

from skewcert import cli
from skewcert.pbw import jacobi_check

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_cli(argv, capsys):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def scrub(node):
    if isinstance(node, dict):
        return {k: 0 if k == "elapsed_ms" else scrub(v) for k, v in node.items()}
    if isinstance(node, list):
        return [scrub(v) for v in node]
    return node


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


def test_report_independent_of_hash_seed():
    # witnesses come from sets of atom names; their order must not follow
    # the string hash seed of the interpreter
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    reports = []
    for hash_seed in ("0", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "skewcert.cli", "certify", "heisenberg", "--max-word-len", "1"],
            capture_output=True, text=True, env=env, check=True,
        )
        reports.append(scrub(json.loads(proc.stdout)))
    assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "name, argv, want_code",
    [
        ("valuation.json", ["verify", "valuation"], 0),
        ("groupring.json", ["certify", "groupring", "--max-word-len", "3"], 0),
        ("cauchon_refused.json",
         ["certify", "cauchon", "--alpha", "5/6", "--beta", "5/6", "--shift", "2"], 2),
        ("scaling.json", ["verify", "scaling", "--lambda", "2", "--order", "10"], 0),
        ("heisenberg.json", ["certify", "heisenberg", "--max-word-len", "2", "--order", "32"], 0),
        ("nilpotent.json", ["certify", "nilpotent", "--order", "10"], 0),
        ("cauchon.json",
         ["certify", "cauchon", "--alpha", "5/6", "--beta", "1/6", "--shift", "2"], 0),
        # the defaults, which the benchmark runs
        ("nilpotent_default.json", ["certify", "nilpotent"], 0),
        ("scaling_default.json", ["verify", "scaling"], 0),
        # the other paper preset at L=2
        ("twodim.json", ["certify", "twodim", "--max-word-len", "2", "--order", "16"], 0),
    ],
)
def test_golden_reports(name, argv, want_code, capsys):
    # compare the rendered text, as the benchmark's gate does: equal dicts
    # would also let 1 stand for 1.0 or True
    code, report = run_cli(argv, capsys)
    assert code == want_code
    rendered = json.dumps(scrub(report), indent=2, sort_keys=True) + "\n"
    assert rendered == (GOLDEN / name).read_text()


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
    "argv",
    [
        ["certify", "cauchon", "--alpha", "abc", "--beta", "1"],
        ["certify", "groupring", "--max-word-len", "-1"],
        ["check-algebra", "no-such-algebra.txt"],
        ["verify", "scaling", "--lambda", "0"],
        ["certify", "heisenberg", "--order", "0"],
        ["certify", "twodim", "--order", "0"],
        ["certify", "nilpotent", "--order", "0"],
        ["certify", "nilpotent", "--order", "-2"],
        ["verify", "scaling", "--order", "0"],
        ["verify", "scaling", "--lambda", "1/0"],
        ["certify", "cauchon", "--alpha", "1/0", "--beta", "1"],
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


def _freeness(report):
    (v,) = [v for v in report["verdicts"] if "jets" in v["data"]]
    return v


def test_jet_escalation_reexpands_generators(capsys):
    # at order 4 the p-jets are rank-deficient; escalation must re-evaluate
    # the words from generators expanded at the doubled order, and the report
    # must name that order instead of the escalation ceiling
    code, report = run_cli(["certify", "heisenberg", "--order", "4", "--max-word-len", "2"], capsys)
    assert code == 0
    v = _freeness(report)
    assert v["verdict"] == "certified"
    jets = v["data"]["jets"]
    assert jets["verdict"] == "certified" and jets["rank"] == 7
    assert jets["truncation_order"] == 8
    assert jets["params"]["coordinatizer"] == "pjet-order-8"
    assert v["data"]["paths_agree"]


def test_deficient_jets_never_fail_the_exact_verdict(capsys, monkeypatch):
    # a pre-filter that cannot escalate stays rank-deficient; that is a
    # truncation limit, so the exact path's certificate stands (exit 0)
    from skewcert import harness

    fixed = harness.skew_pjet_coordinatizer
    monkeypatch.setattr(harness, "skew_pjet_coordinatizer",
                        lambda aut, order, generators_at=None: fixed(aut, order))
    code, report = run_cli(["certify", "heisenberg", "--order", "4", "--max-word-len", "2"], capsys)
    assert code == 0
    v = _freeness(report)
    assert v["verdict"] == "certified"
    jets = v["data"]["jets"]
    assert jets["verdict"] == "inconclusive" and jets["rank"] < 7
    assert jets["truncation_order"] == 4
    assert v["data"]["exact"]["verdict"] == "certified"
    assert not v["data"]["paths_agree"]
