#!/usr/bin/env python3
"""Regenerate the golden reports used for diff-based regression testing.

Reports are byte-stable given (command, flags, seed) except for elapsed_ms,
which is zeroed here; the CLI test scrubs the same field before diffing.

    python3 scripts/regen_goldens.py           # rewrite every golden
    python3 scripts/regen_goldens.py --check   # re-render without writing;
                                               # print the names whose report
                                               # or exit code differs and
                                               # exit 1 if any does

tests/test_cli.py diffs every golden against the COMMANDS below, with the
same scrub and render.
"""

import contextlib
import io
import json
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from skewcert import cli  # noqa: E402

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "tests" / "golden"

# golden file -> (command line, exit code)
COMMANDS = {
    "valuation.json": (["verify", "valuation"], 0),
    "groupring.json": (["certify", "groupring", "--max-word-len", "3"], 0),
    "cauchon_refused.json":
        (["certify", "cauchon", "--alpha", "5/6", "--beta", "5/6", "--shift", "2"], 2),
    "scaling.json": (["verify", "scaling", "--lambda", "2", "--order", "10"], 0),
    "heisenberg.json": (["certify", "heisenberg", "--max-word-len", "2"], 0),
    "nilpotent.json": (["certify", "nilpotent", "--order", "10"], 0),
    "cauchon.json": (["certify", "cauchon", "--alpha", "5/6", "--beta", "1/6", "--shift", "2"], 0),
    # the defaults, which the benchmark runs
    "nilpotent_default.json": (["certify", "nilpotent"], 0),
    "scaling_default.json": (["verify", "scaling"], 0),
    # the other paper preset at L=2
    "twodim.json": (["certify", "twodim", "--max-word-len", "2"], 0),
    # low orders, where the precision of a tower inverse is tightest
    "nilpotent_order3.json": (["certify", "nilpotent", "--order", "3"], 0),
    "scaling_order3.json": (["verify", "scaling", "--order", "3"], 0),
    # the lowest order the class-3 cross-checks accept
    "nilpotent_order2.json": (["certify", "nilpotent", "--order", "2"], 0),
    # the paper presets at their defaults (L=3)
    "heisenberg_default.json": (["certify", "heisenberg"], 0),
    "twodim_default.json": (["certify", "twodim"], 0),
}


def scrub(node):
    """Zero every elapsed_ms, recursively (nested CertReport dicts too)."""
    if isinstance(node, dict):
        return {k: 0 if k == "elapsed_ms" else scrub(v) for k, v in node.items()}
    if isinstance(node, list):
        return [scrub(v) for v in node]
    return node


def render(argv, scratch: pathlib.Path):
    """Run one command and return (exit code, the golden's text)."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(argv + ["--output", str(scratch)])
    report = scrub(json.loads(scratch.read_text()))
    return code, json.dumps(report, indent=2, sort_keys=True, default=cli._json_default) + "\n"


def main(argv=None):
    check = "--check" in (sys.argv[1:] if argv is None else argv)
    GOLDEN.mkdir(parents=True, exist_ok=True)
    differ = []
    with tempfile.TemporaryDirectory() as tmp:
        scratch = pathlib.Path(tmp) / "report.json"
        for name, (cmd, want) in COMMANDS.items():
            code, text = render(cmd, scratch)
            out = GOLDEN / name
            if check:
                same = out.exists() and out.read_text() == text
                if not same or code != want:
                    differ.append(name)
                    print(f"{name}: {'report matches' if same else 'differs'}, exit {code} "
                          f"(want {want})")
            else:
                out.write_text(text)
                print(f"{name}: exit {code}" + f" (want {want})" * (code != want))
    if check:
        print(f"{len(COMMANDS) - len(differ)} of {len(COMMANDS)} goldens match")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
