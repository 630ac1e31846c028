#!/usr/bin/env python3
"""Run every certification command at its default parameters and collect the
reports under reports/.  Prints a one-line summary per command; exits nonzero
if any command found a counterexample or was inconclusive."""

import contextlib
import io
import itertools
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from skewcert import cli, harness  # noqa: E402

OUT = pathlib.Path(__file__).resolve().parents[1] / "reports"

COMMANDS = [
    ["certify", "groupring"],
    ["certify", "heisenberg"],
    ["certify", "twodim"],
    ["certify", "cauchon", "--alpha", "5/6", "--beta", "1/6", "--shift", "2"],
    ["certify", "nilpotent"],
    ["verify", "scaling"],
    ["verify", "valuation"],
    ["selftest"],
]


def main():
    OUT.mkdir(exist_ok=True)
    worst = 0
    for argv in COMMANDS:
        # the command words alone: a value such as 5/6 would name a directory
        path = OUT / ("_".join(itertools.takewhile(lambda a: not a.startswith("-"), argv)) + ".json")
        t0 = time.monotonic()
        # cli.run writes the report to stdout as well; keep it off the summary
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(argv + ["--output", str(path)])
        dt = time.monotonic() - t0
        report = json.loads(path.read_text())
        n = len(report["verdicts"])
        bad = sum(1 for v in report["verdicts"] if harness.worst_exit([v]) != 0)
        print(f"{' '.join(argv):60s} exit={code} verdicts={n} failing={bad} {dt:6.1f}s")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
