#!/usr/bin/env python3
"""Self-test of the benchmark's traced run.

    python3 perfbench/selftest.py [WORKLOAD ...]

For each workload (all four by default) it makes two traced runs with the
same seed and checks that

  * both runs pass the correctness gate,
  * every count (unit "count") is identical across the two runs,
  * the workload reaches the layers it was chosen for and bypasses the
    others (EXPECT below).

It prints trace.named_share and trace.overhead_s of each run, and exits 1
if any check fails.  It takes about twice the traced run time of each
workload (a few minutes for all four).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# name -> (counts that must be > 0, counts that must be 0,
#          {span: (low, high)} bounds on span seconds / trace.root_s)
EXPECT = {
    "ore_exact": (
        ["skewpoly.sp_gcrd_llcm.calls", "scalar.poly_gcd.calls", "freecert.coordinatize.calls"],
        ["series.jet_mul.calls", "groupring.gr_mul.calls", "skewfrac.PJet.mul.calls"],
        {"freecert.rank_over_Q": (0.0, 0.05), "freecert.coordinatize": (0.5, 1.0)},
    ),
    "rank_dense": (
        ["freecert.rank_over_Q.calls", "groupring.gr_mul.calls", "groupring.coordinatize.calls"],
        ["scalar.poly_gcd.calls", "skewpoly.sp_gcrd_llcm.calls", "series.jet_mul.calls",
         "skewfrac.PJet.mul.calls"],
        {"freecert.rank_over_Q": (0.9, 1.0)},
    ),
    "tower_series": (
        ["series.jet_mul.calls", "series.jet_inv.calls", "scalar.Poly.mul.calls",
         "pbw.u_mul.calls", "symcert.substitute.calls"],
        ["skewfrac.PJet.mul.calls", "groupring.gr_mul.calls", "freecert.rank_over_Q.calls"],
        # the fact tables' invertibility checks make a few Ore calls
        {"series.jet_mul": (0.5, 1.0), "skewpoly.sp_gcrd_llcm": (0.0, 0.01)},
    ),
    "paper_l2": (
        ["skewfrac.PJet.mul.calls", "skewfrac.sf_to_pjet.calls", "skewpoly.sp_gcrd_llcm.calls",
         "freecert.evaluate_words.calls", "symcert.verify_facts.calls"],
        ["groupring.gr_mul.calls"],
        {"freecert.rank_over_Q": (0.0, 0.05)},
    ),
}


def traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--trace", "1"],
        capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(workload: str) -> list[str]:
    runs = [traced_run(workload) for _ in range(2)]
    problems = []
    for r in runs:
        if not r["correct"]:
            problems.append(f"{r['failed']} of {r['attempted']} commands failed")
    if problems:
        return problems
    a, b = (r["metrics"] for r in runs)
    for name, m in a.items():
        if m["unit"] == "count" and m["value"] != b[name]["value"]:
            problems.append(f"{name}: {m['value']} then {b[name]['value']}")
    hit, bypass, shares = EXPECT[workload]
    for name in hit:
        if a[name]["value"] <= 0:
            problems.append(f"{name} is 0; the workload should reach this layer")
    for name in bypass:
        if a[name]["value"] != 0:
            problems.append(f"{name} is {a[name]['value']}; the workload should bypass it")
    root = a["trace.root_s"]["value"]
    for span, (low, high) in shares.items():
        share = a[f"{span}.s"]["value"] / root
        if not low <= share <= high:
            problems.append(f"{span}.s is {share:.3f} of the traced time, "
                            f"expected {low} to {high}")
    for r in runs:
        m = r["metrics"]
        print(f"{workload}: named_share {m['trace.named_share']['value']:.4f}, "
              f"overhead {m['trace.overhead_s']['value']:.3f} s, "
              f"traced {m['trace.root_s']['value']:.3f} s")
    return problems


def main(argv: list[str]) -> int:
    failed = False
    for workload in argv or list(EXPECT):
        problems = check(workload)
        for p in problems:
            print(f"FAIL {workload}: {p}")
        print(f"{workload}: {'FAIL' if problems else 'ok'}")
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
