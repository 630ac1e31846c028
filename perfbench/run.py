#!/usr/bin/env python3
"""Time-to-verdict benchmark for the skewcert CLI.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each command of a workload runs in a fresh interpreter (child.py), one at a
time.  With --trace 0 the workload's commands are run in sequence, pass
after pass, for about --seconds seconds, and the last line of stdout is a
JSON object with the end-to-end metrics (medians over passes).  Times are
scaled to a reference speed by a probe timed every 50 ms inside each command
(child.py, SpeedMeter); the raw wall times are on the line before.  With
--trace 1 one untraced pass is followed by one traced pass, and the
metrics are the per-layer ones.  Every report is checked (see `check`);
a command that fails counts in "failed" and is never timed as a success.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = ROOT / "tests" / "golden"
WORK = ROOT / ".bench_build" / "perfbench"
GOLDEN_SEED = 1729  # the seed the goldens were written with
RUN_LIMIT_S = 170.0  # a run, set-up included, must end before 180 s
SETUP_PROBES = 5


@dataclass(frozen=True)
class Command:
    argv: tuple
    golden: str | None = None  # tests/golden file the report must equal
    freeness: bool = False  # report carries rank/word_count pairs
    two_paths: bool = False  # report carries paths_agree


WORKLOADS = {
    "ore_exact": [
        Command(("certify", "cauchon", "--alpha", "5/6", "--beta", "1/6", "--shift", "2"),
                golden="cauchon.json", freeness=True),
    ],
    "rank_dense": [
        Command(("certify", "groupring", "--max-word-len", "7"), freeness=True),
    ],
    "tower_series": [
        Command(("certify", "nilpotent")),
        Command(("verify", "scaling")),
    ],
    "paper_l2": [
        Command(("certify", "heisenberg", "--max-word-len", "2"),
                golden="heisenberg.json", freeness=True, two_paths=True),
        Command(("certify", "twodim", "--max-word-len", "2"),
                golden="twodim.json", freeness=True, two_paths=True),
    ],
}


class Broken(Exception):
    """The program cannot be run at all: no result is printed."""


# -- one command in one fresh interpreter ---------------------------------------


def spawn(args: list[str], deadline: float) -> tuple[dict | None, float, float, float, str]:
    """Run child.py with args; return (its result, spawn clock, CPU seconds,
    peak RSS in MiB, stderr text).  The child is killed at the deadline."""
    out = WORK / "result.json"
    err = WORK / "stderr.txt"
    out.unlink(missing_ok=True)
    with open(err, "w") as err_fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(out), *args],
                                cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err_fh)
        timer = threading.Timer(max(deadline - time.perf_counter(), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    result = json.loads(out.read_text()) if proc.returncode == 0 and out.exists() else None
    cpu = usage.ru_utime + usage.ru_stime
    rss_mb = usage.ru_maxrss / 1024
    return result, t0, cpu, rss_mb, err.read_text()


def setup_seconds(result: dict, t0: float) -> float:
    """Start through import, scaled by the speed measured right after it."""
    return (result["imported"] - t0) * result["setup_speed"]


def setup_probe(deadline: float) -> float:
    result, t0, _, _, err = spawn(["--probe"], deadline)
    if result is None:
        raise Broken(f"cannot start a skewcert interpreter:\n{err}")
    return setup_seconds(result, t0)


# -- correctness gate -----------------------------------------------------------


def _walk(node):
    yield node
    children = node.values() if isinstance(node, dict) else node if isinstance(node, list) else ()
    for child in children:
        yield from _walk(child)


def _golden_form(node, seed: int, problems: list):
    """The report as regen_goldens.py writes it: elapsed_ms zeroed.  The seed
    echo must be the run's seed and is set to the goldens' seed."""
    if isinstance(node, dict):
        out = {}
        for k, v in node.items():
            if k == "elapsed_ms":
                v = 0
            elif k == "seed":
                if v != seed:
                    problems.append(f"report echoes seed {v}, ran with {seed}")
                v = GOLDEN_SEED
            else:
                v = _golden_form(v, seed, problems)
            out[k] = v
        return out
    if isinstance(node, list):
        return [_golden_form(v, seed, problems) for v in node]
    return node


def _sorted_witnesses(text: str) -> str:
    report = json.loads(text)
    for node in _walk(report):
        if isinstance(node, dict) and isinstance(node.get("witnesses"), list):
            node["witnesses"] = sorted(node["witnesses"])
    return json.dumps(report, sort_keys=True)


def check(cmd: Command, result: dict | None, seed: int, notes: list) -> list[str]:
    """Problems with one command's run; empty when it is correct.  A golden
    mismatch only in the order of a `witnesses` list is the known defect
    described in README.md: it is noted, not failed."""
    if result is None:
        return ["no result (crash, kill or timeout)"]
    if result["exit"] != 0:
        return [f"exit code {result['exit']}"]
    try:
        report = json.loads(result["report"])
    except ValueError:
        return ["report is not JSON"]
    problems = []
    if report.get("command") != " ".join(cmd.argv[:2]):
        problems.append(f"report is for {report.get('command')!r}")
    for v in report.get("verdicts", []):
        if v.get("verdict") not in ("certified", "equal"):
            problems.append(f"verdict {v.get('verdict')!r} for {v.get('claim')!r}")
    if not report.get("verdicts"):
        problems.append("no verdicts")
    nodes = [n for n in _walk(report) if isinstance(n, dict)]
    ranks = [n for n in nodes if "rank" in n and "word_count" in n]
    for n in ranks:
        if n["rank"] != n["word_count"]:
            problems.append(f"rank {n['rank']} of {n['word_count']} words")
    if cmd.freeness and not ranks:
        problems.append("no freeness rank in the report")
    agree = [n["paths_agree"] for n in nodes if "paths_agree" in n]
    if any(a is not True for a in agree) or (cmd.two_paths and not agree):
        problems.append("paths_agree is not true")
    if cmd.golden:
        form = _golden_form(report, seed, problems)
        text = json.dumps(form, indent=2, sort_keys=True) + "\n"
        want = (GOLDEN / cmd.golden).read_text()
        if text != want:
            if _sorted_witnesses(text) == _sorted_witnesses(want):
                notes.append(f"{cmd.golden}: witnesses in another order than the golden")
            else:
                problems.append(f"report differs from tests/golden/{cmd.golden}")
    return problems


# -- passes -----------------------------------------------------------------------


@dataclass
class Pass:
    verdict_s: float = 0.0  # scaled to the reference speed
    cpu_s: float = 0.0  # scaled by the same factor as verdict_s
    raw_s: float = 0.0  # wall seconds as measured
    peak_rss_mb: float = 0.0
    failed: int = 0
    traces: list | None = None


def run_pass(commands, seed: int, deadline: float, setups: list, notes: list,
             trace: bool = False) -> Pass:
    p = Pass(traces=[] if trace else None)
    for i, cmd in enumerate(commands):
        args = ["--", *cmd.argv, "--seed", str(seed)]
        if trace:
            args = ["--trace", str(WORK / f"spans-{i}.bin"), *args]
        result, t0, cpu, rss_mb, err = spawn(args, deadline)
        problems = check(cmd, result, seed, notes)
        if problems:
            p.failed += 1
            tail = "\n".join(err.splitlines()[-5:])
            print(f"FAILED {' '.join(cmd.argv)}: {'; '.join(problems)}\n{tail}",
                  file=sys.stderr)
            continue
        setups.append(setup_seconds(result, t0))
        scale = result["scaled_s"] / result["verdict_s"] if result["verdict_s"] else 1.0
        p.verdict_s += result["scaled_s"]
        p.raw_s += result["verdict_s"]
        p.cpu_s += cpu * scale
        p.peak_rss_mb = max(p.peak_rss_mb, rss_mb)
        if trace:
            p.traces.append(result["trace"])
    return p


def layer_metrics(traced: Pass, untraced: Pass) -> dict:
    from spans import COORDINATIZE, ROOT as ROOT_SPAN, SPAN_NAMES

    def total(name, key):
        return sum(t["layers"][name][key] for t in traced.traces)

    m = {}
    for name in SPAN_NAMES:
        if name != ROOT_SPAN:
            m[f"{name}.calls"] = (total(name, "calls"), "count")
            m[f"{name}.s"] = (total(name, "s"), "s")
    llcm = [d for t in traced.traces for d in t["llcm_degrees"]]
    ranks = [r for t in traced.traces for r in t["rank_inputs"]]
    m["skewpoly.llcm_degree"] = (max(llcm, default=0), "count")
    m[f"{COORDINATIZE}.builds"] = (sum(t["builds"] for t in traced.traces), "count")
    m["freecert.words"] = (sum(t["words"] for t in traced.traces), "count")
    for k, key in enumerate(("rows", "cols", "max_bits")):
        m[f"freecert.rank.{key}"] = (max((r[k] for r in ranks), default=0), "count")
    root_s = total(ROOT_SPAN, "s")
    self_s = total(ROOT_SPAN, "self_s")
    m["harness.self_s"] = (self_s, "s")
    m["trace.root_s"] = (root_s, "s")
    m["trace.named_share"] = ((root_s - self_s) / root_s if root_s else 0.0, "ratio")
    m["trace.overhead_s"] = (traced.verdict_s - untraced.verdict_s, "s")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=GOLDEN_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    commands = WORKLOADS[args.workload]

    missing = [p for p in [ROOT / "src" / "skewcert" / "cli.py"]
               + [GOLDEN / c.golden for c in commands if c.golden] if not p.is_file()]
    if missing:
        raise Broken(f"missing {', '.join(str(p.relative_to(ROOT)) for p in missing)}")
    WORK.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(HERE))

    setups = [setup_probe(deadline) for _ in range(SETUP_PROBES)]
    notes: list[str] = []
    passes: list[Pass] = []
    if args.trace:
        passes.append(run_pass(commands, args.seed, deadline, setups, notes))
        passes.append(run_pass(commands, args.seed, deadline, setups, notes, trace=True))
    else:
        t_begin = time.perf_counter()
        while True:
            t_pass = time.perf_counter()
            passes.append(run_pass(commands, args.seed, deadline, setups, notes))
            now = time.perf_counter()
            # start another pass only if it should end within --seconds
            if now - t_begin + (now - t_pass) > args.seconds:
                break

    attempted = len(commands) * len(passes)
    failed = sum(p.failed for p in passes)
    good = [p for p in passes if not p.failed]
    if args.trace:
        metrics = layer_metrics(passes[1], passes[0]) if not failed else {}
    else:
        def median(key):
            return statistics.median(getattr(p, key) for p in good) if good else None

        metrics = {
            "verdict_s": (median("verdict_s"), "s"),
            "cpu_s": (median("cpu_s"), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (median("peak_rss_mb"), "MiB"),
        }
    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{len(good)} without failure, {len(setups)} set-up samples, "
          f"{len(notes)} golden witness-order notes; per pass verdict_s "
          f"{[round(p.verdict_s, 3) for p in passes]}, raw wall s "
          f"{[round(p.raw_s, 3) for p in passes]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        sys.exit(main())
    except Broken as ex:
        print(f"error: {ex}", file=sys.stderr)
        sys.exit(2)
