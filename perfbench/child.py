"""Run one skewcert CLI command in this fresh interpreter and record it.

    python3 child.py RESULT.json [--trace SPANS.bin] -- ARGV...
    python3 child.py RESULT.json --probe

RESULT.json receives the clock reading (time.perf_counter, which is
system-wide on Linux) taken right after `import skewcert.cli`, the speed
factor measured right after that import, the wall seconds from calling
cli.run until the report is written, the same seconds scaled to the
reference speed (see SpeedMeter), the number of probes taken, the exit
code and the report text.
--probe stops after the import and its speed factor.  --trace installs the
spans of spans.py before cli.run and adds their summary to RESULT.json; the
probes then run inside whichever span is open.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from skewcert import cli  # noqa: E402

IMPORTED = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import traceback  # noqa: E402

PROBE_EVERY_S = 0.05  # wall seconds between two probes during cli.run
PROBE_REF_S = 1.5e-4  # probe seconds at the reference speed
SETUP_PROBES = 8  # probes taken back to back right after the import


def probe() -> float:
    """Seconds this interpreter takes for a fixed piece of pure-Python work
    (0.13 to 0.25 ms on the baseline machine).  It uses no skewcert code,
    so a change to the program does not change it; it only follows the
    speed of the CPU the process is on at that moment."""
    t0 = time.perf_counter()
    d = {}
    s = 0
    for i in range(1000):
        d[i & 63] = d.get(i & 63, 0) + i
        s += i * i % 7
    return time.perf_counter() - t0


def speed_factor(n: int) -> float:
    """Mean of PROBE_REF_S / probe time over n probes."""
    return sum(PROBE_REF_S / probe() for _ in range(n)) / n


class SpeedMeter:
    """Wall time of a call, and the same time scaled to the reference speed.

    A vCPU of a shared host runs pure-Python code at one of two speeds,
    about 1.6x apart, and switches between them within seconds.  So every
    PROBE_EVERY_S of wall time a SIGALRM handler times `probe()`, and the
    workload seconds since the previous probe are scaled by
    PROBE_REF_S / probe time.  The probes' own time is counted in neither
    total."""

    def __init__(self):
        self.raw = 0.0
        self.scaled = 0.0
        self.probes = 0
        self.mark = 0.0

    def _segment(self, *_):
        seg = time.perf_counter() - self.mark
        p = probe()
        self.raw += seg
        self.scaled += seg * PROBE_REF_S / p
        self.probes += 1
        self.mark = time.perf_counter()

    def call(self, fn, *args):
        old = signal.signal(signal.SIGALRM, self._segment)
        self.mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            return fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, old)
            self._segment()  # the last stretch, scaled by a probe after it


def main(args: list[str]) -> int:
    out_path, rest = args[0], args[1:]
    result = {"imported": IMPORTED, "setup_speed": speed_factor(SETUP_PROBES)}
    if rest == ["--probe"]:
        _write(out_path, result)
        return 0
    spans_path = None
    if rest[0] == "--trace":
        spans_path, rest = rest[1], rest[2:]
    argv = rest[1:]  # after "--"

    run = cli.run
    tracer = None
    if spans_path:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        run = lambda argv: tracer.run_root(cli.run, argv)  # noqa: E731

    buf = io.StringIO()
    meter = SpeedMeter()
    try:
        with contextlib.redirect_stdout(buf):
            code = meter.call(run, argv)
    except Exception:  # a crash is a failed command, reported to the parent
        traceback.print_exc()
        code = None
    result["verdict_s"] = meter.raw
    result["scaled_s"] = meter.scaled
    result["probes"] = meter.probes
    result["exit"] = code
    result["report"] = buf.getvalue()
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.dump(spans_path)
    _write(out_path, result)
    return 0


def _write(path: str, result: dict) -> None:
    with open(path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
