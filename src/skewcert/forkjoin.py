"""One function run in a forked child next to the work of this process.

`harness` imports this module at load and hands one group of verdicts to
`forked`, the package's one `os.fork` path.  A command that never forks
skips `pickle` and `traceback`, which `forked` imports inside itself.
"""

from __future__ import annotations

import os

from .errors import KernelError


def forked(fn):
    """Start fn in a child made with os.fork and return a join() that gives
    its value or raises its error.  A KernelError or ValueError comes back
    with its class and message (without payload such as a witness); any
    other error becomes a RuntimeError that carries the child's traceback,
    and a child that ends without a result is a KernelError.  join() reaps
    the child.  Without fork, or on one CPU, fn runs here at once."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if not hasattr(os, "fork") or cpus < 2:
        value = fn()
        return lambda: value
    import pickle  # only forking runs pay for this module

    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns into its caller's frames
        code = 1
        try:
            os.close(r)
            try:
                payload = pickle.dumps((True, fn()))
            except (KernelError, ValueError) as ex:
                payload = pickle.dumps((False, (type(ex), str(ex))))
            except BaseException:
                import traceback  # with its linecache and tokenize, only when the child fails

                payload = pickle.dumps((False, (RuntimeError, "the forked worker failed:\n"
                                                             + traceback.format_exc())))
            with os.fdopen(w, "wb") as fh:
                fh.write(payload)
            code = 0
        finally:  # also on BrokenPipeError, when the parent has gone
            os._exit(code)
    os.close(w)

    def join():
        with os.fdopen(r, "rb") as fh:
            try:
                payload = fh.read()
            finally:
                _, status = os.waitpid(pid, 0)
        if not payload:
            raise KernelError("the forked worker ended without a result "
                              f"(exit status {os.waitstatus_to_exitcode(status)})")
        ok, value = pickle.loads(payload)
        if ok:
            return value
        cls, message = value
        raise cls(message)

    return join


def beside_each_other(first, second) -> tuple:
    """(first(), second()) with first run by `forked` while this process
    runs second.  When both fail, first's error wins, as in program order;
    the worker is joined on every path."""
    join = forked(first)
    try:
        value = second()
    except BaseException as ex:
        try:
            join()
        except Exception:
            if isinstance(ex, Exception):
                raise
        raise
    return join(), value
