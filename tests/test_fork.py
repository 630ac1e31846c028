"""One half of a pipeline in a forked worker: the same verdicts as in one
process, errors as in program order, and no child left behind."""

import dataclasses
import os

import pytest

from skewcert import cli, harness
from skewcert.errors import KernelError, PrecisionExhausted
from skewcert.forkjoin import beside_each_other, forked, inline
from skewcert.harness import HEISENBERG, TWODIM
from test_cli import scrub

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork") or len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
    reason="forked() runs inline without fork or on one CPU")


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _skew(preset):
    return lambda beside: harness.run_certify_skew(dataclasses.replace(preset, beside=beside), 2)


@pytest.mark.parametrize("run", [
    lambda beside: harness.run_certify_nilpotent(10, beside=beside),
    lambda beside: harness.run_verify_scaling(class3_order=10, beside=beside),
    _skew(HEISENBERG),
    _skew(TWODIM),
], ids=["nilpotent", "scaling", "heisenberg", "twodim"])
def test_forked_half_gives_the_same_verdicts(run):
    assert scrub(run(forked)) == scrub(run(inline))


@needs_fork
def test_forked_runs_in_a_child():
    assert forked(os.getpid)() != os.getpid()


def test_one_cpu_runs_inline(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert forked(os.getpid)() == os.getpid()


def _raise(ex):
    def fn():
        raise ex

    return fn


@needs_fork
def test_kernel_error_keeps_its_class_and_message():
    join = forked(_raise(PrecisionExhausted("x")))
    with pytest.raises(PrecisionExhausted) as info:
        join()
    assert type(info.value) is PrecisionExhausted and str(info.value) == "x"


@needs_fork
def test_other_error_carries_the_child_traceback():
    join = forked(_raise(ZeroDivisionError("boom")))
    with pytest.raises(RuntimeError, match="ZeroDivisionError: boom"):
        join()


@pytest.mark.parametrize("beside", [inline, forked])
def test_first_error_wins_when_both_halves_fail(beside):
    with pytest.raises(ValueError, match="first"):
        beside_each_other(beside, _raise(ValueError("first")), _raise(KernelError("second")))


@needs_fork
def test_parent_error_is_raised_after_the_child_is_joined():
    with pytest.raises(KernelError, match="second"):
        beside_each_other(forked, lambda: 1, _raise(KernelError("second")))


@needs_fork
def test_child_without_a_result_is_a_kernel_error():
    join = forked(lambda: os._exit(3))
    with pytest.raises(KernelError, match="without a result"):
        join()


@needs_fork
def test_failing_cli_run_leaves_no_child(monkeypatch, capsys):
    # the morphism checks run in the child, which inherits this stub
    def broken(src, dst):
        raise KernelError("no Phi_u")

    monkeypatch.setattr(harness, "hom_phi_u", broken)
    assert cli.run(["certify", "nilpotent", "--order", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: no Phi_u\n" and captured.out == ""
