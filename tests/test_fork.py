"""One half of a pipeline in a forked worker: the same verdicts as in one
process, errors as in program order, and no child left behind."""

import os

import pytest

from skewcert import cli, harness
from skewcert.errors import KernelError, PrecisionExhausted
from skewcert.forkjoin import beside_each_other, forked
from test_cli import scrub

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork") or len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
    reason="forked() runs inline without fork or on one CPU")


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


NILPOTENT_AND_SCALING = pytest.mark.parametrize("run", [
    lambda order: harness.run_certify_nilpotent(order),
    lambda order: harness.run_verify_scaling(class3_order=order),
], ids=["nilpotent", "scaling"])


@NILPOTENT_AND_SCALING
def test_forked_half_gives_the_same_verdicts(run, request):
    default = scrub(run(10))
    request.getfixturevalue("one_process")
    assert scrub(run(10)) == default


@needs_fork
def test_forked_runs_in_a_child():
    assert forked(os.getpid)() != os.getpid()


def test_one_cpu_runs_inline(one_process):
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


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["inline", "forked"])
def test_first_error_wins_when_both_halves_fail(cpus, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    with pytest.raises(ValueError, match="first"):
        beside_each_other(_raise(ValueError("first")), _raise(KernelError("second")))


@needs_fork
def test_parent_error_is_raised_after_the_child_is_joined():
    with pytest.raises(KernelError, match="second"):
        beside_each_other(lambda: 1, _raise(KernelError("second")))


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


@pytest.mark.parametrize("argv, forks", [
    (["certify", "heisenberg", "--max-word-len", "1"], 0),
    (["certify", "twodim", "--max-word-len", "1"], 0),
    pytest.param(["certify", "nilpotent", "--order", "4"], 1, marks=needs_fork),
    pytest.param(["verify", "scaling", "--order", "4"], 1, marks=needs_fork),
], ids=["heisenberg", "twodim", "nilpotent", "scaling"])
def test_only_nilpotent_and_scaling_fork(argv, forks, monkeypatch, capsys):
    # heisenberg's and twodim's groups take tens of ms each: a worker made them slower
    calls = count_forks(monkeypatch)
    assert cli.run(argv) == 0
    assert capsys.readouterr().err == ""
    assert len(calls) == forks


def count_forks(monkeypatch) -> list:
    calls = []
    real_fork = os.fork

    def counting_fork():
        calls.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


@NILPOTENT_AND_SCALING
@pytest.mark.parametrize("layout, forks", [
    pytest.param("default", 1, marks=needs_fork),
    ("one_process", 0),
])
def test_pipeline_forks_once_unless_one_process(run, layout, forks, monkeypatch, request):
    # the layout is the platform's: a direct call forks as the CLI does
    if layout == "one_process":
        request.getfixturevalue("one_process")
    calls = count_forks(monkeypatch)
    run(4)
    assert len(calls) == forks
