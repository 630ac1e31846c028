import os
import random
from fractions import Fraction

import pytest
from hypothesis import settings

settings.register_profile("ci", deadline=None, derandomize=True, max_examples=40)
settings.load_profile("ci")

from skewcert import pbw
from skewcert.scalar import Poly, RatFun
from skewcert.skewpoly import ShiftAut, SkewPoly


@pytest.fixture(scope="session")
def H():
    return pbw.heisenberg()


@pytest.fixture(scope="session")
def M2():
    return pbw.two_dimensional()


@pytest.fixture(scope="session")
def L3():
    return pbw.free_nilpotent_class3()


@pytest.fixture
def one_process(monkeypatch):
    """One CPU allowed: `forkjoin.forked` runs its function in this process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


@pytest.fixture
def rnd():
    return random.Random(20140606)


def rand_frac(rnd, span=6):
    return Fraction(rnd.randint(-span, span), rnd.randint(1, 4))


def rand_poly(rnd, deg=2):
    return Poly([rand_frac(rnd) for _ in range(rnd.randint(0, deg + 1))])


def rand_ratfun(rnd, deg=2):
    num = rand_poly(rnd, deg)
    while True:
        den = rand_poly(rnd, deg)
        if den:
            return RatFun(num, den)


def rand_skewpoly(rnd, aut, deg=2):
    return SkewPoly(aut, [rand_ratfun(rnd, 1) for _ in range(rnd.randint(0, deg + 1))])
