"""Exact rationals, polynomials and the field Q(t)."""

from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from skewcert.errors import PoleAtPoint, ZeroDenominator
from skewcert.scalar import Poly, RatFun, poly_gcd, rat

T = RatFun.t()


def P(*coeffs):
    return Poly(tuple(F(c) for c in coeffs))


fracs = st.fractions(min_value=-6, max_value=6, max_denominator=4)
polys = st.lists(fracs, min_size=0, max_size=4).map(Poly)
nonzero_polys = polys.filter(bool)


@st.composite
def ratfuns(draw):
    return RatFun(draw(polys), draw(nonzero_polys))


def test_reduce_cancels_common_factor():
    assert RatFun(P(-1, 0, 1), P(-1, 1)) == RatFun(P(1, 1), P(1))


def test_reduce_scalar_normalization():
    assert RatFun(P(0, 2), P(4)) == RatFun(P(0, F(1, 2)), P(1))


def test_reduce_zero_case():
    assert RatFun(P(0), P(5, 0, 0, 1)) == RatFun(P(0), P(1))
    assert not RatFun(P(0), P(5, 0, 0, 1))


def test_reduce_zero_denominator():
    with pytest.raises(ZeroDenominator):
        RatFun(P(1), P(0))


def test_arith_s_plus_s_inverse():
    # oracle first: five seeded evaluation points pin the expected value,
    # which matches the closed form (2t^2 - 2t + 13/18)/(t^2 - t + 5/36)
    s = (T - RatFun.const(F(5, 6))) / (T - RatFun.const(F(1, 6)))
    got = s + s.inv()
    expected = RatFun(P(F(13, 18), -2, 2), P(F(5, 36), -1, 1))
    assert got == expected
    for pt in (F(2), F(7, 3), F(-1), F(9, 2), F(22, 7)):
        assert got.eval(pt) == s.eval(pt) + s.inv().eval(pt)
        assert got.eval(pt) == expected.eval(pt)


def test_arith_inverse_and_identity():
    a = RatFun(P(1, 2, 1), P(0, 3))
    assert a * a.inv() == RatFun.const(1)
    assert RatFun.const(0) + a == a


def test_eval_examples():
    assert RatFun(P(1, 1), P(1)).eval(F(2)) == 3
    with pytest.raises(PoleAtPoint):
        RatFun(P(1), P(-1, 1)).eval(F(1))
    assert RatFun(P(-1, 0, 1), P(-1, 1)).eval(F(7)) == 8


def test_shift_examples():
    assert T.shift(F(1)) == T - RatFun.const(1)
    assert T.shift(F(2)) == T - RatFun.const(2)
    one_over_t = RatFun(P(1), P(0, 1))
    assert one_over_t.shift(F(1)) == RatFun(P(1), P(-1, 1))


@given(ratfuns(), ratfuns(), ratfuns())
def test_field_axioms_structurally(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if a:
        assert a * a.inv() == RatFun.const(1)


@given(ratfuns(), fracs)
def test_shift_roundtrip(f, c):
    assert f.shift(c).shift(-c) == f


@given(ratfuns(), ratfuns(), st.sampled_from([F(3), F(10, 3), F(-5), F(17, 2)]))
def test_arith_agrees_with_evaluation(a, b, pt):
    try:
        va, vb = a.eval(pt), b.eval(pt)
        assert (a + b).eval(pt) == va + vb
        assert (a * b).eval(pt) == va * vb
        assert (a - b).eval(pt) == va - vb
    except PoleAtPoint:
        pass


@given(polys, nonzero_polys)
def test_reduce_idempotent(num, den):
    f = RatFun(num, den)
    again = RatFun(f.num, f.den)
    assert again == f
    assert f.den.lc() == 1
    if f.num:
        assert poly_gcd(f.num, f.den).degree == 0


@given(nonzero_polys, nonzero_polys)
def test_poly_gcd_divides_both(a, b):
    g = poly_gcd(a, b)
    assert not a.divmod(g)[1]
    assert not b.divmod(g)[1]
    assert g.lc() == 1


def test_taylor_shift_matches_compose(rnd):
    from tests.conftest import rand_poly, rand_frac

    for _ in range(100):
        p = rand_poly(rnd, 5)
        c = rand_frac(rnd)
        assert p.taylor_shift(c) == p.compose(Poly((c, F(1))))


def test_rat_parsing():
    assert rat("5/6") == F(5, 6)
    assert rat(3) == F(3)
    with pytest.raises(TypeError):
        rat(0.5)
