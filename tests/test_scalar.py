"""Exact rationals, polynomials and the field Q(t)."""

from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from skewcert import scalar
from skewcert.errors import PoleAtPoint, ZeroDenominator
from skewcert.scalar import Poly, RatFun, poly_gcd, rat

from oracles import poly_compose, poly_divmod, ratfun_eval

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
        assert ratfun_eval(got, pt) == ratfun_eval(s, pt) + ratfun_eval(s.inv(), pt)
        assert ratfun_eval(got, pt) == ratfun_eval(expected, pt)


def test_arith_inverse_and_identity():
    a = RatFun(P(1, 2, 1), P(0, 3))
    assert a * a.inv() == RatFun.const(1)
    assert RatFun.const(0) + a == a


def test_eval_examples():
    assert ratfun_eval(RatFun(P(1, 1), P(1)), F(2)) == 3
    with pytest.raises(PoleAtPoint):
        ratfun_eval(RatFun(P(1), P(-1, 1)), F(1))
    assert ratfun_eval(RatFun(P(-1, 0, 1), P(-1, 1)), F(7)) == 8


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


big_shifts = st.builds(
    F,
    st.integers(2, 2**40).flatmap(lambda u: st.sampled_from([u, -u])),
    st.integers(2, 2**60),
).filter(lambda c: abs(c.numerator) > 1 and c.denominator > 1)


@given(ratfuns(), st.one_of(fracs, big_shifts))
def test_shift_roundtrip(f, c):
    assert f.shift(c).shift(-c) == f
    if f:
        # the shift is t -> t - c: compare with composition
        inner = Poly((-c, F(1)))
        assert f.shift(c) == RatFun(poly_compose(f.num, inner), poly_compose(f.den, inner))


@given(ratfuns(), ratfuns(), st.sampled_from([F(3), F(10, 3), F(-5), F(17, 2)]))
def test_arith_agrees_with_evaluation(a, b, pt):
    try:
        va, vb = ratfun_eval(a, pt), ratfun_eval(b, pt)
        assert ratfun_eval(a + b, pt) == va + vb
        assert ratfun_eval(a * b, pt) == va * vb
        assert ratfun_eval(a - b, pt) == va - vb
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
    assert not poly_divmod(a, g)[1]
    assert not poly_divmod(b, g)[1]
    assert g.lc() == 1


def test_taylor_shift_matches_compose(rnd):
    from tests.conftest import rand_poly, rand_frac

    def shifted(p, c):  # t -> t + c, through the integer Taylor shift
        return RatFun.from_poly(p).shift(-c)

    for _ in range(100):
        p = rand_poly(rnd, 5)
        c = rand_frac(rnd)
        assert shifted(p, c) == RatFun.from_poly(poly_compose(p, Poly((c, F(1)))))
    # the rescaled shift: c = u/v with |u|, v > 1, large denominators in both
    # the shift and the coefficients
    for _ in range(60):
        p = Poly([F(rnd.randint(-2**90, 2**90), rnd.randint(1, 2**70))
                  for _ in range(rnd.randint(1, 10))])
        c = F(rnd.choice((-1, 1)) * rnd.randint(2, 2**40), rnd.randint(2, 2**60))
        if abs(c.numerator) < 2 or c.denominator < 2:
            continue
        assert shifted(p, c).num == poly_compose(p, Poly((c, F(1))))


def test_rat_parsing():
    assert rat("5/6") == F(5, 6)
    assert rat(3) == F(3)
    with pytest.raises(TypeError):
        rat(0.5)


# -- oracles for gcd and the canonical form (sympy, test-only) -----------------

big = st.integers(min_value=-2**100, max_value=2**100)


def _int_poly(max_deg, min_deg=0):
    return st.lists(big, min_size=min_deg + 1, max_size=max_deg + 1).filter(lambda c: c[-1] != 0)


@st.composite
def planted_pairs(draw, min_deg=0):
    """Two polynomials over Q of degree <= 12 with ~100-bit coefficients,
    often sharing a planted factor of degree <= 4, scaled by large
    denominators."""
    common = Poly([F(c) for c in draw(_int_poly(4))])
    a = Poly([F(c) for c in draw(_int_poly(8, min_deg))])
    b = Poly([F(c) for c in draw(_int_poly(8, min_deg))])
    if draw(st.booleans()):
        a, b = a * common, b * common
    da, db = draw(st.integers(1, 2**64)), draw(st.integers(1, 2**64))
    return a.scale(F(1, da)), b.scale(F(1, db))


def _sympy_gcd(a: Poly, b: Poly) -> Poly:
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def to_sympy(p):
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)],
                          x, domain="QQ")

    g = sympy.gcd(to_sympy(a), to_sympy(b)).monic()
    return Poly([F(int(c.p), int(c.q)) for c in reversed(g.all_coeffs())])


def _int_parts(a: Poly, b: Poly):
    return scalar._primitive_from_fracs(a.coeffs)[2], scalar._primitive_from_fracs(b.coeffs)[2]


def _as_poly(ints) -> Poly:
    return Poly([F(c) for c in ints])


@given(planted_pairs())
def test_poly_gcd_matches_sympy(ab):
    a, b = ab
    want = _sympy_gcd(a, b)
    assert poly_gcd(a, b) == want
    h, ca, cb = scalar._zz_gcd(*_int_parts(a, b))
    assert _as_poly(h).monic() == want
    # greatest, not only common: the cofactors are coprime
    assert _sympy_gcd(_as_poly(ca), _as_poly(cb)) == P(1)


@given(planted_pairs(min_deg=1))
def test_heuristic_gcd_and_prs_match_sympy(ab):
    a, b = ab
    want = _sympy_gcd(a, b)
    A, B = _int_parts(a, b)
    assert _as_poly(scalar._zz_prs_gcd(A, B)).monic() == want
    res = scalar._zz_heu_gcd(A, B)
    if res is not None:  # the heuristic may give up; _zz_gcd then uses the PRS
        h, ca, cb = res
        assert _as_poly(h).monic() == want
        assert _as_poly(h) * _as_poly(ca) == _as_poly(A)
        assert _as_poly(h) * _as_poly(cb) == _as_poly(B)
        assert _sympy_gcd(_as_poly(ca), _as_poly(cb)) == P(1)


def test_gcd_falls_back_to_prs(monkeypatch):
    monkeypatch.setattr(scalar, "HEU_GCD_TRIES", 0)
    common = P(3, -7, 2)
    a, b = common * P(1, 0, 5, 1), common * P(-2, 9)
    assert scalar._zz_heu_gcd(*_int_parts(a, b)) is None
    assert poly_gcd(a, b) == common.monic()
    assert RatFun(a, b) == RatFun(P(1, 0, 5, 1), P(-2, 9))


@given(planted_pairs())
def test_canonical_form_matches_sympy(ab):
    num, den = ab
    f = RatFun(num, den)
    assert f.den.lc() == 1
    assert _sympy_gcd(f.num, f.den) == P(1)
    assert f.num * den == num * f.den
