"""Canonical left fractions in K(p;sigma), the orbit test, the explicit
generators and the two series expansions."""

from fractions import Fraction as F

import pytest

from skewcert import series
from skewcert.errors import ContextMismatch, HypothesisViolation, InvertZero
from skewcert.scalar import Poly, RatFun
from skewcert.skewfrac import (
    PJet,
    ShiftAut,
    SkewFrac,
    build_heisenberg_images,
    build_twodim_images,
    cauchon_generators,
    cauchon_pair,
    heisenberg_image_jets,
    orbit_distinct,
    pjet_ring,
    sf_eq_cross,
    sf_to_pjet,
    sf_to_weyl_jet,
    twodim_image_jets,
    weyl_jet_ring,
)
from skewcert.skewpoly import SkewPoly, sp_mul
from tests.conftest import rand_ratfun, rand_skewpoly

AUT = ShiftAut(F(1))
ONE = SkewPoly.one(AUT)
P2 = SkewPoly.p(AUT, 2)


def rand_skewfrac(rnd, aut, deg=2):
    while True:
        den = rand_skewpoly(rnd, aut, deg)
        if den:
            return SkewFrac(den, rand_skewpoly(rnd, aut, deg))


def s_element():
    t = RatFun.t()
    return SkewFrac.from_ratfun(AUT, (t - RatFun.const(F(5, 6))) / (t - RatFun.const(F(1, 6))))


def u_element():
    return SkewFrac.from_poly(ONE - P2) * SkewFrac.from_poly(ONE + P2).inv()


def test_u_inverse_and_right_form():
    u = u_element()
    assert u.den == ONE + P2  # canonical left fraction (1+p^2)^{-1}(1-p^2)
    assert u.num == ONE - P2
    # rational coefficients are sigma-fixed, so the right form agrees
    right_form = SkewFrac.from_poly(ONE - P2) * SkewFrac.from_poly(ONE + P2).inv()
    left_form = SkewFrac.from_poly(ONE + P2).inv() * SkewFrac.from_poly(ONE - P2)
    assert right_form == left_form == u
    vu = u * u
    assert u * u.inv() == SkewFrac.one(AUT)
    assert vu == u * u


def test_s_inverse_identities():
    s = s_element()
    assert s * s.inv() == SkewFrac.one(AUT)
    got = s + s.inv()
    expected = SkewFrac.from_ratfun(
        AUT, RatFun(Poly((F(13, 18), F(-2), F(2))), Poly((F(5, 36), F(-1), F(1))))
    )
    assert got == expected


def test_invert_zero():
    with pytest.raises(InvertZero):
        SkewFrac.zero(AUT).inv()


def test_orbit_examples():
    assert orbit_distinct(F(5, 6), F(1, 6), 2)
    assert not orbit_distinct(F(5, 6), F(5, 6) - 4, 2)
    assert not orbit_distinct(F(1, 3), F(1, 4), 0)


def test_pair_builder_rejects_meeting_orbits():
    # alpha - beta in k*c*Z: the orbits under z -> z - k*c meet
    with pytest.raises(HypothesisViolation):
        cauchon_pair(F(1), F(5, 6), F(-7, 6), 2)
    with pytest.raises(HypothesisViolation):
        cauchon_pair(F(-1), F(1, 3), F(1, 3), 1)
    s, u = cauchon_pair(F(1), F(5, 6), F(1, 6), 2)
    assert u.den == ONE + P2


def test_heisenberg_images():
    sbar, tbar = build_heisenberg_images()
    assert sbar.is_scalar()
    assert sbar.as_ratfun() == RatFun(
        Poly((F(13, 18), F(-2), F(2))), Poly((F(5, 36), F(-1), F(1)))
    )
    u = u_element()
    assert tbar * u == u * sbar  # conjugation identity, exact
    assert sbar != tbar


def test_sbar_tbar_differ_in_series_model():
    # independent oracle: expansion in the series module at order 16
    sbar, tbar = build_heisenberg_images()
    ring = weyl_jet_ring(16)
    js = sf_to_weyl_jet(sbar, ring)
    jt = sf_to_weyl_jet(tbar, ring)
    assert not series.jets_agree(js, jt)


def test_twodim_images():
    sbar, tbar = build_twodim_images()
    assert sbar.is_scalar()
    assert sbar.as_ratfun() == RatFun(
        Poly((F(2, 9), F(0), F(2))), Poly((F(-1, 9), F(0), F(1)))
    )
    assert sbar != tbar


def test_cauchon_generators_invertible():
    s, u, xi, eta = cauchon_generators(F(5, 6), F(1, 6), 2)
    one = SkewFrac.one(s.aut)
    assert xi * xi.inv() == one
    assert eta * eta.inv() == one
    assert eta == u * s * u.inv()


def test_division_ring_axioms_on_generators(rnd):
    s = s_element()
    u = u_element()
    p = SkewFrac.p(AUT)
    t = SkewFrac.from_ratfun(AUT, RatFun.t())
    pool = [s, u, p, t, s + u, p * u]
    for _ in range(25):
        a, b, c = (rnd.choice(pool) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        if a:
            assert a * a.inv() == SkewFrac.one(AUT)
            assert a.inv() * a == SkewFrac.one(AUT)


def test_eq_cross_matches_structural(rnd):
    for _ in range(20):
        a = rand_skewfrac(rnd, AUT, 2)
        b = rand_skewfrac(rnd, AUT, 2)
        assert sf_eq_cross(a, b) == (a == b)
        assert sf_eq_cross(a, a)
        assert a == a


def test_embedding_consistency_with_base_field(rnd):
    # arithmetic restricted to Q(t) agrees with scalar arithmetic
    for _ in range(25):
        fa, fb = rand_ratfun(rnd), rand_ratfun(rnd)
        a = SkewFrac.from_ratfun(AUT, fa)
        b = SkewFrac.from_ratfun(AUT, fb)
        assert (a + b).as_ratfun() == fa + fb
        assert (a * b).as_ratfun() == fa * fb
        if fa:
            assert a.inv().as_ratfun() == fa.inv()


def test_canonical_form_unique(rnd):
    for _ in range(15):
        a = rand_skewfrac(rnd, AUT, 2)
        u = rand_skewpoly(rnd, AUT, 1)
        if not u:
            continue
        # the same element from a non-canonical pair: (u d)^{-1} (u n)
        blown = SkewFrac(sp_mul(u, a.den), sp_mul(u, a.num))
        assert blown == a


def test_pjet_cross_oracle(rnd):
    for _ in range(8):
        a = rand_skewfrac(rnd, AUT, 2)
        b = rand_skewfrac(rnd, AUT, 2)
        ja, jb = sf_to_pjet(a, 32), sf_to_pjet(b, 32)
        from skewcert.harness import pjets_agree

        assert pjets_agree(sf_to_pjet(a * b, 32), ja * jb)
        assert pjets_agree(sf_to_pjet(a + b, 32), ja + jb)
        if a:
            assert pjets_agree(sf_to_pjet(a.inv(), 32), ja.inv())


def test_pjet_inverse_twists_by_sigma_and_stops_at_the_order():
    # x = p (t+1) has p-valuation 1, so x^-1 = (t+1)^-1 p^-1 = p^-1 (t+2)^-1:
    # the right factor p^-1 twists the coefficient by sigma^-1 (t -> t+1)
    from skewcert.harness import pjets_agree

    order = 8
    t1 = RatFun.t() + RatFun.const(1)
    x = SkewFrac.p(AUT) * SkewFrac.from_ratfun(AUT, t1)
    jx = sf_to_pjet(x, order)
    assert isinstance(jx, PJet) and jx.coeffs == {1: t1}
    inv = jx.inv()
    assert inv.coeffs == {-1: (RatFun.t() + RatFun.const(2)).inv()}
    assert inv.trunc == order - 2
    assert pjets_agree(inv, sf_to_pjet(x.inv(), order))
    # known past the ring's order, the inverse still stops at the order
    far = pjet_ring(AUT, order).make({1: t1}, order + 10)
    assert far.inv().trunc == order
    assert pjets_agree(far.inv(), inv)
    # jets of two orders live in two rings
    with pytest.raises(ContextMismatch):
        jx + sf_to_pjet(x, order + 1)


def test_weyl_model_commutation():
    # t p = p (t - 1) transported through the differential-operator model
    ring = weyl_jet_ring(12)
    t_jet = sf_to_weyl_jet(SkewFrac.from_ratfun(AUT, RatFun.t()), ring)
    p_jet = sf_to_weyl_jet(SkewFrac.p(AUT), ring)
    lhs = series.jet_mul(t_jet, p_jet)
    shifted = SkewFrac.from_ratfun(AUT, RatFun.t() - RatFun.const(1))
    rhs = series.jet_mul(p_jet, sf_to_weyl_jet(shifted, ring))
    assert series.jets_agree(lhs, rhs)


def test_structural_image_jets_agree_with_expansion():
    s_jet, t_jet = heisenberg_image_jets(16)
    sbar, tbar = build_heisenberg_images()
    from skewcert.harness import pjets_agree

    assert pjets_agree(t_jet, sf_to_pjet(tbar, 16))
    assert pjets_agree(s_jet, sf_to_pjet(sbar, 16))
    s2, t2 = twodim_image_jets(12)
    sb2, tb2 = build_twodim_images()
    assert pjets_agree(t2, sf_to_pjet(tb2, 12))
    assert pjets_agree(s2, sf_to_pjet(sb2, 12))


def test_pjet_rank_monotone_in_order():
    # truncation soundness: increasing the order never decreases the rank
    from skewcert.freecert import rank_over_Q
    from skewcert.harness import skew_pjet_coordinatizer
    from skewcert.freecert import enumerate_words, evaluate_words
    from skewcert.skewfrac import pjet_ring_ops

    ranks = []
    for order in (8, 16, 32):
        s_jet, t_jet = heisenberg_image_jets(order)
        ops = pjet_ring_ops(AUT, order)
        words = enumerate_words(2, 2, False)
        values = evaluate_words([s_jet, t_jet], ops, words, "monoid")
        vectors = skew_pjet_coordinatizer(AUT, order).build(values)
        ranks.append(rank_over_Q(vectors)[0])
    assert ranks == sorted(ranks)
