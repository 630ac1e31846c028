"""Canonical left fractions in K(p;sigma), the orbit test, the explicit
generators and the two series expansions."""

import functools
import json
import pathlib
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from skewcert import harness, series
from skewcert.errors import (
    ContextMismatch,
    HypothesisViolation,
    InvertZero,
    KernelError,
    PoleAtPoint,
    ZeroDenominator,
)
from skewcert.freecert import MODULUS, enumerate_words, evaluate_words
from skewcert.scalar import Poly, RatFun
from skewcert.skewfrac import (
    HEISENBERG_CONSTRUCTION,
    RESIDUE_T0,
    TWODIM_CONSTRUCTION,
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
    residue_ops,
    residue_generators,
    residue_pjet_ring,
    residue_row,
    ring_ops,
    sf_to_pjet,
    sf_to_weyl_jet,
    symmetric_image_jets,
    symmetric_images,
    twodim_image_jets,
    weyl_jet_ring,
)
from skewcert.skewpoly import SkewPoly, sp_gcrd_llcm, sp_mul
from tests.conftest import rand_ratfun, rand_skewpoly
from oracles import canonical_pair, cauchon_image_jets, jet_sub, residue_pjets, sf_eq_cross

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
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


rationals = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
polys = st.lists(rationals, max_size=2).map(Poly)
ratfuns = st.builds(RatFun, polys, polys.filter(bool))


def skewpolys(degree):
    """Skew polynomials of exactly the given degree."""
    return st.builds(lambda cs, lead: SkewPoly(AUT, cs + [lead]),
                     st.lists(ratfuns, min_size=degree, max_size=degree), ratfuns.filter(bool))


@settings(max_examples=100)
@given(st.data(), st.sampled_from([(0, 0), (0, 2), (2, 0), (1, 1), (2, 1), (1, 2), (1, None)]),
       st.sampled_from([None, 0, 1]))
def test_canonical_form_matches_the_full_definition(data, degrees, shared):
    """A degree-0 side skips the gcld; the pair is the same as when the
    gcld, both left divisions and the monic normalization always run.
    `shared` is the degree of a common left factor of both sides, if any."""
    d_deg, n_deg = degrees
    den = data.draw(skewpolys(d_deg))
    num = SkewPoly.zero(AUT) if n_deg is None else data.draw(skewpolys(n_deg))
    if shared is not None:
        g = data.draw(skewpolys(shared))
        den, num = sp_mul(g, den), sp_mul(g, num)
    f = SkewFrac(den, num)
    assert (f.den, f.num) == canonical_pair(den, num)


@given(st.data(), st.integers(0, 2), st.integers(0, 2), st.booleans())
def test_sum_over_unit_denominators_matches_the_llcm_route(data, da, db, cancel):
    """Two fractions with denominator 1 add their numerators; the sum is the
    one the gcrd/llcm route gives, and a cancelling sum is (1, 0)."""
    a = SkewFrac.from_poly(data.draw(skewpolys(da)))
    b = -a if cancel else SkewFrac.from_poly(data.draw(skewpolys(db)))
    _, m, c1, c2 = sp_gcrd_llcm(a.den, b.den)
    s = a + b
    assert (s.den, s.num) == canonical_pair(m, sp_mul(c1, a.num) + sp_mul(c2, b.num))
    if cancel:
        assert (s.den, s.num) == (ONE, SkewPoly.zero(AUT))


@pytest.mark.parametrize("preset", [harness.HEISENBERG, harness.TWODIM], ids=["heisenberg", "twodim"])
def test_presets_build_only_canonical_fractions(preset, one_process, monkeypatch):
    """Every SkewFrac the L=2 preset builds is the canonical pair of its
    inputs by the full definition, and the verdicts are the golden ones."""
    built = []
    real = SkewFrac.__init__

    def checked(self, den, num, _canonical=False):
        real(self, den, num, _canonical)
        built.append((den, num, self.den, self.num))

    monkeypatch.setattr(SkewFrac, "__init__", checked)
    verdicts = harness.run_certify_skew(preset, 2)
    monkeypatch.undo()
    golden = json.loads((GOLDEN / f"{preset.command.split()[1]}.json").read_text())
    assert golden["params"] == {"max_word_len": 2}
    assert [(v["claim"], v["verdict"]) for v in verdicts] == [
        (v["claim"], v["verdict"]) for v in golden["verdicts"]]
    assert all((d, n) == canonical_pair(den, num) for den, num, d, n in built)
    # both the shortcut and the gcld path ran
    assert any(den.degree == 0 and num for den, num, _, _ in built)
    assert any(den.degree > 0 and num.degree > 0 for den, num, _, _ in built)


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


# -- sigma-jets evaluated modulo a prime ---------------------------------------


@pytest.mark.parametrize("construction, order", [(HEISENBERG_CONSTRUCTION, 16),
                                                 (TWODIM_CONSTRUCTION, 8)])
def test_residue_words_match_the_exact_expansion(construction, order):
    # oracle: each word's evaluated jet equals the exact p-jet expansion of
    # its exact value in K(p;sigma), read at the same points
    width, length = 6, 2
    c = construction[0]
    gens, t0 = residue_pjets(list(symmetric_image_jets(order, *construction)), c, width,
                             length - 1, RESIDUE_T0)
    words = enumerate_words(2, length, False)
    ring = residue_pjet_ring(order)
    residue_values = evaluate_words(gens, ring.ops(), words, "monoid")
    exact_values = evaluate_words(list(symmetric_images(*construction)),
                                  ring_ops(ShiftAut(c)), words, "monoid")
    expanded, t0_exact = residue_pjets([sf_to_pjet(v, order) for v in exact_values], c, width, 0, t0)
    assert t0_exact == t0 == RESIDUE_T0
    for x, y in zip(residue_values, expanded):
        window = min(x.trunc, y.trunc)
        assert window >= order
        assert residue_row(x, window, width) == residue_row(y, window, width)
    # and the words differ from each other at these points
    assert len({tuple(sorted(residue_row(x, order, width).items())) for x in residue_values}) == 7


def test_residues_are_never_exact_zeros():
    ops = residue_ops()
    ring = residue_pjet_ring(4)
    a = ring.make({0: 0, 1: (0, (0, 0, 0)), 2: (0, (1, 2, 3))}, 4)
    assert not ops.is_zero(0) and not ops.is_zero((0, (0, 0, 0)))
    assert sorted(a.coeffs) == [0, 1, 2]
    # a difference that vanishes at every point keeps its orders, so its
    # lowest order never moves past the true valuation
    d = jet_sub(a, a)
    assert sorted(d.coeffs) == [0, 1, 2] and d.min_ord == 0
    assert d.coeffs[2] == (0, (0, 0, 0))
    assert ops.inv is None


def test_residue_ring_shifts_and_overlaps():
    ops = residue_ops()
    x, y = (2, (1, 2, 3, 4)), (3, (5, 6, 7))
    # sigma^j moves the range by -j, so values keep their points
    assert residue_pjet_ring(4).sigma(x, 1) == (1, (1, 2, 3, 4))
    assert residue_pjet_ring(4).sigma(7, 5) == 7
    assert ops.mul(x, y) == (3, (10, 18, 28))
    assert ops.add(x, 1) == (2, (2, 3, 4, 5))
    assert ops.neg(x) == (2, tuple(MODULUS - v for v in (1, 2, 3, 4)))
    assert ops.smul(F(1, 2), 4) == 2
    assert ops.sum_products([(2, x, y), (-1, y, 3)]) == (3, (5, 18, 35))
    # a row needs every point 0..width-1 of every coefficient
    assert residue_row(residue_pjet_ring(4).make({0: (-1, (1, 2, 3)), 1: 5}), 4, 2) == {
        0: 2, 1: 3, 2: 5, 3: 5}
    with pytest.raises(KernelError):
        residue_row(residue_pjet_ring(4).make({0: x}), 4, 2)


def test_pole_at_a_point_moves_t0_and_skips_no_point():
    # t0 = 1/3 mod q is a pole of s = (e - 1/3)(e + 1/3)^-1, so of Sbar
    third = pow(3, -1, MODULUS)
    sbar = symmetric_images(*TWODIM_CONSTRUCTION)[0].as_ratfun()
    with pytest.raises(PoleAtPoint):
        sbar.eval_mod([third], MODULUS)
    with pytest.raises(ZeroDenominator):
        RatFun.const(F(1, MODULUS)).eval_mod([0], MODULUS)
    width, products, order = 4, 2, 8
    exact = list(symmetric_image_jets(order, *TWODIM_CONSTRUCTION))
    gens, t0 = residue_pjets(exact, -1, width, products, third)
    assert t0 == third + 1
    hi = width + products * (order - 1)
    points = [(t0 + k) % MODULUS for k in range(hi)]  # sigma(e) = e + 1
    for g, e in zip(gens, exact):
        assert sorted(g.coeffs) == sorted(e.coeffs)
        for i, a in g.coeffs.items():
            if type(a) is int:
                assert e.coeffs[i].is_const()
            else:
                assert a == (0, tuple(e.coeffs[i].eval_mod(points, MODULUS)))


def test_cauchon_image_jets_expand_the_generators_and_their_inverses():
    # xi = s, xi^-1, eta = u s u^-1 and eta^-1, each inverse taken exactly
    order = 8
    _, _, xi, eta = cauchon_generators(F(5, 6), F(1, 6), 2)
    jets = cauchon_image_jets(order, F(5, 6), F(1, 6), 2)
    for jet, x in zip(jets, (xi, xi.inv(), eta, eta.inv())):
        assert jet.trunc >= order
        assert series.jets_agree(jet, sf_to_pjet(x, order), order)
    one = jets[0].ring.one_jet()
    assert series.jets_agree(jets[0] * jets[1], one, order)
    assert series.jets_agree(jets[2] * jets[3], one, order)
    assert series.jets_agree(jets[3] * jets[2], one, order)


# -- the generators read modulo the prime directly -----------------------------

CAUCHON_CONSTRUCTION = (F(2), F(5, 6), F(1, 6), 1)  # (c, alpha, beta, k) of `certify cauchon`
GENERATOR_CASES = [(HEISENBERG_CONSTRUCTION, "monoid"), (TWODIM_CONSTRUCTION, "monoid"),
                   (CAUCHON_CONSTRUCTION, "group")]


@functools.lru_cache(maxsize=None)
def exact_generator_jets(construction, mode, order):
    """The oracle's exact Q(t) p-jets: Sbar, Tbar or xi, xi^-1, eta, eta^-1."""
    if mode == "monoid":
        return list(symmetric_image_jets(order, *construction))
    c, alpha, beta, _ = construction
    return list(cauchon_image_jets(order, alpha, beta, c))


@pytest.mark.parametrize("order", [16, 32, 64])
@pytest.mark.parametrize("construction, mode", GENERATOR_CASES)
def test_generators_read_directly_match_the_exact_jets(construction, mode, order):
    # oracle: the exact p-jets read at the points one product needs.  Every
    # coefficient agrees, with its trunc, on the points a letter's p^i
    # coefficient needs in front of a suffix of p-orders up to the top one
    width = 16
    gens, t0 = residue_generators(construction, mode, order, width, RESIDUE_T0)
    oracle, t0_oracle = residue_pjets(exact_generator_jets(construction, mode, order),
                                      construction[0], width, 1, RESIDUE_T0)
    assert t0 == t0_oracle == RESIDUE_T0
    assert len(gens) == len(oracle) == (2 if mode == "monoid" else 4)
    top = max(i for g in oracle for i in g.coeffs)
    for g, o in zip(gens, oracle):
        assert g.trunc == o.trunc == order
        assert sorted(g.coeffs) == sorted(o.coeffs)
        for i, a in g.coeffs.items():
            need = width + top - i
            assert a[0] == o.coeffs[i][0] == 0
            assert a[1][:need] == o.coeffs[i][1][:need] and len(a[1]) >= need


@pytest.mark.parametrize("length", [1, 2, 3])
@pytest.mark.parametrize("construction, mode", GENERATOR_CASES)
def test_suffix_shared_words_match_the_prefix_products(construction, mode, length):
    # oracle: the exact p-jets read at the points L - 1 right factors need,
    # and each word formed as its prefix times its last letter; the rows of
    # every word, and their trunc, agree with the evaluated path's
    width, order = 16, 16
    gens, _ = residue_generators(construction, mode, order, width, RESIDUE_T0)
    oracle, _ = residue_pjets(exact_generator_jets(construction, mode, order),
                              construction[0], width, length - 1, RESIDUE_T0)
    words = enumerate_words(2, length, mode == "group")
    ring = residue_pjet_ring(order)
    # group mode: the letters 1, -1, 2, -2 are the jets of xi, xi^-1, eta, eta^-1
    index = (lambda a: a) if mode == "monoid" else (lambda a: 2 * abs(a) - (a > 0))
    values = evaluate_words(gens, ring.ops(), [tuple(map(index, w)) for w in words], "monoid")
    prefix = {(): ring.one_jet()}
    for w in words[1:]:
        prefix[w] = prefix[w[:-1]] * oracle[index(w[-1]) - 1]
    for w, v in zip(words, values):
        assert v.trunc == prefix[w].trunc
        assert residue_row(v, order, width) == residue_row(prefix[w], order, width)
