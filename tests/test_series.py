"""Derivation-twisted jets, derivation lifting, coefficient maps, towers."""

import math
import sys
import types
from collections import defaultdict
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from skewcert import scalar, series
from skewcert.errors import (
    CompatibilityFailure,
    ContextMismatch,
    HypothesisViolation,
    KernelError,
    LowestCoeffNotUnit,
    PrecisionExhausted,
)
from skewcert.harness import class3_fact_table, run_certify_nilpotent, run_verify_scaling, unit_verdict
from skewcert.pbw import LieHom, free_nilpotent_class3, heisenberg, u_mul
from skewcert.rings import RingOps
from skewcert.scalar import BiPoly, Poly, RatFun
from skewcert.series import (
    Derivation,
    Jet,
    JetRing,
    TwJet,
    TwRing,
    bipoly_const,
    bipoly_eps,
    bipoly_n1,
    bipoly_n2,
    bipoly_ops,
    class3_tower,
    fraction_ops,
    heisenberg_tower,
    hom_phi_u,
    hom_phi_v,
    hom_phi_w,
    jet_add,
    jet_exact_zero,
    jet_inv,
    jet_known_zero,
    jet_mul,
    jet_neg,
    jet_shift,
    jet_smul,
    jets_agree,
    lift_derivation,
    series_hom,
    unit_criterion_audit,
)
from skewcert.skewfrac import ShiftAut, pjet_ring
from skewcert.symcert import verify_facts
from oracles import (
    check_leibniz,
    exact_zero,
    fully_exact,
    generic_tw_level,
    jet_inv_left,
    jet_sub,
    jet_truncate,
)


@pytest.fixture(scope="module")
def QQ_ring():
    return JetRing(fraction_ops(), None, "t", 16)


# a small noncommutative base: Q[n1,n2] with delta = n2 * d/dn1
def dn1(f: Poly) -> Poly:
    return Poly(tuple(c.deriv() for c in f.coeffs)) * bipoly_n2()


@pytest.fixture(scope="module")
def D_ring():
    # triple products of Laurent jets overflow the default -8 floor
    return JetRing(bipoly_ops(), Derivation("n2 d/dn1", dn1), "t", 12, floor=-32)


def test_commutative_product(QQ_ring):
    one = QQ_ring.one_jet()
    t = QQ_ring.monomial(1)
    assert jet_mul(jet_add(one, t), jet_sub(one, t)).coeffs == {0: F(1), 2: F(-1)}


def test_geometric_inverse(QQ_ring):
    one = QQ_ring.one_jet()
    a = jet_add(one, QQ_ring.monomial(1))
    inv = jet_inv(a)
    assert all(inv.coeffs[i] == (-1) ** i for i in range(16))
    assert jets_agree(jet_mul(a, inv), one)
    assert jets_agree(jet_mul(inv, a), one)


def test_monomial_inverse(QQ_ring):
    assert jet_inv(QQ_ring.monomial(-1)).coeffs == {1: F(1)}


def test_crossing_rule_terminating(D_ring):
    # delta(n1) = n2, delta(n2) = 0: a t = t a - t^2 delta(a), exactly
    a = D_ring.const(bipoly_n1())
    lhs = jet_mul(a, D_ring.monomial(1))
    rhs = jet_sub(jet_shift(a, 1), D_ring.make({2: bipoly_n2()}))
    assert jets_agree(lhs, rhs)
    assert lhs.trunc >= series.EXACT  # the chain dies, so the product is exact


def test_negative_crossing(D_ring):
    # a t^-1 = t^-1 a + delta(a)
    a = D_ring.const(bipoly_n1())
    lhs = jet_mul(a, D_ring.monomial(-1))
    rhs = jet_add(jet_shift(a, -1), D_ring.const(bipoly_n2()))
    assert jets_agree(lhs, rhs)


def test_ring_axioms_random(D_ring, rnd):
    def rnd_jet():
        coeffs = {}
        for _ in range(3):
            c = bipoly_const(rnd.randint(-3, 3)) + bipoly_n1().scale(
                F(rnd.randint(-2, 2))
            ) + bipoly_n2().scale(F(rnd.randint(-2, 2)))
            coeffs[rnd.randint(-3, 5)] = c
        return D_ring.make(coeffs)

    for _ in range(60):
        a, b, c = rnd_jet(), rnd_jet(), rnd_jet()
        assert jets_agree(jet_mul(jet_mul(a, b), c), jet_mul(a, jet_mul(b, c)))
        assert jets_agree(jet_mul(a, jet_add(b, c)), jet_add(jet_mul(a, b), jet_mul(a, c)))
        assert jets_agree(jet_mul(jet_add(a, b), c), jet_add(jet_mul(a, c), jet_mul(b, c)))


def test_truncation_coherence(D_ring):
    hi = JetRing(D_ring.coeff, D_ring.delta, "t", 20)
    a_lo = jet_add(D_ring.const(bipoly_n1()), D_ring.monomial(-1))
    a_hi = jet_add(hi.const(bipoly_n1()), hi.monomial(-1))
    inv_lo = jet_inv(a_lo)
    inv_hi = jet_inv(a_hi)
    lifted = Jet(D_ring, dict(inv_hi.coeffs), inv_hi.trunc)
    assert jets_agree(jet_truncate(lifted, inv_lo.trunc), inv_lo)


def test_context_mismatch(QQ_ring, D_ring):
    with pytest.raises(ContextMismatch):
        jet_mul(QQ_ring.one_jet(), D_ring.one_jet())


def test_lowest_coeff_not_unit(D_ring):
    bad = D_ring.const(bipoly_n1())
    with pytest.raises(LowestCoeffNotUnit) as ei:
        jet_inv(bad)
    assert ei.value.coefficient == bipoly_n1()
    with pytest.raises(LowestCoeffNotUnit):
        jet_inv(D_ring.zero_jet())


def test_floor_exhaustion():
    ring = JetRing(fraction_ops(), None, "t", 8, floor=-2)
    with pytest.raises(PrecisionExhausted):
        ring.monomial(-3)


def test_leibniz_check(D_ring):
    ops = D_ring.coeff
    pairs = [(bipoly_n1(), bipoly_n1() * bipoly_n2()), (bipoly_n2(), bipoly_n1())]
    ok, _ = check_leibniz(D_ring.delta, ops, pairs)
    assert ok
    broken = Derivation("bad", lambda f: f)
    ok, witness = check_leibniz(broken, ops, pairs)
    assert not ok and witness is not None


def test_heisenberg_tower_crossing():
    tw = heisenberg_tower(12)
    lz, ly, lx = tw.levels
    y, z = tw.gens["y"], tw.gens["z"]
    # y t_x = t_x y - t_x^2 z
    lhs = jet_mul(y, lx.monomial(1))
    rhs = jet_sub(jet_shift(y, 1), jet_shift(z, 2))
    assert jets_agree(lhs, rhs)


def test_lifted_derivation_formulas():
    tw = heisenberg_tower(12)
    lz, ly, lx = tw.levels
    dx = tw.gens["delta_x"]
    zc = lz.monomial(-1)
    # delta_x(t_y) = -t_y z t_y = t_y^2 z (-1)
    assert jets_agree(dx(ly.monomial(1)), ly.make({2: jet_smul(F(-1), zc)}))
    for i in (2, 3, 4):
        assert jets_agree(dx(ly.monomial(i)), ly.make({i + 1: jet_smul(F(-i), zc)}))
    # delta_s(t_w^-1) = delta_s(w)
    assert jets_agree(dx(ly.monomial(-1)), ly.const(zc))


def test_lifted_derivation_leibniz(rnd):
    c3 = class3_tower(16)
    lw, lv, lu = c3.levels
    delta_u = lu.delta
    ops = lv.ops()

    def rnd_lv():
        return lv.make({rnd.randint(-2, 2): lw.make(
            {rnd.randint(-2, 2): bipoly_const(rnd.randint(-3, 3))}) for _ in range(2)})

    for _ in range(10):
        a, b = rnd_lv(), rnd_lv()
        lhs = delta_u(jet_mul(a, b))
        rhs = jet_add(jet_mul(delta_u(a), b), jet_mul(a, delta_u(b)))
        assert jets_agree(lhs, rhs, upto=14)


def test_lift_hypothesis_violation():
    tw = heisenberg_tower(8)
    lz, ly, lx = tw.levels
    with pytest.raises(HypothesisViolation):
        lift_derivation(ly, None, ly.one_jet(), "bad")


def test_unit_criterion_w_plus_v2():
    c3 = class3_tower(12)
    lw, lv, lu = c3.levels
    v, w = c3.gens["v"], c3.gens["w"]
    el = jet_add(w, jet_mul(v, v))
    ok, trail = unit_criterion_audit(el)
    assert ok
    assert [e["var"] for e in trail] == ["t_u", "t_v", "t_w"]
    assert trail[1]["min_ord"] == -2
    inv = jet_inv(el)
    assert jets_agree(jet_mul(el, inv), lu.one_jet())
    assert jets_agree(jet_mul(inv, el), lu.one_jet())


def test_unit_verdict_fails_on_its_extra_condition():
    c3 = class3_tower(12)
    v, w = c3.gens["v"], c3.gens["w"]
    el = jet_add(w, jet_mul(v, v))
    passed, inv = unit_verdict("w+v^2 invertible", el)
    failed, _ = unit_verdict("w+v^2 invertible", el, holds=False)
    assert passed["verdict"] == "certified" and failed["verdict"] == "failed"
    assert failed["data"] == passed["data"]
    assert passed["data"]["audit"] == unit_criterion_audit(el)[1]
    assert passed["data"]["overhead"] == 12 - min(inv.trunc, 12)
    again = jet_inv(el)
    assert jets_agree(inv, again) and inv.trunc == again.trunc
    # a lowest coefficient that is not a unit stops the verdict in jet_inv
    with pytest.raises(LowestCoeffNotUnit):
        unit_verdict("n1 invertible", c3.gens["n1"])


def test_series_hom_examples():
    src = class3_tower(10)
    dst = heisenberg_tower(10)
    lw, lv, lu = src.levels
    lz, ly, lx = dst.levels
    phi_w = hom_phi_w(src, dst)
    assert jets_agree(phi_w(lw.make({1: bipoly_n1()})), lz.zero_jet())
    assert jets_agree(
        phi_w(lw.make({2: bipoly_const(3) + bipoly_n1()})), lz.make({2: F(3)})
    )
    phi_u = hom_phi_u(src, dst)
    assert jets_agree(phi_u(src.gens["u"]), lx.monomial(-1))


def test_series_hom_compat_failure():
    # augmentation against a nonzero target derivation cannot intertwine
    src_d = JetRing(bipoly_ops(), Derivation("d", dn1), "s", 8)
    tgt_d = JetRing(fraction_ops(), Derivation("e", lambda q: q), "z", 8)
    with pytest.raises(CompatibilityFailure):
        series_hom(src_d.const(bipoly_const(1)), bipoly_eps, tgt_d)


def test_phi_u_multiplicative(rnd):
    src = class3_tower(10)
    dst = heisenberg_tower(10)
    lw, lv, lu = src.levels
    phi_u = hom_phi_u(src, dst)

    def rnd_elem():
        out = {}
        for _ in range(2):
            out[rnd.randint(-2, 2)] = lv.make({rnd.randint(-2, 2): lw.make(
                {rnd.randint(-2, 2): bipoly_const(rnd.randint(-2, 2))})})
        return lu.make(out)

    for _ in range(25):
        a, b = rnd_elem(), rnd_elem()
        assert jets_agree(phi_u(jet_mul(a, b)), jet_mul(phi_u(a), phi_u(b)))


def test_compatibility_square(rnd):
    src = class3_tower(10)
    dst = heisenberg_tower(10)
    L3 = free_nilpotent_class3()
    H = heisenberg()
    from skewcert.pbw import rho_class3_to_heisenberg

    embed_L = LieHom(L3, [src.gens[k] for k in ("u", "v", "w", "n1", "n2")], src.ops())
    embed_H = LieHom(H, [dst.gens[k] for k in ("x", "y", "z")], dst.ops())
    rho = rho_class3_to_heisenberg(L3, H)
    phi_u = hom_phi_u(src, dst)
    gens = [L3.gen("u"), L3.gen("v"), L3.gen("w"),
            u_mul(L3.gen("u"), L3.gen("v")), u_mul(L3.gen("v"), L3.gen("w"))]
    for g in gens:
        assert jets_agree(phi_u(embed_L(g)), embed_H(rho(g)))
    for _ in range(10):
        g = u_mul(rnd.choice(gens), rnd.choice(gens))
        assert jets_agree(phi_u(embed_L(g)), embed_H(rho(g)))


# -- the Q[n1, n2] kernel against a dict-of-monomials oracle ----------------------

scalars = st.one_of(
    st.integers(-50, 50),
    st.builds(F, st.integers(-50, 50), st.integers(1, 12)),  # often non-integral
    st.builds(F, st.integers(-50, 50)),  # integral but not normalized
)
monomials = st.tuples(st.integers(0, 4), st.integers(0, 4))  # (deg n2, deg n1)
terms = st.dictionaries(monomials, scalars, max_size=8)
single_terms = st.dictionaries(monomials, scalars, min_size=1, max_size=1)
elements = st.one_of(terms, single_terms)


def nested_from_terms(terms: dict) -> Poly:
    """Built by the generic Poly constructor, as callers outside the kernel
    do: every coefficient is a Fraction, integral ones included."""
    n2 = max((i for i, _ in terms), default=-1) + 1
    n1 = max((j for _, j in terms), default=-1) + 1
    rows = [[F(0)] * n1 for _ in range(n2)]
    for (i, j), c in terms.items():
        rows[i][j] += c
    return Poly([Poly(row) for row in rows])


def bipoly_from_terms(terms: dict) -> BiPoly:
    """The kernel value of the monomials `terms`, read from the nested Poly
    as BiPoly's operators read an operand."""
    return scalar._bp(nested_from_terms(terms))


def terms_of(f: Poly) -> dict:
    out = {}
    for i, inner in enumerate(f.coeffs):
        for j, c in enumerate(inner.coeffs):
            if c:
                out[(i, j)] = F(c)
    return out


def ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + c
    return {k: F(c) for k, c in out.items() if c}


def ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i, j), c in a.items():
        for (k, m), d in b.items():
            out[(i + k, j + m)] = out.get((i + k, j + m), 0) + c * d
    return {k: F(c) for k, c in out.items() if c}


def assert_kernel_value(got, want: dict):
    """got is in the integer form (positive den, nonzero numerators coprime
    to den as a whole, strictly increasing (n2, n1) keys) and reads exactly
    as the nested Poly built generically from the monomials `want`: the
    same view, ==, hash and repr, each view scalar an int when integral and
    a Fraction otherwise.  No float ever appears."""
    assert type(got) is BiPoly
    den, terms = got.den, got.terms
    assert type(den) is int and den >= 1
    assert all(type(c) is int and c for _, c in terms)
    assert math.gcd(den, *[c for _, c in terms]) == 1
    keys = [k for k, _ in terms]
    assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))
    assert terms_of(got) == want
    reference = nested_from_terms(want)
    assert got.coeffs == reference.coeffs and got == reference and reference == got
    assert hash(got) == hash(reference) and repr(got) == repr(reference)
    for inner in got.coeffs:
        assert type(inner) is Poly
        for c in inner.coeffs:
            assert type(c) is int or (type(c) is F and c.denominator != 1), repr(c)


@settings(max_examples=300)
@given(elements, elements)
def test_bipoly_kernel_matches_monomial_oracle(ta, tb):
    ops = bipoly_ops()
    a, b = bipoly_from_terms(ta), bipoly_from_terms(tb)
    da, db = terms_of(a), terms_of(b)
    neg_b = {k: -c for k, c in db.items()}
    assert_kernel_value(ops.add(a, b), ref_add(da, db))
    assert_kernel_value(ops.neg(a), {k: -c for k, c in da.items()})
    assert_kernel_value(ops.add(a, ops.neg(a)), {})
    assert_kernel_value(ops.mul(a, b), ref_mul(da, db))
    # the same sums and products with kernel outputs as operands
    a1, b1 = ops.mul(a, ops.one), ops.mul(ops.one, b)
    assert_kernel_value(a1, da)
    assert_kernel_value(ops.mul(a1, b1), ref_mul(da, db))
    assert_kernel_value(ops.add(a1, b1), ref_add(da, db))
    assert_kernel_value(ops.add(a1, ops.neg(b1)), ref_add(da, neg_b))
    assert_kernel_value(ops.mul(a, b1), ref_mul(da, db))
    assert_kernel_value(ops.add(ops.mul(a1, b1), ops.neg(ops.mul(b, a))), {})


@settings(max_examples=200)
@given(elements, scalars)
def test_bipoly_smul_matches_monomial_oracle(ta, q):
    ops = bipoly_ops()
    a = bipoly_from_terms(ta)
    want = {k: F(c * q) for k, c in terms_of(a).items() if c * q}
    assert_kernel_value(ops.smul(q, a), want)
    assert_kernel_value(ops.smul(q, ops.mul(a, ops.one)), want)


@given(scalars.filter(bool))
def test_bipoly_eps_and_inverse_are_exact(q):
    ops = bipoly_ops()
    c = bipoly_const(q)
    eps = bipoly_eps(ops.add(c, bipoly_n1()))
    assert type(eps) is F and eps == q
    assert type(bipoly_eps(ops.mul(bipoly_n2(), c))) is F
    inv = ops.inv(c)
    assert_kernel_value(inv, {(0, 0): 1 / F(q)})
    assert_kernel_value(ops.mul(inv, c), {(0, 0): F(1)})
    # an integral constant given as an unnormalized Fraction inverts exactly too
    assert ops.inv(bipoly_from_terms({(0, 0): F(3)})) == bipoly_const(F(1, 3))


def test_bipoly_n1_degree_stays_below_the_packed_field():
    """A key packs (n2-degree << 15) | n1-degree, and every stored
    n1-degree is below 2**14, so two keys add without a carry.  The kernel
    refuses the product n1^(2**13) n1^(2**13), and a nested Poly of
    n1-degree 2**14 at BiPoly's operators, with a KernelError (a one-line
    `error:` in the CLI)."""
    half = bipoly_ops().mul(bipoly_from_terms({(0, 2**13): 1}), bipoly_const(1))
    assert half.terms == ((2**13, 1),)
    assert bipoly_ops().mul(half, bipoly_from_terms({(0, 2**13 - 1): 1})).terms == ((2**14 - 1, 1),)
    for terms in ([(1, half, half)], [(1, half, half), (2, bipoly_n2(), bipoly_n1())]):
        with pytest.raises(KernelError, match="n1-degree"):
            scalar._bp_dot(terms)
    with pytest.raises(KernelError, match="n1-degree"):
        bipoly_n2() + nested_from_terms({(1, 2**14): 1})


def lead_term(terms: dict) -> dict:
    """The nonzero monomial of highest n2-degree, then highest n1-degree."""
    nonzero = [t for t in terms.items() if t[1]]
    return dict([max(nonzero)]) if nonzero else {}


dot_kappas = st.sampled_from([1, -1, 2, -3])


@settings(max_examples=300)
@given(st.lists(st.tuples(dot_kappas, elements, elements), min_size=1, max_size=5),
       st.sampled_from(["none", "all", "lead"]))
@example([(1, {(0, 0): F(1, 2)}, {(0, 0): 1}), (1, {(0, 0): F(1, 2)}, {(0, 0): 1})], "none")
@example([(2, {(0, 0): F(3)}, {(1, 1): F(5)}), (1, {}, {(0, 0): 1})], "none")
@example([(1, {(0, 1): 1}, {(0, 0): 1}), (1, {(0, 0): 1}, {(0, 0): 1})], "lead")
@example([(1, {(1, 0): 1}, {(0, 0): 1}), (1, {(0, 0): 1}, {(0, 0): 1})], "lead")
@example([(-3, {(0, 0): 2, (1, 2): F(1, 3)}, {(2, 1): 4})], "all")
@example([(2, {(0, 1): F(1, 3)}, {(1, 0): 3})], "none")
def test_bipoly_dot_matches_fallback_and_monomial_oracle(raw, cancel):
    """The fused Q[n1, n2] sum of products against the mul/neg/smul/add
    fallback and the monomial oracle.  "all" appends (-k, x, y) for every
    term, an exact zero; "lead" appends minus the product of the first
    term's leading monomials, which cancels the top n1 entry of the top n2
    row of that product (the whole row when it is a single entry)."""
    ops = bipoly_ops()
    assert ops.dot is scalar._bp_dot
    if cancel == "all":
        raw = raw + [(-k, a, b) for k, a, b in raw]
    elif cancel == "lead":
        k, a, b = raw[0]
        raw = raw + [(-k, lead_term(a), lead_term(b))]
    terms = [(k, bipoly_from_terms(a), bipoly_from_terms(b)) for k, a, b in raw]
    want: dict = {}
    for k, a, b in terms:
        want = ref_add(want, {m: k * c for m, c in ref_mul(terms_of(a), terms_of(b)).items()})
    got = ops.sum_products(terms)
    assert_kernel_value(got, want)
    assert got == ops.replace(dot=None).sum_products(terms)
    if cancel == "all":
        assert not got.coeffs


rationals = st.one_of(st.fractions(min_value=-6, max_value=6, max_denominator=6),
                      st.fractions(min_value=-2**64, max_value=2**64, max_denominator=2**64))


@settings(max_examples=300)
@given(st.lists(st.tuples(dot_kappas, rationals, rationals), min_size=1, max_size=5),
       st.sampled_from(["as drawn", "single", "all", "integral"]))
@example([(1, F(1, 2**64), F(2**64 - 1, 3))], "as drawn")
@example([(-3, F(-2**64, 2**64 - 1), F(1, 7)), (2, F(5, 6), F(0))], "all")
@example([(2, F(1, 2), F(3, 4)), (-1, F(1, 4), F(1, 2))], "integral")
def test_fraction_dot_matches_fallback(terms, shape):
    """The fused Q sum of products against the mul/neg/smul/add fallback, in
    value and type.  "single" keeps the first term; "all" appends
    (-k, x, y) for every term, an exact zero; "integral" appends the term
    that cancels the sum's fractional part."""
    ops = series.fraction_ops()
    assert ops.dot is scalar.fraction_dot
    fallback = ops.replace(dot=None).sum_products
    if shape == "single":
        terms = terms[:1]
    elif shape == "all":
        terms = terms + [(-k, x, y) for k, x, y in terms]
    elif shape == "integral":
        s = fallback(terms)
        terms = terms + [(1, math.floor(s) - s, F(1))]
    want = fallback(terms)
    got = ops.sum_products(terms)
    assert got == want and type(got) is type(want) is F
    if shape == "all":
        assert got == 0
    if shape == "integral":
        assert got.denominator == 1


# -- the integer form of Q[n1, n2] and clean jets --------------------------------


def both_forms(terms: dict) -> tuple:
    """The value read from the nested Poly a caller builds, and the value
    the kernel computes as that times 1."""
    read = bipoly_from_terms(terms)
    return read, bipoly_ops().mul(read, bipoly_const(1))


dot_terms = st.lists(st.tuples(dot_kappas, elements, elements, st.booleans(), st.booleans()),
                     min_size=1, max_size=4)


@settings(max_examples=200)
@given(elements, elements, scalars.filter(bool), dot_terms)
@example({(0, 0): F(1, 2)}, {(0, 0): F(1, 2)}, F(2), [(1, {(0, 1): F(1, 6)}, {(0, 0): 3}, True, False)])
@example({(0, 1): F(1, 2)}, {(0, 1): F(-1, 2)}, 6,
         [(1, {(0, 0): F(1, 2)}, {(1, 0): 1}, False, False),
          (1, {(0, 0): F(1, 3)}, {(1, 0): 1}, False, True),
          (-1, {(0, 0): F(5, 6)}, {(1, 0): 1}, True, False)])
def test_bipoly_kernel_outputs_are_canonical(ta, tb, q, raw):
    """Every kernel output, with a value read from a nested Poly in each
    operand position: add, neg, smul, mul, dot, inv and const."""
    ops = bipoly_ops()
    da, db = terms_of(bipoly_from_terms(ta)), terms_of(bipoly_from_terms(tb))
    for a in both_forms(ta):
        assert_kernel_value(ops.neg(a), {k: -c for k, c in da.items()})
        assert_kernel_value(ops.smul(q, a), {k: c * q for k, c in da.items()})
        for b in both_forms(tb):
            assert_kernel_value(ops.add(a, b), ref_add(da, db))
            assert_kernel_value(ops.mul(a, b), ref_mul(da, db))
    for c in both_forms({(0, 0): q}):
        assert_kernel_value(ops.inv(c), {(0, 0): 1 / F(q)})
    assert_kernel_value(bipoly_const(q), {(0, 0): F(q)})
    assert_kernel_value(bipoly_const(0), {})
    terms, want = [], {}
    for k, x, y, read_x, read_y in raw:
        terms.append((k, both_forms(x)[not read_x], both_forms(y)[not read_y]))
        prod = ref_mul(terms_of(bipoly_from_terms(x)), terms_of(bipoly_from_terms(y)))
        want = ref_add(want, {m: k * c for m, c in prod.items()})
    assert_kernel_value(ops.dot(terms), want)


def test_class3_tower_holds_only_the_integer_form():
    """No nested Poly and no per-order map enters the class-3 tower: the
    facts, the inverse of A and the harness's `bipoly_const(3) + n1` all
    stay in the integer form, every t_w-jet as one TwJet of int terms."""
    table, _, jets = class3_fact_table(12)
    verify_facts(table)
    leaves = []

    def walk(x):
        if isinstance(x, Jet) and type(x) is not TwJet:
            for c in x.coeffs.values():
                walk(c)
        else:
            leaves.append(x)

    walk(jet_inv(jets["A"]))
    assert leaves and all(type(c) is TwJet and type(c.den) is int for c in leaves)
    assert all(type(k) is int and type(n) is int for c in leaves for k, n in c.terms)
    assert all(type(c) is BiPoly for x in leaves for c in x.coeffs.values())
    assert type(bipoly_const(3) + bipoly_n1()) is BiPoly
    assert type(Poly((Poly((F(1),)),)) * bipoly_n2()) is BiPoly


@settings(max_examples=200)
@given(elements, elements)
def test_operators_read_a_nested_operand_into_the_kernel_form(ta, tb):
    """+, - and * between a nested Poly and a BiPoly, either side first,
    give the kernel value: Python tries BiPoly's reflected operator before
    Poly's, and Poly.__sub__ adds the negated operand."""
    nested, b = nested_from_terms(ta), bipoly_from_terms(tb)
    da, db = terms_of(nested), terms_of(b)
    neg = {k: -c for k, c in da.items()}
    assert_kernel_value(nested + b, ref_add(da, db))
    assert_kernel_value(b + nested, ref_add(db, da))
    assert_kernel_value(nested * b, ref_mul(da, db))
    assert_kernel_value(b * nested, ref_mul(db, da))
    assert_kernel_value(b - nested, ref_add(db, neg))
    assert_kernel_value(nested - b, ref_add(da, {k: -c for k, c in db.items()}))


rationals = st.one_of(
    st.integers(-60, 60),
    st.builds(F, st.integers(-60, 60), st.integers(1, 12)),
    st.builds(F, st.integers(-60, 60)),  # integral but not normalized
)


def assert_clean(x):
    """The clean-jet invariant, down every level: refiltering through the
    public constructor changes neither the coefficients nor trunc."""
    if not isinstance(x, Jet):
        return
    again = Jet(x.ring, dict(x.coeffs), x.trunc)
    assert again.coeffs == x.coeffs and again.trunc == x.trunc
    if type(x) is TwJet:  # and the packed form is the canonical one
        assert (again.den, again.terms) == (x.den, x.terms)
    for c in x.coeffs.values():
        assert_clean(c)


SIGMA_RING = pjet_ring(ShiftAut(F(1)), 4)
TOWERS = {"class3": class3_tower(4), "heisenberg": heisenberg_tower(4),
          "sigma": series.Tower([SIGMA_RING], SIGMA_RING)}


def draw_jet(data, tower, level: int, orders=None) -> Jet:
    """A random element of tower.levels[level] built through the public
    constructors, drawn at the given orders or at random ones; exact zeros,
    inexact zeros and finite truncs included."""
    ring = tower.levels[level]
    coeffs = {}
    if orders is None:
        orders = data.draw(st.lists(st.integers(-2, 4), max_size=3))
    for i in orders:
        if level:
            coeffs[i] = draw_jet(data, tower, level - 1)
        elif ring.coeff.name == "Q":
            coeffs[i] = data.draw(rationals.map(F))
        elif ring.coeff.name == "Q(t)":
            num = data.draw(st.lists(rationals.map(F), min_size=1, max_size=2))
            coeffs[i] = RatFun(Poly(num), Poly([F(1), data.draw(rationals.map(F))]))
        else:
            coeffs[i] = bipoly_from_terms(data.draw(
                st.dictionaries(st.tuples(st.integers(0, 1), st.integers(0, 1)), rationals, max_size=2)))
    return Jet(ring, coeffs, data.draw(st.sampled_from([series.EXACT, 5, 3, 1])))


@settings(max_examples=150)
@given(st.sampled_from(sorted(TOWERS)), st.integers(0, 2), st.data())
def test_jet_operations_keep_jets_clean(name, level, data):
    tower = TOWERS[name]
    level = min(level, len(tower.levels) - 1)
    ring = tower.levels[level]
    a, b = draw_jet(data, tower, level), draw_jet(data, tower, level)
    outputs = [jet_add(a, b), jet_add(a, jet_neg(a)), jet_neg(a), jet_sub(a, b),
               jet_mul(a, b), jet_mul(b, a)]
    outputs += [jet_smul(q, a) for q in (0, -1, 2, F(-3, 4))]
    if ring.delta is not None:
        below = draw_jet(data, tower, level - 1)
        outputs += [ring.delta(below), ring.delta(ring.delta(below))]
    # a unit 1 + x with x = a shifted to positive orders, and (1 + x)(1 - x),
    # whose orders of x cancel
    x = jet_shift(a, 1 - a.min_ord) if a.coeffs else a
    one = ring.one_jet()
    outputs += [jet_inv(jet_add(one, x)), jet_mul(jet_add(one, x), jet_sub(one, x))]
    try:
        outputs.append(jet_inv(a))
    except (LowestCoeffNotUnit, PrecisionExhausted):
        pass
    for x in outputs:
        assert_clean(x)


@settings(max_examples=150)
@given(st.sampled_from(sorted(TOWERS)), st.integers(0, 2), st.data())
def test_jet_exact_zero_matches_the_recursive_reference(name, level, data):
    """A jet is zero to every order exactly when its trunc is EXACT and it
    stores nothing: on jets built by public ops at every level, inexact
    zeros included, each ring's exact_zero agrees with the oracle's "known
    zero and fully exact" at every depth."""
    tower = TOWERS[name]
    level = min(level, len(tower.levels) - 1)
    ring = tower.levels[level]
    ops = ring.ops()
    # the class-3 t_w level tests its packed terms, every other ring its map
    assert ops.exact_zero is (series._tw_exact_zero if type(ring) is TwRing else jet_exact_zero)
    a, b = draw_jet(data, tower, level), draw_jet(data, tower, level)
    at_exact, at_finite = Jet(ring, a.coeffs), jet_truncate(a, 3)
    zeros = [ring.zero_jet(), ring.zero_jet(3)]
    assert [jet_exact_zero(z) for z in zeros] == [True, False]
    assert not jet_exact_zero(jet_add(at_finite, jet_neg(at_finite)))
    jets = zeros + [a, b, at_exact, at_finite, jet_add(a, b), jet_mul(a, b), jet_smul(0, a),
                    jet_add(at_exact, jet_neg(at_exact)), jet_add(at_finite, jet_neg(at_finite))]
    if level:
        inner = tower.levels[level - 1]
        held = [ring.const(inner.zero_jet(2)), ring.const(inner.zero_jet())]
        assert [jet_exact_zero(x) for x in held] == [False, True]
        jets += held

    def check(ops, x):
        assert ops.exact_zero(x) == exact_zero(ops, x)
        if isinstance(x, Jet):
            for c in x.coeffs.values():
                check(x.ring.coeff, c)

    for x in jets:
        check(ops, x)


def test_lifted_derivation_drops_cancelled_and_truncated_orders():
    tower = class3_tower(4)
    lw, lv, lu = tower.levels
    # delta_v(t_w^2) sits at order 3, which a jet known below 3 cannot hold
    d = lv.delta(lw.make({2: bipoly_const(1)}, 3))
    assert d.coeffs == {} and d.trunc == 3
    # delta_u(t_v^-3) and delta_u(t_v^-2) c both reach t_v^-1; choose c so
    # that the two contributions cancel exactly
    delta_u = lu.delta
    c3 = delta_u(lv.monomial(-3)).coeffs[-1]  # 3 n2
    c2 = delta_u(lv.monomial(-2)).coeffs[-1]  # 2 t_w^-1, exactly invertible
    assert c2.coeffs == {-1: bipoly_const(2)} and c2.trunc == series.EXACT
    c = jet_neg(jet_mul(lw.monomial(1, bipoly_const(F(1, 2))), c3))
    d = delta_u(lv.make({-3: lw.one_jet(), -2: c}))
    assert -1 not in d.coeffs
    assert_clean(d)
    assert jets_agree(d, jet_add(delta_u(lv.monomial(-3)), delta_u(lv.make({-2: c}))))


def test_product_below_floor_raises():
    ring = JetRing(fraction_ops(), None, "t", 8, floor=-2)
    with pytest.raises(PrecisionExhausted):
        jet_mul(ring.monomial(-2), ring.monomial(-1))


def test_sum_never_forms_orders_past_its_truncation():
    # t^-3 lies below the floor, but the second term leaves nothing known
    # from t^-3 on, so the fused sum never forms it
    ring = JetRing(fraction_ops(), None, "t", 8, floor=-2)
    unknown = ring.zero_jet(-3)
    s = ring.ops().sum_products([(1, ring.monomial(-2), ring.monomial(-1)),
                                 (1, unknown, ring.one_jet())])
    assert s.coeffs == {} and s.trunc == -3


# -- fused sums of products against the generic fallback --------------------------


def dump(x):
    """A jet as its trunc and nested sorted (order, coefficient) items."""
    if isinstance(x, Jet):
        return (x.trunc, [(i, dump(c)) for i, c in x.items()])
    return x


def plain(ring: JetRing) -> JetRing:
    """The same ring over its coefficient ring without the fused dot."""
    return JetRing(ring.coeff.replace(dot=None), ring.delta, ring.var, ring.order,
                   ring.floor, ring.sigma)


def test_class3_scalars_sum_through_the_fused_dot():
    """The class-3 tower's bottom ring sums through the Q[n1, n2] dot and
    plain() removes it, so check_fused_matches_fallback compares the fused
    and the fallback sums at level 0."""
    for tower in (class3_tower(), TOWERS["class3"]):
        lw = tower.levels[0]
        assert lw.coeff.dot is scalar._bp_dot
        assert plain(lw).coeff.dot is None


def test_heisenberg_scalars_sum_through_the_fused_dot():
    """The Heisenberg tower's bottom ring sums through the Q dot and plain()
    removes it, so check_fused_matches_fallback compares the fused and the
    fallback sums at t_z."""
    for tower in (heisenberg_tower(), TOWERS["heisenberg"]):
        lz = tower.levels[0]
        assert lz.coeff.dot is scalar.fraction_dot
        assert plain(lz).coeff.dot is None


def outcome(f, *args):
    try:
        return dump(f(*args))
    except (LowestCoeffNotUnit, PrecisionExhausted) as ex:
        return type(ex).__name__


def lifted(tower):
    """(jet ring, delta on its coefficients, delta(w), the tower's own
    derivation) for each derivation the tower lifts across a level."""
    if "delta_u" in tower.gens:
        lw, lv, lu = tower.levels
        on_w = lift_derivation(lw, None, bipoly_n1(), "delta_u|t_w")
        return [(lw, None, bipoly_n2(), lv.delta), (lv, on_w, lw.monomial(-1), lu.delta)]
    if "delta_x" in tower.gens:
        lz, ly, lx = tower.levels
        return [(ly, None, lz.monomial(-1), lx.delta)]
    return []


def check_fused_matches_fallback(tower, level, pool, kaps):
    ring = tower.levels[level]
    p = plain(ring)
    a, b, c = pool
    pa, pb, pc = (Jet(p, x.coeffs, x.trunc) for x in pool)
    assert dump(jet_mul(a, b)) == dump(jet_mul(pa, pb))
    assert dump(jet_mul(jet_mul(a, b), c)) == dump(jet_mul(jet_mul(pa, pb), pc))
    x, px = (jet_shift(y, 1 - y.min_ord) if y.coeffs else y for y in (a, pa))
    assert outcome(jet_inv, jet_add(ring.one_jet(), x)) == outcome(jet_inv, jet_add(p.one_jet(), px))
    assert outcome(jet_inv, a) == outcome(jet_inv, pa)
    # the ring's own dot, on sums whose first two terms cancel when kaps
    # starts with (k, -k)
    ops = ring.ops()
    assert ops.dot is (series._tw_dot if type(ring) is TwRing else series.jet_dot)
    terms = [(k, *xy) for k, xy in zip(kaps, [(a, b), (a, b), (b, c), (c, a)])]
    assert dump(ops.sum_products(terms)) == dump(ops.replace(dot=None).sum_products(terms))
    for jring, on_coeffs, of_w, own in lifted(tower):
        if jring is ring:
            d = lift_derivation(ring, on_coeffs, of_w, "d")
            pd = lift_derivation(p, on_coeffs, of_w, "d")
            assert dump(d(a)) == dump(pd(pa)) == dump(own(a))
            assert dump(d(jet_mul(a, b))) == dump(pd(jet_mul(pa, pb)))


@settings(max_examples=150)
@given(st.sampled_from(sorted(TOWERS)), st.integers(0, 2), st.data())
def test_fused_products_match_generic_fallback(name, level, data):
    """jet_mul, jet_inv, the lifted derivations and sum_products give the
    same coefficients and trunc whether the coefficient ring fuses its sums
    of products (dot) or runs the mul/neg/smul/add fallback of RingOps."""
    tower = TOWERS[name]
    level = min(level, len(tower.levels) - 1)
    pool = [draw_jet(data, tower, level) for _ in range(3)]
    k = data.draw(st.sampled_from([1, -1, 2, -3]))
    kaps = data.draw(st.sampled_from([[k, -k, 2, -1], [k], [k, 1, -1]]))
    check_fused_matches_fallback(tower, level, pool, kaps)


@pytest.mark.parametrize("name", ["class3", "heisenberg"])
def test_fused_products_cancel_and_keep_inexact_zeros(name):
    tower = TOWERS[name]
    inner, ring = tower.levels[0], tower.levels[1]
    one = inner.coeff.one
    x = inner.make({0: one, 1: one}, 3)
    a = ring.make({0: x, 1: inner.zero_jet(2)}, 4)  # an inexact zero at t^1
    b = ring.make({0: x, 2: jet_neg(x)})
    c = ring.monomial(1)
    check_fused_matches_fallback(tower, 1, [a, b, c], [3, -3, 1, -1])
    # the first two terms cancel exactly; the inexact zero caps the sum
    s = ring.ops().sum_products([(1, a, b), (-1, a, b)])
    assert s.trunc == 4 and all(jet_known_zero(v) for v in s.coeffs.values())
    assert s.coeffs and not any(fully_exact(v) for v in s.coeffs.values())


# -- the delta chain stops at the kappa support -----------------------------------


def crossing_reference(terms) -> Jet:
    """jet_dot over a ring without sigma, with the delta chain run the long
    way: under a finite truncation the chain of left order i runs to
    m = trunc - i - b_min - 1 or to an exact zero, whatever kappa reaches.
    In an exact product whose right factor has no positive order it runs
    ring.order powers past m = -b_min, where kappa(j, m) is already zero
    for every j, and the product stays exact."""
    ring = terms[0][1].ring
    ops, delta = ring.coeff, ring.delta
    trunc = min(min(series._tadd(x.trunc, y.min_ord), series._tadd(y.trunc, x.min_ord))
                for _, x, y in terms)
    groups = defaultdict(list)
    for kap, a, b in terms:
        if not a.coeffs or not b.coeffs:
            continue
        b_min = min(b.coeffs)
        no_pos = max(b.coeffs) <= 0
        for i, ai in a.coeffs.items():
            if delta is None:
                for j, bj in b.coeffs.items():
                    if i + j < trunc:
                        groups[i + j].append((kap, ai, bj))
                continue
            dm, m = ai, 0
            if trunc < series.EXACT:
                max_m = trunc - i - b_min - 1
            else:
                max_m = ring.order - b_min if no_pos else None
            while True:
                if ops.is_zero(dm):
                    if not exact_zero(ops, dm):
                        if trunc >= series.EXACT and not no_pos:
                            trunc = ring.order
                        for j, bj in b.coeffs.items():
                            for k in range(i + j + m, trunc if j > 0 else min(trunc, i + 1)):
                                groups[k].append((kap, dm, bj))
                    break
                for j, bj in b.coeffs.items():
                    kk = series._kappa(j, m)
                    if kk and i + j + m < trunc:
                        groups[i + j + m].append((kap * kk, dm, bj))
                m += 1
                if max_m is not None and m > max_m:
                    break
                if max_m is None and i + b_min + m >= ring.order:
                    trunc = min(trunc, ring.order)
                    break
                dm = delta(dm)
    return Jet(ring, {k: ops.sum_products(g) for k, g in groups.items() if k < trunc}, trunc)


# only negative, mixed-sign and only positive orders of the right factor
RIGHT_ORDERS = [[-1], [-2], [-2, -1], [-1, 2], [-2, 0, 1], [0, 3], [1], [2, 3]]


@settings(max_examples=200)
@given(st.sampled_from(["class3", "heisenberg"]), st.integers(0, 2), st.data())
def test_delta_chain_stop_matches_the_full_chain(name, level, data):
    """Stopping each delta chain where kappa leaves the window changes no
    coefficient and no trunc of jet_mul or the ring's sum_products."""
    tower = TOWERS[name]
    ring = tower.levels[level]
    a, c = draw_jet(data, tower, level), draw_jet(data, tower, level)
    b = draw_jet(data, tower, level, data.draw(st.sampled_from(RIGHT_ORDERS)))
    if level and data.draw(st.booleans()):  # an inexact zero on the left
        unknown = tower.levels[level - 1].zero_jet(data.draw(st.sampled_from([3, 0, -1])))
        a = ring.make({**a.coeffs, data.draw(st.integers(-2, 3)): unknown}, a.trunc)
    assert dump(jet_mul(a, b)) == dump(crossing_reference([(1, a, b)]))
    terms = [(1, a, b), (-2, c, b), (3, b, a)]
    assert dump(ring.ops().sum_products(terms)) == dump(crossing_reference(terms))


@pytest.mark.parametrize("orders", RIGHT_ORDERS)
@pytest.mark.parametrize("name", ["class3", "heisenberg"])
def test_delta_chain_stop_on_long_exact_chains(name, orders):
    """Exact coefficients keep their delta chains long, so each chain is
    cut at the last power that kappa reaches; a product by t^-1 applies
    delta at most once per left coefficient."""
    tower = TOWERS[name]
    ring, inner = tower.levels[2], tower.levels[1]
    calls = []

    def counted(x):
        calls.append(x)
        return ring.delta(x)

    counting = JetRing(ring.coeff, Derivation("counted", counted), ring.var, ring.order,
                       ring.floor)
    a = counting.make({-2: inner.monomial(-1), 0: inner.monomial(-2), 1: inner.monomial(1),
                       3: inner.one_jet()}, 5)
    b = counting.make({j: inner.one_jet() for j in orders})
    got = jet_mul(a, b)
    stopped = len(calls)
    calls.clear()
    assert dump(got) == dump(crossing_reference([(1, a, b)]))
    assert stopped <= len(calls)
    if orders == [-1]:
        assert 0 < stopped <= len(a.coeffs) < len(calls)  # the full chains run to trunc - i


def jet_dot_delta_calls(monkeypatch, run) -> int:
    """The derivation applications that jet_dot itself makes during run()."""
    calls = []
    call = Derivation.__call__

    def counted(self, x):
        if sys._getframe(1).f_code is series.jet_dot.__code__:
            calls.append(self.name)
        return call(self, x)

    monkeypatch.setattr(Derivation, "__call__", counted)
    run()
    monkeypatch.undo()
    return len(calls)


def test_verify_scaling_delta_applications(monkeypatch, one_process):
    # 3,466 while the chains of an exact product with no positive right
    # order ran to the ring's order; 3,739 while jet_inv crossed t^-m on the
    # inverse's side for m < 0; 15,448 with the chains run to
    # trunc - i - b_min - 1
    assert jet_dot_delta_calls(monkeypatch, run_verify_scaling) == 3250


def test_certify_nilpotent_delta_applications(monkeypatch, one_process):
    # 9,584 while the chains of an exact product with no positive right
    # order ran to the ring's order
    assert jet_dot_delta_calls(monkeypatch, run_certify_nilpotent) == 8336


def rebuild(x, levels: list):
    """A jet of one tower read into the same levels of another tower."""
    if not isinstance(x, Jet):
        return x
    return Jet(levels[-1], {i: rebuild(c, levels[:-1]) for i, c in x.coeffs.items()}, x.trunc)


def test_exact_product_with_no_positive_right_order_stays_exact():
    """t_u^k (1 + t_v) t_u^-4 for k = 3, 4: kappa(-4, m) = 0 for m > 4 ends
    every delta chain, so the product is exact in class3_tower(4) and
    agrees with the same product built in class3_tower(8)."""
    towers = [class3_tower(4), class3_tower(8)]
    for k in (3, 4):
        prods = []
        for tower in towers:
            lv, lu = tower.levels[1:]
            a = lu.make({k: jet_add(lv.one_jet(), lv.monomial(1))})
            prods.append(jet_mul(a, lu.monomial(-4)))
        low, high = prods
        assert low.trunc == high.trunc == series.EXACT
        assert jets_agree(rebuild(low, towers[1].levels), high)


@settings(max_examples=150)
@given(st.sampled_from(sorted(TOWERS)), st.integers(0, 2), st.data())
def test_product_trunc_with_a_finite_factor_is_the_tadd_formula(name, level, data):
    """With a finite trunc on one factor of every term, jet_dot's trunc is
    min(_tadd(x.trunc, y.min_ord), _tadd(y.trunc, x.min_ord)) over the
    terms, whichever of min_ord it reads."""
    tower = TOWERS[name]
    level = min(level, len(tower.levels) - 1)
    terms = []
    for _ in range(data.draw(st.integers(1, 3))):
        x, y = draw_jet(data, tower, level), draw_jet(data, tower, level)
        cap = data.draw(st.sampled_from([5, 3, 1, 0, -1]))
        if data.draw(st.booleans()):
            x = jet_truncate(x, cap)
        else:
            y = jet_truncate(y, cap)
        terms.append((data.draw(dot_kappas), x, y))
    want = min(min(series._tadd(x.trunc, y.min_ord), series._tadd(y.trunc, x.min_ord))
               for _, x, y in terms)
    assert series.jet_dot(terms).trunc == want


# -- jet_inv crosses t^-m on the short side -------------------------------------


def class3_atom_A(order: int) -> Jet:
    table, _, jets = class3_fact_table(order)
    verify_facts(table)  # the invertibility checks fill in the atom jets
    return jets["A"]


def high_unit(order: int) -> Jet:
    """t_u^order (1 + t_v) in class3_tower(order), whose right-factored
    c = a t_u^-order is an exact product: kappa ends its delta chains."""
    lv, lu = class3_tower(order).levels[1:]
    return lu.make({order: jet_add(lv.one_jet(), lv.monomial(1))})


@st.composite
def units(draw, tower=None, level=None, m=None):
    """A unit of tower.levels[level] with lowest order m: a unit of the level
    below (a nonzero scalar at level 0) at t^m, drawn coefficients above it
    and an exact or finite trunc; tower, level and m from -2 to 4 are drawn
    when not given, inner lowest orders from -1 to 1."""
    if tower is None:
        tower = TOWERS[draw(st.sampled_from(sorted(TOWERS)))]
        level = draw(st.integers(0, len(tower.levels) - 1))
        m = draw(st.integers(-2, 4))
    ring = tower.levels[level]
    nonzero = rationals.map(F).filter(bool)
    if level:
        low = draw(units(tower, level - 1, draw(st.integers(-1, 1))))
    elif ring.coeff.name == "Q":
        low = draw(nonzero)
    elif ring.coeff.name == "Q(t)":
        low = RatFun(Poly([draw(nonzero), draw(rationals.map(F))]), Poly([F(1), draw(nonzero)]))
    else:
        low = bipoly_const(draw(nonzero))
    orders = draw(st.lists(st.integers(m + 1, m + 3), max_size=2))
    above = draw_jet(types.SimpleNamespace(draw=draw), tower, level, orders)
    trunc = draw(st.sampled_from([series.EXACT, m + 1, m + 2, m + 4]))
    return ring.make({**above.coeffs, m: low}, trunc)


@settings(max_examples=150)
@given(units())
@example(class3_atom_A(12))
@example(high_unit(4))
@example(high_unit(6))
@example(high_unit(12))
def test_inverse_is_two_sided_on_its_known_window(a):
    """jet_inv(a) inverts a on both sides as far as the products are known,
    and its trunc is min(a.trunc - 2m, order) for a lowest order m."""
    ring, m = a.ring, a.nonzero_min_ord()
    inv = jet_inv(a)
    assert inv.trunc == min(series._tadd(a.trunc, -2 * m), ring.order)
    for prod in (jet_mul(a, inv), jet_mul(inv, a)):
        assert prod.trunc > 0 and jets_agree(prod, ring.one_jet())


@settings(max_examples=150)
@given(units())
@example(class3_atom_A(12))
@example(high_unit(4))
@example(high_unit(6))
@example(high_unit(12))
def test_inverse_matches_the_left_factored_oracle(a):
    """Crossing t^-m on a's side gives the inverse of a = t^m c read as
    c^-1 t^-m: the same trunc and no disagreement."""
    inv, left = jet_inv(a), jet_inv_left(a)
    assert inv.trunc == left.trunc and jets_agree(inv, left)


def test_inverse_of_A_delta_applications(monkeypatch):
    a = class3_atom_A(12)
    calls = []
    call = Derivation.__call__
    monkeypatch.setattr(Derivation, "__call__", lambda self, x: calls.append(self.name) or call(self, x))
    jet_inv(a)
    # 892 while the chains of an exact product with no positive right order
    # ran to the ring's order; 1,457 while the inverse ended in the crossing
    # c^-1 t^-m: the delta chains then ran over every coefficient of c^-1,
    # not over a's two
    assert len(calls) == 861


def test_series_hom_checks_only_when_a_derivation_is_present(monkeypatch):
    eqs = []
    eq = RingOps.eq
    monkeypatch.setattr(RingOps, "eq", lambda self, x, y: eqs.append(x) or eq(self, x, y))
    src, dst = class3_tower(6), heisenberg_tower(6)
    lw = src.levels[0]
    x = lw.make({-1: bipoly_const(2) + bipoly_n1(), 2: bipoly_n2()}, 4)
    out = hom_phi_w(src, dst)(x)  # reads eps off the packed terms
    assert dump(series_hom(x, bipoly_eps, dst.levels[0])) == dump(out)
    assert eqs == [] and dump(out) == (4, [(-1, F(2))])

    def at_one(f):  # n1 = n2 = 1, which does not kill delta(n1) = n2
        return sum((F(x) for c in f.coeffs for x in c.coeffs), F(0))

    # a derivation on the source side only is still checked coefficientwise
    src_d = JetRing(bipoly_ops(), Derivation("d", dn1), "s", 8)
    with pytest.raises(CompatibilityFailure):
        series_hom(src_d.const(bipoly_n1()), at_one, JetRing(fraction_ops(), None, "z", 8))
    assert eqs


def test_fraction_inverse_is_exact_on_ints():
    ops = fraction_ops()
    assert ops.inv(2) == F(1, 2) and type(ops.inv(2)) is F
    inv = jet_inv(JetRing(ops, None, "t", 6).make({0: 2, 1: 1}))
    # 1/(2 + t) = sum (-1)^n t^n / 2^(n+1)
    assert inv.items() == [(n, F((-1) ** n, 2 ** (n + 1))) for n in range(6)]
    assert all(type(c) is F for c in inv.coeffs.values())


# -- the packed t_w level against the generic level --------------------------------

TW_FLOOR = -6  # products of two drawn orders reach below it
PACKED_TW = TwRing("t_w", 4, TW_FLOOR)
GENERIC_TW, GENERIC_DELTA_V, GENERIC_DELTA_U = generic_tw_level(4, TW_FLOOR)
PACKED_DELTA_V = lift_derivation(PACKED_TW, None, bipoly_n2(), "delta_v")
PACKED_DELTA_U = lift_derivation(PACKED_TW, None, bipoly_n1(), "delta_u|t_w")
PHI_TOWERS = class3_tower(4), heisenberg_tower(4)


@st.composite
def tw_maps(draw):
    """A plain {order: BiPoly} map at orders -4..4, with fractional and
    multi-monomial coefficients, exact zeros among them, and a trunc."""
    orders = draw(st.lists(st.integers(-4, 4), max_size=4, unique=True))
    cs = {i: bipoly_from_terms(draw(st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)), rationals, max_size=3))) for i in orders}
    return cs, draw(st.sampled_from([series.EXACT, 5, 3, 1, -2]))


def both(plain):
    """The packed and the generic jet of one plain map."""
    cs, trunc = plain
    return Jet(PACKED_TW, cs, trunc), Jet(GENERIC_TW, cs, trunc)


def tw_outcome(f, *args):
    """dump(f(*args)), with the packed form checked canonical and its view
    checked equal to the dump; or the name of the precision error."""
    try:
        x = f(*args)
    except PrecisionExhausted as ex:
        return type(ex).__name__
    if type(x) is TwJet:
        assert_clean(x)
        assert x.items() == sorted(x.coeffs.items())
    return dump(x) if isinstance(x, Jet) else x


def assert_same(packed, generic, *pairs):
    """The packed and the generic f give the same outcome, each on its own
    form of the operands."""
    assert tw_outcome(packed, *(p for p, _ in pairs)) == tw_outcome(generic, *(g for _, g in pairs))


@settings(max_examples=300)
@given(tw_maps(), tw_maps(), tw_maps(), st.sampled_from([1, -1, 2, -3]),
       st.sampled_from([0, 1, -1, 2, F(-3, 4)]))
def test_packed_tw_level_matches_the_generic_level(pa, pb, pc, k, q):
    """The packed t_w level and a generic JetRing over Q[n1, n2] agree as
    values, as .coeffs views and in trunc on add, neg, smul, mul, the
    kappa-weighted sums (first two terms cancelling), both lifted
    derivations and Phi_w; a product below the floor raises on both."""
    a, b, c = both(pa), both(pb), both(pc)
    ops, gops = PACKED_TW.ops(), GENERIC_TW.ops()
    for x in (a, b, both((pa[0], 3))):
        assert dump(x[0]) == dump(x[1])
        assert x[0].coeffs == x[1].coeffs and x[0].trunc == x[1].trunc
        assert ops.is_zero(x[0]) == gops.is_zero(x[1])
        assert ops.exact_zero(x[0]) == gops.exact_zero(x[1])
    for name in ("add", "mul"):
        assert_same(getattr(ops, name), getattr(gops, name), a, b)
    assert_same(ops.add, gops.add, a, (jet_neg(a[0]), jet_neg(a[1])))  # cancels
    assert_same(ops.neg, gops.neg, a)
    assert_same(lambda x: ops.smul(q, x), lambda x: gops.smul(q, x), a)
    for kaps in ([k, -k, 2, -1], [k], [k, 1, -1]):
        pairs = list(zip(kaps, [(a, b), (a, b), (b, c), (c, a)]))
        sums = [[(kk, x[side], y[side]) for kk, (x, y) in pairs] for side in (0, 1)]
        assert tw_outcome(ops.dot, sums[0]) == tw_outcome(gops.dot, sums[1])
    for packed, generic in ((PACKED_DELTA_V, GENERIC_DELTA_V), (PACKED_DELTA_U, GENERIC_DELTA_U)):
        assert_same(packed, generic, a)
        assert_same(lambda x, y: packed(ops.mul(x, y)), lambda x, y: generic(gops.mul(x, y)), a, b)
    lw = PHI_TOWERS[0].levels[0]
    phi_w = hom_phi_w(*PHI_TOWERS)
    assert dump(phi_w(Jet(lw, pa[0], pa[1]))) == dump(
        series_hom(a[1], bipoly_eps, PHI_TOWERS[1].levels[0]))


def test_packed_tw_product_below_the_floor_raises_on_both_sides():
    low = ({-4: bipoly_const(F(1, 2)) + bipoly_n1()}, series.EXACT)
    for ring, x in zip((PACKED_TW, GENERIC_TW), both(low)):
        with pytest.raises(PrecisionExhausted):
            ring.ops().mul(x, x)
    # a term known only below t_w^-8 leaves t_w^-8 unformed, on both sides
    unknown, one = both(({}, -8)), both(({0: bipoly_const(1)}, series.EXACT))
    sums = [ring.ops().dot([(1, x, x), (1, u, e)])
            for ring, x, u, e in zip((PACKED_TW, GENERIC_TW), both(low), unknown, one)]
    assert type(sums[0]) is TwJet and dump(sums[0]) == dump(sums[1]) == (-8, [])


def test_plain_maps_read_into_the_packed_form():
    lw = class3_tower(4).levels[0]
    plain = {-1: bipoly_const(F(1, 2)) + bipoly_n1(), 2: bipoly_n2(), 3: bipoly_const(0)}
    made = [lw.make(plain, 3), Jet(lw, plain, 3), jet_neg(lw.one_jet()), lw.one_jet(),
            lw.monomial(-1), lw.zero_jet(2), lw.make({0: Poly((Poly((F(1), F(2))),))})]
    assert all(type(x) is TwJet and type(x.den) is int for x in made)
    assert made[0].coeffs == made[1].coeffs == {-1: plain[-1], 2: plain[2]}
    assert (made[0].den, made[0].terms) == (2, ((-1 << 30, 1), ((-1 << 30) + 1, 2), ((2 << 30) + (1 << 15), 2)))
    assert made[2].coeffs == {0: bipoly_const(-1)} and made[5].coeffs == {} and made[5].trunc == 2
    assert made[6].coeffs == {0: bipoly_const(1) + bipoly_const(2) * bipoly_n1()}


def test_degrees_past_their_packed_fields_raise_one_line():
    lw = class3_tower(4).levels[0]
    ops = lw.ops()
    n1_half = lw.const(scalar._bipoly(1, ((1 << 13, 1),)))  # n1^(2^13)
    n2_half = lw.const(scalar._bipoly(1, (((1 << 13) << 15, 1),)))  # n2^(2^13)
    n2_top = scalar._bipoly(1, ((((1 << 14) - 1) << 15, 1),))  # n2^(2^14 - 1)
    calls = [lambda: lw.const(scalar._bipoly(1, (((1 << 14) << 15, 1),))),  # n2^(2^14)
             lambda: ops.mul(n1_half, n1_half), lambda: ops.mul(n2_half, n2_half),
             lambda: ops.dot([(1, n2_half, n2_half)]),
             lambda: lift_derivation(lw, None, bipoly_n2(), "delta_v")(lw.monomial(1, n2_top))]
    for call in calls:
        with pytest.raises(KernelError) as info:
            call()
        assert "\n" not in str(info.value) and "2**14" in str(info.value)
    # one below each field's limit is held exactly
    top = ops.mul(lw.const(n2_top), lw.const(scalar._bipoly(1, (((1 << 14) - 1, 1),))))
    assert top.terms == ((((1 << 14) - 1) << 15 | (1 << 14) - 1, 1),)
