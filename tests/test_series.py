"""Derivation-twisted jets, derivation lifting, coefficient maps, towers."""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from skewcert import scalar, series
from skewcert.errors import (
    CompatibilityFailure,
    ContextMismatch,
    HypothesisViolation,
    LowestCoeffNotUnit,
    PrecisionExhausted,
)
from skewcert.pbw import LieHom, free_nilpotent_class3, heisenberg, u_mul
from skewcert.scalar import Poly, RatFun
from skewcert.series import (
    Derivation,
    Jet,
    JetRing,
    bipoly_const,
    bipoly_eps,
    bipoly_n1,
    bipoly_n2,
    bipoly_ops,
    check_leibniz,
    class3_tower,
    fraction_ops,
    heisenberg_tower,
    hom_phi_u,
    hom_phi_v,
    hom_phi_w,
    jet_add,
    jet_inv,
    jet_mul,
    jet_neg,
    jet_shift,
    jet_smul,
    jet_sub,
    jet_truncate,
    jets_agree,
    lift_derivation,
    series_hom,
    unit_criterion_audit,
)
from skewcert.skewfrac import ShiftAut, pjet_ring


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


def bipoly_from_terms(terms: dict) -> Poly:
    """Built by the generic Poly constructor, as callers outside the kernel
    do: every coefficient is a Fraction, integral ones included."""
    n2 = max((i for i, _ in terms), default=-1) + 1
    n1 = max((j for _, j in terms), default=-1) + 1
    rows = [[F(0)] * n1 for _ in range(n2)]
    for (i, j), c in terms.items():
        rows[i][j] += c
    return Poly([Poly(row) for row in rows])


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


def assert_kernel_value(got: Poly, want: dict, normalized: bool = True):
    """Exact value, hash, and scalar types of a kernel result.  A result of
    normalized operands stores an int when integral and a Fraction
    otherwise; coefficients passed through from raw operands may still be
    integral Fractions.  No float ever appears."""
    assert terms_of(got) == want
    reference = bipoly_from_terms(want)
    assert got == reference and hash(got) == hash(reference)
    for inner in got.coeffs:
        assert type(inner) is Poly
        for c in inner.coeffs:
            assert type(c) is int or type(c) is F, repr(c)
            if normalized:
                assert type(c) is int or c.denominator != 1, repr(c)


@settings(max_examples=300)
@given(elements, elements)
def test_bipoly_kernel_matches_monomial_oracle(ta, tb):
    ops = bipoly_ops()
    a, b = bipoly_from_terms(ta), bipoly_from_terms(tb)
    da, db = terms_of(a), terms_of(b)
    neg_b = {k: -c for k, c in db.items()}
    assert_kernel_value(ops.add(a, b), ref_add(da, db), normalized=False)
    assert_kernel_value(ops.neg(a), {k: -c for k, c in da.items()}, normalized=False)
    assert_kernel_value(ops.add(a, ops.neg(a)), {})
    assert_kernel_value(ops.mul(a, b), ref_mul(da, db))
    # a product with one normalizes every coefficient; kernel outputs also
    # share their zero entries, which the single-term test looks for
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
    assert_kernel_value(ops.smul(q, a), want, normalized=False)
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


# -- int-first scalar products and clean jets ------------------------------------

rationals = st.one_of(
    st.integers(-60, 60),
    st.builds(F, st.integers(-60, 60), st.integers(1, 12)),
    st.builds(F, st.integers(-60, 60)),  # integral but not normalized
)


@settings(max_examples=300)
@given(rationals, rationals)
@example(0, F(5, 7))
@example(F(-5, 7), 0)
@example(F(2, 3), F(3, 2))
@example(F(-4, 3), 3)
@example(-6, F(5, 3))
@example(F(-1, 2), -2)
@example(F(-7, 6), F(-12, 7))
def test_qmul_matches_fraction_arithmetic(x, y):
    got = scalar._qmul(x, y)
    want = F(x) * F(y)
    assert got == want
    if want.denominator == 1:
        assert type(got) is int
    else:
        assert type(got) is F and got.denominator == want.denominator


def assert_clean(x):
    """The clean-jet invariant, down every level: refiltering through the
    public constructor changes neither the coefficients nor trunc."""
    if not isinstance(x, Jet):
        return
    again = Jet(x.ring, dict(x.coeffs), x.trunc)
    assert again.coeffs == x.coeffs and again.trunc == x.trunc
    for c in x.coeffs.values():
        assert_clean(c)


SIGMA_RING = pjet_ring(ShiftAut(F(1)), 4)
TOWERS = {"class3": class3_tower(4), "heisenberg": heisenberg_tower(4),
          "sigma": series.Tower([SIGMA_RING], SIGMA_RING)}


def draw_jet(data, tower, level: int) -> Jet:
    """A random element of tower.levels[level] built through the public
    constructors; exact zeros, inexact zeros and finite truncs included."""
    ring = tower.levels[level]
    coeffs = {}
    for i in data.draw(st.lists(st.integers(-2, 4), max_size=3)):
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
