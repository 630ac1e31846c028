"""Enveloping algebra arithmetic, involution, valuation, homomorphisms."""

from fractions import Fraction as F

import pytest

from skewcert import pbw
from skewcert.errors import BracketIncompatible, NotGraded
from skewcert.freecert import rank_over_Q
from skewcert.harness import skew_exact_coordinatizer
from skewcert.pbw import (
    LieAlg,
    LieHom,
    UElem,
    augmentation,
    chi_valuation,
    hom_apply,
    jacobi_check,
    laurent_chi,
    heisenberg_V,
    phi_heisenberg_to_skewfield,
    rho_class3_to_heisenberg,
    scaling_automorphism,
    twodim_to_skewfield,
    u_involution,
    u_mul,
    uelem_ring_ops,
)
from skewcert.scalar import RatFun
from skewcert.skewfrac import TWODIM_AUT, ShiftAut, SkewFrac, SkewPoly
from tests.conftest import rand_frac


def rand_uelem(rnd, L, max_deg=2, terms=2):
    out = L.zero()
    for _ in range(terms):
        mono = tuple(rnd.randint(0, max_deg) for _ in range(L.dim))
        out = out + UElem(L, {mono: rand_frac(rnd)})
    return out


# -- an independent straightening oracle: rewrite letter words in random
# -- order until sorted, tracking coefficients


def straighten_randomly(L, word, rnd):
    """Normalize a product of letters by randomly scheduled adjacent
    rewrites x_j x_i -> x_i x_j + [x_j, x_i]; returns a UElem."""
    states = {tuple(word): F(1)}
    result = L.zero()
    while states:
        nxt = {}
        for w, c in states.items():
            spots = [k for k in range(len(w) - 1) if w[k] > w[k + 1]]
            if not spots:
                mono = [0] * L.dim
                for letter in w:
                    mono[letter] += 1
                result = result + UElem(L, {tuple(mono): c})
                continue
            k = rnd.choice(spots)
            swapped = w[:k] + (w[k + 1], w[k]) + w[k + 2:]
            nxt[swapped] = nxt.get(swapped, F(0)) + c
            for tgt, cc in L.bracket_pairs(w[k], w[k + 1]):
                corr = w[:k] + (tgt,) + w[k + 2:]
                nxt[corr] = nxt.get(corr, F(0)) + c * cc
        states = {w: c for w, c in nxt.items() if c}
    return result


def word_product(L, word):
    acc = L.one()
    for letter in word:
        acc = u_mul(acc, L.gen(L.basis[letter]))
    return acc


def test_jacobi_presets(H, M2, L3):
    assert jacobi_check(H)
    assert jacobi_check(M2)
    assert jacobi_check(L3)


def test_jacobi_corrupted():
    # [y,x] = z, [z,x] = x, [z,y] = y leaves J(x,y,z) = -2z != 0
    bad = LieAlg(
        "bad",
        ("x", "y", "z"),
        {(1, 0): ((2, F(1)),), (2, 0): ((0, F(1)),), (2, 1): ((1, F(1)),)},
        weights=(1, 1, 2),
    )
    assert not jacobi_check(bad)


def test_u_mul_defining_relation(H):
    x, y, z = H.gen("x"), H.gen("y"), H.gen("z")
    assert u_mul(y, x) == u_mul(x, y) + z
    assert u_mul(z, x) == u_mul(x, z)


def test_u_mul_associativity_example(H):
    x, y = H.gen("x"), H.gen("y")
    assert u_mul(u_mul(y, x), x) == u_mul(y, u_mul(x, x))


def test_u_mul_random_associativity(rnd, H, M2, L3):
    for L in (H, M2, L3):
        for _ in range(200):
            a, b, c = (rand_uelem(rnd, L) for _ in range(3))
            assert u_mul(u_mul(a, b), c) == u_mul(a, u_mul(b, c))


def test_pbw_rewrite_order_independence(rnd, H, L3):
    # randomized rewrite scheduling agrees with the deterministic product
    for L in (H, L3):
        for _ in range(30):
            word = tuple(rnd.randrange(L.dim) for _ in range(rnd.randint(2, 5)))
            assert straighten_randomly(L, word, rnd) == word_product(L, word)


def test_involution_examples(H):
    x, y, z = H.gen("x"), H.gen("y"), H.gen("z")
    assert u_involution(x) == -x
    xy = u_mul(x, y)
    # (xy)* = y* x* = yx = xy + z, via the reversed negated word
    assert u_involution(xy) == u_mul(y, x)
    V = heisenberg_V(H)
    assert u_involution(V) == V


def test_involution_axioms(rnd, H, M2, L3):
    for L in (H, M2, L3):
        for _ in range(60):
            a, b = rand_uelem(rnd, L), rand_uelem(rnd, L)
            assert u_involution(u_mul(a, b)) == u_mul(u_involution(b), u_involution(a))
            assert u_involution(u_involution(a)) == a
            assert augmentation(u_involution(a)) == augmentation(a)


def test_augmentation(H):
    x, y, z = H.gen("x"), H.gen("y"), H.gen("z")
    assert augmentation(H.one()) == 1
    assert augmentation(x) == 0
    assert augmentation(H.one().smul(3) + u_mul(x, y) + u_mul(z, z)) == 3


def test_chi_table(L3):
    u3, v3, w3 = L3.gen("u"), L3.gen("v"), L3.gen("w")
    assert chi_valuation(u3) == -1
    assert chi_valuation(w3) == -2
    V = heisenberg_V(L3)
    assert chi_valuation(V) == -6
    assert laurent_chi([(3, u3)]) == 2
    assert laurent_chi([]) == pbw.INF
    assert chi_valuation(L3.zero()) == pbw.INF


def test_valuation_axioms(rnd, H, L3):
    for L in (H, L3):
        for _ in range(60):
            a, b = rand_uelem(rnd, L), rand_uelem(rnd, L)
            if a and b:
                assert chi_valuation(u_mul(a, b)) == chi_valuation(a) + chi_valuation(b)
            assert chi_valuation(a + b) >= min(chi_valuation(a), chi_valuation(b))


def test_phi_image_examples(H):
    phi = phi_heisenberg_to_skewfield(H)
    aut = ShiftAut(F(1))
    z = H.gen("z")
    assert phi(z) == SkewFrac.one(aut)
    V = heisenberg_V(H)
    assert phi(V) == SkewFrac.from_ratfun(aut, RatFun.t() - RatFun.const(F(1, 2)))
    y2 = u_mul(H.gen("y"), H.gen("y"))
    one = SkewPoly.one(aut)
    p2 = SkewPoly.p(aut, 2)
    assert phi(z + y2) == SkewFrac.from_poly(one + p2)
    # phi is not injective, so `certify heisenberg` cross-checks in the tower
    assert not phi(z - H.one())


def test_hom_is_ring_hom(rnd, H, L3):
    phi = phi_heisenberg_to_skewfield(H)
    for _ in range(15):
        a, b = rand_uelem(rnd, H, 2, 2), rand_uelem(rnd, H, 2, 2)
        assert phi(u_mul(a, b)) == phi(a) * phi(b)
    rho = rho_class3_to_heisenberg(L3, H)
    for _ in range(15):
        a, b = rand_uelem(rnd, L3, 2, 2), rand_uelem(rnd, L3, 2, 2)
        assert rho(u_mul(a, b)) == u_mul(rho(a), rho(b))


def test_rho_preset(L3, H):
    rho = rho_class3_to_heisenberg(L3, H)
    assert rho(L3.gen("w")) == H.gen("z")
    assert not rho(L3.gen("n1"))
    assert not rho(L3.gen("n2"))


def test_twodim_model(M2):
    model = twodim_to_skewfield(M2)
    # e f = f (e + 1) transported exactly
    e, f = M2.gen("e"), M2.gen("f")
    assert model(u_mul(e, f)) == model(f) * (model(e) + SkewFrac.one(model(e).aut))


def test_twodim_model_keeps_low_pbw_monomials_independent(M2):
    # D(M2) embeds in K(p;sigma), so `certify twodim` cross-checks its
    # symmetry claims exactly there: the images of e^a f^b, a + b <= 4, are
    # linearly independent over Q
    model = twodim_to_skewfield(M2)
    images = [model(word_product(M2, (0,) * a + (1,) * b))
              for a in range(5) for b in range(5 - a)]
    vectors = skew_exact_coordinatizer(TWODIM_AUT).build(images)
    assert rank_over_Q(vectors) == (15, None)


def test_bracket_incompatible(H):
    aut = ShiftAut(F(1))
    ops = pbw.skewfield_ring_ops(aut)
    with pytest.raises(BracketIncompatible):
        LieHom(H, [SkewFrac.p(aut), SkewFrac.p(aut), SkewFrac.one(aut)], ops)


def test_scaling_examples(H, M2):
    sc = scaling_automorphism(H, 2)
    x, z = H.gen("x"), H.gen("z")
    assert sc(x) == x.smul(2)
    assert sc(z) == z.smul(4)
    V = heisenberg_V(H)
    # expand (1/2)(4z)(2x*2y + 2y*2x)(4z) directly and compare
    zz = z.smul(4)
    xx, yy = x.smul(2), H.gen("y").smul(2)
    direct = u_mul(u_mul(zz, u_mul(xx, yy) + u_mul(yy, xx)), zz).smul(F(1, 2))
    assert sc(V) == direct == V.smul(64)
    assert scaling_automorphism(H, 1)(V) == V
    with pytest.raises(NotGraded):
        scaling_automorphism(M2, 2)


def test_graded_flags(H, M2, L3):
    assert H.graded and L3.graded and not M2.graded
