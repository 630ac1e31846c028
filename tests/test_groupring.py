"""The rational group ring of the free group on two generators."""

from fractions import Fraction as F

import pytest

from skewcert.errors import AdapterFailure
from skewcert.groupring import (
    GrpRingElem,
    coordinatize,
    gr_involution,
    gr_mul,
    reduce_word,
    ring_ops,
    symmetric_generators,
)

X_WORD = (("x", 1),)
Y_WORD = (("y", 1),)


def test_reduce_word():
    assert reduce_word([("x", 1), ("x", -1)]) == ()
    assert reduce_word([("x", 2), ("x", -1), ("y", 1)]) == (("x", 1), ("y", 1))
    assert reduce_word([("x", 1), ("y", 0), ("x", 1)]) == (("x", 2),)


def test_cancellation():
    x = GrpRingElem.word(X_WORD)
    xinv = GrpRingElem.word((("x", -1),))
    assert gr_mul(x, xinv) == GrpRingElem.one()


def test_no_cancellation_product():
    X, Y = symmetric_generators()
    prod = gr_mul(X, Y)
    assert len(prod.terms) == 4
    assert all(c == 1 for c in prod.terms.values())


def test_power_expansion():
    X, _ = symmetric_generators()
    X2 = gr_mul(X, X)
    assert X2.terms == {
        (("x", 2),): F(1),
        (): F(2),
        (("x", -2),): F(1),
    }


def test_symmetric_generators_fixed_by_involution():
    X, Y = symmetric_generators()
    assert gr_involution(X) == X
    assert gr_involution(Y) == Y
    assert X - X == GrpRingElem.zero()


def test_involution_antimultiplicative(rnd):
    X, Y = symmetric_generators()
    pool = [X, Y, gr_mul(X, Y), GrpRingElem.word(X_WORD, F(2, 3))]
    for _ in range(20):
        a, b = rnd.choice(pool), rnd.choice(pool)
        assert gr_involution(gr_mul(a, b)) == gr_mul(gr_involution(b), gr_involution(a))


def test_associativity_random(rnd):
    X, Y = symmetric_generators()
    pool = [X, Y, gr_mul(X, Y), gr_mul(Y, X), GrpRingElem.one()]
    for _ in range(30):
        a, b, c = (rnd.choice(pool) for _ in range(3))
        assert gr_mul(gr_mul(a, b), c) == gr_mul(a, gr_mul(b, c))


def test_coordinatizer_injective_on_distinct_words():
    w1 = (("x", 1), ("y", -2))
    w2 = (("y", -2), ("x", 1))
    e = GrpRingElem({w1: F(1), w2: F(-1)})
    vec = coordinatize(e)
    assert len(vec) == 2


def test_repr_renders_words_and_orders_terms_by_length():
    X, Y = symmetric_generators()
    assert repr(X) == "x + x^-1"
    assert repr(GrpRingElem.word(X_WORD, F(2, 3))) == "2/3*x"
    assert repr(GrpRingElem.word((("x", 2), ("y", -1)))) == "x^2y^-1"
    assert (repr(GrpRingElem.zero()), repr(GrpRingElem.one())) == ("0", "1")
    assert repr(gr_mul(X, X)) == "2*1 + x^-2 + x^2"
    assert repr(X - Y.smul(F(2, 3))) == "x + x^-1 - 2/3*y - 2/3*y^-1"
    assert repr(gr_mul(X, Y) - GrpRingElem.one().smul(3)) == "-3*1 + x^-1y + x^-1y^-1 + xy + xy^-1"


def test_unit_inverse():
    ops = ring_ops()
    g = GrpRingElem.word((("x", 1), ("y", 2)), F(3))
    assert ops.is_unit(g)
    assert ops.eq(ops.mul(g, ops.inv(g)), ops.one)
    X, _ = symmetric_generators()
    assert not ops.is_unit(X)
    with pytest.raises(AdapterFailure):
        ops.inv(X)
