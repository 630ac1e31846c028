"""The Q[F2] product kernel against an independent oracle, and the integer
coefficient path it relies on."""

from fractions import Fraction as F

from hypothesis import given
from hypothesis import strategies as st

from skewcert import freecert
from skewcert.groupring import (
    GrpRingElem,
    gr_mul,
    join,
    reduce_word,
    ring_ops,
    symmetric_generators,
)

EXPONENTS = st.integers(1, 3).flatmap(lambda e: st.sampled_from((e, -e)))


@st.composite
def reduced_words(draw, max_syllables=5):
    """Reduced syllable tuples: alternating generators, exponents in ±1..±3."""
    n = draw(st.integers(0, max_syllables))
    g = draw(st.sampled_from("xy"))
    letters = []
    for _ in range(n):
        letters.append((g, draw(EXPONENTS)))
        g = "y" if g == "x" else "x"
    return tuple(letters)


@st.composite
def meeting_pairs(draw):
    """(a, b) where b begins with the inverse of a's last k syllables, then
    perhaps a merge syllable, then a free tail: full cancellation, cancellation
    across several syllables and exponent merges all occur."""
    a = draw(reduced_words())
    k = draw(st.integers(0, len(a)))
    undo = tuple((g, -e) for g, e in reversed(a[len(a) - k:]))
    merge = ()
    if k < len(a) and draw(st.booleans()):
        merge = ((a[len(a) - k - 1][0], draw(EXPONENTS)),)
    b = reduce_word(undo + merge + draw(reduced_words()))
    return a, b


COEFFS = st.one_of(
    st.integers(-4, 4),
    st.builds(F, st.integers(-6, 6), st.integers(1, 5)),
)


@st.composite
def elements(draw):
    """Elements with mixed int and Fraction coefficients; the words share
    prefixes and suffixes so products collide and cancel."""
    base = draw(meeting_pairs())
    words = [base[0], base[1]] + draw(st.lists(reduced_words(3), max_size=3))
    return GrpRingElem({w: draw(COEFFS) for w in words})


def reference_product(a, b):
    """Concatenate, reduce the whole word, accumulate in Fractions."""
    out = {}
    for wa, ca in a.terms.items():
        for wb, cb in b.terms.items():
            w = reduce_word(wa + wb)
            out[w] = out.get(w, F(0)) + F(ca) * F(cb)
    return {w: c for w, c in out.items() if c}


def assert_reduced(w):
    assert all(e for _, e in w)
    assert all(g != h for (g, _), (h, _) in zip(w, w[1:]))


@given(meeting_pairs())
def test_word_join_matches_full_reduction(pair):
    a, b = pair
    w = join(a, b)
    assert w == reduce_word(a + b)
    assert_reduced(w)


@given(elements(), elements())
def test_product_matches_the_reference(a, b):
    prod = gr_mul(a, b)
    assert prod.terms == reference_product(a, b)
    for w, c in prod.terms.items():
        assert c and type(c) in (int, F)
        assert_reduced(w)


def test_junction_cases():
    x2y = (("x", 2), ("y", -1))
    one = GrpRingElem.one()
    # full cancellation
    y_x2 = (("y", 1), ("x", -2))
    assert gr_mul(GrpRingElem.word(x2y, 3), GrpRingElem.word(y_x2, F(1, 3))) == one
    # cancellation across several syllables, then a merge
    w = (("x", 1), ("y", 2), ("x", -3))
    v = (("x", 3), ("y", -2), ("x", 4), ("y", 1))
    assert join(w, v) == (("x", 5), ("y", 1))
    # an exponent merge: x^2 * x^-1 = x
    assert join((("x", 2),), (("x", -1),)) == (("x", 1),)
    # cancelling coefficients leave no zero term
    x = GrpRingElem.word((("x", 1),))
    assert gr_mul(x + one, x - one) == gr_mul(x, x) - one


def test_unit_inverses_hold_no_float():
    ops = ring_ops()
    (c,) = ops.inv(ops.one).terms.values()
    assert (type(c), c) == (int, 1)
    for c in (1, -1, 3, -2, F(2, 3)):
        g = GrpRingElem.word((("x", 1), ("y", 2)), c)
        inv = ops.inv(g)
        assert all(type(v) in (int, F) for v in inv.terms.values())
        assert ops.eq(ops.mul(g, inv), ops.one)
        assert ops.eq(ops.mul(inv, g), ops.one)


def test_integer_path_stays_integer():
    ops = ring_ops()
    assert [type(c) for c in ops.one.terms.values()] == [int]
    words = freecert.enumerate_words(2, 5, False)
    values = freecert.evaluate_words(list(symmetric_generators()), ops, words, "monoid")
    assert len(values) == 63
    assert all(type(c) is int for v in values for c in v.terms.values())


def test_rationals_enter_only_when_non_integral():
    w = (("y", -1),)
    assert type(GrpRingElem.word(w).terms[w]) is int
    assert type(GrpRingElem.word(w, F(4, 2)).terms[w]) is int
    assert GrpRingElem.word(w, F(2, 3)).terms[w] == F(2, 3)
    X, _ = symmetric_generators()
    assert all(type(c) is int for c in X.smul(F(6, 3)).terms.values())
    half = X.smul(F(1, 2))
    assert all(c == F(1, 2) for c in half.terms.values())
    assert gr_mul(half, X.smul(2)) == gr_mul(X, X)
