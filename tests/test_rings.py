"""The RingOps contract: `add`, `neg`, `mul` and `is_zero` default to the
elements' own operators and `exact_zero` to `is_zero`, every ring table
keeps them, and `replace` copies a table."""

from fractions import Fraction as F

import pytest

from skewcert import groupring, skewfrac
from skewcert.pbw import heisenberg, uelem_ring_ops
from skewcert.scalar import Poly, RatFun, bipoly_const, bipoly_n1, bipoly_n2, bipoly_ops
from skewcert.series import fraction_ops
from skewcert.skewfrac import ShiftAut, SkewFrac, ratfun_ops

AUT = ShiftAut(F(1))
H = heisenberg()


def _samples(name):
    """(ops, a, b) with a and b two nonzero elements of the ring."""
    if name == "Q":
        return fraction_ops(), F(3, 2), F(-1, 3)
    if name == "Q(t)":
        return ratfun_ops(), RatFun.t(), RatFun(Poly([F(1), F(2)]), Poly([F(3), F(0), F(1)]))
    if name == "K(p;sigma)":
        t = SkewFrac.from_ratfun(AUT, RatFun.t())
        return skewfrac.ring_ops(AUT), SkewFrac.p(AUT), t + SkewFrac.one(AUT)
    if name == "Q[F2]":
        return (groupring.ring_ops(), *groupring.symmetric_generators())
    if name == "U(L)":
        return uelem_ring_ops(H), H.gen("x"), H.gen("y") + H.one()
    return bipoly_ops(), bipoly_n1(), bipoly_const(3) + bipoly_n2()


@pytest.mark.parametrize("name", ["Q", "Q(t)", "K(p;sigma)", "Q[F2]", "U(L)", "Q[n1,n2]"])
def test_ring_tables_agree_with_element_operators(name):
    ops, a, b = _samples(name)
    assert ops.add(a, b) == a + b
    assert ops.neg(a) == -a
    assert ops.mul(a, b) == a * b and ops.mul(b, a) == b * a
    for x in (a, b, ops.zero, ops.one, ops.sub(a, a)):
        assert ops.is_zero(x) == (not x)
    assert ops.is_zero(ops.zero)
    assert not ops.is_zero(ops.one)
    # no element of these rings hides a truncation, so known zero is exact zero
    assert ops.exact_zero is ops.is_zero


def test_skew_field_inverse_is_looked_up_at_call_time(monkeypatch):
    # the benchmark's SkewFrac.inv span rebinds the class attribute, so the
    # table must reach it through the element, not hold the old function
    calls = []
    real = SkewFrac.inv
    monkeypatch.setattr(SkewFrac, "inv", lambda self: calls.append(self) or real(self))
    ops = skewfrac.ring_ops(AUT)
    a = SkewFrac.p(AUT)
    assert ops.inv(a) == real(a)
    assert calls == [a]


def test_replace_copies_the_table_with_the_named_fields_swapped():
    ops = fraction_ops()
    swapped = ops.replace(mul=lambda a, b: b * a, dot=len)
    assert (swapped.mul(F(2), F(3)), swapped.dot([1, 2])) == (F(6), 2)
    assert ops.dot is None and ops.mul is not swapped.mul
    assert all(getattr(swapped, k) is getattr(ops, k)
               for k in type(ops).__slots__ if k not in ("mul", "dot"))
    with pytest.raises(TypeError):
        ops.replace(div=None)


def test_equal_shifts_are_one_cache_key():
    assert ShiftAut(F(1)) == ShiftAut(F(2, 2)) and ShiftAut(F(1)) != ShiftAut(F(2))
    assert len({ShiftAut(F(1)), ShiftAut(F(1)), ShiftAut(F(0))}) == 2
    assert skewfrac.pjet_ring(ShiftAut(F(1)), 8) is skewfrac.pjet_ring(ShiftAut(F(1)), 8)
