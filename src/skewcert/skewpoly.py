"""The skew polynomial ring K[p;sigma] over K = Q(t) with a shift
automorphism sigma(t) = t - c and coefficients written on the right:
elements are sums p^i * a_i with a_i in K and a*p = p*sigma(a).

Both-sided Euclidean division, greatest common right divisors (with the
extended algorithm producing least common left multiples and cofactors) and
greatest common left divisors are provided; these realize the left Ore
condition concretely and back the fraction field in `skewfrac`.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import AutMismatch, DivisorZero, ZeroArgument
from .scalar import RF_ONE, RF_ZERO, RatFun


class ShiftAut:
    """sigma(t) = t - c.  c = 0 gives the commutative case.  Equal shifts
    compare and hash equal, so a ShiftAut keys caches such as `pjet_ring`."""

    __slots__ = ("c",)

    def __init__(self, c: Fraction):
        self.c = c

    def __eq__(self, other):
        return self is other or (other.__class__ is ShiftAut and self.c == other.c)

    def __hash__(self):
        return hash(self.c)

    def apply(self, f: RatFun, power: int = 1) -> RatFun:
        if power == 0 or not self.c:
            return f
        return f.shift(self.c * power)

    def __repr__(self):
        return f"ShiftAut(t -> t - {self.c})"


class SkewPoly:
    """Right polynomial sum_i p^i a_i; coeffs[i] is a_i, trailing zeros trimmed."""

    __slots__ = ("aut", "coeffs")

    def __init__(self, aut: ShiftAut, coeffs=()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.aut = aut
        self.coeffs = tuple(cs)

    @classmethod
    def scalar(cls, aut: ShiftAut, a) -> "SkewPoly":
        if isinstance(a, (int, Fraction)):
            a = RatFun.const(a)
        return cls(aut, (a,))

    @classmethod
    def p(cls, aut: ShiftAut, n: int = 1) -> "SkewPoly":
        return cls(aut, (RF_ZERO,) * n + (RF_ONE,))

    @classmethod
    def one(cls, aut: ShiftAut) -> "SkewPoly":
        return cls(aut, (RF_ONE,))

    @classmethod
    def zero(cls, aut: ShiftAut) -> "SkewPoly":
        return cls(aut, ())

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def lc(self) -> RatFun:
        if not self.coeffs:
            raise ValueError("zero skew polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == RF_ONE

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, SkewPoly)
            and self.aut == other.aut
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.aut, self.coeffs))

    def _check(self, other: "SkewPoly"):
        if self.aut != other.aut:
            raise AutMismatch(f"{self.aut} vs {other.aut}")

    def __add__(self, other: "SkewPoly") -> "SkewPoly":
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return SkewPoly(self.aut, out)

    def __neg__(self) -> "SkewPoly":
        return SkewPoly(self.aut, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "SkewPoly") -> "SkewPoly":
        return self + (-other)

    def __mul__(self, other: "SkewPoly") -> "SkewPoly":
        return sp_mul(self, other)

    def scale_right(self, a: RatFun) -> "SkewPoly":
        """self * a for a scalar a (coefficientwise right multiplication)."""
        return SkewPoly(self.aut, tuple(c * a for c in self.coeffs))

    def scale_left(self, a: RatFun) -> "SkewPoly":
        """a * self for a scalar a; picks up sigma powers: a p^i = p^i sigma^i(a)."""
        return SkewPoly(
            self.aut,
            tuple(self.aut.apply(a, i) * c for i, c in enumerate(self.coeffs)),
        )

    def monic_left(self) -> "SkewPoly":
        """Left-unit normalization u * self with leading right coefficient 1."""
        if not self or self.is_monic():
            return self
        u = self.aut.apply(self.lc().inv(), -self.degree)
        return self.scale_left(u)

    def to_str(self, pvar: str = "p", tvar: str = "t") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            sa = a.to_str(tvar)
            if i == 0:
                parts.append(sa)
            else:
                head = pvar if i == 1 else f"{pvar}^{i}"
                parts.append(head if sa == "1" else f"{head}*({sa})")
        return " + ".join(parts)

    def __repr__(self):
        return f"SkewPoly({self.to_str()})"


def sp_mul(f: SkewPoly, g: SkewPoly) -> SkewPoly:
    """(p^i a)(p^j b) = p^(i+j) sigma^j(a) b, extended bilinearly."""
    f._check(g)
    if not f or not g:
        return SkewPoly(f.aut, ())
    out = [RF_ZERO] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        if not a:
            continue
        for j, b in enumerate(g.coeffs):
            if not b:
                continue
            out[i + j] = out[i + j] + f.aut.apply(a, j) * b
    return SkewPoly(f.aut, out)


def sp_divmod(f: SkewPoly, g: SkewPoly, side: str) -> tuple[SkewPoly, SkewPoly]:
    """Euclidean division: side='right' gives f = q*g + r, side='left' gives
    f = g*q + r, both with deg r < deg g."""
    if not g:
        raise DivisorZero("division by zero skew polynomial")
    f._check(g)
    aut = f.aut
    n = g.degree
    glc = g.lc()
    q = [RF_ZERO] * max(0, f.degree - n + 1)
    r = f
    while r and r.degree >= n:
        d = r.degree - n
        if side == "right":
            c = aut.apply(r.lc() / glc, -n)
            term = SkewPoly(aut, (RF_ZERO,) * d + (c,))
            r = r - sp_mul(term, g)
        elif side == "left":
            c = r.lc() / aut.apply(glc, d)
            term = SkewPoly(aut, (RF_ZERO,) * d + (c,))
            r = r - sp_mul(g, term)
        else:
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        q[d] = c
    return SkewPoly(aut, q), r


def sp_gcrd_llcm(
    f: SkewPoly, g: SkewPoly
) -> tuple[SkewPoly, SkewPoly, SkewPoly, SkewPoly]:
    """Monic greatest common right divisor and least common left multiple,
    with cofactors (a, b) satisfying llcm = a*f = b*g.

    Extended Euclid with right division; remainders r = u*f + v*g, the step
    r_{i+1} = r_{i-1} - q*r_i multiplies the cofactors by q on the left.
    deg llcm = deg f + deg g - deg gcrd.
    """
    if not f or not g:
        raise ZeroArgument("gcrd/llcm of zero skew polynomial")
    f._check(g)
    aut = f.aut
    one = SkewPoly.one(aut)
    zero = SkewPoly.zero(aut)
    r_prev, r_cur = f, g
    u_prev, u_cur = one, zero
    v_prev, v_cur = zero, one
    while r_cur:
        q, r_next = sp_divmod(r_prev, r_cur, "right")
        u_next = u_prev - sp_mul(q, u_cur)
        v_next = v_prev - sp_mul(q, v_cur)
        r_prev, r_cur = r_cur, r_next
        u_prev, u_cur = u_cur, u_next
        v_prev, v_cur = v_cur, v_next
    gcrd = r_prev.monic_left()
    # u_cur*f + v_cur*g = 0, so u_cur*f = -(v_cur*g) is the llcm up to a unit
    m = sp_mul(u_cur, f)
    if not m:  # impossible for nonzero f, g in a domain
        raise ZeroArgument("degenerate llcm")
    unit = aut.apply(m.lc().inv(), -m.degree)
    a = SkewPoly.scalar(aut, unit) * u_cur
    b = -(SkewPoly.scalar(aut, unit) * v_cur)
    return gcrd, sp_mul(a, f), a, b


def sp_gcld(f: SkewPoly, g: SkewPoly) -> SkewPoly:
    """Monic greatest common left divisor, via the left-division Euclidean
    algorithm (common left divisors persist through f - g*q)."""
    if not f and not g:
        raise ZeroArgument("gcld(0, 0) undefined")
    a, b = f, g
    while b:
        a, b = b, sp_divmod(a, b, "left")[1]
    # right-unit normalization: a * lc^{-1} is monic
    return a.scale_right(a.lc().inv())
