"""Exact scalar arithmetic: rationals, dense univariate polynomials, and the
reduced rational function field Q(t).

Rational numbers are `fractions.Fraction` (already reduced, positive
denominator).  `Poly` stores coefficients lowest degree first and works over
any coefficient object supporting +, -, * and truthiness, so a two-variable
polynomial ring is obtained by nesting Poly inside Poly.  The field-level
helpers (divmod, gcd, inverse, evaluation at a rational point) assume
Fraction coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import DivisionByZero, PoleAtPoint, ZeroDenominator

Rational = Fraction


def rat(x) -> Fraction:
    """Coerce ints, 'num/den' strings and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational")


class Poly:
    """Dense univariate polynomial, lowest degree first, no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c) -> "Poly":
        return cls((c,))

    @classmethod
    def t(cls) -> "Poly":
        return cls((Fraction(0), Fraction(1)))

    @property
    def degree(self) -> int:
        # zero polynomial has degree -1 by convention
        return len(self.coeffs) - 1

    def lc(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        if not self or not other:
            return Poly()
        a, b = self.coeffs, other.coeffs
        if len(a) == 1:
            return Poly([a[0] * c for c in b])
        if len(b) == 1:
            return Poly([c * b[0] for c in a])
        out = [None] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                if not cb:
                    continue
                p = ca * cb
                out[i + j] = p if out[i + j] is None else out[i + j] + p
        zero = a[0] * 0
        return Poly([zero if c is None else c for c in out])

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "Poly":
        if not c:
            return Poly()
        return Poly([c * a for a in self.coeffs])

    # -- field-coefficient helpers (Fraction level) --

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if not other:
            raise DivisionByZero("polynomial division by zero")
        q = [Fraction(0)] * max(0, len(self.coeffs) - len(other.coeffs) + 1)
        rem = list(self.coeffs)
        dlc = other.lc()
        dd = other.degree
        while len(rem) - 1 >= dd and any(rem):
            while rem and not rem[-1]:
                rem.pop()
            if len(rem) - 1 < dd:
                break
            k = len(rem) - 1 - dd
            c = rem[-1] / dlc
            q[k] = c
            for i, b in enumerate(other.coeffs):
                rem[k + i] -= c * b
            rem.pop()
        return Poly(q), Poly(rem)

    def monic(self) -> "Poly":
        if not self:
            return self
        inv = 1 / self.lc()
        return Poly(tuple(c * inv for c in self.coeffs))

    def eval(self, point: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def compose(self, inner: "Poly") -> "Poly":
        acc = Poly()
        for c in reversed(self.coeffs):
            acc = acc * inner + Poly.const(c)
        return acc

    def taylor_shift(self, c) -> "Poly":
        """Substitute t -> t + c (synthetic-division form of compose)."""
        if not self or not c:
            return self
        a = list(self.coeffs)
        n = len(a)
        for i in range(1, n):
            for j in range(n - 1, i - 1, -1):
                a[j - 1] = a[j - 1] + c * a[j]
        return Poly(a)

    def deriv(self) -> "Poly":
        return Poly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def to_str(self, var: str = "t") -> str:
        if not self:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                head = var if i == 1 else f"{var}^{i}"
                if c == 1:
                    parts.append(head)
                elif c == -1:
                    parts.append(f"-{head}")
                else:
                    parts.append(f"{c}*{head}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"Poly({self.to_str()})"


def _int_primitive(coeffs: list) -> list:
    """Integer coefficient list divided by its content."""
    g = 0
    for c in coeffs:
        g = gcd(g, c)
        if g == 1:
            return coeffs
    return [c // g for c in coeffs] if g else coeffs


def _to_primitive_int(p: Poly) -> list:
    den = 1
    for c in p.coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in p.coeffs]
    return _int_primitive(ints)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over Q via a primitive pseudo-remainder sequence over Z
    (naive rational Euclid blows up coefficient sizes at the degrees the
    certifications reach)."""
    if not a:
        return b.monic()
    if not b:
        return a.monic()
    A = _to_primitive_int(a)
    B = _to_primitive_int(b)
    while B:
        if len(B) == 1:
            return Poly((Fraction(1),))
        # pseudo-remainder of A by B: lc(B)^(deg A - deg B + 1) A mod B
        lb = B[-1]
        R = list(A)
        k = len(R) - len(B)
        while len(R) >= len(B) and any(R):
            while R and R[-1] == 0:
                R.pop()
            if len(R) < len(B):
                break
            k = len(R) - len(B)
            top = R[-1]
            R = [c * lb for c in R]
            for i, bc in enumerate(B):
                R[k + i] -= top * bc
            R.pop()
        while R and R[-1] == 0:
            R.pop()
        A, B = B, _int_primitive(R)
    return Poly(tuple(Fraction(c) for c in A)).monic()


def poly_lcm(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return Poly()
    g = poly_gcd(a, b)
    return (a * b.divmod(g)[0]).monic()


class RatFun:
    """Reduced rational function over Q: monic denominator, gcd(num, den) = 1."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly, _reduced: bool = False):
        if not den:
            raise ZeroDenominator("rational function with zero denominator")
        if not _reduced:
            if not num:
                den = Poly.const(Fraction(1))
            else:
                g = poly_gcd(num, den)
                if g.degree > 0:
                    num = num.divmod(g)[0]
                    den = den.divmod(g)[0]
                lc = den.lc()
                if lc != 1:
                    inv = 1 / lc
                    num = num.scale(inv)
                    den = den.scale(inv)
        self.num = num
        self.den = den

    @classmethod
    def const(cls, c) -> "RatFun":
        c = rat(c)
        return cls(Poly.const(c), Poly.const(Fraction(1)), _reduced=True)

    @classmethod
    def t(cls) -> "RatFun":
        return cls(Poly.t(), Poly.const(Fraction(1)), _reduced=True)

    @classmethod
    def from_poly(cls, p: Poly) -> "RatFun":
        return cls(p, Poly.const(Fraction(1)), _reduced=True)

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_const(self) -> bool:
        return self.num.degree <= 0 and self.den.degree == 0

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RatFun.const(other)
        return isinstance(other, RatFun) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other: "RatFun") -> "RatFun":
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if not n1:
            return other
        if not n2:
            return self
        g = poly_gcd(d1, d2)
        if g.degree <= 0:
            # coprime denominators: the sum is already reduced and monic
            num = n1 * d2 + n2 * d1
            if not num:
                return RF_ZERO
            return RatFun(num, d1 * d2, _reduced=True)
        t2 = d2.divmod(g)[0]
        num = n1 * t2 + n2 * d1.divmod(g)[0]
        if not num:
            return RF_ZERO
        g2 = poly_gcd(num, g)
        if g2.degree > 0:
            num = num.divmod(g2)[0]
            den = d1.divmod(g2)[0] * t2
        else:
            den = d1 * t2
        lc = den.lc()
        if lc != 1:
            inv = 1 / lc
            num = num.scale(inv)
            den = den.scale(inv)
        return RatFun(num, den, _reduced=True)

    def __neg__(self) -> "RatFun":
        return RatFun(-self.num, self.den, _reduced=True)

    def __sub__(self, other: "RatFun") -> "RatFun":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RatFun(self.num.scale(rat(other)), self.den)
        # cross-cancel first: both inputs are reduced, so the product of the
        # cross-quotients is already reduced up to denominator normalization
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if not n1 or not n2:
            return RF_ZERO
        g1 = poly_gcd(n1, d2)
        if g1.degree > 0:
            n1 = n1.divmod(g1)[0]
            d2 = d2.divmod(g1)[0]
        g2 = poly_gcd(n2, d1)
        if g2.degree > 0:
            n2 = n2.divmod(g2)[0]
            d1 = d1.divmod(g2)[0]
        num = n1 * n2
        den = d1 * d2
        lc = den.lc()
        if lc != 1:
            inv = 1 / lc
            num = num.scale(inv)
            den = den.scale(inv)
        return RatFun(num, den, _reduced=True)

    def __rmul__(self, other):
        return self.__mul__(other)

    def inv(self) -> "RatFun":
        if not self.num:
            raise DivisionByZero("inverse of zero rational function")
        return RatFun(self.den, self.num)

    def __truediv__(self, other: "RatFun") -> "RatFun":
        if not other:
            raise DivisionByZero("division by zero rational function")
        return self * other.inv()

    def eval(self, point: Fraction) -> Fraction:
        d = self.den.eval(point)
        if d == 0:
            raise PoleAtPoint(f"pole at t = {point}")
        return self.num.eval(point) / d

    def shift(self, c: Fraction) -> "RatFun":
        """Substitute t -> t - c; a field automorphism of Q(t), so the image
        of a reduced fraction is reduced (and the denominator stays monic)."""
        if not c or self.is_const():
            return self
        return RatFun(self.num.taylor_shift(-c), self.den.taylor_shift(-c), _reduced=True)

    def deriv(self) -> "RatFun":
        return RatFun(
            self.num.deriv() * self.den - self.num * self.den.deriv(),
            self.den * self.den,
        )

    def to_str(self, var: str = "t") -> str:
        if self.den.degree == 0:
            return self.num.to_str(var)
        return f"({self.num.to_str(var)})/({self.den.to_str(var)})"

    def __repr__(self):
        return f"RatFun({self.to_str()})"


RF_ZERO = RatFun.const(0)
RF_ONE = RatFun.const(1)
