"""Exact scalar arithmetic: rationals, dense univariate polynomials, and the
reduced rational function field Q(t).

Rational numbers are `fractions.Fraction` (already reduced, positive
denominator).  `Poly` stores coefficients lowest degree first and works over
any coefficient object supporting +, -, * and truthiness, so a two-variable
polynomial ring is obtained by nesting Poly inside Poly.  The class-3
tower's Q[n1, n2] is the Poly subclass BiPoly instead: int numerators over
one int denominator, with its own kernel (`bipoly_ops` at the end of this
module) and the nested form only as a view.  The field-level helpers
(monic, poly_gcd) assume Fraction coefficients, since int / int would give
a float.

`RatFun` stores no Polys.  An element of Q(t) is c * N / D with N and D
primitive integer coefficient lists (lowest degree first, positive leading
coefficient, coprime over Q) and c a rational content kept as a reduced
pair of ints; zero is c = 0, N = (), D = (1,).  That form is unique, so
equality and hashing are structural.  All of its arithmetic runs on Python
ints through the `_zz_*` kernels: products are convolutions, exact
quotients are divisions over Z, a gcd comes with both cofactors from the
heuristic gcd (GCDHEU: Char, Geddes and Gonnet, 1989; a candidate counts
only once it divides both inputs over Z) or else from a primitive
pseudo-remainder sequence, and the Taylor shift by u/v rescales to a shift
by 1 made of additions.  `RatFun.num` and `.den` are read-only Poly views of
the same value with Fraction coefficients and a monic denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import DivisionByZero, KernelError, LowestCoeffNotUnit, PoleAtPoint, ZeroDenominator
from .rings import RingOps

def rat(x) -> Fraction:
    """Coerce ints, 'num/den' strings and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
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

    def monic(self) -> "Poly":
        if not self:
            return self
        inv = 1 / self.lc()
        return Poly(tuple(c * inv for c in self.coeffs))

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


# -- integer kernels ------------------------------------------------------------
#
# Polynomials over Z as lists of ints, lowest degree first, no trailing zeros.
# "Primitive" means content 1 and a positive leading coefficient.


def _zz_strip(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _zz_primitive(a) -> tuple[int, list]:
    """(content, primitive part) of a nonzero integer polynomial; the
    content carries the sign of the leading coefficient."""
    g = 0
    for c in a:
        g = gcd(g, c)
        if g == 1:
            break
    if a[-1] < 0:
        g = -g
    if g == 1:
        return 1, list(a)
    return g, [c // g for c in a]


def _primitive_from_fracs(coeffs) -> tuple[int, int, list]:
    """(a, b, P) with coeffs = a/b * P, P primitive and a/b reduced, b > 0;
    coeffs are nonzero-trailing Fractions or ints."""
    den = 1
    for c in coeffs:
        d = c.denominator
        if d != 1:
            den = den // gcd(den, d) * d
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    a, prim = _zz_primitive(ints)
    g = gcd(a, den)
    return a // g, den // g, prim


def _zz_mul(a, b) -> list:
    """Product of two nonzero integer polynomials."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        c = b[0]
        return list(a) if c == 1 else [c * x for x in a]
    out = [0] * (len(a) + len(b) - 1)
    for j, y in enumerate(b):
        if y:
            for i, x in enumerate(a, j):
                out[i] += x * y
    return out


def _zz_lincomb(k1: int, a, k2: int, b) -> list:
    """k1 * a + k2 * b."""
    out = [k1 * x for x in a]
    if len(b) > len(out):
        out.extend([0] * (len(b) - len(out)))
    for i, y in enumerate(b):
        out[i] += k2 * y
    return _zz_strip(out)


def _zz_divexact(a, b):
    """a / b over Z for nonzero b, or None when b does not divide a there."""
    la, lb = len(a), len(b)
    if la < lb:
        return None if a else []
    lc = b[-1]
    if lb == 1:
        if lc == 1:
            return list(a)
        q = []
        for x in a:
            c, m = divmod(x, lc)
            if m:
                return None
            q.append(c)
        return q
    r = list(a)
    q = [0] * (la - lb + 1)
    low = b[:-1]
    for k in range(la - lb, -1, -1):
        top = r[k + lb - 1]
        if top:
            c, m = divmod(top, lc)
            if m:
                return None
            q[k] = c
            for i, y in enumerate(low, k):
                r[i] -= c * y
    return None if any(r[:lb - 1]) else q


def _zz_eval2(a, k: int) -> int:
    """a(2^k)."""
    acc = 0
    for c in reversed(a):
        acc = (acc << k) + c
    return acc


def _zz_interpolate2(h: int, k: int) -> list:
    """Digits of h in the symmetric base-2^k representation: the polynomial
    P with coefficients in [-2^(k-1), 2^(k-1)) and P(2^k) = h."""
    out = []
    mask = (1 << k) - 1
    half = 1 << (k - 1)
    while h:
        d = h & mask
        h >>= k
        if d >= half:
            d -= mask + 1
            h += 1
        out.append(d)
    return out


HEU_GCD_TRIES = 6


def _zz_heu_gcd(f, g):
    """GCDHEU: (h, f/h, g/h) for primitive f, g of positive degree, or None
    when the heuristic gives up.

    Any common factor K of f and g has its roots r below 2 + |f|/|lc f| in
    modulus (Cauchy), for f and for g.  The evaluation point x = 2^k is above
    2 min(|f| // |lc f|, |g| // |lc g|) + 4, so every root has |r| < x/2 and
    |K(x)| > x/2 once deg K > 0.  A candidate h divides both inputs only if
    h * K = gcd(f, g) for some K with K(x) dividing the content of the
    interpolated image (at most x/2) or dividing 1, which forces deg K = 0:
    a candidate that divides both inputs over Z is the greatest common
    divisor.  The scheme of sympy's dup_zz_heu_gcd, with x a power of two so
    that evaluation and interpolation are shifts and masks."""
    f_norm = max(map(abs, f))
    g_norm = max(map(abs, g))
    b = 2 * min(f_norm, g_norm) + 29
    k = max(min(b, 99 * isqrt(b)), 2 * min(f_norm // f[-1], g_norm // g[-1]) + 4).bit_length()
    for _ in range(HEU_GCD_TRIES):
        ff, gg = _zz_eval2(f, k), _zz_eval2(g, k)
        if ff and gg:
            h = gcd(ff, gg)
            cand = _zz_primitive(_zz_interpolate2(h, k))[1]
            if len(cand) == 1:
                return cand, f, g
            cf = _zz_divexact(f, cand)
            if cf is not None:
                cg = _zz_divexact(g, cand)
                if cg is not None:
                    return cand, cf, cg
            # the cofactor images give the gcd as an exact quotient
            for u, v, uu in ((f, g, ff), (g, f, gg)):
                co = _zz_interpolate2(uu // h, k)
                if co[-1] < 0:
                    co = [-c for c in co]
                cand = _zz_divexact(u, co)
                if cand is not None:
                    cv = _zz_divexact(v, cand)
                    if cv is not None:
                        return (cand, co, cv) if u is f else (cand, cv, co)
        k += k // 4 + 2  # x -> about 2.7 x^(5/4), as in sympy
    return None


def _zz_prs_gcd(f, g) -> list:
    """Primitive gcd by the primitive pseudo-remainder sequence over Z."""
    A, B = f, g
    while B:
        if len(B) == 1:
            return [1]
        # pseudo-remainder of A by B: lc(B)^(deg A - deg B + 1) A mod B
        lb = B[-1]
        R = list(A)
        while len(R) >= len(B):
            k = len(R) - len(B)
            top = R[-1]
            R = [c * lb for c in R]
            for i, bc in enumerate(B, k):
                R[i] -= top * bc
            R.pop()
            _zz_strip(R)
        A, B = B, (_zz_primitive(R)[1] if R else R)
    return _zz_primitive(A)[1]


def _zz_gcd(f, g) -> tuple[list, list, list]:
    """(h, f/h, g/h) with h the primitive gcd of primitive f and g."""
    if len(f) == 1 or len(g) == 1:
        return [1], f, g
    if f == g:
        return f, [1], [1]
    for u, v in ((f, g), (g, f)):
        if len(u) == 2:
            # a linear primitive u is the gcd exactly when it divides v
            q = _zz_divexact(v, u)
            if q is None:
                return [1], f, g
            return (u, [1], q) if u is f else (u, q, [1])
    res = _zz_heu_gcd(f, g)
    if res is None:
        h = _zz_prs_gcd(f, g)
        res = h, _zz_divexact(f, h), _zz_divexact(g, h)
    return res


def _zz_taylor_shift(f, u: int, v: int) -> list:
    """Primitive part of f(t + u/v), with v > 0.

    With n = deg f: G(s) = v^n f(u s / v) is integral, H(s) = G(s + 1) takes
    additions only, and v^n f(t + u/v) = sum_i H_i v^i / u^i t^i, where u^i
    divides H_i exactly."""
    n = len(f) - 1
    if n <= 0 or not u:
        return list(f)
    g = list(f)
    if u != 1 or v != 1:
        w = 1
        for j in range(n, -1, -1):  # w = v^(n-j) before the step
            g[j] *= w
            w *= v
        w = 1
        for j in range(n + 1):  # w = u^j
            g[j] *= w
            w *= u
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            g[j] += g[j + 1]
    if u != 1 or v != 1:
        uw = vw = 1
        for i in range(n + 1):  # uw = u^i, vw = v^i
            g[i] = g[i] // uw * vw
            uw *= u
            vw *= v
    return _zz_primitive(g)[1]


def _monic_poly(a) -> "Poly":
    lc = a[-1]
    if lc == 1:
        return Poly([Fraction(c) for c in a])
    return Poly([Fraction(c, lc) for c in a])


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over Q."""
    if not a:
        return b.monic()
    if not b:
        return a.monic()
    A = _primitive_from_fracs(a.coeffs)[2]
    B = _primitive_from_fracs(b.coeffs)[2]
    return _monic_poly(_zz_gcd(A, B)[0])


# -- Q(t) -------------------------------------------------------------------------

_ONE = (1,)


def _ratfun(cn: int, cd: int, n, d) -> "RatFun":
    r = object.__new__(RatFun)
    r._set(cn, cd, n, d)
    return r


class RatFun:
    """Reduced rational function over Q, stored as (cn/cd) * N / D (see the
    module docstring); `num`/`den` give it with a monic denominator."""

    __slots__ = ("_cn", "_cd", "_n", "_d", "_views")

    def __init__(self, num: Poly, den: Poly):
        if not den:
            raise ZeroDenominator("rational function with zero denominator")
        if not num:
            self._set(0, 1, (), _ONE)
            return
        a1, b1, n = _primitive_from_fracs(num.coeffs)
        a2, b2, d = _primitive_from_fracs(den.coeffs)
        _, n, d = _zz_gcd(n, d)
        self._set(a1 * b2, b1 * a2, n, d)

    def _set(self, cn: int, cd: int, n, d) -> None:
        """Store cn/cd * n/d for coprime primitive n, d and any nonzero cd;
        the content is reduced here."""
        if cd < 0:
            cn, cd = -cn, -cd
        g = gcd(cn, cd)
        if g != 1:
            cn //= g
            cd //= g
        self._cn = cn
        self._cd = cd
        self._n = tuple(n)
        self._d = tuple(d)
        self._views = None

    @classmethod
    def const(cls, c) -> "RatFun":
        c = rat(c)
        if not c:
            return _ratfun(0, 1, (), _ONE)
        return _ratfun(c.numerator, c.denominator, _ONE, _ONE)

    @classmethod
    def t(cls) -> "RatFun":
        return _ratfun(1, 1, (0, 1), _ONE)

    @classmethod
    def from_poly(cls, p: Poly) -> "RatFun":
        if not p:
            return RF_ZERO
        a, b, n = _primitive_from_fracs(p.coeffs)
        return _ratfun(a, b, n, _ONE)

    def _num_den(self) -> tuple[Poly, Poly]:
        if self._views is None:
            d = self._d
            lc = d[-1]
            s = Fraction(self._cn, self._cd * lc)
            self._views = (Poly([s * c for c in self._n]), _monic_poly(d))
        return self._views

    @property
    def num(self) -> Poly:
        """Numerator as a Fraction Poly, over the monic `den`."""
        return self._num_den()[0]

    @property
    def den(self) -> Poly:
        """Monic denominator as a Fraction Poly."""
        return self._num_den()[1]

    def __bool__(self) -> bool:
        return bool(self._n)

    def is_const(self) -> bool:
        return len(self._n) <= 1 and len(self._d) == 1

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            if not other:
                return not self._n
            return (len(self._n) == 1 and len(self._d) == 1
                    and self._cn == other.numerator and self._cd == other.denominator)
        return (isinstance(other, RatFun) and self._cn == other._cn and self._cd == other._cd
                and self._n == other._n and self._d == other._d)

    def __hash__(self):
        return hash((self._cn, self._cd, self._n, self._d))

    def __add__(self, other: "RatFun") -> "RatFun":
        if not self._n:
            return other
        if not other._n:
            return self
        a1, b1, n1, d1 = self._cn, self._cd, self._n, self._d
        a2, b2, n2, d2 = other._cn, other._cd, other._n, other._d
        l = b1 // gcd(b1, b2) * b2
        k1, k2 = a1 * (l // b1), a2 * (l // b2)
        if d1 == d2:
            g = d1
            s = _zz_lincomb(k1, n1, k2, n2)
            rest = _ONE
        else:
            # d1 = g e1, d2 = g e2 with e1, e2 coprime; the numerator is
            # coprime to e1 e2, so only g can cancel
            g, e1, e2 = _zz_gcd(d1, d2)
            s = _zz_lincomb(k1, _zz_mul(n1, e2), k2, _zz_mul(n2, e1))
            rest = _zz_mul(e1, e2)
        if not s:
            return RF_ZERO
        cs, s = _zz_primitive(s)
        _, s, g = _zz_gcd(s, g)
        return _ratfun(cs, l, s, _zz_mul(g, rest))

    def __neg__(self) -> "RatFun":
        return _ratfun(-self._cn, self._cd, self._n, self._d)

    def __sub__(self, other: "RatFun") -> "RatFun":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other or not self._n:
                return RF_ZERO
            return _ratfun(self._cn * other.numerator, self._cd * other.denominator,
                           self._n, self._d)
        n1, d1, n2, d2 = self._n, self._d, other._n, other._d
        if not n1 or not n2:
            return RF_ZERO
        # cross-cancel: both inputs are reduced, so the product of the
        # cross-quotients is reduced
        _, n1, d2 = _zz_gcd(n1, d2)
        _, n2, d1 = _zz_gcd(n2, d1)
        return _ratfun(self._cn * other._cn, self._cd * other._cd,
                       _zz_mul(n1, n2), _zz_mul(d1, d2))

    def __rmul__(self, other):
        return self.__mul__(other)

    def inv(self) -> "RatFun":
        if not self._n:
            raise DivisionByZero("inverse of zero rational function")
        return _ratfun(self._cd, self._cn, self._d, self._n)

    def __truediv__(self, other: "RatFun") -> "RatFun":
        if not other:
            raise DivisionByZero("division by zero rational function")
        return self * other.inv()

    def eval_mod(self, points, q: int) -> list[int]:
        """Values modulo the prime q at the residues `points`, by integer
        Horner on the coefficient lists.  PoleAtPoint when the denominator
        vanishes modulo q at a point, ZeroDenominator when the rational
        content's denominator is divisible by q."""
        if not self._cd % q:
            raise ZeroDenominator(f"content denominator {self._cd} is divisible by {q}")
        s = self._cn * pow(self._cd, -1, q) % q
        n = [c % q for c in reversed(self._n)]
        d = [c % q for c in reversed(self._d)]
        out = []
        for x in points:
            dv = 0
            for c in d:
                dv = (dv * x + c) % q
            if not dv:
                raise PoleAtPoint(f"pole at t = {x} modulo {q}")
            nv = 0
            for c in n:
                nv = (nv * x + c) % q
            out.append(s * nv * pow(dv, -1, q) % q)
        return out

    def shift(self, c: Fraction) -> "RatFun":
        """Substitute t -> t - c; a field automorphism of Q(t), so the image
        of a reduced fraction is reduced."""
        if not c or self.is_const():
            return self
        c = -c
        u, v = c.numerator, c.denominator
        n, d = self._n, self._d
        n2, d2 = _zz_taylor_shift(n, u, v), _zz_taylor_shift(d, u, v)
        # a shift keeps leading coefficients: f(t + c) = lc(f)/lc(f2) * f2
        return _ratfun(self._cn * n[-1] * d2[-1], self._cd * n2[-1] * d[-1], n2, d2)

    def deriv(self) -> "RatFun":
        n, d = self._n, self._d
        if len(n) <= 1 and len(d) == 1:
            return RF_ZERO
        dn = [i * c for i, c in enumerate(n) if i]
        dd = [i * c for i, c in enumerate(d) if i]
        s = _zz_lincomb(1, _zz_mul(dn, d) if dn else [], -1, _zz_mul(n, dd) if dd else [])
        if not s:
            return RF_ZERO
        cs, s = _zz_primitive(s)
        _, s, dsq = _zz_gcd(s, _zz_mul(d, d))
        return _ratfun(self._cn * cs, self._cd, s, dsq)

    def to_str(self, var: str = "t") -> str:
        num, den = self._num_den()
        if den.degree == 0:
            return num.to_str(var)
        return f"({num.to_str(var)})/({den.to_str(var)})"

    def __repr__(self):
        return f"RatFun({self.to_str()})"


def lcm_multiples(fs) -> list[list[Fraction]]:
    """Coefficient lists (lowest degree first) of l * f for each rational
    function f in fs, where l is the monic lcm of their denominators."""
    lcm = [1]
    for f in fs:
        lcm = _zz_mul(lcm, _zz_gcd(lcm, list(f._d))[2])
    lc = lcm[-1]
    # f = cn/cd * n/d and l = lcm/lc, so l * f = cn/(cd lc) * n * (lcm/d)
    return [[Fraction(f._cn * x, f._cd * lc) for x in _zz_mul(f._n, _zz_divexact(lcm, f._d))]
            if f._n else [] for f in fs]


RF_ZERO = RatFun.const(0)
RF_ONE = RatFun.const(1)


# -- Q[n1, n2] -----------------------------------------------------------------
#
# An element of Q[n1, n2] is a BiPoly: a positive int denominator `den` and
# `terms`, the nonzero monomials as (key, numerator) pairs in increasing key
# order, with int numerators whose gcd with den, taken over all of them, is
# 1; zero is den 1 with no terms.  A key packs a monomial's degrees into one
# int, (n2-degree << 15) | n1-degree (Monagan and Pearce, CASC 2007), so the
# key order is the (n2, n1) degree order and a product of monomials adds
# keys; every stored n1-degree is below 2**14 (_normal and _bp raise a
# KernelError past it), so that sum never carries into the n2 field.  The
# form is unique, and as with RatFun's content (von zur Gathen and Gerhard,
# Modern Computer Algebra, 6.2) the ring operations of bipoly_ops compute
# on integers alone.  A sum of products (the ops' dot) adds the numerator
# products into one dict keyed by monomial (Monagan and Pearce, ISSAC 2009)
# over one running denominator, raised to the lcm whenever a term's
# den_x * den_y does not divide it, and divides by the gcd once at the end,
# skipped when the denominator is 1; a single term times a single term is
# one int product.  To every other reader a BiPoly is a Poly in n2 over
# Polys in n1: `.coeffs` builds that nested view on each read, with int
# scalars when integral and Fractions otherwise, so repr, == and hash agree
# with a nested Poly built generically.  The kernel takes BiPolys alone:
# +, - and * on a BiPoly are the kernel's, and read a nested Poly operand
# into the form there.


class BiPoly(Poly):
    """An element of Q[n1, n2] in the integer form above."""

    __slots__ = ("den", "terms")

    @property
    def coeffs(self) -> tuple:
        """The nested view, built on each read."""
        rows: list = []
        den = self.den
        for key, c in self.terms:
            i, j = key >> 15, key & _N1_MASK
            rows += [[] for _ in range(i + 1 - len(rows))]
            row = rows[i]
            row += [0] * (j - len(row))
            q = Fraction(c, den)
            row.append(q if q.denominator != 1 else q.numerator)
        return tuple([_wrap(tuple(r)) for r in rows])

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other):
        return _bp_add(self, _bp(other))

    def __neg__(self):
        return _bp_neg(self)

    def __mul__(self, other):
        return _bp_mul(self, _bp(other)) if isinstance(other, Poly) else _bp_scale(other, self)

    __radd__, __rmul__ = __add__, __mul__


_new_poly = Poly.__new__


def _wrap(cs: tuple) -> Poly:
    """A Poly around a coefficient tuple that has no trailing zero."""
    p = _new_poly(Poly)
    p.coeffs = cs
    return p


def _bipoly(den: int, terms: tuple) -> BiPoly:
    p = _new_poly(BiPoly)
    p.den = den
    p.terms = terms
    return p


_ZERO = _bipoly(1, ())
_FRACTION_ZERO = Fraction(0)
_N1_MASK = (1 << 15) - 1
_N1_LIMIT = 1 << 14  # the smallest n1-degree a stored BiPoly may not hold
_N1_ERROR = "n1-degree 2**14 or more in Q[n1, n2]"


def _bp(p) -> BiPoly:
    """p in the integer form; a nested Poly is read into it.  The lcm of
    reduced denominators is coprime to the numerators as a whole."""
    if type(p) is BiPoly:
        return p
    if any(len(row.coeffs) > _N1_LIMIT for row in p.coeffs):
        raise KernelError(_N1_ERROR)
    cs = [((i << 15) | j, c) for i, row in enumerate(p.coeffs) for j, c in enumerate(row.coeffs) if c]
    den = lcm(*[c.denominator for _, c in cs])
    return _bipoly(den, tuple([(k, c.numerator * (den // c.denominator)) for k, c in cs]))


def _normal(den: int, acc: dict) -> BiPoly:
    """The BiPoly with numerators acc (keyed by monomial) over den > 0; the
    keys sum at most two legal n1-degrees, so the field cannot carry."""
    if len(acc) == 1:
        (key, c), = acc.items()
        if key & _N1_LIMIT:
            raise KernelError(_N1_ERROR)
        g = gcd(c, den)
        return _bipoly(den // g, ((key, c // g),)) if c else _ZERO
    if any(key & _N1_LIMIT for key in acc):
        raise KernelError(_N1_ERROR)
    g = gcd(den, *acc.values()) if den != 1 else 1
    if g != 1:
        den //= g
        items = [(k, c // g) for k, c in acc.items() if c]
    else:
        items = [kc for kc in acc.items() if kc[1]]
    items.sort()
    return _bipoly(den, tuple(items))


def _bp_add(a: BiPoly, b: BiPoly) -> BiPoly:
    if not b.terms:
        return a
    if not a.terms:
        return b
    da, db = a.den, b.den
    den = lcm(da, db)
    fa, fb = den // da, den // db
    acc = dict(a.terms) if fa == 1 else {k: c * fa for k, c in a.terms}
    get = acc.get
    for k, c in b.terms:
        acc[k] = get(k, 0) + c * fb
    return _normal(den, acc)


def _bp_neg(a: BiPoly) -> BiPoly:
    return _bipoly(a.den, tuple([(k, -c) for k, c in a.terms]))


def _bp_scale(q, a: BiPoly) -> BiPoly:
    """q * a for an int or Fraction q."""
    n = q.numerator
    return _normal(q.denominator * a.den, {k: n * c for k, c in a.terms})


def _bp_dot(terms) -> BiPoly:
    """sum kappa*x*y over (kappa, x, y) in one pass: the numerators are kept
    over one denominator, raised to the lcm when a term's den_x * den_y
    does not divide it."""
    acc: dict = {}
    get = acc.get
    den = 1
    for kap, x, y in terms:
        X, Y = x.terms, y.terms
        if not X or not Y:
            continue
        d = x.den * y.den
        if den % d:
            r = d // gcd(den, d)
            den *= r
            for key in acc:
                acc[key] *= r
        if d != den:
            kap *= den // d
        if len(X) == 1 and len(Y) == 1:
            (p, a), (q, b) = X[0], Y[0]
            key = p + q
            acc[key] = get(key, 0) + kap * a * b
            continue
        for p, a in X:
            a *= kap
            for q, b in Y:
                key = p + q
                acc[key] = get(key, 0) + a * b
    return _normal(den, acc)


def _bp_mul(a: BiPoly, b: BiPoly) -> BiPoly:
    return _bp_dot(((1, a, b),))


def bipoly_const(q) -> BiPoly:
    """Constant of Q[n1, n2]."""
    q = Fraction(q)
    return _bipoly(q.denominator, ((0, q.numerator),)) if q else _ZERO


def bipoly_n1() -> BiPoly:
    """The generator n1, the inner variable of the nested view."""
    return _bipoly(1, ((1, 1),))


def bipoly_n2() -> BiPoly:
    """The generator n2, the outer variable of the nested view."""
    return _bipoly(1, ((1 << 15, 1),))


def bipoly_eps(f: BiPoly) -> Fraction:
    """Augmentation of Q[n1, n2]: the constant-constant coefficient, always
    a Fraction (it feeds Q((t_z)), whose inverse divides)."""
    T = f.terms
    return Fraction(T[0][1], f.den) if T and T[0][0] == 0 else _FRACTION_ZERO


def bipoly_ops() -> RingOps:
    """Q[n1, n2] through the kernel above; the units are the nonzero
    constants."""

    def is_unit(f: BiPoly) -> bool:
        T = f.terms
        return len(T) == 1 and T[0][0] == 0

    def inv(f: BiPoly) -> BiPoly:
        if not is_unit(f):
            raise LowestCoeffNotUnit("nonconstant polynomial is not a unit", f)
        c = f.terms[0][1]
        return _bipoly(abs(c), ((0, f.den if c > 0 else -f.den),))

    return RingOps(
        name="Q[n1,n2]",
        zero=_ZERO,
        one=bipoly_const(1),
        add=_bp_add,
        neg=_bp_neg,
        mul=_bp_mul,
        smul=_bp_scale,
        inv=inv,
        is_unit=is_unit,
        dot=_bp_dot,
    )
