"""The skew rational function field K(p;sigma) as canonical left fractions
den^{-1} * num, plus the orbit test behind Cauchon's construction and the
explicit generators used throughout the certifications.

Canonical form: monic denominator, no common left divisor of positive
degree.  Equality is structural equality of canonical forms.

Two series expansions of K(p;sigma) are provided:

* `PJet` — truncated Laurent series in p with Q(t) coefficients and the
  automorphism crossing a*p = p*sigma(a).  This is the cheap path used as a
  pre-filter in freeness runs and as an independent arithmetic cross-oracle.
* `weyl_jet_ring`/`sf_to_weyl_jet` — the differential-operator model: p maps
  to the inverse series variable and t to (that) * X over the coefficient
  field Q(X) with derivation -d/dX, giving an expansion inside the
  derivation-twisted series rings of the `series` module.
"""

from __future__ import annotations

from fractions import Fraction

from . import series
from .errors import AutMismatch, HypothesisViolation, InvertZero
from .rings import RingOps
from .scalar import RF_ONE, RF_ZERO, Poly, RatFun, rat
from .skewpoly import ShiftAut, SkewPoly, sp_divmod, sp_gcld, sp_gcrd_llcm, sp_mul


class SkewFrac:
    """Canonical left fraction den^{-1} * num over K[p;sigma]."""

    __slots__ = ("den", "num")

    def __init__(self, den: SkewPoly, num: SkewPoly, _canonical: bool = False):
        if not _canonical:
            den, num = _canonicalize(den, num)
        self.den = den
        self.num = num

    # -- constructors --

    @classmethod
    def from_poly(cls, n: SkewPoly) -> "SkewFrac":
        return cls(SkewPoly.one(n.aut), n, _canonical=True)

    @classmethod
    def from_ratfun(cls, aut: ShiftAut, f: RatFun) -> "SkewFrac":
        return cls.from_poly(SkewPoly.scalar(aut, f))

    @classmethod
    def scalar(cls, aut: ShiftAut, c) -> "SkewFrac":
        return cls.from_ratfun(aut, RatFun.const(c) if isinstance(c, (int, Fraction)) else c)

    @classmethod
    def p(cls, aut: ShiftAut, n: int = 1) -> "SkewFrac":
        return cls.from_poly(SkewPoly.p(aut, n))

    @classmethod
    def zero(cls, aut: ShiftAut) -> "SkewFrac":
        return cls.from_poly(SkewPoly.zero(aut))

    @classmethod
    def one(cls, aut: ShiftAut) -> "SkewFrac":
        return cls.from_poly(SkewPoly.one(aut))

    # -- structure --

    @property
    def aut(self) -> ShiftAut:
        return self.den.aut

    def __bool__(self):
        return bool(self.num)

    def is_scalar(self) -> bool:
        return self.den.degree == 0 and self.num.degree <= 0

    def as_ratfun(self) -> RatFun:
        if not self.is_scalar():
            raise ValueError("not an element of the base field")
        return self.num.coeffs[0] if self.num else RF_ZERO

    def __eq__(self, other):
        return (
            isinstance(other, SkewFrac)
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.den, self.num))

    # -- arithmetic --

    def _check(self, other: "SkewFrac"):
        if self.aut != other.aut:
            raise AutMismatch(f"{self.aut} vs {other.aut}")

    def __add__(self, other: "SkewFrac") -> "SkewFrac":
        self._check(other)
        if not self:
            return other
        if not other:
            return self
        _, m, c1, c2 = sp_gcrd_llcm(self.den, other.den)
        return SkewFrac(m, sp_mul(c1, self.num) + sp_mul(c2, other.num))

    def __neg__(self) -> "SkewFrac":
        return SkewFrac(self.den, -self.num, _canonical=True)

    def __sub__(self, other: "SkewFrac") -> "SkewFrac":
        return self + (-other)

    def __mul__(self, other: "SkewFrac") -> "SkewFrac":
        # d1^-1 n1 * d2^-1 n2 = (a d1)^-1 (b n2) where a n1 = b d2 = llcm
        self._check(other)
        if not self or not other:
            return SkewFrac.zero(self.aut)
        if other.den.degree == 0:
            return SkewFrac(self.den, sp_mul(self.num, other.num))
        _, _, a, b = sp_gcrd_llcm(self.num, other.den)
        return SkewFrac(sp_mul(a, self.den), sp_mul(b, other.num))

    def inv(self) -> "SkewFrac":
        if not self:
            raise InvertZero("inverse of zero")
        return SkewFrac(self.num, self.den)

    def __truediv__(self, other: "SkewFrac") -> "SkewFrac":
        return self * other.inv()

    def __repr__(self):
        if self.den.degree == 0:
            return f"SkewFrac({self.num.to_str()})"
        return f"SkewFrac(({self.den.to_str()})^-1 * ({self.num.to_str()}))"


def _canonicalize(den: SkewPoly, num: SkewPoly) -> tuple[SkewPoly, SkewPoly]:
    if not den:
        raise InvertZero("fraction with zero denominator")
    aut = den.aut
    if not num:
        return SkewPoly.one(aut), SkewPoly.zero(aut)
    g = sp_gcld(den, num)
    if g.degree > 0:
        den_q, r1 = sp_divmod(den, g, "left")
        num_q, r2 = sp_divmod(num, g, "left")
        if r1 or r2:
            raise AssertionError("gcld does not divide exactly")
        den, num = den_q, num_q
    if not den.is_monic():
        u = aut.apply(den.lc().inv(), -den.degree)
        scal = SkewPoly.scalar(aut, u)
        den = sp_mul(scal, den)
        num = sp_mul(scal, num)
    return den, num


def sf_eq_cross(a: SkewFrac, b: SkewFrac) -> bool:
    """Cross-llcm equality test, independent of canonical forms (oracle)."""
    a._check(b)
    if not a or not b:
        return (not a) and (not b)
    _, _, c1, c2 = sp_gcrd_llcm(a.den, b.den)
    return sp_mul(c1, a.num) == sp_mul(c2, b.num)


def ring_ops(aut: ShiftAut) -> RingOps:
    return RingOps(
        name=f"K(p;sigma), sigma(t)=t-{aut.c}",
        zero=SkewFrac.zero(aut),
        one=SkewFrac.one(aut),
        add=lambda a, b: a + b,
        neg=lambda a: -a,
        mul=lambda a, b: a * b,
        smul=lambda q, a: SkewFrac.scalar(aut, q) * a,
        is_zero=lambda a: not a,
        inv=lambda a: a.inv(),
        is_unit=lambda a: bool(a),
    )


# -- orbit test and explicit elements ----------------------------------------


def orbit_distinct(alpha, beta, c) -> bool:
    """For the homography h(z) = z - c: both orbits infinite and different.

    Infinite iff c != 0; different iff (alpha - beta)/c is not an integer.
    """
    alpha, beta, c = rat(alpha), rat(beta), rat(c)
    if c == 0:
        return False
    return ((alpha - beta) / c).denominator != 1


def cauchon_pair(c, alpha, beta, k: int = 1) -> tuple[SkewFrac, SkewFrac]:
    """s = (t-alpha)(t-beta)^{-1} and u = (1-p^k)(1+p^k)^{-1} in K(p;sigma)
    with sigma(t) = t - c.

    Running the orbit argument in K[p^k;sigma^k] needs distinct infinite
    orbits of alpha and beta under z -> z - k*c; HypothesisViolation otherwise.
    """
    alpha, beta, c = rat(alpha), rat(beta), rat(c)
    if not orbit_distinct(alpha, beta, k * c):
        raise HypothesisViolation(
            f"orbits of {alpha} and {beta} under z -> z - {k * c} are not infinite and distinct")
    aut = ShiftAut(c)
    t = RatFun.t()
    s = SkewFrac.from_ratfun(aut, (t - RatFun.const(alpha)) / (t - RatFun.const(beta)))
    one = SkewPoly.one(aut)
    pk = SkewPoly.p(aut, k)
    u = SkewFrac.from_poly(one - pk) * SkewFrac.from_poly(one + pk).inv()
    return s, u


def cauchon_generators(alpha, beta, c) -> tuple[SkewFrac, SkewFrac, SkewFrac, SkewFrac]:
    """(s, u, xi, eta) with xi = s, eta = u s u^{-1} for k = 1."""
    s, u = cauchon_pair(c, alpha, beta)
    return s, u, s, u * s * u.inv()


def symmetric_images(c, alpha, beta, k: int = 1) -> tuple[SkewFrac, SkewFrac]:
    """Sbar = s + s^{-1} and Tbar = u * Sbar * u^{-1} for `cauchon_pair`."""
    s, u = cauchon_pair(c, alpha, beta, k)
    sbar = s + s.inv()
    return sbar, u * sbar * u.inv()


# (c, alpha, beta, k) of the two paper presets.  The two-dimensional case is
# the same constructor with roles renamed: base field Q(e), skew variable f,
# sigma(e) = e + 1, s = (e - 1/3)(e + 1/3)^{-1} and u = (1 - f)(1 + f)^{-1}.
HEISENBERG_CONSTRUCTION = (Fraction(1), Fraction(5, 6), Fraction(1, 6), 2)
TWODIM_CONSTRUCTION = (Fraction(-1), Fraction(1, 3), Fraction(-1, 3), 1)
TWODIM_AUT = ShiftAut(TWODIM_CONSTRUCTION[0])


def build_heisenberg_images() -> tuple[SkewFrac, SkewFrac]:
    return symmetric_images(*HEISENBERG_CONSTRUCTION)


def build_twodim_images() -> tuple[SkewFrac, SkewFrac]:
    return symmetric_images(*TWODIM_CONSTRUCTION)


# -- sigma-twisted jets (fast expansion of K(p;sigma)) ------------------------


class PJet:
    """Truncated Laurent series sum_{i >= min_ord} p^i a_i + O(p^trunc) with
    a_i in Q(t) and the crossing a*p = p*sigma(a).  Exact modulo p^trunc."""

    __slots__ = ("aut", "coeffs", "trunc")

    def __init__(self, aut: ShiftAut, coeffs: dict, trunc: int):
        self.aut = aut
        self.coeffs = {i: a for i, a in coeffs.items() if a and i < trunc}
        self.trunc = trunc

    @property
    def min_ord(self) -> int:
        return min(self.coeffs) if self.coeffs else self.trunc

    def _check(self, other: "PJet"):
        if self.aut != other.aut:
            raise AutMismatch(f"{self.aut} vs {other.aut}")

    def __add__(self, other: "PJet") -> "PJet":
        self._check(other)
        out = dict(self.coeffs)
        for i, a in other.coeffs.items():
            out[i] = out.get(i, RF_ZERO) + a
        return PJet(self.aut, out, min(self.trunc, other.trunc))

    def __neg__(self) -> "PJet":
        return PJet(self.aut, {i: -a for i, a in self.coeffs.items()}, self.trunc)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "PJet") -> "PJet":
        self._check(other)
        if not self.coeffs or not other.coeffs:
            return PJet(self.aut, {}, min(self.trunc + other.min_ord, other.trunc + self.min_ord))
        trunc = min(self.trunc + other.min_ord, other.trunc + self.min_ord)
        out: dict = {}
        for i, a in self.coeffs.items():
            for j, b in other.coeffs.items():
                k = i + j
                if k >= trunc:
                    continue
                c = self.aut.apply(a, j) * b
                out[k] = out.get(k, RF_ZERO) + c
        return PJet(self.aut, out, trunc)

    def smul(self, q) -> "PJet":
        f = RatFun.const(q) if isinstance(q, (int, Fraction)) else q
        return PJet(self.aut, {i: f * a for i, a in self.coeffs.items()}, self.trunc)

    def inv(self) -> "PJet":
        """Triangular inversion; lowest coefficient must be nonzero (it is a
        unit of the field Q(t)).  Loses 2*min_ord of precision when shifted."""
        if not self.coeffs:
            raise InvertZero("inverse of (known-)zero jet")
        m = self.min_ord
        # c = p^-m * self has min_ord 0 and unit constant term
        c = {i - m: a for i, a in self.coeffs.items()}
        n_ord = self.trunc - m
        c0 = c[0]
        d: dict = {}
        aut = self.aut
        for n in range(n_ord):
            acc = RatFun.const(1) if n == 0 else RF_ZERO
            for j, dj in d.items():
                ci = c.get(n - j)
                if ci:
                    acc = acc - aut.apply(ci, j) * dj
            if acc:
                d[n] = aut.apply(c0, n).inv() * acc
        # self^{-1} = d * p^{-m}: right multiplication twists by sigma^{-m}
        out = {j - m: aut.apply(a, -m) for j, a in d.items()}
        return PJet(aut, out, n_ord - m)

    def __repr__(self):
        items = ", ".join(f"p^{i}: {a.to_str()}" for i, a in sorted(self.coeffs.items()))
        return f"PJet({{{items}}}, O(p^{self.trunc}))"


def pjet_from_poly(f: SkewPoly, trunc: int) -> PJet:
    return PJet(f.aut, dict(enumerate(f.coeffs)), trunc)


def sf_to_pjet(x: SkewFrac, order: int) -> PJet:
    """Expand a canonical fraction den^{-1} num as a p-adic Laurent jet.

    The denominator's lowest p-coefficient is a unit of Q(t) whenever den is
    nonzero, so the expansion always exists; the p-valuation of den costs
    precision, compensated by expanding at a padded order.
    """
    val = next(i for i, a in enumerate(x.den.coeffs) if a)
    pad = order + 2 * val
    dj = pjet_from_poly(x.den, pad)
    nj = pjet_from_poly(x.num, pad)
    return dj.inv() * nj


def symmetric_image_jets(order: int, c, alpha, beta, k: int = 1) -> tuple[PJet, PJet]:
    """Sbar and Tbar expanded as p-jets, built structurally: the conjugator
    and its inverse have sigma-fixed rational coefficients, so only the final
    sandwich multiplications touch shifted copies of the base-field element.
    (Expanding the canonical fractions through their degree-2k denominators
    is vastly more expensive.)"""
    s, u = cauchon_pair(c, alpha, beta, k)
    sbar = s + s.inv()
    # u = (1+p^k)^{-1}(1-p^k) = (1-p^k)(1+p^k)^{-1}: the coefficients are sigma-fixed
    u_jet = pjet_from_poly(u.num, order) * pjet_from_poly(u.den, order).inv()
    s_jet = PJet(s.aut, {0: sbar.as_ratfun()}, order)
    return s_jet, u_jet * s_jet * u_jet.inv()


def heisenberg_image_jets(order: int) -> tuple[PJet, PJet]:
    return symmetric_image_jets(order, *HEISENBERG_CONSTRUCTION)


def twodim_image_jets(order: int) -> tuple[PJet, PJet]:
    return symmetric_image_jets(order, *TWODIM_CONSTRUCTION)


def pjet_ring_ops(aut: ShiftAut, order: int) -> RingOps:
    one = PJet(aut, {0: RF_ONE}, order)
    return RingOps(
        name=f"PJet(order={order})",
        zero=PJet(aut, {}, order),
        one=one,
        add=lambda a, b: a + b,
        neg=lambda a: -a,
        mul=lambda a, b: a * b,
        smul=lambda q, a: a.smul(q),
        is_zero=lambda a: not a.coeffs,
        inv=lambda a: a.inv(),
        is_unit=lambda a: bool(a.coeffs),
    )


# -- expansion into the derivation-twisted series rings ----------------------


def weyl_jet_ring(order: int, floor: int | None = None) -> series.JetRing:
    """Series ring hosting K(p;sigma): Laurent jets over Q(X) with the
    derivation -d/dX.  The inverse variable acts as p and t = p * X."""
    rf_ops = RingOps(
        name="Q(X)",
        zero=RF_ZERO,
        one=RF_ONE,
        add=lambda a, b: a + b,
        neg=lambda a: -a,
        mul=lambda a, b: a * b,
        smul=lambda q, a: a * q,
        is_zero=lambda a: not a,
        inv=lambda a: a.inv(),
        is_unit=lambda a: bool(a),
    )
    delta = series.Derivation("-d/dX", lambda a: -a.deriv())
    return series.JetRing(rf_ops, delta, "tau", order, floor=floor if floor is not None else -4 * order)


def sf_to_weyl_jet(x: SkewFrac, ring: series.JetRing) -> series.Jet:
    den = _sp_to_weyl_jet(x.den, ring)
    num = _sp_to_weyl_jet(x.num, ring)
    return series.jet_mul(series.jet_inv(den), num)


def _ratfun_at_weyl(a: RatFun, ring: series.JetRing) -> series.Jet:
    # evaluate a(t) at t = tau^{-1} X by Horner over jets
    T = ring.monomial(-1, RatFun.t())
    num = _poly_at(a.num, T, ring)
    den = _poly_at(a.den, T, ring)
    return series.jet_mul(series.jet_inv(den), num)


def _poly_at(p: Poly, T: series.Jet, ring: series.JetRing) -> series.Jet:
    acc = ring.zero_jet()
    for c in reversed(p.coeffs):
        acc = series.jet_add(series.jet_mul(acc, T), ring.const(RatFun.const(c) if isinstance(c, Fraction) else c))
    return acc


def _sp_to_weyl_jet(f: SkewPoly, ring: series.JetRing) -> series.Jet:
    acc = ring.zero_jet()
    for i, a in enumerate(f.coeffs):
        if not a:
            continue
        term = series.jet_shift(_ratfun_at_weyl(a, ring), -i)
        acc = series.jet_add(acc, term)
    return acc
