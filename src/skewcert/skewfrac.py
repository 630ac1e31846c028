"""The skew rational function field K(p;sigma) as canonical left fractions
den^{-1} * num, plus the orbit test behind Cauchon's construction and the
explicit generators used throughout the certifications.

Canonical form: monic denominator, no common left divisor of positive
degree.  Equality is structural equality of canonical forms.

Two series expansions of K(p;sigma) are provided, both as jets of the one
series kernel in `series`:

* `pjet_ring`/`sf_to_pjet` — truncated Laurent series in p with Q(t)
  coefficients and the automorphism crossing a*p = p*sigma(a), a
  `series.JetRing` twisted by sigma.  `PJet` is another name for
  `series.Jet`.  This is the cheap path used as a pre-filter in freeness
  runs and as an independent arithmetic cross-oracle.
* `weyl_jet_ring`/`sf_to_weyl_jet` — the differential-operator model: p maps
  to the inverse series variable and t to (that) * X over the coefficient
  field Q(X) with derivation -d/dX, giving an expansion inside the
  derivation-twisted series rings.
"""

from __future__ import annotations

import functools
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


def ratfun_ops() -> RingOps:
    """Q(t) as a coefficient ring of series jets."""
    return RingOps(
        name="Q(t)",
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


@functools.lru_cache(maxsize=None)
def pjet_ring(aut: ShiftAut, order: int) -> series.JetRing:
    """Laurent series in p over Q(t) with the crossing a*p = p*sigma(a),
    one ring per (aut, order) so that jets built apart can be combined."""
    return series.JetRing(ratfun_ops(), None, "p", order, floor=-series.EXACT, sigma=aut.apply)


def pjet_ring_ops(aut: ShiftAut, order: int) -> RingOps:
    return pjet_ring(aut, order).ops()


# p-jets are series jets over pjet_ring; perfbench/spans.py wraps PJet.__mul__
# and PJet.inv by this name
PJet = series.Jet


def _poly_jet(f: SkewPoly, ring: series.JetRing, trunc: int) -> PJet:
    return ring.make(dict(enumerate(f.coeffs)), trunc)


def sf_to_pjet(x: SkewFrac, order: int) -> PJet:
    """Expand a canonical fraction den^{-1} num as a p-adic Laurent jet.

    The denominator's lowest p-coefficient is a unit of Q(t) whenever den is
    nonzero, so the expansion always exists; the p-valuation of den costs
    precision, compensated by expanding at a padded order.
    """
    val = next(i for i, a in enumerate(x.den.coeffs) if a)
    pad = order + 2 * val
    ring = pjet_ring(x.aut, order)
    return _poly_jet(x.den, ring, pad).inv() * _poly_jet(x.num, ring, pad)


def symmetric_image_jets(order: int, c, alpha, beta, k: int = 1) -> tuple[PJet, PJet]:
    """Sbar and Tbar expanded as p-jets, built structurally: the conjugator
    and its inverse have sigma-fixed rational coefficients, so only the final
    sandwich multiplications touch shifted copies of the base-field element.
    (Expanding the canonical fractions through their degree-2k denominators
    is vastly more expensive.)"""
    s, u = cauchon_pair(c, alpha, beta, k)
    sbar = s + s.inv()
    ring = pjet_ring(s.aut, order)
    # u = (1+p^k)^{-1}(1-p^k) = (1-p^k)(1+p^k)^{-1}: the coefficients are sigma-fixed
    u_jet = _poly_jet(u.num, ring, order) * _poly_jet(u.den, ring, order).inv()
    s_jet = ring.make({0: sbar.as_ratfun()}, order)
    return s_jet, u_jet * s_jet * u_jet.inv()


def heisenberg_image_jets(order: int) -> tuple[PJet, PJet]:
    return symmetric_image_jets(order, *HEISENBERG_CONSTRUCTION)


def twodim_image_jets(order: int) -> tuple[PJet, PJet]:
    return symmetric_image_jets(order, *TWODIM_CONSTRUCTION)


# -- expansion into the derivation-twisted series rings ----------------------


def weyl_jet_ring(order: int) -> series.JetRing:
    """Series ring hosting K(p;sigma): Laurent jets over Q(X) with the
    derivation -d/dX.  The inverse variable acts as p and t = p * X."""
    delta = series.Derivation("-d/dX", lambda a: -a.deriv())
    return series.JetRing(ratfun_ops(), delta, "tau", order, floor=-4 * order)


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
