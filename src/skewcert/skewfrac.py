"""The skew rational function field K(p;sigma) as canonical left fractions
den^{-1} * num, plus the orbit test behind Cauchon's construction and the
explicit generators used throughout the certifications.

Canonical form: monic denominator, no common left divisor of positive
degree.  Equality is structural equality of canonical forms.  A divisor of
positive degree divides no nonzero scalar, so no gcld is taken when a side
has degree 0 (it is a unit), and two fractions over 1 add their numerators.

Two series expansions of K(p;sigma) are provided, both as jets of the one
series kernel in `series`:

* `pjet_ring`/`sf_to_pjet` — truncated Laurent series in p with Q(t)
  coefficients and the automorphism crossing a*p = p*sigma(a), a
  `series.JetRing` twisted by sigma.  `PJet` is another name for
  `series.Jet`.  They are an independent arithmetic cross-oracle.  Freeness
  runs evaluate their words on the same jets read modulo a prime at the
  sigma-orbit points of t0, a ring of residues (`residue_pjet_ring`), and
  read their generators there directly (`residue_generators`), from one
  Q(t) element and the rational coefficients of the conjugator; the exact
  p-jets read at the points (`tests/oracles.py`) are their oracle.
* `weyl_jet_ring`/`sf_to_weyl_jet` — the differential-operator model: p maps
  to the inverse series variable and t to (that) * X over the coefficient
  field Q(X) with derivation -d/dX, giving an expansion inside the
  derivation-twisted series rings.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from operator import add, mul

from . import series
from .errors import AutMismatch, HypothesisViolation, InvertZero, KernelError, PoleAtPoint
from .freecert import MODULUS
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
        if self.den.degree == 0 == other.den.degree:  # both are 1: the sum is canonical
            return SkewFrac(self.den, self.num + other.num, _canonical=True)
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
    # a common left divisor of positive degree divides no nonzero scalar
    if den.degree > 0 and num.degree > 0:
        g = sp_gcld(den, num)
        if g.degree > 0:
            den_q, r1 = sp_divmod(den, g, "left")
            num_q, r2 = sp_divmod(num, g, "left")
            if r1 or r2:
                raise KernelError("gcld does not divide exactly")
            den, num = den_q, num_q
    if not den.is_monic():
        u = aut.apply(den.lc().inv(), -den.degree)
        scal = SkewPoly.scalar(aut, u)
        den = sp_mul(scal, den)
        num = sp_mul(scal, num)
    return den, num


def ring_ops(aut: ShiftAut) -> RingOps:
    return RingOps(
        name=f"K(p;sigma), sigma(t)=t-{aut.c}",
        zero=SkewFrac.zero(aut),
        one=SkewFrac.one(aut),
        smul=lambda q, a: SkewFrac.scalar(aut, q) * a,
        inv=lambda a: a.inv(),
        is_unit=bool,
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
        smul=lambda q, a: a * q,
        inv=lambda a: a.inv(),
        is_unit=bool,
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
    ring, s, u_jet, u_inv = _conjugator_jets(order, c, alpha, beta, k)
    s_jet = ring.make({0: s + s.inv()}, order)
    return s_jet, u_jet * s_jet * u_inv


def _conjugator_jets(order: int, c, alpha, beta, k: int):
    """The p-jet ring, s as an element of Q(t), and the p-jets of u and u^{-1}
    for `cauchon_pair`."""
    s, u = cauchon_pair(c, alpha, beta, k)
    ring = pjet_ring(s.aut, order)
    # u = (1+p^k)^{-1}(1-p^k) = (1-p^k)(1+p^k)^{-1}: the coefficients are sigma-fixed
    u_jet = _poly_jet(u.num, ring, order) * _poly_jet(u.den, ring, order).inv()
    return ring, s.as_ratfun(), u_jet, u_jet.inv()


def heisenberg_image_jets(order: int) -> tuple[PJet, PJet]:
    return symmetric_image_jets(order, *HEISENBERG_CONSTRUCTION)


def twodim_image_jets(order: int) -> tuple[PJet, PJet]:
    return symmetric_image_jets(order, *TWODIM_CONSTRUCTION)


# -- sigma-jets evaluated modulo a prime ---------------------------------------
#
# An evaluated coefficient is a Q(t) value read modulo the prime MODULUS at
# the sigma-orbit points P_k = t0 - k*c: a pair (lo, (a(P_lo), a(P_lo+1),
# ...)), or one int for a sigma-fixed constant.  Since sigma^j(a)(P_k) =
# a(P_{k+j}), sigma only moves lo by -j, and sums and products are
# pointwise on the overlap of the index ranges.  Reading a jet's
# coefficients at points where none has a pole modulo MODULUS is a ring
# homomorphism on the jets, Z_(MODULUS)-linear, so words evaluated here are
# the exact p-jet values read at the points.  No evaluated value counts as
# an exact zero: one that vanishes at the points may not vanish in Q(t),
# and a jet that keeps every order it forms never overstates its precision.


# first point of the evaluated p-jets, far from the small rationals where
# the presets' coefficients have their poles
RESIDUE_T0 = 2**31 - 1


def _residue_of(q) -> int:
    q = rat(q)
    return q.numerator * pow(q.denominator, -1, MODULUS) % MODULUS


def _residue_window(a, start: int, stop: int):
    """The values of a non-constant residue at the indices start..stop-1."""
    lo, vals = a
    return vals[start - lo:max(stop, start) - lo]


def residue_dot(terms):
    """sum kappa * x * y over residues, pointwise on the overlap of every
    range involved, reduced modulo MODULUS once per point."""
    ranged = [z for _, x, y in terms for z in (x, y) if type(z) is not int]
    if not ranged:
        return sum(k * x * y for k, x, y in terms) % MODULUS
    start = max(lo for lo, _ in ranged)
    stop = min(lo + len(v) for lo, v in ranged)
    acc = [0] * max(stop - start, 0)
    for kap, x, y in terms:
        if type(x) is int:
            x, y = y, x
        if type(x) is int:
            c = kap * x * y
            acc = [s + c for s in acc]
            continue
        xs = _residue_window(x, start, stop)
        if type(y) is int:
            c = kap * y
            acc = [s + c * u for s, u in zip(acc, xs)]
        elif kap == 1:
            acc = list(map(add, acc, map(mul, xs, _residue_window(y, start, stop))))
        else:
            acc = [s + kap * u * v for s, u, v in zip(acc, xs, _residue_window(y, start, stop))]
    return start, tuple(s % MODULUS for s in acc)


def residue_ops() -> RingOps:
    """Residues at the sigma-orbit points as a coefficient ring of jets;
    there is no inverse, since a value may vanish at one point only."""
    return RingOps(
        name=f"Q(t) at sigma-orbit points mod {MODULUS}",
        zero=0,
        one=1,
        add=lambda a, b: residue_dot([(1, a, 1), (1, 1, b)]),
        neg=lambda a: residue_dot([(-1, a, 1)]),
        mul=lambda a, b: residue_dot([(1, a, b)]),
        smul=lambda q, a: residue_dot([(1, _residue_of(q), a)]),
        is_zero=lambda a: False,
        dot=residue_dot,
    )


def _residue_sigma(a, j: int):
    return a if type(a) is int else (a[0] - j, a[1])


@functools.lru_cache(maxsize=None)
def residue_pjet_ring(order: int) -> series.JetRing:
    """Laurent series in p over the residues, twisted by sigma."""
    return series.JetRing(residue_ops(), None, "p", order, floor=-series.EXACT, sigma=_residue_sigma)


def residue_generators(construction, mode: str, order: int, width: int, t0: int):
    """The generators of `construction` = (c, alpha, beta, k) of
    `cauchon_pair` as p-jets of order `order` read modulo MODULUS at
    P_j = t0 - j*c, j < width + order - 1, with no exact p-jet: Sbar and
    Tbar in monoid mode, xi, xi^-1, eta and eta^-1 in group mode.  Only
    s + s^-1 (or s and s^-1) is read at the points; u and u^-1 have the
    sigma-fixed coefficients 1, -2, 2, -2, ... and 1, 2, 2, ... at the
    multiples of k, and the conjugates u*g*u^-1 are sums of sigma-shifts of
    g, so g's pole check covers them.  A pole moves t0 to the next integer.
    A letter in front of a suffix of p-order j < `order` moves by j only,
    so the words keep the points 0..width-1.  Returns the jets and t0."""
    c, alpha, beta, k = construction
    t = RatFun.t()
    s = (t - RatFun.const(alpha)) / (t - RatFun.const(beta))
    reads = [s + s.inv()] if mode == "monoid" else [s, s.inv()]
    ring = residue_pjet_ring(order)
    u, u_inv = (ring.make({i: 2 * sign ** (i // k) % MODULUS if i else 1 for i in range(0, order, k)},
                          order) for sign in (-1, 1))
    cq = _residue_of(c)
    while True:
        points = [(t0 - j * cq) % MODULUS for j in range(width + order - 1)]
        try:
            gens = [ring.make({0: (0, tuple(g.eval_mod(points, MODULUS)))}, order) for g in reads]
            return gens + [u * g * u_inv for g in gens], t0
        except PoleAtPoint:
            t0 += 1


def residue_row(jet: PJet, window: int, width: int) -> dict:
    """A residue jet as a sparse row: column i*width + k holds the value of
    its p^i coefficient at P_k, for i < window and 0 <= k < width."""
    row = {}
    for i, a in jet.coeffs.items():
        if i >= window:
            continue
        if type(a) is int:
            vals = (a,) * width
        elif a[0] > 0 or a[0] + len(a[1]) < width:
            raise KernelError(f"the p^{i} coefficient misses some of the points 0..{width - 1}")
        else:
            vals = _residue_window(a, 0, width)
        row.update((i * width + k, x) for k, x in enumerate(vals) if x)
    return row


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
