"""Truncated skew power/Laurent series over an abstract coefficient ring,
the one series kernel of the package.  A ring twists its crossing rule by
a derivation, jets in R((t; delta)) with

    a * t = t*a - t*delta(a)*t = sum_{m>=0} t^(1+m) (-1)^m delta^m(a),
    a * t^-1 = t^-1 * a + delta(a),

or by an automorphism sigma, given as sigma(a, j) = sigma^j(a), jets in
R((t; sigma)) with t^i a * t^j b = t^(i+j) sigma^j(a) b (the p-jets of
K(p;sigma) in `skewfrac`, where PJet is another name for Jet).

Jets store a sparse {order: coefficient} map plus a truncation order: all
stored coefficients are correct within their own windows, orders >= trunc
are unknown.  Exact elements (constants, embedded polynomials) carry
trunc = EXACT; a product whose crossing series does not terminate is
truncated at the ring's working order.

Precision bookkeeping in towers: a coefficient that is zero as far as it is
known but carries finite precision is kept explicitly (an "inexact zero"),
because discarding it would silently over-claim the precision of anything
accumulated from it.  Only exactly-zero coefficients are dropped.  The
coefficient-ring contract distinguishes the two through RingOps.is_zero
(known zero) and the optional RingOps.fully_exact.

Clean-jet invariant: every stored order i of a Jet satisfies floor <= i <
trunc, its coefficient is not an exact zero, and trunc <= EXACT.  The
public Jet(...) constructor filters to establish it.  jet_add, jet_neg and
jet_smul build their results through the raw constructor _jet instead and
check only what can break it there (a sum that cancels, an order that
reaches trunc), since a nonzero rational multiple of a coefficient that is
not an exact zero is not one either.  jet_mul and the lifted derivations
accumulate first and filter once, through the public constructor.

Towers are built by using one JetRing's element ops as the coefficient ring
of the next level; `lift_derivation` extends an inner derivation across a
level via delta_s(t_w) = -t_w * delta_s(w) * t_w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Optional

from .errors import (
    CompatibilityFailure,
    ContextMismatch,
    HypothesisViolation,
    LowestCoeffNotUnit,
    PrecisionExhausted,
)
from .rings import RingOps
from .scalar import bipoly_const, bipoly_eps, bipoly_n1, bipoly_n2, bipoly_ops  # noqa: F401

EXACT = 10**9  # truncation sentinel for exactly known jets


def _tadd(t: int, k: int) -> int:
    return EXACT if t >= EXACT else t + k


def _exact(ops: RingOps, c) -> bool:
    return True if ops.fully_exact is None else ops.fully_exact(c)


@dataclass(frozen=True)
class Derivation:
    """A derivation on a coefficient ring, supplied as code; linearity and
    the Leibniz law are the caller's contract (see check_leibniz)."""

    name: str
    fn: Callable[[Any], Any]

    def __call__(self, a):
        return self.fn(a)


def check_leibniz(delta: Derivation, ops: RingOps, pairs) -> tuple[bool, Any]:
    """Sample the Leibniz law delta(ab) = delta(a) b + a delta(b)."""
    for a, b in pairs:
        lhs = delta(ops.mul(a, b))
        rhs = ops.add(ops.mul(delta(a), b), ops.mul(a, delta(b)))
        if not ops.eq(lhs, rhs):
            return False, (a, b)
    return True, None


class JetRing:
    """Ring context for jets: coefficient ops, optional derivation or
    automorphism (not both), variable name, working order and Laurent floor."""

    def __init__(
        self,
        coeff: RingOps,
        delta: Optional[Derivation],
        var: str,
        order: int,
        floor: int = -8,
        sigma: Optional[Callable[[Any, int], Any]] = None,
    ):
        self.coeff = coeff
        self.delta = delta
        self.var = var
        self.order = order
        self.floor = floor
        self.sigma = sigma

    def __repr__(self):
        d = self.delta.name if self.delta else "sigma" if self.sigma else "0"
        return f"JetRing({self.coeff.name}(({self.var}; {d})), order={self.order}, floor={self.floor})"

    def make(self, coeffs: dict, trunc: int = EXACT) -> "Jet":
        return Jet(self, coeffs, trunc)

    def const(self, c) -> "Jet":
        return Jet(self, {0: c}, EXACT)

    def monomial(self, i: int, c=None) -> "Jet":
        return Jet(self, {i: self.coeff.one if c is None else c}, EXACT)

    def zero_jet(self, trunc: int = EXACT) -> "Jet":
        return Jet(self, {}, trunc)

    def one_jet(self) -> "Jet":
        return self.const(self.coeff.one)

    def ops(self) -> RingOps:
        """Element ops of this jet ring, usable as the coefficient ring of
        the next tower level or as a homomorphism target."""
        return RingOps(
            name=f"{self.coeff.name}(({self.var}))",
            zero=self.zero_jet(),
            one=self.one_jet(),
            add=jet_add,
            neg=jet_neg,
            mul=jet_mul,
            smul=jet_smul,
            is_zero=jet_known_zero,
            inv=jet_inv,
            is_unit=lambda a: unit_criterion_audit(a)[0],
            fully_exact=jet_fully_exact,
        )


class Jet:
    __slots__ = ("ring", "coeffs", "trunc")

    def __init__(self, ring: JetRing, coeffs: dict, trunc: int = EXACT):
        trunc = min(trunc, EXACT)
        clean = {}
        is_zero = ring.coeff.is_zero
        for i, c in coeffs.items():
            if i >= trunc:
                continue
            if is_zero(c) and _exact(ring.coeff, c):
                continue
            if i < ring.floor:
                raise PrecisionExhausted(
                    f"order {i} below Laurent floor {ring.floor} in {ring.var}"
                )
            clean[i] = c
        self.ring = ring
        self.coeffs = clean
        self.trunc = trunc

    @property
    def min_ord(self) -> int:
        """Smallest order that may carry content (stored entries include
        inexact zeros); equals trunc for a jet with no content at all."""
        return min(self.coeffs) if self.coeffs else self.trunc

    def nonzero_min_ord(self) -> Optional[int]:
        """Smallest order whose coefficient is known nonzero."""
        is_zero = self.ring.coeff.is_zero
        orders = [i for i, c in self.coeffs.items() if not is_zero(c)]
        return min(orders) if orders else None

    def items(self):
        return sorted(self.coeffs.items())

    def __repr__(self):
        tail = "" if self.trunc >= EXACT else f" + O({self.ring.var}^{self.trunc})"
        shown = [(i, c) for i, c in self.items() if not self.ring.coeff.is_zero(c)]
        if not shown:
            return f"Jet(0{tail})"
        body = " + ".join(f"{self.ring.var}^{i}*[{c!r}]" for i, c in shown)
        return f"Jet({body}{tail})"

    def __add__(self, other: "Jet") -> "Jet":
        return jet_add(self, other)

    def __mul__(self, other: "Jet") -> "Jet":
        return jet_mul(self, other)

    def inv(self) -> "Jet":
        return jet_inv(self)


_new_jet = Jet.__new__


def _jet(ring: JetRing, coeffs: dict, trunc: int) -> Jet:
    """A Jet around a map that already satisfies the clean-jet invariant."""
    j = _new_jet(Jet)
    j.ring = ring
    j.coeffs = coeffs
    j.trunc = trunc
    return j


def jet_known_zero(a: Jet) -> bool:
    if not a.coeffs:
        return True
    is_zero = a.ring.coeff.is_zero
    return all(is_zero(c) for c in a.coeffs.values())


def jet_fully_exact(a: Jet) -> bool:
    if a.trunc < EXACT:
        return False
    return all(_exact(a.ring.coeff, c) for c in a.coeffs.values())


def _check_ctx(a: Jet, b: Jet):
    if a.ring is not b.ring:
        raise ContextMismatch(f"{a.ring!r} vs {b.ring!r}")


def jet_add(a: Jet, b: Jet) -> Jet:
    _check_ctx(a, b)
    ops = a.ring.coeff
    add, is_zero, exact = ops.add, ops.is_zero, ops.fully_exact
    trunc = min(a.trunc, b.trunc)
    out = dict(a.coeffs) if a.trunc == trunc else {
        i: c for i, c in a.coeffs.items() if i < trunc}
    for i, c in b.coeffs.items():
        if i in out:
            s = add(out[i], c)
            if is_zero(s) and (exact is None or exact(s)):
                del out[i]
            else:
                out[i] = s
        elif i < trunc:
            out[i] = c
    return _jet(a.ring, out, trunc)


def jet_neg(a: Jet) -> Jet:
    neg = a.ring.coeff.neg
    return _jet(a.ring, {i: neg(c) for i, c in a.coeffs.items()}, a.trunc)


def jet_sub(a: Jet, b: Jet) -> Jet:
    return jet_add(a, jet_neg(b))


def jet_smul(q, a: Jet) -> Jet:
    smul = a.ring.coeff.smul
    # only q = 0 can make exact zeros, and then the public constructor drops them
    return (_jet if q else Jet)(a.ring, {i: smul(q, c) for i, c in a.coeffs.items()}, a.trunc)


def jet_shift(a: Jet, k: int) -> Jet:
    """Left multiplication by t^k, a pure index shift."""
    if k == 0:
        return a
    return Jet(a.ring, {i + k: c for i, c in a.coeffs.items()}, _tadd(a.trunc, k))


def jet_truncate(a: Jet, order: int) -> Jet:
    return Jet(a.ring, a.coeffs, min(a.trunc, order))


def _kappa(j: int, m: int) -> int:
    """Coefficient of t^(j+m) delta^m(a) in a * t^j."""
    if j >= 0:
        if j == 0:
            return 1 if m == 0 else 0
        return math.comb(j + m - 1, m) * (-1 if m % 2 else 1)
    return math.comb(-j, m) if m <= -j else 0


def jet_mul(a: Jet, b: Jet) -> Jet:
    """(t^i a)(t^j b) = sum_m kappa(j, m) t^(i+j+m) delta^m(a) b, truncated;
    t^(i+j) sigma^j(a) b in a ring twisted by sigma.

    The delta chain per left coefficient stops only at an exact zero; an
    inexact zero keeps flowing so its finite precision reaches the output.
    """
    _check_ctx(a, b)
    ring = a.ring
    ops = ring.coeff
    trunc = min(_tadd(a.trunc, b.min_ord), _tadd(b.trunc, a.min_ord))
    if not a.coeffs or not b.coeffs:
        return _jet(ring, {}, min(trunc, EXACT))
    add, mul, is_zero = ops.add, ops.mul, ops.is_zero
    delta, sigma = ring.delta, ring.sigma
    b_min = min(b.coeffs)
    out: dict = {}

    for i, ai in a.coeffs.items():
        if delta is None:
            for j, bj in b.coeffs.items():
                k = i + j
                if k < trunc:
                    t = mul(sigma(ai, j) if sigma else ai, bj)
                    out[k] = add(out[k], t) if k in out else t
            continue
        dm = ai
        max_m = (trunc - i - b_min) - 1 if trunc < EXACT else None
        m = 0
        while True:
            if is_zero(dm):
                if not _exact(ops, dm):
                    # the rest of the chain only carries precision caps:
                    # spread one empty product per j over the remaining window
                    # (for j <= 0 the crossing stops at k = i)
                    if trunc >= EXACT:
                        trunc = min(trunc, ring.order)
                    for j, bj in b.coeffs.items():
                        hi = min(trunc, i + 1 if j <= 0 else trunc)
                        cap = None
                        for k in range(i + j + m, hi):
                            if cap is None:
                                cap = mul(dm, bj)
                            out[k] = add(out[k], cap) if k in out else cap
                break
            for j, bj in b.coeffs.items():
                k = i + j + m
                if k >= trunc:
                    continue
                kap = _kappa(j, m)
                if not kap:
                    continue
                term = mul(dm, bj)
                if kap == -1:
                    term = ops.neg(term)
                elif kap != 1:
                    term = ops.smul(kap, term)
                out[k] = add(out[k], term) if k in out else term
            m += 1
            if max_m is not None and m > max_m:
                break
            if max_m is None and i + b_min + m >= ring.order:
                # nonterminating crossing on an exact product: truncate
                trunc = min(trunc, ring.order)
                break
            dm = delta(dm)
    return Jet(ring, out, trunc)


def jet_inv(a: Jet) -> Jet:
    """Two-sided inverse modulo the available precision, at most the ring's
    working order.

    Requires the lowest nonzero coefficient to be a unit of the coefficient
    ring (recursively, in towers); raises LowestCoeffNotUnit carrying the
    offending coefficient otherwise.  A nonzero lowest order m costs 2m of
    precision.  Under sigma the pivot of order n is sigma^n(c0)^-1, and the
    final right factor t^-m twists every coefficient by sigma^-m."""
    ring = a.ring
    ops = ring.coeff
    m = a.nonzero_min_ord()
    if m is None:
        raise LowestCoeffNotUnit("inverse of (known-)zero jet", None)
    if any(i < m for i in a.coeffs):
        raise PrecisionExhausted(
            f"content below {ring.var}^{m} is unknown; cannot trust the pivot"
        )
    c0 = a.coeffs[m]
    if ops.is_unit is not None and not ops.is_unit(c0):
        raise LowestCoeffNotUnit(
            f"lowest {ring.var}-coefficient (order {m}) is not a unit", c0
        )
    if ops.inv is None:
        raise LowestCoeffNotUnit(f"{ops.name} has no inversion", c0)
    target = min(_tadd(a.trunc, -2 * m), ring.order)
    n_ord = target + m  # d is computed for orders 0 .. n_ord-1
    c = {i - m: ci for i, ci in a.coeffs.items()}
    c0_inv = ops.inv(c0)
    delta, sigma = ring.delta, ring.sigma
    dtab: dict = {i: [ci] for i, ci in c.items()}

    def dpow(i, k):
        col = dtab[i]
        while len(col) <= k:
            col.append(delta(col[-1]))
        return col[k]

    d: dict = {}
    one = ops.one
    for n in range(max(0, n_ord)):
        acc = one if n == 0 else None
        for j, dj in d.items():
            rem = n - j
            if delta is None:
                ci = c.get(rem)
                if ci is None:
                    continue
                term = ops.neg(ops.mul(sigma(ci, j) if sigma else ci, dj))
                acc = term if acc is None else ops.add(acc, term)
            else:
                for i in c:
                    mm = rem - i
                    if mm < 0:
                        continue
                    kap = _kappa(j, mm)
                    if not kap:
                        continue
                    dmi = dpow(i, mm)
                    if ops.is_zero(dmi) and _exact(ops, dmi):
                        continue
                    term = ops.mul(dmi, dj)
                    if kap != 1:
                        term = ops.smul(kap, term)
                    term = ops.neg(term)
                    acc = term if acc is None else ops.add(acc, term)
        if acc is None:
            continue
        if ops.is_zero(acc) and _exact(ops, acc):
            continue
        d[n] = ops.mul(sigma(c0_inv, n) if sigma else c0_inv, acc)
    dj = Jet(ring, d, max(0, n_ord))
    if m == 0:
        return dj
    return jet_mul(dj, ring.monomial(-m))


def jets_agree(a: Jet, b: Jet, upto: int | None = None) -> bool:
    """No known disagreement on the jointly known window."""
    _check_ctx(a, b)
    window = min(a.trunc, b.trunc)
    if upto is not None:
        window = min(window, upto)
    ops = a.ring.coeff
    for i in set(a.coeffs) | set(b.coeffs):
        if i >= window:
            continue
        ca, cb = a.coeffs.get(i), b.coeffs.get(i)
        if ca is None:
            if not ops.is_zero(cb):
                return False
        elif cb is None:
            if not ops.is_zero(ca):
                return False
        elif not ops.is_zero(ops.sub(ca, cb)):
            return False
    return True


def unit_criterion_audit(a: Jet) -> tuple[bool, list]:
    """Walk lowest nonzero coefficients down the tower; the trail records,
    per level, the variable, the lowest order and a printable form of the
    coefficient.  Invertibility holds iff the base leaf is a unit and no
    unknown content hides below a pivot."""
    trail = []
    cur: Any = a
    ops = a.ring.coeff
    while isinstance(cur, Jet):
        m = cur.nonzero_min_ord()
        if m is None:
            trail.append({"var": cur.ring.var, "min_ord": None, "coefficient": "0"})
            return False, trail
        entry = {"var": cur.ring.var, "min_ord": m}
        if any(i < m for i in cur.coeffs):
            entry["coefficient"] = "unknown content below the pivot"
            trail.append(entry)
            return False, trail
        low = cur.coeffs[m]
        entry["coefficient"] = repr(low)
        trail.append(entry)
        ops = cur.ring.coeff
        cur = low
    ok = bool(ops.is_unit(cur)) if ops.is_unit else not ops.is_zero(cur)
    return ok, trail


def lift_derivation(
    jring: JetRing, delta_on_coeffs: Optional[Derivation], delta_of_w, name: str
) -> Derivation:
    """Extend an inner derivation delta_s from the coefficient ring R of
    `jring` = R((t_w; delta_w)) to the whole series ring, via

        delta_s(t_w)    = -t_w * delta_s(w) * t_w
        delta_s(t_w^-1) = delta_s(w)

    where delta_of_w = delta_s(w) is an element of R (the Lemma's hypothesis
    delta_s(w) in R; delta_s(R) subset of R is the caller's contract)."""
    if isinstance(delta_of_w, Jet) and delta_of_w.ring is jring:
        raise HypothesisViolation(
            "delta_s(w) must live in the coefficient ring, not the series ring itself"
        )
    cache: dict[int, Jet] = {}

    def d_tw(i: int) -> Jet:
        if i in cache:
            return cache[i]
        if i == 0:
            out = jring.zero_jet()
        elif i == 1:
            mid = jring.const(delta_of_w)
            out = jet_neg(jet_mul(jet_shift(mid, 1), jring.monomial(1)))
        elif i > 1:
            out = jet_add(jet_shift(d_tw(1), i - 1), jet_mul(d_tw(i - 1), jring.monomial(1)))
        elif i == -1:
            out = jring.const(delta_of_w)
        else:
            out = jet_add(
                jet_shift(jring.const(delta_of_w), i + 1),
                jet_mul(d_tw(i + 1), jring.monomial(-1)),
            )
        cache[i] = out
        return out

    def fn(a: Jet) -> Jet:
        if a.ring is not jring:
            raise ContextMismatch(f"derivation {name} lifted over {jring!r}")
        ops = jring.coeff
        add, mul, is_zero = ops.add, ops.mul, ops.is_zero
        out: dict = {}
        trunc = a.trunc
        for i, c in a.coeffs.items():
            # d_tw(i) * c is a right multiplication by a coefficient: no
            # crossing, so apply it entrywise instead of through jet_mul
            dtwi = d_tw(i)
            for k, ck in dtwi.coeffs.items():
                term = mul(ck, c)
                out[k] = add(out[k], term) if k in out else term
            trunc = min(trunc, dtwi.trunc)
            if delta_on_coeffs is not None:
                dc = delta_on_coeffs(c)
                if not (is_zero(dc) and _exact(ops, dc)):
                    out[i] = add(out[i], dc) if i in out else dc
        return Jet(jring, out, trunc)

    return Derivation(name, fn)


def series_hom(a: Jet, phi: Callable[[Any], Any], target: JetRing) -> Jet:
    """Coefficientwise map sum t_w^i a_i -> sum t_z^i phi(a_i).

    phi(delta_w(a)) = delta_z(phi(a)) is verified on every coefficient
    actually mapped; a failure raises CompatibilityFailure carrying the
    witness coefficient."""
    src = a.ring
    for c in a.coeffs.values():
        lhs = phi(src.delta(c)) if src.delta else target.coeff.zero
        rhs = target.delta(phi(c)) if target.delta else target.coeff.zero
        if not target.coeff.eq(lhs, rhs):
            raise CompatibilityFailure("coefficient map does not intertwine the derivations", c)
    out = {i: phi(c) for i, c in a.coeffs.items()}
    return Jet(target, out, a.trunc)


# -- base coefficient rings ---------------------------------------------------


def fraction_ops() -> RingOps:
    return RingOps(
        name="Q",
        zero=Fraction(0),
        one=Fraction(1),
        add=lambda a, b: a + b,
        neg=lambda a: -a,
        mul=lambda a, b: a * b,
        smul=lambda q, a: q * a,
        is_zero=lambda a: a == 0,
        inv=lambda a: 1 / a,
        is_unit=lambda a: a != 0,
    )


# -- the two towers used by the certifications --------------------------------


@dataclass
class Tower:
    """An iterated series ring with named levels, innermost first."""

    levels: list
    top: JetRing
    gens: dict = field(default_factory=dict)

    def ops(self) -> RingOps:
        return self.top.ops()


def tower_floor(order: int) -> int:
    """Inner Laurent depth needed by inverses at a given working order: the
    crossing terms of outer order n carry inner orders down to about
    -(order + n), so the default -8 floor is far too shallow for towers."""
    return -(2 * order + 16)


def heisenberg_tower(order: int = 16) -> Tower:
    """Q((t_z))((t_y))((t_x; delta_x)) with delta_x the inner derivation
    lifted through both completions; x, y, z embed as inverse variables."""
    floor = tower_floor(order)
    lz = JetRing(fraction_ops(), None, "t_z", order, floor)
    ly = JetRing(lz.ops(), None, "t_y", order, floor)
    z_as_coeff = lz.monomial(-1)  # the image of z inside Q((t_z))
    delta_x = lift_derivation(ly, None, z_as_coeff, "delta_x")
    lx = JetRing(ly.ops(), delta_x, "t_x", order, floor)
    x = lx.monomial(-1)
    y = lx.const(ly.monomial(-1))
    z = lx.const(ly.const(z_as_coeff))
    return Tower([lz, ly, lx], lx, {"x": x, "y": y, "z": z, "delta_x": delta_x})


def class3_tower(order: int = 12) -> Tower:
    """U(N)((t_w))((t_v; delta_v))((t_u; delta_u)) for the free nilpotent
    class-3 algebra on two generators; N = span(n1, n2) is central abelian,
    so U(N) = Q[n1, n2] and all inner derivations vanish on it."""
    floor = tower_floor(order)
    un = bipoly_ops()
    lw = JetRing(un, None, "t_w", order, floor)
    delta_v = lift_derivation(lw, None, bipoly_n2(), "delta_v")  # [w, v] = n2
    lv = JetRing(lw.ops(), delta_v, "t_v", order, floor)
    delta_u_on_w = lift_derivation(lw, None, bipoly_n1(), "delta_u|t_w")  # [w, u] = n1
    w_as_coeff = lw.monomial(-1)
    delta_u = lift_derivation(lv, delta_u_on_w, w_as_coeff, "delta_u")  # [v, u] = w
    lu = JetRing(lv.ops(), delta_u, "t_u", order, floor)
    u = lu.monomial(-1)
    v = lu.const(lv.monomial(-1))
    w = lu.const(lv.const(w_as_coeff))
    n1 = lu.const(lv.const(lw.const(bipoly_n1())))
    n2 = lu.const(lv.const(lw.const(bipoly_n2())))
    return Tower(
        [lw, lv, lu],
        lu,
        {"u": u, "v": v, "w": w, "n1": n1, "n2": n2,
         "delta_v": delta_v, "delta_u": delta_u, "eps": bipoly_eps},
    )


def hom_phi_w(tower_src: Tower, tower_dst: Tower):
    """Phi_w: U(N)((t_w)) -> Q((t_z)), sum t_w^i f_i -> sum t_z^i eps(f_i)."""
    lz = tower_dst.levels[0]

    def phi(jet_w: Jet) -> Jet:
        return series_hom(jet_w, bipoly_eps, lz)

    return phi


def hom_phi_v(tower_src: Tower, tower_dst: Tower):
    ly = tower_dst.levels[1]
    phi_w = hom_phi_w(tower_src, tower_dst)

    def phi(jet_v: Jet) -> Jet:
        return series_hom(jet_v, phi_w, ly)

    return phi


def hom_phi_u(tower_src: Tower, tower_dst: Tower):
    lx = tower_dst.levels[2]
    phi_v = hom_phi_v(tower_src, tower_dst)

    def phi(jet_u: Jet) -> Jet:
        return series_hom(jet_u, phi_v, lx)

    return phi
