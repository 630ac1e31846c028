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
(known zero) and RingOps.exact_zero (zero to every order).

Clean-jet invariant: every stored order i of a Jet satisfies floor <= i <
trunc, its coefficient is not an exact zero, and trunc <= EXACT.  The
public Jet(...) constructor filters to establish it.  jet_add, jet_neg and
jet_smul build their results through the raw constructor _jet instead and
check only what can break it there (a sum that cancels, an order that
reaches trunc), since a nonzero rational multiple of a coefficient that is
not an exact zero is not one either.  Sums of products of jets are one
fused kernel, jet_dot, under every crossing (none, sigma, delta); it is the
dot of every JetRing's ops, and jet_mul is its one-term case.  It takes the
smallest truncation over all terms first, collects the (kappa, x, y)
coefficient triples of every term per output order, sums each order below
that truncation once through the coefficient ring's dot (or
RingOps.sum_products), and applies the public constructor's filter in the
same pass.  Under a derivation, a left coefficient's delta chain stops at
the last power m that reaches the output: kappa(j, m) = 0 once m > -j for
j <= 0, and t^(i+j+m) passes a finite trunc for j > 0, so an exact product
stays exact unless its right factor has a positive order.  The recursion of
jet_inv and the lifted derivations sum their orders the same way; jet_inv
crosses the t^-m of its lowest order m on its input's side, never on the
inverse's.  An order past a sum's truncation is never formed, so it cannot
trip the Laurent floor.

Towers are built by using one JetRing's element ops as the coefficient ring
of the next level; `lift_derivation` extends an inner derivation across a
level via delta_s(t_w) = -t_w * delta_s(w) * t_w.
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict
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


class Derivation:
    """A derivation on a coefficient ring, supplied as code; linearity and
    the Leibniz law are the caller's contract."""

    __slots__ = ("name", "fn")

    def __init__(self, name: str, fn: Callable[[Any], Any]):
        self.name, self.fn = name, fn

    def __call__(self, a):
        return self.fn(a)


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
            exact_zero=jet_exact_zero,
            dot=jet_dot,
        )


class Jet:
    __slots__ = ("ring", "coeffs", "trunc")

    def __init__(self, ring: JetRing, coeffs: dict, trunc: int = EXACT):
        trunc = min(trunc, EXACT)
        clean = {}
        exact_zero = ring.coeff.exact_zero
        for i, c in coeffs.items():
            if i >= trunc or exact_zero(c):
                continue
            if i < ring.floor:
                raise _below_floor(ring, i)
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


def _below_floor(ring: JetRing, i: int) -> PrecisionExhausted:
    return PrecisionExhausted(f"order {i} below Laurent floor {ring.floor} in {ring.var}")


def _jet(ring: JetRing, coeffs: dict, trunc: int) -> Jet:
    """A Jet around a map that already satisfies the clean-jet invariant."""
    j = _new_jet(Jet)
    j.ring = ring
    j.coeffs = coeffs
    j.trunc = trunc
    return j


def jet_known_zero(a: Jet) -> bool:
    is_zero = a.ring.coeff.is_zero
    for c in a.coeffs.values():
        if not is_zero(c):
            return False
    return True


def jet_exact_zero(a: Jet) -> bool:
    """Zero to every order: known to every order and storing nothing, since
    by the clean-jet invariant no stored coefficient is an exact zero."""
    return a.trunc >= EXACT and not a.coeffs


def _check_ctx(a: Jet, b: Jet):
    if a.ring is not b.ring:
        raise ContextMismatch(f"{a.ring!r} vs {b.ring!r}")


def jet_add(a: Jet, b: Jet) -> Jet:
    _check_ctx(a, b)
    ops = a.ring.coeff
    add, exact_zero = ops.add, ops.exact_zero
    trunc = min(a.trunc, b.trunc)
    out = dict(a.coeffs) if a.trunc == trunc else {
        i: c for i, c in a.coeffs.items() if i < trunc}
    for i, c in b.coeffs.items():
        if i in out:
            s = add(out[i], c)
            if exact_zero(s):
                del out[i]
            else:
                out[i] = s
        elif i < trunc:
            out[i] = c
    return _jet(a.ring, out, trunc)


def jet_neg(a: Jet) -> Jet:
    neg = a.ring.coeff.neg
    return _jet(a.ring, {i: neg(c) for i, c in a.coeffs.items()}, a.trunc)


def jet_smul(q, a: Jet) -> Jet:
    smul = a.ring.coeff.smul
    # only q = 0 can make exact zeros, and then the public constructor drops them
    return (_jet if q else Jet)(a.ring, {i: smul(q, c) for i, c in a.coeffs.items()}, a.trunc)


def jet_shift(a: Jet, k: int) -> Jet:
    """Left multiplication by t^k, a pure index shift."""
    if k == 0:
        return a
    return Jet(a.ring, {i + k: c for i, c in a.coeffs.items()}, _tadd(a.trunc, k))


def _kappa(j: int, m: int) -> int:
    """Coefficient of t^(j+m) delta^m(a) in a * t^j."""
    if j >= 0:
        if j == 0:
            return 1 if m == 0 else 0
        return math.comb(j + m - 1, m) * (-1 if m % 2 else 1)
    return math.comb(-j, m) if m <= -j else 0


def jet_dot(terms) -> Jet:
    """sum kappa * x * y over (kappa, x, y) triples of jets in one ring,
    fused as the module docstring says, with (t^i a)(t^j b) = sum_m
    kappa(j, m) t^(i+j+m) delta^m(a) b under delta, t^(i+j) sigma^j(a) b
    under sigma.  The delta chain per left coefficient stops at an exact
    zero or at the last power m at which some kappa(j, m) of a right order
    j is nonzero below trunc (m = -b_min if no j is positive); an inexact
    zero keeps flowing so its finite precision reaches the output."""
    ring = terms[0][1].ring
    trunc = EXACT
    for _, x, y in terms:
        if x.ring is not ring or y.ring is not ring:
            raise ContextMismatch(f"{x.ring!r} vs {y.ring!r} in a sum over {ring!r}")
        # min(_tadd(x.trunc, y.min_ord), _tadd(y.trunc, x.min_ord))
        if x.trunc < EXACT:
            t = x.trunc + y.min_ord
            if t < trunc:
                trunc = t
        if y.trunc < EXACT:
            t = y.trunc + x.min_ord
            if t < trunc:
                trunc = t
    ops = ring.coeff
    is_zero, exact_zero = ops.is_zero, ops.exact_zero
    delta, sigma = ring.delta, ring.sigma
    groups = defaultdict(list)
    for kap, a, b in terms:
        if not a.coeffs or not b.coeffs:
            continue
        bc = b.coeffs.items()
        if delta is None and sigma is None:
            for i, ai in a.coeffs.items():
                for j, bj in bc:
                    if i + j < trunc:
                        groups[i + j].append((kap, ai, bj))
            continue
        if delta is None:
            for i, ai in a.coeffs.items():
                for j, bj in bc:
                    if i + j < trunc:
                        groups[i + j].append((kap, sigma(ai, j), bj))
            continue
        b_min = min(b.coeffs)
        b_pos = min((j for j in b.coeffs if j > 0), default=EXACT)
        for i, ai in a.coeffs.items():
            dm = ai
            # past max_m each t^(i+j+m) has kappa(j, m) = 0 (j <= 0 < m + j)
            # or lies at or past trunc (j > 0); None: the chain never ends
            if trunc < EXACT:
                max_m = min(max(-b_min, trunc - i - b_pos - 1), trunc - i - b_min - 1)
            else:
                max_m = -b_min if b_pos == EXACT else None
            m = 0
            while True:
                if is_zero(dm):
                    if not exact_zero(dm):
                        # the rest of the chain only carries precision caps:
                        # spread one empty product per j over the remaining
                        # window (for j <= 0 the crossing stops at k = i)
                        if trunc >= EXACT and b_pos < EXACT:
                            trunc = ring.order
                        for j, bj in bc:
                            hi = min(trunc, i + 1 if j <= 0 else trunc)
                            for k in range(i + j + m, hi):
                                groups[k].append((kap, dm, bj))
                    break
                for j, bj in bc:
                    k = i + j + m
                    if k < trunc:
                        kk = _kappa(j, m)
                        if kk:
                            groups[k].append((kap * kk, dm, bj))
                m += 1
                if max_m is not None and m > max_m:
                    break
                if max_m is None and i + b_min + m >= ring.order:
                    # nonterminating crossing on an exact product: truncate
                    trunc = min(trunc, ring.order)
                    break
                dm = delta(dm)
    # one pass of the public constructor's filter over the sums below trunc
    sp = ops.dot or ops.sum_products
    out = {}
    for k, g in groups.items():
        if k < trunc:
            s = sp(g)
            if exact_zero(s):
                continue
            if k < ring.floor:
                raise _below_floor(ring, k)
            out[k] = s
    return _jet(ring, out, trunc)


def jet_mul(a: Jet, b: Jet) -> Jet:
    _check_ctx(a, b)
    return jet_dot([(1, a, b)])


def jet_inv(a: Jet) -> Jet:
    """Two-sided inverse modulo the available precision, at most the ring's
    working order.

    Requires the lowest nonzero coefficient to be a unit of the coefficient
    ring (recursively, in towers); raises LowestCoeffNotUnit carrying the
    offending coefficient otherwise.  With lowest order m, the inverse is
    known below target = min(a.trunc - 2m, order).  It writes a = c t^m with
    c = a t^-m known below target + m (for m > 0 kappa(-m, m) ends that
    product's delta chains, so the order does not cut it), and t^-m c^-1
    ends in a shift: the crossing runs over a's few coefficients, not over
    the inverse's dense ones.  Under sigma the pivot of order n is
    sigma^n(c0)^-1."""
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
    if m:
        c = jet_mul(a, ring.monomial(-m)).coeffs
        c0 = c[0]  # sigma^-m(c0) under sigma
    else:
        c = a.coeffs
    c0_inv = ops.inv(c0)
    delta, sigma = ring.delta, ring.sigma
    dtab: dict = {i: [ci] for i, ci in c.items()}

    def dpow(i, k):
        col = dtab[i]
        while len(col) <= k:
            col.append(delta(col[-1]))
        return col[k]

    d: dict = {}
    sp = ops.sum_products
    for n in range(max(0, n_ord)):
        terms = []
        for j, dj in d.items():
            rem = n - j
            if delta is None:
                ci = c.get(rem)
                if ci is not None:
                    terms.append((-1, sigma(ci, j) if sigma else ci, dj))
            else:
                for i in c:
                    mm = rem - i
                    if mm < 0:
                        continue
                    kap = _kappa(j, mm)
                    if not kap:
                        continue
                    dmi = dpow(i, mm)
                    if ops.exact_zero(dmi):
                        continue
                    terms.append((-kap, dmi, dj))
        if n == 0:
            acc = ops.one
        elif terms:
            acc = sp(terms)
        else:
            continue
        if ops.exact_zero(acc):
            continue
        d[n] = ops.mul(sigma(c0_inv, n) if sigma else c0_inv, acc)
    return jet_shift(Jet(ring, d, max(0, n_ord)), -m)


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
        groups = defaultdict(list)
        trunc = a.trunc
        for i, c in a.coeffs.items():
            # d_tw(i) * c is a right multiplication by a coefficient: no
            # crossing, so apply it entrywise instead of through jet_mul
            dtwi = d_tw(i)
            for k, ck in dtwi.coeffs.items():
                groups[k].append((1, ck, c))
            trunc = min(trunc, dtwi.trunc)
            if delta_on_coeffs is not None:
                groups[i].append((1, delta_on_coeffs(c), ops.one))
        sp = ops.dot or ops.sum_products
        return Jet(jring, {k: sp(g) for k, g in groups.items() if k < trunc}, trunc)

    return Derivation(name, fn)


def series_hom(a: Jet, phi: Callable[[Any], Any], target: JetRing) -> Jet:
    """Coefficientwise map sum t_w^i a_i -> sum t_z^i phi(a_i).

    phi(delta_w(a)) = delta_z(phi(a)) is verified on every coefficient
    actually mapped, unless neither ring has a derivation; a failure raises
    CompatibilityFailure carrying the witness coefficient."""
    src = a.ring
    if src.delta is None and target.delta is None:
        return Jet(target, {i: phi(c) for i, c in a.coeffs.items()}, a.trunc)
    zero, eq = target.coeff.zero, target.coeff.eq
    out = {}
    for i, c in a.coeffs.items():
        lhs = phi(src.delta(c)) if src.delta else zero
        out[i] = pc = phi(c)
        rhs = target.delta(pc) if target.delta else zero
        if not eq(lhs, rhs):
            raise CompatibilityFailure("coefficient map does not intertwine the derivations", c)
    return Jet(target, out, a.trunc)


# -- base coefficient rings ---------------------------------------------------


def fraction_ops() -> RingOps:
    return RingOps(
        name="Q",
        zero=Fraction(0),
        one=Fraction(1),
        smul=operator.mul,
        inv=lambda a: 1 / Fraction(a),
        is_unit=bool,
    )


# -- the two towers used by the certifications --------------------------------


class Tower:
    """An iterated series ring with named levels, innermost first."""

    __slots__ = ("levels", "top", "gens")

    def __init__(self, levels: list, top: JetRing, gens: Optional[dict] = None):
        self.levels, self.top, self.gens = levels, top, {} if gens is None else gens

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
