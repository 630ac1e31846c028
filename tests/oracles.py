"""Reference implementations that only the tests call: independent oracles
for the kernels in `skewcert`, and small helpers the tests state laws with.
They live here rather than in the package, so a command never compiles
them."""

from fractions import Fraction

from skewcert import skewfrac
from skewcert.errors import DivisionByZero, PoleAtPoint
from skewcert.freecert import MODULUS
from skewcert.scalar import Poly, RatFun
from skewcert.series import EXACT, Jet, _kappa, _tadd, jet_add, jet_mul, jet_neg
from skewcert.skewpoly import sp_gcrd_llcm, sp_mul


def word_str(w, names) -> str:
    """A word as its letters' names joined by dots, an inverse primed."""
    if not w:
        return "1"
    return ".".join(names[abs(a) - 1] + ("'" if a < 0 else "") for a in w)


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder of a by b over Q (Fraction coefficients)."""
    if not b:
        raise DivisionByZero("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a.coeffs) - len(b.coeffs) + 1)
    rem = list(a.coeffs)
    dlc = b.lc()
    dd = b.degree
    while len(rem) - 1 >= dd and any(rem):
        while rem and not rem[-1]:
            rem.pop()
        if len(rem) - 1 < dd:
            break
        k = len(rem) - 1 - dd
        c = rem[-1] / dlc
        q[k] = c
        for i, y in enumerate(b.coeffs):
            rem[k + i] -= c * y
        rem.pop()
    return Poly(q), Poly(rem)


def poly_compose(a: Poly, inner: Poly) -> Poly:
    """a(inner) by Horner's rule."""
    acc = Poly()
    for c in reversed(a.coeffs):
        acc = acc * inner + Poly.const(c)
    return acc


def _zz_eval_at(a, p: int, q: int) -> int:
    """q^deg(a) * a(p/q) for an integer coefficient list a."""
    acc = 0
    w = 1
    for c in reversed(a):
        acc = acc * p + c * w
        w *= q
    return acc


def ratfun_eval(f: RatFun, point: Fraction) -> Fraction:
    """f(point) exactly, from the integer lists of `f`; PoleAtPoint where
    the denominator vanishes."""
    p, q = point.numerator, point.denominator
    n, d = f._n, f._d
    dv = _zz_eval_at(d, p, q)
    if dv == 0:
        raise PoleAtPoint(f"pole at t = {point}")
    if not n:
        return Fraction(0)
    # n(p/q) / d(p/q) = (nv / q^deg n) / (dv / q^deg d)
    num, den = f._cn * _zz_eval_at(n, p, q), f._cd * dv
    e = len(d) - len(n)
    if e >= 0:
        num *= q ** e
    else:
        den *= q ** -e
    return Fraction(num, den)


def check_leibniz(delta, ops, pairs):
    """Sample the Leibniz law delta(ab) = delta(a) b + a delta(b); returns
    (True, None) or (False, the first failing pair)."""
    for a, b in pairs:
        lhs = delta(ops.mul(a, b))
        rhs = ops.add(ops.mul(delta(a), b), ops.mul(a, delta(b)))
        if not ops.eq(lhs, rhs):
            return False, (a, b)
    return True, None


def fully_exact(c) -> bool:
    """c hides no truncation at any tower level: a jet known to every
    order whose coefficients are all fully exact, or a base-ring scalar."""
    if isinstance(c, Jet):
        return c.trunc >= EXACT and all(fully_exact(x) for x in c.coeffs.values())
    return True


def exact_zero(ops, c) -> bool:
    """c is zero to every order, by the recursive definition: known zero
    and fully exact.  The reference for `RingOps.exact_zero`."""
    return ops.is_zero(c) and fully_exact(c)


def jet_sub(a: Jet, b: Jet) -> Jet:
    return jet_add(a, jet_neg(b))


def jet_truncate(a: Jet, order: int) -> Jet:
    return Jet(a.ring, a.coeffs, min(a.trunc, order))


def jet_inv_left(a: Jet) -> Jet:
    """The inverse of a unit jet a with lowest order m, written as a = t^m c
    and returned as c^-1 t^-m: under a derivation with m < 0, that right
    factor crosses every coefficient of c^-1.  The oracle of
    `series.jet_inv`, which crosses t^-m on a's side instead; a must pass
    `jet_inv`'s unit checks."""
    ring = a.ring
    ops = ring.coeff
    m = a.nonzero_min_ord()
    c0 = a.coeffs[m]
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
                    if exact_zero(ops, dmi):
                        continue
                    terms.append((-kap, dmi, dj))
        if n == 0:
            acc = ops.one
        elif terms:
            acc = ops.sum_products(terms)
        else:
            continue
        if exact_zero(ops, acc):
            continue
        d[n] = ops.mul(sigma(c0_inv, n) if sigma else c0_inv, acc)
    dj = Jet(ring, d, max(0, n_ord))
    if m == 0:
        return dj
    return jet_mul(dj, ring.monomial(-m))


def sf_eq_cross(a, b) -> bool:
    """Cross-llcm equality test of two skew fractions, independent of
    canonical forms."""
    a._check(b)
    if not a or not b:
        return (not a) and (not b)
    _, _, c1, c2 = sp_gcrd_llcm(a.den, b.den)
    return sp_mul(c1, a.num) == sp_mul(c2, b.num)


def cauchon_image_jets(order: int, alpha, beta, c):
    """xi = s, xi^{-1}, eta = u s u^{-1} and eta^{-1} = u s^{-1} u^{-1} of
    `skewfrac.cauchon_generators` as exact p-jets, each inverse taken
    exactly in Q(t)."""
    ring, s, u_jet, u_inv = skewfrac._conjugator_jets(order, c, alpha, beta, 1)
    xi, xi_inv = ring.make({0: s}, order), ring.make({0: s.inv()}, order)
    return xi, xi_inv, u_jet * xi * u_inv, u_jet * xi_inv * u_inv


def residue_pjets(jets, c, width: int, products: int, t0: int):
    """The p-jets `jets` read modulo MODULUS at P_k = t0 - k*c, for the k
    that up to `products` right multiplications by them need to keep the
    `width` points 0..width-1: a right factor of p-order j moves its left
    factor's range by -j.  A pole at any needed point moves t0 to the next
    integer; no point is skipped.  Returns the residue jets and the t0 used;
    on the exact p-jets, the oracle of `skewfrac.residue_generators`."""
    cq = skewfrac._residue_of(c)
    orders = [i for j in jets for i in j.coeffs] or [0]
    lo = -products * max(0, -min(orders))
    hi = width + products * max(0, max(orders))
    ring = skewfrac.residue_pjet_ring(jets[0].ring.order)
    while True:
        points = [(t0 - k * cq) % MODULUS for k in range(lo, hi)]
        try:
            return [ring.make({i: _residues(a, points, lo) for i, a in j.coeffs.items()}, j.trunc)
                    for j in jets], t0
        except PoleAtPoint:
            t0 += 1


def _residues(a: RatFun, points, lo: int):
    if a.is_const():
        return a.eval_mod([0], MODULUS)[0]
    return lo, tuple(a.eval_mod(points, MODULUS))
