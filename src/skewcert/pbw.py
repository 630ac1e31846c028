"""Finite-dimensional Lie algebras over Q given by structure constants, and
exact arithmetic in their enveloping algebras via PBW straightening.

Elements of U(L) are sparse Q-combinations of standard monomials
e_1^{n_1} ... e_d^{n_d} (exponent tuples).  Products are normalized by the
rewrite x_j x_i -> x_i x_j + [x_j, x_i] for j > i; each rewrite either
shortens the word or lowers its disorder, so the recursion terminates, and
results are cached per algebra.

Also here: the principal involution (the anti-automorphism extending
x -> -x), the augmentation, the weight-induced valuation chi with its
Laurent extension, homomorphisms into arbitrary rings through the RingOps
contract, scaling automorphisms of graded algebras, and the three built-in
presets (Heisenberg, the noncommutative two-dimensional algebra, and the
free nilpotent algebra of class 3 on two generators).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import BracketIncompatible, NotGraded
from .rings import RingOps
from .scalar import RatFun, rat
from .skewfrac import ShiftAut, SkewFrac
from .skewfrac import ring_ops as skewfield_ring_ops

INF = math.inf


class LieAlg:
    """Ordered basis e_0 < ... < e_{d-1}; brackets stored for j > i only."""

    def __init__(self, name, basis, brackets, weights=None):
        self.name = name
        self.basis = tuple(basis)
        self.index = {b: i for i, b in enumerate(self.basis)}
        table = {}
        for (j, i), terms in brackets.items():
            if not j > i:
                raise ValueError(f"bracket table wants j > i, got ({j}, {i})")
            terms = tuple((k, rat(c)) for k, c in terms if c)
            if terms:
                table[(j, i)] = terms
        self.brackets = table
        self.weights = tuple(weights) if weights else (1,) * len(self.basis)
        if len(self.weights) != len(self.basis):
            raise ValueError("one weight per basis element")
        self.graded = all(
            self.weights[k] == self.weights[i] + self.weights[j]
            for (j, i), terms in table.items()
            for k, _ in terms
        )
        self._mul_cache: dict = {}

    @property
    def dim(self) -> int:
        return len(self.basis)

    def bracket_pairs(self, j: int, i: int):
        """[e_j, e_i] as ((k, coeff), ...) for any pair."""
        if j == i:
            return ()
        if j > i:
            return self.brackets.get((j, i), ())
        return tuple((k, -c) for k, c in self.brackets.get((i, j), ()))

    def gen(self, name: str) -> "UElem":
        i = self.index[name]
        key = tuple(1 if k == i else 0 for k in range(self.dim))
        return UElem(self, {key: Fraction(1)})

    def one(self) -> "UElem":
        return UElem(self, {(0,) * self.dim: Fraction(1)})

    def zero(self) -> "UElem":
        return UElem(self, {})

    def __repr__(self):
        return f"LieAlg({self.name}, dim={self.dim})"


def _bracket_vec(L: LieAlg, vec_a: dict, vec_b: dict) -> dict:
    out: dict = {}
    for i, ca in vec_a.items():
        for j, cb in vec_b.items():
            for k, c in L.bracket_pairs(i, j):
                out[k] = out.get(k, Fraction(0)) + ca * cb * c
    return {k: c for k, c in out.items() if c}


def jacobi_check(L: LieAlg) -> bool:
    """Jacobi identity on all basis triples (antisymmetry is structural)."""
    d = L.dim
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                acc: dict = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = dict(L.bracket_pairs(a, b))
                    for m, cm in _bracket_vec(L, inner, {c: Fraction(1)}).items():
                        acc[m] = acc.get(m, Fraction(0)) + cm
                if any(acc.values()):
                    return False
    return True


class UElem:
    """Sparse element of U(L): exponent tuple -> rational coefficient."""

    __slots__ = ("alg", "terms")

    def __init__(self, alg: LieAlg, terms: dict):
        self.alg = alg
        self.terms = {m: c for m, c in terms.items() if c}

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, UElem)
            and self.alg is other.alg
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((id(self.alg), tuple(sorted(self.terms.items()))))

    def __add__(self, other: "UElem") -> "UElem":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return UElem(self.alg, out)

    def __neg__(self):
        return UElem(self.alg, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.smul(other)
        return u_mul(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.smul(other)
        return NotImplemented

    def smul(self, q) -> "UElem":
        q = rat(q)
        return UElem(self.alg, {m: q * c for m, c in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "0"
        names = self.alg.basis
        parts = []
        for m, c in sorted(self.terms.items()):
            word = "*".join(
                n if e == 1 else f"{n}^{e}" for n, e in zip(names, m) if e
            )
            if not word:
                parts.append(str(c))
            elif c == 1:
                parts.append(word)
            else:
                parts.append(f"{c}*{word}")
        return " + ".join(parts).replace("+ -", "- ")


def _mono_times_gen(L: LieAlg, mono: tuple, g: int):
    """Normal form of (standard monomial) * e_g, as ((mono, coeff), ...)."""
    cached = L._mul_cache.get((mono, g))
    if cached is not None:
        return cached
    top = -1
    for idx in range(L.dim - 1, -1, -1):
        if mono[idx]:
            top = idx
            break
    if top <= g:
        out = list(mono)
        out[g] += 1
        result = ((tuple(out), Fraction(1)),)
    else:
        stripped = list(mono)
        stripped[top] -= 1
        m1 = tuple(stripped)
        acc: dict = {}
        # mono * e_g = (m1 * e_g) * e_top + m1 * [e_top, e_g]
        for mm, c in _mono_times_gen(L, m1, g):
            for mm2, c2 in _mono_times_gen(L, mm, top):
                acc[mm2] = acc.get(mm2, Fraction(0)) + c * c2
        for k, ck in L.bracket_pairs(top, g):
            for mm, c in _mono_times_gen(L, m1, k):
                acc[mm] = acc.get(mm, Fraction(0)) + ck * c
        result = tuple((m, c) for m, c in acc.items() if c)
    L._mul_cache[(mono, g)] = result
    return result


def _mono_mul(L: LieAlg, ma: tuple, mb: tuple) -> dict:
    acc = {ma: Fraction(1)}
    for g in range(L.dim):
        for _ in range(mb[g]):
            nxt: dict = {}
            for m, c in acc.items():
                for m2, c2 in _mono_times_gen(L, m, g):
                    nxt[m2] = nxt.get(m2, Fraction(0)) + c * c2
            acc = nxt
    return acc


def u_mul(a: UElem, b: UElem) -> UElem:
    if a.alg is not b.alg:
        raise ValueError("operands live in different algebras")
    out: dict = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            for m, c in _mono_mul(a.alg, ma, mb).items():
                out[m] = out.get(m, Fraction(0)) + ca * cb * c
    return UElem(a.alg, out)


def u_involution(a: UElem) -> UElem:
    """The principal involution: reverse each standard monomial, negate each
    letter, re-straighten.  An anti-automorphism of order two fixing Q."""
    L = a.alg
    out = L.zero()
    for mono, c in a.terms.items():
        total = sum(mono)
        acc = {(0,) * L.dim: Fraction(1)}
        for g in range(L.dim - 1, -1, -1):
            for _ in range(mono[g]):
                nxt: dict = {}
                for m, cm in acc.items():
                    for m2, c2 in _mono_times_gen(L, m, g):
                        nxt[m2] = nxt.get(m2, Fraction(0)) + cm * c2
                acc = nxt
        sign = Fraction(-1) if total % 2 else Fraction(1)
        out = out + UElem(L, {m: sign * c * cm for m, cm in acc.items()})
    return out


def augmentation(a: UElem) -> Fraction:
    """epsilon: U(L) -> Q, the coefficient of the empty monomial."""
    return a.terms.get((0,) * a.alg.dim, Fraction(0))


def chi_valuation(a: UElem):
    """chi(monomial) = -(weighted length); chi(sum) = min; chi(0) = infinity."""
    if not a.terms:
        return INF
    w = a.alg.weights
    return min(-sum(wi * ni for wi, ni in zip(w, mono)) for mono in a.terms)


def laurent_chi(coeffs) -> float:
    """chi(sum_i t^i a_i) = min_i (chi(a_i) + i) on Laurent polynomials over
    U(L) with central t, given as (i, UElem) pairs."""
    vals = [chi_valuation(a) + i for i, a in coeffs if a]
    return min(vals) if vals else INF


class LieHom:
    """Images of basis elements in a target ring; bracket compatibility is
    verified on all basis pairs at construction."""

    def __init__(self, domain: LieAlg, images, ops: RingOps):
        if len(images) != domain.dim:
            raise ValueError("one image per basis element")
        self.domain = domain
        self.images = list(images)
        self.ops = ops
        self._verify()
        self._powers: dict = {}

    def _verify(self):
        ops = self.ops
        for j in range(self.domain.dim):
            for i in range(j):
                lhs = ops.zero
                for k, c in self.domain.bracket_pairs(j, i):
                    lhs = ops.add(lhs, ops.smul(c, self.images[k]))
                rhs = ops.sub(
                    ops.mul(self.images[j], self.images[i]),
                    ops.mul(self.images[i], self.images[j]),
                )
                if not ops.eq(lhs, rhs):
                    pair = (self.domain.basis[j], self.domain.basis[i])
                    raise BracketIncompatible(
                        f"phi([{pair[0]}, {pair[1]}]) != [phi({pair[0]}), phi({pair[1]})]"
                    )

    def _power(self, i: int, n: int):
        key = (i, n)
        if key not in self._powers:
            if n == 0:
                self._powers[key] = self.ops.one
            else:
                self._powers[key] = self.ops.mul(self._power(i, n - 1), self.images[i])
        return self._powers[key]

    def __call__(self, a: UElem):
        return hom_apply(self, a)


def hom_apply(phi: LieHom, a: UElem):
    """Multiplicative extension over standard monomials; by the PBW theorem
    this is the unique algebra-map extension of the Lie homomorphism."""
    if a.alg is not phi.domain:
        raise ValueError("element not in the homomorphism's domain")
    ops = phi.ops
    acc = ops.zero
    for mono, c in sorted(a.terms.items()):
        val = ops.one
        for i, n in enumerate(mono):
            if n:
                val = ops.mul(val, phi._power(i, n))
        acc = ops.add(acc, ops.smul(c, val))
    return acc


def uelem_ring_ops(L: LieAlg) -> RingOps:
    return RingOps(
        name=f"U({L.name})",
        zero=L.zero(),
        one=L.one(),
        mul=u_mul,
        smul=lambda q, a: a.smul(q),
    )


def scaling_automorphism(L: LieAlg, lam) -> LieHom:
    """Basis element of weight d maps to lam^d times itself; an algebra
    automorphism of U(L) whenever the weights grade the brackets and lam is
    nonzero (lam = 0 raises ValueError)."""
    if not L.graded:
        raise NotGraded(f"{L.name} has no bracket-compatible grading")
    lam = rat(lam)
    if not lam:
        raise ValueError("scaling factor lambda must be nonzero")
    ops = uelem_ring_ops(L)
    images = [L.gen(name).smul(lam ** L.weights[i]) for i, name in enumerate(L.basis)]
    return LieHom(L, images, ops)


# -- presets ------------------------------------------------------------------


def heisenberg() -> LieAlg:
    """x < y < z with [y, x] = z and z central; weights 1, 1, 2."""
    return LieAlg(
        "H",
        ("x", "y", "z"),
        {(1, 0): ((2, Fraction(1)),)},
        weights=(1, 1, 2),
    )


def two_dimensional() -> LieAlg:
    """e < f with [e, f] = f: the noncommutative two-dimensional algebra.
    No positive weights grade it, so the graded flag is off."""
    return LieAlg(
        "M2",
        ("e", "f"),
        {(1, 0): ((1, Fraction(-1)),)},  # [f, e] = -f
        weights=(1, 1),
    )


def free_nilpotent_class3() -> LieAlg:
    """u < v < w < n1 < n2 with w = [v, u], n1 = [w, u], n2 = [w, v] and all
    weight-4 brackets zero; weights 1, 1, 2, 3, 3."""
    return LieAlg(
        "L3",
        ("u", "v", "w", "n1", "n2"),
        {
            (1, 0): ((2, Fraction(1)),),  # [v, u] = w
            (2, 0): ((3, Fraction(1)),),  # [w, u] = n1
            (2, 1): ((4, Fraction(1)),),  # [w, v] = n2
        },
        weights=(1, 1, 2, 3, 3),
    )


def heisenberg_V(H: LieAlg) -> UElem:
    """V = (1/2) z (xy + yx) z in U(H) (same formula in any preset whose
    first three generators play x, y, z)."""
    x, y, z = (H.gen(H.basis[0]), H.gen(H.basis[1]), H.gen(H.basis[2]))
    return (z * (x * y + y * x) * z).smul(Fraction(1, 2))


def rho_class3_to_heisenberg(L3: LieAlg, H: LieAlg) -> LieHom:
    """u -> x, v -> y, w -> z, n1 -> 0, n2 -> 0; its kernel is the abelian
    ideal spanned by n1, n2."""
    ops = uelem_ring_ops(H)
    zero = H.zero()
    return LieHom(L3, [H.gen("x"), H.gen("y"), H.gen("z"), zero, zero], ops)


def phi_heisenberg_to_skewfield(H: LieAlg) -> LieHom:
    """The composite map U(H) -> K(p;sigma), x -> p^{-1} t, y -> p, z -> 1,
    with sigma(t) = t - 1."""
    aut = ShiftAut(Fraction(1))
    ops_sf = skewfield_ring_ops(aut)
    p = SkewFrac.p(aut)
    t = SkewFrac.from_ratfun(aut, RatFun.t())
    return LieHom(H, [p.inv() * t, p, SkewFrac.one(aut)], ops_sf)


def twodim_to_skewfield(M2: LieAlg) -> LieHom:
    """U(M2) = Q[e][f;sigma] with sigma(e) = e + 1: e -> base variable,
    f -> skew variable."""
    aut = ShiftAut(Fraction(-1))
    return LieHom(
        M2,
        [SkewFrac.from_ratfun(aut, RatFun.t()), SkewFrac.p(aut)],
        skewfield_ring_ops(aut),
    )
