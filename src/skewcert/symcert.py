"""Symbolic certifier for involution symmetry and scaling invariance of
noncommutative fraction expressions.

Expressions form a DAG of atoms, rational constants, sums, ordered products,
inverses and negations.  A fact table declares, per atom, a definition in an
enveloping algebra (a polynomial element, or a fraction with numerator and
denominator in a commutative subalgebra), the atom's image under the
principal involution, which atom pairs commute, and why each atom is
invertible.  verify_facts checks every declared fact exactly in U(L) before
any fact is used; prove_equal then decides equality inside the fragment
where the only rewrites needed are scalar normalization, cancellation of a
factor against its inverse, and reordering of declared-commuting factors.
Within that fragment every expression is a Q-combination of words in the
atoms and their inverses, and two expressions are equal exactly when their
canonical word normal forms coincide; "unable" reports an expression outside
the fragment (an inverse of a proper sum).  Verdicts are relative to the
verified facts; "equal" verdicts are additionally cross-checked by jet or
exact substitution through `substitute`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Union

from .errors import FactFailure, UnknownAtomStar
from .pbw import LieAlg, UElem, u_involution, u_mul
from .rings import RingOps
from .scalar import rat


class Expr:
    __slots__ = ()

    def __add__(self, other):
        return Add((self, other))

    def __mul__(self, other):
        return Mul((self, other))

    def __neg__(self):
        return Neg(self)


@dataclass(frozen=True)
class Atom(Expr):
    name: str


@dataclass(frozen=True)
class ConstQ(Expr):
    value: Fraction


@dataclass(frozen=True)
class Add(Expr):
    terms: tuple


@dataclass(frozen=True)
class Mul(Expr):
    factors: tuple


@dataclass(frozen=True)
class Inv(Expr):
    arg: Expr


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


def const(q) -> ConstQ:
    return ConstQ(rat(q))


def mul(*factors) -> Mul:
    return Mul(tuple(factors))


def add(*terms) -> Add:
    return Add(tuple(terms))


@dataclass
class StarFact:
    """atom* = sign * target^exponent with sign in {1,-1}, exponent in {1,-1}."""

    sign: int
    target: str
    exponent: int


@dataclass
class AtomFacts:
    name: str
    # a UElem, or a (numerator, denominator) pair of commuting UElems
    definition: Union[UElem, tuple]
    star: StarFact
    invert_via: str  # justification tag, e.g. "skewfield-image" / "jet-unit"
    invert_check: Optional[Callable[[], tuple[bool, str]]] = None


@dataclass
class FactTable:
    algebra: LieAlg
    atoms: dict = field(default_factory=dict)
    commuting: set = field(default_factory=set)  # frozensets of atom names
    verified: bool = False
    witnesses: list = field(default_factory=list)

    def add_atom(self, facts: AtomFacts):
        self.atoms[facts.name] = facts
        self.verified = False

    def declare_commuting(self, a: str, b: str):
        self.commuting.add(frozenset((a, b)))
        self.verified = False

    def commute(self, a: str, b: str) -> bool:
        return a == b or frozenset((a, b)) in self.commuting

    def order(self, name: str) -> int:
        return list(self.atoms).index(name)


def verify_facts(table: FactTable) -> list:
    """Check every declared fact exactly; returns the witness log and marks
    the table verified.  Raises FactFailure naming the first failing fact."""
    witnesses = []
    atoms = table.atoms
    for name, af in atoms.items():
        sf = af.star
        if sf.target not in atoms:
            raise FactFailure(f"star fact of {name} references unknown atom {sf.target}")
        tgt = atoms[sf.target].definition
        if isinstance(af.definition, UElem):
            if sf.exponent != 1 or not isinstance(tgt, UElem):
                raise FactFailure(
                    f"star fact of polynomial atom {name} must map to a polynomial atom"
                )
            lhs = u_involution(af.definition)
            rhs = tgt if sf.sign == 1 else -tgt
            if lhs != rhs:
                raise FactFailure(f"star fact fails: {name}* != {'-' if sf.sign < 0 else ''}{sf.target}")
            witnesses.append(f"star: {name}* = {'-' if sf.sign < 0 else ''}{sf.target} (exact in U({table.algebra.name}))")
        else:
            num, den = af.definition
            if sf.target != name or sf.exponent != -1:
                raise FactFailure(
                    f"fraction atom {name} only supports star facts of the form {name}* = +-{name}^-1"
                )
            # a = num/den in a commutative subring; a* = sign * a^-1 means
            # num* den^-1 ... = sign den num^-1, i.e. num* num = sign den* den
            for p, q in ((num, den), (num, u_involution(num)), (num, u_involution(den)),
                         (den, u_involution(num)), (den, u_involution(den))):
                if u_mul(p, q) != u_mul(q, p):
                    raise FactFailure(
                        f"fraction atom {name}: parts do not commute, star fact unverifiable"
                    )
            lhs = u_mul(u_involution(num), num)
            rhs = u_mul(u_involution(den), den)
            if sf.sign == -1:
                rhs = -rhs
            if lhs != rhs:
                raise FactFailure(f"star fact fails: {name}* != {'-' if sf.sign < 0 else ''}{name}^-1")
            witnesses.append(f"star: {name}* = {'-' if sf.sign < 0 else ''}{name}^-1 (cross-multiplied in U({table.algebra.name}))")
    for pair in sorted(table.commuting, key=sorted):
        a, b = sorted(pair)
        da, db = atoms[a].definition, atoms[b].definition
        if not isinstance(da, UElem) or not isinstance(db, UElem):
            raise FactFailure(f"commutation of {a}, {b}: only polynomial atoms supported")
        if u_mul(da, db) != u_mul(db, da):
            raise FactFailure(f"commutation fact fails: [{a}, {b}] != 0")
        witnesses.append(f"commute: [{a}, {b}] = 0 (exact in U({table.algebra.name}))")
    for name, af in atoms.items():
        if af.invert_check is None:
            raise FactFailure(f"atom {name} has no invertibility justification")
        ok, detail = af.invert_check()
        if not ok:
            raise FactFailure(f"invertibility fact fails for {name}: {detail}")
        witnesses.append(f"invertible: {name} via {af.invert_via} ({detail})")
    table.verified = True
    table.witnesses = witnesses
    return witnesses


def star(e: Expr, table: FactTable) -> Expr:
    """Structural involution pushdown: reverses products, distributes over
    sums, commutes with Inv and Neg, fixes constants, applies the atom
    star table."""
    if isinstance(e, ConstQ):
        return e
    if isinstance(e, Atom):
        af = table.atoms.get(e.name)
        if af is None:
            raise UnknownAtomStar(f"no star fact for atom {e.name}")
        sf = af.star
        out: Expr = Atom(sf.target)
        if sf.exponent == -1:
            out = Inv(out)
        return Neg(out) if sf.sign < 0 else out
    if isinstance(e, Add):
        return Add(tuple(star(t, table) for t in e.terms))
    if isinstance(e, Mul):
        return Mul(tuple(star(f, table) for f in reversed(e.factors)))
    if isinstance(e, Inv):
        return Inv(star(e.arg, table))
    if isinstance(e, Neg):
        return Neg(star(e.arg, table))
    raise TypeError(f"not an expression: {e!r}")


# -- normal form: Q-combinations of words in partially commuting atoms -------


def _to_terms(e: Expr, table: FactTable) -> Optional[dict]:
    """dict: word -> coefficient, word = tuple of (atom, exponent); None if
    the expression leaves the decidable fragment (Inv of a proper sum)."""
    if isinstance(e, ConstQ):
        return {(): e.value} if e.value else {}
    if isinstance(e, Atom):
        return {((e.name, 1),): Fraction(1)}
    if isinstance(e, Neg):
        t = _to_terms(e.arg, table)
        return None if t is None else {w: -c for w, c in t.items()}
    if isinstance(e, Add):
        out: dict = {}
        for term in e.terms:
            t = _to_terms(term, table)
            if t is None:
                return None
            for w, c in t.items():
                out[w] = out.get(w, Fraction(0)) + c
        return {w: c for w, c in out.items() if c}
    if isinstance(e, Mul):
        out = {(): Fraction(1)}
        for f in e.factors:
            t = _to_terms(f, table)
            if t is None:
                return None
            nxt: dict = {}
            for w1, c1 in out.items():
                for w2, c2 in t.items():
                    w = w1 + w2
                    c = c1 * c2
                    nxt[w] = nxt.get(w, Fraction(0)) + c
            out = {w: c for w, c in nxt.items() if c}
        return out
    if isinstance(e, Inv):
        t = _to_terms(e.arg, table)
        if t is None or len(t) != 1:
            return None  # inverse of a proper sum: outside the fragment
        (w, c), = t.items()
        winv = tuple((a, -x) for a, x in reversed(w))
        return {winv: 1 / c}
    raise TypeError(f"not an expression: {e!r}")


def _canon_word(word: tuple, table: FactTable) -> tuple:
    """Canonical form of a word in a partially commutative group: merge a
    letter into an earlier occurrence of the same atom whenever everything
    in between commutes with it (cancellation included), then the greedy
    lexicographically-least shuffle."""
    letters = [list(l) for l in word]
    changed = True
    while changed:
        changed = False
        # merge/cancel pass
        i = 0
        while i < len(letters):
            a = letters[i][0]
            j = i + 1
            blocked = False
            while j < len(letters):
                if letters[j][0] == a and not blocked:
                    letters[i][1] += letters[j][1]
                    del letters[j]
                    if letters[i][1] == 0:
                        del letters[i]
                        i = -1  # restart
                    changed = True
                    break
                if not table.commute(a, letters[j][0]):
                    blocked = True
                j += 1
            i += 1
        # greedy minimal shuffle
        out = []
        pool = list(letters)
        while pool:
            best = 0
            for k in range(1, len(pool)):
                if all(table.commute(pool[k][0], pool[r][0]) for r in range(k)):
                    if table.order(pool[k][0]) < table.order(pool[best][0]):
                        best = k
            if best != 0:
                changed = True
            out.append(pool.pop(best))
        letters = out
    return tuple((a, x) for a, x in letters)


def normal_form(e: Expr, table: FactTable) -> Optional[dict]:
    t = _to_terms(e, table)
    if t is None:
        return None
    out: dict = {}
    for w, c in t.items():
        cw = _canon_word(w, table)
        out[cw] = out.get(cw, Fraction(0)) + c
    return {w: c for w, c in out.items() if c}


def prove_equal(e1: Expr, e2: Expr, table: FactTable) -> str:
    """'equal' / 'unequal' (definitive relative to the verified facts) or
    'unable' when either expression leaves the decidable fragment."""
    if not table.verified:
        raise FactFailure("facts must be verified before proving equalities")
    n1 = normal_form(e1, table)
    n2 = normal_form(e2, table)
    if n1 is None or n2 is None:
        return "unable"
    return "equal" if n1 == n2 else "unequal"


def substitute(e: Expr, values: dict, ops: RingOps, memo: Optional[dict] = None):
    """Evaluate the DAG at concrete atom values (jets, fractions, ...).

    The memo is keyed by the (frozen, hashable) nodes themselves, so
    structurally identical subtrees share their values.  Scalar constants
    and signs are peeled off before inverting, and the inverse of the peeled
    product is memoized under its own Inv node, so Inv(Neg(C)) and rescaled
    expressions reuse the inverse of their unscaled atoms; a caller may seed
    the memo with inverses it has already checked."""
    if memo is None:
        memo = {}
    if e in memo:
        return memo[e]
    if isinstance(e, ConstQ):
        val = ops.smul(e.value, ops.one)
    elif isinstance(e, Atom):
        val = values[e.name]
    elif isinstance(e, Neg):
        val = ops.neg(substitute(e.arg, values, ops, memo))
    elif isinstance(e, Add):
        val = ops.total(substitute(t, values, ops, memo) for t in e.terms)
    elif isinstance(e, Mul):
        scalar, rest = _split_scalars(e.factors)
        val = _product(rest, values, ops, memo)
        if scalar != 1:
            val = ops.smul(scalar, val)
    elif isinstance(e, Inv):
        if ops.inv is None:
            raise TypeError(f"{ops.name} cannot invert")
        scalar, rest = _split_scalars((e.arg,))
        core = Inv(rest[0] if len(rest) == 1 else Mul(tuple(rest)))
        if core in memo:
            val = memo[core]
        else:
            val = memo[core] = ops.inv(_product(rest, values, ops, memo))
        if scalar != 1:
            val = ops.smul(1 / scalar, val)
    else:
        raise TypeError(f"not an expression: {e!r}")
    memo[e] = val
    return val


def _product(factors, values, ops, memo):
    if not factors:
        return ops.one
    val = substitute(factors[0], values, ops, memo)
    for f in factors[1:]:
        val = ops.mul(val, substitute(f, values, ops, memo))
    return val


def _split_scalars(factors) -> tuple[Fraction, list]:
    scalar = Fraction(1)
    rest = []
    for f in factors:
        while isinstance(f, Neg):
            scalar = -scalar
            f = f.arg
        if isinstance(f, ConstQ):
            scalar *= f.value
        elif isinstance(f, Mul):
            s2, r2 = _split_scalars(f.factors)
            scalar *= s2
            rest.extend(r2)
        else:
            rest.append(f)
    return scalar, rest


def scale_atoms(e: Expr, factors: dict) -> Expr:
    """Replace each atom a by factors[a] * a (used for the homogeneity
    check: the factors are lambda^weight computed in the enveloping
    algebra)."""
    if isinstance(e, Atom):
        f = factors.get(e.name, Fraction(1))
        return e if f == 1 else Mul((ConstQ(f), e))
    if isinstance(e, ConstQ):
        return e
    if isinstance(e, Neg):
        return Neg(scale_atoms(e.arg, factors))
    if isinstance(e, Add):
        return Add(tuple(scale_atoms(t, factors) for t in e.terms))
    if isinstance(e, Mul):
        return Mul(tuple(scale_atoms(f, factors) for f in e.factors))
    if isinstance(e, Inv):
        return Inv(scale_atoms(e.arg, factors))
    raise TypeError(f"not an expression: {e!r}")
