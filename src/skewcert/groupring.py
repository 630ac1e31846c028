"""The rational group ring Q[F2] of the free group on {x, y}, with reduced
words as the canonical basis.  Coefficients are ints while integral (a
`Fraction` enters only with a non-integral rational), and a product of reduced
words is reduced only where they meet (`join`), never again as a whole."""

from __future__ import annotations

from fractions import Fraction

from .errors import AdapterFailure
from .rings import RingOps
from .scalar import rat


def reduce_word(letters) -> tuple:
    """Free reduction of a list of (generator, exponent) syllables."""
    out: list = []
    for g, e in letters:
        if not e:
            continue
        if out and out[-1][0] == g:
            e2 = out[-1][1] + e
            out.pop()
            if e2:
                out.append((g, e2))
        else:
            out.append((g, e))
    return tuple(out)


def join(a: tuple, b: tuple) -> tuple:
    """Product of reduced syllable tuples: cancel or merge where they meet."""
    i, j = len(a), 0
    while i and j < len(b) and a[i - 1][0] == b[j][0]:
        g, e = a[i - 1][0], a[i - 1][1] + b[j][1]
        if e:
            return a[:i - 1] + ((g, e),) + b[j + 1:]
        i, j = i - 1, j + 1
    return a[:i] + b[j:]


def _coef(c):
    """A rational as an int when it is integral, else as a Fraction."""
    q = rat(c)
    return q.numerator if q.denominator == 1 else q


class FWord:
    """Reduced word in F2: syllables (gen, nonzero exponent), alternating gens."""

    __slots__ = ("letters",)

    def __init__(self, letters=(), _reduced=False):
        self.letters = tuple(letters) if _reduced else reduce_word(letters)

    def __mul__(self, other: "FWord") -> "FWord":
        return FWord(join(self.letters, other.letters), _reduced=True)

    def inv(self) -> "FWord":
        return FWord(tuple((g, -e) for g, e in reversed(self.letters)), _reduced=True)

    def __eq__(self, other):
        return isinstance(other, FWord) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __len__(self):
        return sum(abs(e) for _, e in self.letters)

    def __repr__(self):
        if not self.letters:
            return "1"
        return "".join(g if e == 1 else f"{g}^{e}" for g, e in self.letters)


class GrpRingElem:
    """Sparse Q-combination of reduced words."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = {w: c for w, c in terms.items() if c}

    @classmethod
    def word(cls, w: FWord, c=1) -> "GrpRingElem":
        return cls({w: _coef(c)})

    @classmethod
    def one(cls) -> "GrpRingElem":
        return cls({FWord(): 1})

    @classmethod
    def zero(cls) -> "GrpRingElem":
        return cls({})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, GrpRingElem) and self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return GrpRingElem(out)

    def __neg__(self):
        return GrpRingElem({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return gr_mul(self, other)

    def smul(self, q):
        q = _coef(q)
        return GrpRingElem({w: q * c for w, c in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for w, c in sorted(self.terms.items(), key=lambda t: (len(t[0]), repr(t[0]))):
            parts.append(repr(w) if c == 1 else f"{c}*{w!r}")
        return " + ".join(parts).replace("+ -", "- ")


def gr_mul(a: GrpRingElem, b: GrpRingElem) -> GrpRingElem:
    out: dict = {}  # keyed by syllable tuples: each word becomes an FWord once
    right = [(wb.letters, cb) for wb, cb in b.terms.items()]
    for wa, ca in a.terms.items():
        for lb, cb in right:
            w = join(wa.letters, lb)
            out[w] = out.get(w, 0) + ca * cb
    prod = GrpRingElem.__new__(GrpRingElem)
    prod.terms = {FWord(w, True): c for w, c in out.items() if c}
    return prod


def gr_involution(a: GrpRingElem) -> GrpRingElem:
    """Canonical involution: sum x a_x -> sum x^{-1} a_x."""
    return GrpRingElem({w.inv(): c for w, c in a.terms.items()})


def symmetric_generators() -> tuple[GrpRingElem, GrpRingElem]:
    """X = x + x^{-1} and Y = y + y^{-1}; both fixed by the canonical
    involution."""
    x, y = FWord((("x", 1),)), FWord((("y", 1),))
    return GrpRingElem({x: 1, x.inv(): 1}), GrpRingElem({y: 1, y.inv(): 1})


def _gr_inv(a: GrpRingElem) -> GrpRingElem:
    """Only +/- single words are units of Q[F2]."""
    if len(a.terms) != 1:
        raise AdapterFailure("group-ring element is not a unit")
    (w, c), = a.terms.items()
    return GrpRingElem({w.inv(): _coef(Fraction(1, c))})


def ring_ops() -> RingOps:
    return RingOps(
        name="Q[F2]",
        zero=GrpRingElem.zero(),
        one=GrpRingElem.one(),
        mul=gr_mul,
        smul=lambda q, a: a.smul(q),
        inv=_gr_inv,
        is_unit=lambda a: len(a.terms) == 1,
    )


def coordinatize(a: GrpRingElem) -> dict:
    """The FWord basis itself: injective on all of Q[F2]."""
    return {w.letters: c for w, c in a.terms.items()}
