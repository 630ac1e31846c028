"""The rational group ring Q[F2] of the free group on {x, y}, with reduced
words, keyed by their syllable tuples ((generator, nonzero exponent), ...),
as the canonical basis.  Coefficients are ints while integral (a `Fraction`
enters only with a non-integral rational), and a product of reduced words is
reduced only where they meet (`join`), never again as a whole."""

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


def _inv(w: tuple) -> tuple:
    """Inverse of a reduced word: reversed, exponents negated (still reduced)."""
    return tuple((g, -e) for g, e in reversed(w))


def _word_repr(w: tuple) -> str:
    return "".join(g if e == 1 else f"{g}^{e}" for g, e in w) or "1"


class GrpRingElem:
    """Sparse Q-combination of reduced words, keyed by their syllable tuples."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = {w: c for w, c in terms.items() if c}

    @classmethod
    def word(cls, w: tuple, c=1) -> "GrpRingElem":
        return cls({w: _coef(c)})

    @classmethod
    def one(cls) -> "GrpRingElem":
        return cls({(): 1})

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
        for w in sorted(self.terms, key=lambda w: (sum(abs(e) for _, e in w), _word_repr(w))):
            c = self.terms[w]
            parts.append(_word_repr(w) if c == 1 else f"{c}*{_word_repr(w)}")
        return " + ".join(parts).replace("+ -", "- ")


def gr_mul(a: GrpRingElem, b: GrpRingElem) -> GrpRingElem:
    out: dict = {}
    right = list(b.terms.items())
    for wa, ca in a.terms.items():
        for wb, cb in right:
            w = join(wa, wb)
            out[w] = out.get(w, 0) + ca * cb
    return GrpRingElem(out)


def gr_involution(a: GrpRingElem) -> GrpRingElem:
    """Canonical involution: sum x a_x -> sum x^{-1} a_x."""
    return GrpRingElem({_inv(w): c for w, c in a.terms.items()})


def symmetric_generators() -> tuple[GrpRingElem, GrpRingElem]:
    """X = x + x^{-1} and Y = y + y^{-1}; both fixed by the canonical
    involution."""
    return tuple(GrpRingElem({((g, 1),): 1, ((g, -1),): 1}) for g in "xy")


def _gr_inv(a: GrpRingElem) -> GrpRingElem:
    """Only +/- single words are units of Q[F2]."""
    if len(a.terms) != 1:
        raise AdapterFailure("group-ring element is not a unit")
    (w, c), = a.terms.items()
    return GrpRingElem({_inv(w): _coef(Fraction(1, c))})


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
    """The reduced-word basis itself: injective on all of Q[F2]."""
    return dict(a.terms)
