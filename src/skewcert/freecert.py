"""Bounded-length freeness certification: enumerate words in the candidate
generators, evaluate them in the host ring (each word its first letter
times the value of its suffix), coordinatize into exact sparse Q-vectors
and compute the rank by one sparse row reduction: modulo the Mersenne
prime 2^61 - 1 first, over Q only when that rank is deficient.  A modular
coordinatizer maps the words to residues modulo that prime instead; their
rows are dense, and their rank is taken modulo the prime alone, by an
elimination on rows packed into one integer each.

A `certified` verdict means the evaluated words are Q-linearly independent,
a finite sound shadow of freeness (for truncation-based coordinatizers the
implication holds because truncation is linear: independent images force
independent preimages).  `relation_found` carries an explicit rational
relation, the first word in length-lex order that depends on the words
before it, re-verified in the ring when the coordinatizer is exact.
`inconclusive` is reserved for coordinatizers of truncated values that are
rank-deficient: the deficiency may be a truncation artifact.  Raising the
truncation order is the calling pipeline's policy, not this module's.
"""

from __future__ import annotations

import sys
import time
from array import array
from fractions import Fraction
from math import gcd, inf, lcm
from typing import Callable, Optional, Sequence

from .errors import AdapterFailure, KernelError
from .rings import RingOps

Word = tuple[int, ...]  # letters: 1-based generator indices, negative = inverse


def enumerate_words(m: int, length: int, with_inverses: bool) -> list[Word]:
    """All words of length <= `length` over m generators, length-lex ordered.

    Monoid mode: letters 1..m, count (m^(L+1)-1)/(m-1).  Group mode: letters
    +-1..+-m, reduced (no letter adjacent to its own inverse)."""
    if m < 1 or length < 0:
        raise ValueError("need m >= 1 and length >= 0")
    alphabet = list(range(1, m + 1))
    if with_inverses:
        alphabet += [-g for g in range(1, m + 1)]
    words: list[Word] = [()]
    frontier: list[Word] = [()]
    for _ in range(length):
        nxt = []
        for w in frontier:
            for a in alphabet:
                if with_inverses and w and w[-1] == -a:
                    continue
                nxt.append(w + (a,))
        words.extend(nxt)
        frontier = nxt
    return words


# fixed 61-bit Mersenne prime for the modular independence check
MODULUS = 2**61 - 1


def _eliminate(rows: Sequence[dict], modulus: Optional[int] = None) -> tuple[int, Optional[list[int]]]:
    """Rank of integer rows (sparse `{int column: int}`) by incremental
    sparse row reduction, pivots keyed by their leading column.  Modulo
    `modulus` pivots are scaled to lead 1.  Over Q (no modulus) the
    reduction is fraction-free, each row is divided by its content, and row
    i carries its combination of the input rows in column `width + i`.  The
    first row whose columns vanish depends on the rows before it, which are
    independent, so that combination is unique: it is the relation."""
    width = inf if modulus else 1 + max((c for r in rows for c in r), default=-1)
    pivots: dict[int, dict[int, int]] = {}
    relation = None
    for i, r in enumerate(rows):
        row = {c: y for c, x in r.items() if (y := x % modulus if modulus else x)}
        if not modulus:
            row[width + i] = 1
        while row:
            lead = min(row)
            if lead >= width:  # only the combination is left
                relation = relation or [row.get(width + j, 0) for j in range(len(rows))]
                break
            piv = pivots.get(lead)
            if piv is None:
                if modulus:
                    inv = pow(row[lead], -1, modulus)
                    row = {c: x * inv % modulus for c, x in row.items()}
                pivots[lead] = row
                break
            if modulus:
                f = row[lead]
                for c, x in piv.items():
                    y = (row.get(c, 0) - f * x) % modulus
                    if y:
                        row[c] = y
                    else:
                        row.pop(c, None)
            else:  # fraction-free, then divided by the content
                g = gcd(piv[lead], row[lead])
                a, f = piv[lead] // g, row[lead] // g
                row = {c: a * row.get(c, 0) - f * piv.get(c, 0) for c in row.keys() | piv.keys()}
                g = gcd(*row.values())
                row = {c: x // g for c, x in row.items() if x}
    return len(pivots), relation


def rank_mod_p_packed(rows: Sequence[dict]) -> int:
    """Rank modulo MODULUS = q of dense integer rows (`{column: int}`).

    Each row is one int with a 128-bit slot per column, in column order: a
    row operation x + f*(4q - p) is one big-int multiply-add, and reduction
    is delayed (Dumas, Giorgi and Pernet, ACM TOMS 2008; packing as in
    Harvey, JSC 2009).  Since 2^61 = 1 mod q, one fold
    x -> (x & M61) + ((x >> 61) & M67) reduces every slot at once.  Bounds:
    a fold leaves every slot below 2^68; a pivot p is folded twice, so it
    is below 2^62 < 4q and 4q - p is slotwise nonnegative; f < q, so an
    operation adds less than 4q^2 < 2^124 to a slot, and a row is folded
    before every 16th operation: no slot reaches 2^128 and nothing
    carries.  A row drops each slot below its lead, a multiple of q, and a
    pivot is kept from its lead on, so an operation spans only the columns
    still in play."""
    q, m128 = MODULUS, 2**128 - 1
    slot = {c: i for i, c in enumerate(sorted({c for r in rows for c in r}))}
    n = len(slot)
    ones = int.from_bytes((b"\1" + bytes(15)) * n, "little")
    m61, m67, q4 = ones * (2**61 - 1), ones * (2**67 - 1), ones * 4 * q
    pivots: dict[int, tuple[int, int]] = {}  # lead slot -> (1 / lead, 4q - pivot)
    for r in rows:
        vals = array("Q", bytes(16 * n))
        for c, v in r.items():
            vals[2 * slot[c]] = v % q
        if sys.byteorder == "big":  # array("Q") holds machine words
            vals.byteswap()
        x, lead, ops = int.from_bytes(vals.tobytes(), "little"), 0, 0
        while x:  # slot 0 of x is column `lead`
            v = x & m128
            if not v % q:
                x, lead = x >> 128, lead + 1
            elif lead in pivots:
                if ops == 15:
                    x, ops = (x & m61) + ((x >> 61) & m67), 0
                inv, neg = pivots[lead]
                x, lead, ops = (x + v % q * inv % q * neg) >> 128, lead + 1, ops + 1
            else:
                for _ in range(2):
                    x = (x & m61) + ((x >> 61) & m67)
                pivots[lead] = (pow(x & m128, -1, q), (q4 >> 128 * lead) - x)
                break
    return len(pivots)


def rank_over_Q(vectors: Sequence[dict]) -> tuple[int, Optional[list[Fraction]]]:
    """Exact rank of sparse Q-vectors, with a rational relation among them
    (first nonzero entry positive, integer content 1) when it is deficient.

    Each row is scaled to integers by the lcm of its denominators.  Rank
    modulo the prime MODULUS is at most the rank over Q, so full rank modulo
    MODULUS certifies independence and returns `(n, None)` at once.  Any
    deficiency is decided by the same reduction over Q: the exact rank, and
    the first vector that depends on those before it, written in them."""
    col_of: dict = {}
    rows, scales = [], []
    for v in vectors:
        scale = lcm(*(c.denominator for c in v.values()))
        rows.append({col_of.setdefault(k, len(col_of)): c.numerator * (scale // c.denominator)
                     for k, c in v.items() if c})
        scales.append(scale)
    if _eliminate(rows, MODULUS)[0] == len(rows):
        return len(rows), None
    rank, combination = _eliminate(rows)
    if combination is None:
        return rank, None
    lam = [c * s for c, s in zip(combination, scales)]
    g = gcd(*lam) if next(c for c in lam if c) > 0 else -gcd(*lam)
    return rank, [Fraction(c // g) for c in lam]


class Coordinatizer:
    """Family-level coordinatization: `build` maps the evaluated words to
    exact sparse Q-vectors at once (the exact fraction path needs a common
    left denominator across the family, so per-element maps do not suffice).

    `precision(values)`, set only for coordinatizers of truncated values, is
    the truncation order the values carry; a deficient rank there is
    `inconclusive` rather than a relation.  A `modular` coordinatizer builds
    rows of residues modulo MODULUS instead of Q-vectors: their rank is
    counted modulo MODULUS alone, since the rank over Q of residues proves
    nothing, and a deficiency there is `inconclusive` as well."""

    __slots__ = ("name", "build", "precision", "modular")

    def __init__(self, name: str, build: Callable[[list], list[dict]],
                 precision: Optional[Callable[[list], int]] = None, modular: bool = False):
        self.name, self.build, self.precision, self.modular = name, build, precision, modular


class CertReport:
    __slots__ = ("command", "params", "verdict", "rank", "expected", "word_count",
                 "relation", "truncation_order", "elapsed_ms", "seed")

    def __init__(self, command: str, params: dict, verdict: str, rank: int, expected: int,
                 word_count: int, relation: Optional[list[Fraction]] = None,
                 truncation_order: Optional[int] = None, elapsed_ms: int = 0, seed: int = 0):
        self.command, self.params, self.verdict = command, params, verdict
        self.rank, self.expected, self.word_count = rank, expected, word_count
        self.relation, self.truncation_order = relation, truncation_order
        self.elapsed_ms, self.seed = elapsed_ms, seed

    def to_dict(self) -> dict:
        """The fields as a new dict: `params` is a copy and the relation a new
        list of "n/d" strings, so changing the dict leaves the report as it is."""
        d = {k: getattr(self, k) for k in self.__slots__}
        d["params"] = dict(self.params)
        if self.relation is not None:
            d["relation"] = [f"{c.numerator}/{c.denominator}" for c in self.relation]
        return d


def evaluate_words(generators, ops: RingOps, words: Sequence[Word], mode: str):
    """Evaluate words by ring multiplication, sharing suffixes: a word is its
    first letter times its suffix, earlier in length-lex order, so in
    K(p;sigma) only a generator is shifted by a right factor's p-orders.
    Group mode needs every generator invertible (AdapterFailure otherwise)."""
    letters: dict[int, object] = {}
    for i, g in enumerate(generators, start=1):
        letters[i] = g
        if mode == "group":
            if ops.inv is None:
                raise AdapterFailure(f"{ops.name} cannot invert elements")
            if ops.is_unit is not None and not ops.is_unit(g):
                raise AdapterFailure(f"generator {i} is not invertible in {ops.name}")
            letters[-i] = ops.inv(g)
    values: dict[Word, object] = {}
    for w in words:
        values[w] = ops.one if not w else ops.mul(letters[w[0]], values[w[1:]])
    return [values[w] for w in words]


def certify_freeness(
    generators,
    ops: RingOps,
    coord: Coordinatizer,
    length: int,
    mode: str = "monoid",
    command: str = "certify",
    seed: int = 0,
    inverses=None,
) -> CertReport:
    if mode not in ("monoid", "group"):
        raise ValueError(f"unknown mode {mode!r}")
    t0 = time.monotonic()
    words = enumerate_words(len(generators), length, mode == "group")
    if inverses is None:
        values = evaluate_words(generators, ops, words, mode)
    else:
        # the given inverses replace ops.inv: letter -i becomes letter m + i
        m = len(generators)
        values = evaluate_words(list(generators) + list(inverses), ops,
                                [tuple(a if a > 0 else m - a for a in w) for w in words], "monoid")
    rows = coord.build(values)
    rank, relation = (rank_mod_p_packed(rows), None) if coord.modular else rank_over_Q(rows)
    if rank == len(words):
        verdict, relation = "certified", None
    elif coord.precision is not None or coord.modular:
        verdict, relation = "inconclusive", None
    else:
        verdict = "relation_found"
        # soundness: the relation must vanish exactly in the ring
        acc = ops.zero
        for c, v in zip(relation, values):
            if c:
                acc = ops.add(acc, ops.smul(c, v))
        if not ops.is_zero(acc):
            raise KernelError("relation does not re-evaluate to zero")
    elapsed = int((time.monotonic() - t0) * 1000)
    return CertReport(
        command=command,
        params={"mode": mode, "max_word_len": length, "coordinatizer": coord.name},
        verdict=verdict,
        rank=rank,
        expected=len(words),
        word_count=len(words),
        relation=relation,
        truncation_order=None if coord.precision is None else coord.precision(values),
        elapsed_ms=elapsed,
        seed=seed,
    )
