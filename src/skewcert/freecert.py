"""Bounded-length freeness certification: enumerate words in the candidate
generators, evaluate them in the host ring, coordinatize into exact sparse
Q-vectors and compute the rank: modulo a 61-bit prime first, by exact
fraction-free elimination only when that rank is deficient.  A modular
coordinatizer maps the words to residues modulo that prime instead, and
their rank is taken modulo the prime alone.

A `certified` verdict means the evaluated words are Q-linearly independent,
a finite sound shadow of freeness (for truncation-based coordinatizers the
implication holds because truncation is linear: independent images force
independent preimages).  `relation_found` carries an explicit rational
relation, re-verified in the ring when the coordinatizer is exact.
`inconclusive` is reserved for coordinatizers of truncated values that are
rank-deficient: the deficiency may be a truncation artifact.  Raising the
truncation order is the calling pipeline's policy, not this module's.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from math import gcd
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


def word_str(w: Word, names: Sequence[str]) -> str:
    if not w:
        return "1"
    return ".".join(names[abs(a) - 1] + ("'" if a < 0 else "") for a in w)


# fixed 61-bit Mersenne prime for the modular independence check
MODULUS = 2**61 - 1


def rank_mod_p(rows: Sequence[dict]) -> int:
    """Rank modulo MODULUS of integer rows (sparse `{column: int}`):
    incremental sparse row reduction with pivots keyed by their leading
    column, counting the pivots."""
    pivots: dict[int, dict[int, int]] = {}
    for r in rows:
        row = {c: y for c, x in r.items() if (y := x % MODULUS)}
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                inv = pow(row[lead], -1, MODULUS)
                pivots[lead] = {c: x * inv % MODULUS for c, x in row.items()}
                break
            f = row[lead]
            for c, x in piv.items():
                y = (row.get(c, 0) - f * x) % MODULUS
                if y:
                    row[c] = y
                else:
                    row.pop(c, None)
    return len(pivots)


def rank_over_Q(vectors: Sequence[dict]) -> tuple[int, Optional[list[Fraction]]]:
    """Exact rank of sparse Q-vectors, with a rational relation among them
    (first nonzero entry positive, integer content 1) when it is deficient.

    Each row is scaled to integers by the lcm of its denominators.  Rank
    modulo the prime MODULUS is at most the rank over Q, so full rank modulo
    MODULUS certifies independence and returns `(n, None)` at once.  Any
    deficiency modulo MODULUS is decided by the exact pass: fraction-free
    (Bareiss) elimination on the dense integer matrix, with an identity
    block carried along so a vanishing row yields the relation."""
    n = len(vectors)
    if n == 0:
        return 0, None
    keys = sorted({k for v in vectors for k in v}, key=repr)
    col_of = {k: i for i, k in enumerate(keys)}
    width = len(keys)
    scales = []
    sparse = []
    for v in vectors:
        denlcm = 1
        for c in v.values():
            denlcm = denlcm * c.denominator // gcd(denlcm, c.denominator)
        sparse.append({col_of[k]: c.numerator * (denlcm // c.denominator)
                       for k, c in v.items() if c})
        scales.append(Fraction(denlcm))
    if rank_mod_p(sparse) == n:
        return n, None

    rows = []
    for i, entries in enumerate(sparse):
        row = [0] * (width + n)
        for j, x in entries.items():
            row[j] = x
        row[width + i] = 1
        rows.append(row)

    rank = 0
    prev = 1
    pivot_row = 0
    for col in range(width):
        pr = next((r for r in range(pivot_row, n) if rows[r][col]), None)
        if pr is None:
            continue
        rows[pivot_row], rows[pr] = rows[pr], rows[pivot_row]
        piv = rows[pivot_row][col]
        for r in range(pivot_row + 1, n):
            rc = rows[r][col]
            row_r, row_p = rows[r], rows[pivot_row]
            for j in range(width + n):
                num = row_r[j] * piv - rc * row_p[j]
                q, rem = divmod(num, prev)
                if rem:
                    raise KernelError("Bareiss division must be exact")
                row_r[j] = q
        prev = piv
        rank += 1
        pivot_row += 1
        if pivot_row == n:
            break

    if rank == n:
        return rank, None
    for r in range(n):
        if any(rows[r][:width]):
            continue
        lam = [Fraction(rows[r][width + i]) * scales[i] for i in range(n)]
        if not any(lam):
            continue
        denlcm = 1
        for c in lam:
            denlcm = denlcm * c.denominator // gcd(denlcm, c.denominator)
        ints = [int(c * denlcm) for c in lam]
        g = 0
        for c in ints:
            g = gcd(g, c)
        ints = [c // g for c in ints]
        if next(c for c in ints if c) < 0:
            ints = [-c for c in ints]
        return rank, [Fraction(c) for c in ints]
    return rank, None


@dataclass
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

    name: str
    build: Callable[[list], list[dict]]
    precision: Optional[Callable[[list], int]] = None
    modular: bool = False


@dataclass
class CertReport:
    command: str
    params: dict
    verdict: str
    rank: int
    expected: int
    word_count: int
    relation: Optional[list[Fraction]] = None
    truncation_order: Optional[int] = None
    elapsed_ms: int = 0
    seed: int = 0

    def to_dict(self) -> dict:
        d = asdict(self)
        if self.relation is not None:
            d["relation"] = [f"{c.numerator}/{c.denominator}" for c in self.relation]
        return d


def evaluate_words(generators, ops: RingOps, words: Sequence[Word], mode: str):
    """Evaluate words by ring multiplication, sharing prefixes.  Group mode
    needs every generator invertible (AdapterFailure otherwise)."""
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
        values[w] = ops.one if not w else ops.mul(values[w[:-1]], letters[w[-1]])
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
    rank, relation = (rank_mod_p(rows), None) if coord.modular else rank_over_Q(rows)
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
