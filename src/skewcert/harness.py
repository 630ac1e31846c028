"""Wiring of presets into runnable certifications.

Each pipeline returns a list of verdict dicts {claim, paper_label, verdict,
data}; the CLI serializes them and maps the worst verdict to an exit code.
The heavy objects (towers, atom inverses) are built once per pipeline run.

`certify nilpotent` and `verify scaling` each end in two groups of
verdicts that share no work.  `forkjoin` runs the first group in a child
made with os.fork (in this process without fork or on one CPU) while this
process runs the other, then joins the verdicts in their usual order.
`certify heisenberg` and `twodim` run in one process: each of their groups
takes tens of ms, and a worker made them slower, not faster.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction
from typing import Callable

from . import groupring, pbw, series, skewfrac
from .errors import KernelError, ZeroDenominator
from .forkjoin import beside_each_other
from .freecert import MODULUS, Coordinatizer, certify_freeness, enumerate_words
from .pbw import (
    LieHom,
    chi_valuation,
    free_nilpotent_class3,
    heisenberg,
    heisenberg_V,
    laurent_chi,
    phi_heisenberg_to_skewfield,
    rho_class3_to_heisenberg,
    scaling_automorphism,
    two_dimensional,
    twodim_to_skewfield,
    u_involution,
    u_mul,
)
from .scalar import Poly, RatFun, lcm_multiples, rat
from .series import (
    Tower,
    class3_tower,
    heisenberg_tower,
    hom_phi_u,
    hom_phi_w,
    jet_inv,
    jet_mul,
    jet_neg,
    jets_agree,
    unit_criterion_audit,
)
from .skewfrac import (
    ShiftAut,
    SkewFrac,
    build_heisenberg_images,
    cauchon_generators,
    cauchon_pair,
    orbit_distinct,
    sf_to_pjet,
)
from .skewpoly import SkewPoly, sp_divmod, sp_gcrd_llcm, sp_mul
from .symcert import (
    Add,
    Atom,
    AtomFacts,
    FactTable,
    Inv,
    Mul,
    StarFact,
    prove_equal,
    scale_atoms,
    star,
    substitute,
    verify_facts,
)

DEFAULT_SEED = 1729


def verdict(claim: str, paper_label: str, ok, data=None) -> dict:
    if isinstance(ok, str):
        v = ok
    else:
        v = "certified" if ok else "failed"
    return {"claim": claim, "paper_label": paper_label, "verdict": v, "data": data or {}}


def _passing(v: dict) -> bool:
    return v["verdict"] in ("certified", "equal")


def worst_exit(verdicts) -> int:
    """0 if every verdict passes, 2 for a relation or counterexample, 3 if
    every failure is a truncation limit (`inconclusive`), else 4 (`unable`)."""
    bad = {v["verdict"] for v in verdicts if not _passing(v)}
    if not bad:
        return 0
    if bad - {"inconclusive", "unable"}:
        return 2
    return 3 if bad == {"inconclusive"} else 4


# -- atoms and fact tables -----------------------------------------------------


def symmetric_pair_atoms(L):
    """A = V - g^3/3, B = V + g^3/3, C = g + h^2, E = g - h^2 where g is the
    third basis element (the commutator) and h the second generator."""
    g = L.gen(L.basis[2])
    h = L.gen(L.basis[1])
    V = heisenberg_V(L)
    g3 = u_mul(u_mul(g, g), g)
    return {
        "A": V - g3.smul(Fraction(1, 3)),
        "B": V + g3.smul(Fraction(1, 3)),
        "C": g + u_mul(h, h),
        "E": g - u_mul(h, h),
    }


def st_expressions():
    A, B, C, E = Atom("A"), Atom("B"), Atom("C"), Atom("E")
    S = Add((Mul((A, Inv(B))), Mul((Inv(A), B))))
    T = Mul((Inv(C), E, S, C, Inv(E)))
    return S, T


def pair_fact_table(L, invert_via: str, image, judge) -> tuple[FactTable, dict, dict]:
    """A* = B, B* = A, C* = -E and E* = -C on `symmetric_pair_atoms(L)`.  The
    invertibility check of an atom maps it by `image`, keeps the image in the
    returned dict and returns `judge(name, image)`."""
    atoms = symmetric_pair_atoms(L)
    table = FactTable(L)
    images = {}

    def check(name):
        images[name] = img = image(atoms[name])
        return judge(name, img)

    for name, sign, target in (("A", 1, "B"), ("B", 1, "A"), ("C", -1, "E"), ("E", -1, "C")):
        table.add_atom(AtomFacts(name, atoms[name], StarFact(sign, target, 1), invert_via,
                                 functools.partial(check, name)))
    return table, atoms, images


def heisenberg_fact_table() -> tuple[FactTable, LieHom, dict]:
    """Facts for the Heisenberg atoms, with invertibility justified by a
    nonzero image in the skew field."""
    H = heisenberg()
    phi = phi_heisenberg_to_skewfield(H)
    table, atoms, _ = pair_fact_table(H, "skewfield-image", phi,
                                      lambda name, img: (bool(img), f"Phi({name}) = {img!r} != 0"))
    table.declare_commuting("A", "B")
    table.declare_commuting("C", "E")
    return table, phi, atoms


def class3_fact_table(order: int = 12, tower: Tower | None = None) -> tuple[FactTable, dict, dict]:
    """Facts for the class-3 atoms; invertibility via the series unit
    criterion (A and B do not commute here, and no commutation is needed).
    The atom jets live in `tower`, a fresh class3_tower(order) by default."""
    L3 = free_nilpotent_class3()
    tower = tower or class3_tower(order)
    embed = LieHom(L3, [tower.gens[k] for k in ("u", "v", "w", "n1", "n2")], tower.ops())

    def unit(name, j):
        ok, trail = unit_criterion_audit(j)
        return ok, f"unit criterion trail {[(e['var'], e['min_ord']) for e in trail]}"

    return pair_fact_table(L3, "jet-unit", embed, unit)


def twodim_fact_table() -> tuple[FactTable, LieHom, dict]:
    M = two_dimensional()
    e, f = M.gen("e"), M.gen("f")
    third = M.one().smul(Fraction(1, 3))
    s_def = (e - third, e + third)
    u_def = (M.one() - f, M.one() + f)
    model = twodim_to_skewfield(M)
    table = FactTable(M)
    values = {}

    def mk_check(name, definition):
        def check():
            num, den = definition
            ni, di = model(num), model(den)
            if not (ni and di):
                return False, "image vanishes"
            values[name] = di.inv() * ni
            return True, f"image {values[name]!r} is a nonzero skew-field element"

        return check

    table.add_atom(AtomFacts("s", s_def, StarFact(1, "s", -1), "skewfield-image", mk_check("s", s_def)))
    table.add_atom(AtomFacts("u", u_def, StarFact(1, "u", -1), "skewfield-image", mk_check("u", u_def)))
    return table, model, values


def twodim_expressions():
    s, u = Atom("s"), Atom("u")
    S2 = Add((s, Inv(s)))
    T2 = Mul((u, S2, Inv(u)))
    return S2, T2


# -- tower evaluation of the atoms --------------------------------------------


def unit_verdict(claim: str, j, holds: bool = True):
    """`claim` with its jet `j`: certified when `j` passes the recursive unit
    criterion, its inverse is two-sided and `holds` is true.  The data carry
    the criterion's audit trail and the orders the inverse lost below the
    ring's working order.  Returns the verdict and the inverse."""
    ok, trail = unit_criterion_audit(j)
    inv = jet_inv(j)
    one, order = j.ring.one_jet(), j.ring.order
    two_sided = jets_agree(jet_mul(j, inv), one) and jets_agree(jet_mul(inv, j), one)
    return verdict(claim, "freesymmetricresiduallynilpotent", ok and two_sided and holds,
                   {"audit": trail, "overhead": order - min(inv.trunc, order)}), inv


def heisenberg_atom_jets(order: int):
    H = heisenberg()
    tower = heisenberg_tower(order)
    embed = LieHom(H, [tower.gens[k] for k in ("x", "y", "z")], tower.ops())
    atoms = symmetric_pair_atoms(H)
    return tower, {name: embed(el) for name, el in atoms.items()}


# -- coordinatizers ------------------------------------------------------------


def _clear_denominators(rows) -> list[dict]:
    """Rows of (p degree, Q(t) coefficient) pairs to Q-vectors keyed by
    (p degree, t degree), scaling each p degree by the lcm of its
    Q[t]-denominators across the family."""
    columns = {}
    for r, row in enumerate(rows):
        for i, c in row:
            columns.setdefault(i, []).append((r, c))
    cleared = {}
    for i, entries in columns.items():
        for (r, _), coeffs in zip(entries, lcm_multiples([c for _, c in entries])):
            cleared[r, i] = coeffs
    vectors = []
    for r, row in enumerate(rows):
        vec = {}
        for i, _ in row:
            for k, q in enumerate(cleared[r, i]):
                if q:
                    vec[(i, k)] = q
        vectors.append(vec)
    return vectors


def skew_exact_coordinatizer(aut: ShiftAut) -> Coordinatizer:
    """Common left denominator across the family, Q(t)-coefficient
    extraction per p-degree, then denominator clearing to Q-vectors keyed by
    (p degree, t degree): `certify cauchon`'s fallback, and the tests'
    reference for the evaluated paths."""

    def build(values):
        nonzero = [v for v in values if v]
        if not nonzero:
            return [{} for _ in values]
        d = SkewPoly.one(aut)
        for v in nonzero:
            if v.den.degree == 0:
                continue
            _, r = sp_divmod(d, v.den, "right")
            if not r and d.degree >= v.den.degree:
                continue
            _, d, _, _ = sp_gcrd_llcm(d, v.den)
        numerators = []
        for v in values:
            if not v:
                numerators.append(SkewPoly.zero(aut))
                continue
            q, r = sp_divmod(d, v.den, "right")
            if r:
                raise KernelError("common denominator is not a left multiple")
            numerators.append(sp_mul(q, v.num))
        return _clear_denominators([[(i, c) for i, c in enumerate(num.coeffs) if c]
                                    for num in numerators])

    return Coordinatizer(name="exact-left-fraction", build=build)


def skew_pjet_coordinatizer(aut: ShiftAut, order: int) -> Coordinatizer:
    """Truncation-based coordinatization of word values that are
    sigma-twisted Laurent jets in p over Q(t), clearing the Q[t]-denominators
    per p-order below their common precision: exact Q-vectors, kept as a
    cross-check of the evaluated path (`skew_residue_coordinatizer`)."""

    def build(jets):
        window = _jet_precision(jets)
        return _clear_denominators([[(i, c) for i, c in j.coeffs.items() if i < window and c]
                                    for j in jets])

    return Coordinatizer(name=f"pjet-order-{order}", build=build, precision=_jet_precision)


def _jet_precision(jets) -> int:
    return min(j.trunc for j in jets)


def skew_residue_coordinatizer(order: int, points: int) -> Coordinatizer:
    """Modular coordinatization of word values that are sigma-jets in p read
    modulo MODULUS at the points P_0..P_{points-1} (`skewfrac.residue_generators`):
    one residue per (p order below the common precision, point).  Reading
    the coefficients at pole-free points is Z_(MODULUS)-linear on the exact
    p-jets, so full rank of these rows modulo MODULUS proves the words
    independent; their rank is never taken over Q."""

    def build(jets):
        window = _jet_precision(jets)
        return [skewfrac.residue_row(j, window, points) for j in jets]

    return Coordinatizer(name="pjet-residues", build=build, precision=_jet_precision, modular=True)


def groupring_coordinatizer() -> Coordinatizer:
    return Coordinatizer(
        name="reduced-word-basis",
        build=lambda values: [groupring.coordinatize(v) for v in values],
    )


# -- pipelines -----------------------------------------------------------------


def heisenberg_image_table(facts) -> bool:
    """x -> p^-1 t, y -> p, z -> 1, V -> t - 1/2, V -+ z^3/3 -> t - 5/6, t - 1/6
    and z +- y^2 -> 1 +- p^2, exactly in K(p;sigma) with sigma(t) = t - 1."""
    table, phi, atoms = facts
    H = table.algebra
    aut = ShiftAut(Fraction(1))
    p, t, one = SkewFrac.p(aut), SkewFrac.from_ratfun(aut, RatFun.t()), SkewFrac.one(aut)
    expect = [
        (H.gen("y"), p), (H.gen("x"), p.inv() * t), (H.gen("z"), one),
        (heisenberg_V(H), t - SkewFrac.scalar(aut, Fraction(1, 2))),
        (atoms["A"], t - SkewFrac.scalar(aut, Fraction(5, 6))),
        (atoms["B"], t - SkewFrac.scalar(aut, Fraction(1, 6))),
        (atoms["C"], one + p * p), (atoms["E"], one - p * p),
    ]
    return all(phi(el) == img for el, img in expect)


def heisenberg_cross_check(values):
    """Substitute the atoms' jets in the Heisenberg tower, compared up to
    CROSS_ORDER, which both sides must be known to (KernelError otherwise);
    phi_H sends z - 1 to 0, so the skew-field `values` cannot decide."""
    tower, jet_atoms = heisenberg_atom_jets(CROSS_ORDER + 4)
    ops = tower.ops()
    memo: dict = {}

    def check(starred, expr) -> dict:
        lhs = substitute(starred, jet_atoms, ops, memo)
        rhs = substitute(expr, jet_atoms, ops, memo)
        window = min(lhs.trunc, rhs.trunc)
        if window < CROSS_ORDER:
            raise KernelError(f"jet cross-check window {window} is below order {CROSS_ORDER}")
        return {"jet_cross_check_order": CROSS_ORDER,
                "jet_cross_check": jets_agree(lhs, rhs, upto=CROSS_ORDER)}

    return check


def twodim_cross_check(values):
    """Substitute the atoms' skew-field values exactly: D(M2) embeds in
    K(p;sigma), so equal values decide the claim and no truncation order
    applies."""
    ops = skewfrac.ring_ops(skewfrac.TWODIM_AUT)
    memo: dict = {}

    def check(starred, expr) -> dict:
        return {"exact_cross_check": substitute(starred, values, ops, memo)
                == substitute(expr, values, ops, memo)}

    return check


class SkewPreset:
    """A paper preset of the construction in K(p;sigma): `construction` is the
    (c, alpha, beta, k) of `skewfrac.cauchon_pair`, the rest wires the run.
    `label` is the paper label of every verdict but the freeness one.
    `opening` is given the whole triple that `fact_table()` returns:
    heisenberg's (table, phi_H, atoms), atoms the UElem of each atom name,
    and twodim's (table, model, values), values the skew-field values of s
    and u, filled in as the facts are checked.  `expressions()` returns
    (S, T), and `cross_check(third)`, given the triple's third element,
    returns the symmetry verdicts' (starred, expr) -> data check."""

    __slots__ = ("command", "construction", "label", "freeness_label", "opening_claim", "opening",
                 "facts_claim", "fact_table", "expressions", "symmetry_claims", "cross_check",
                 "pair_name")

    def __init__(self, command: str, construction: tuple, label: str, freeness_label: str,
                 opening_claim: str, opening: Callable[[tuple], bool], facts_claim: str,
                 fact_table: Callable[[], tuple], expressions: Callable[[], tuple],
                 symmetry_claims: tuple[str, str], cross_check: Callable, pair_name: str):
        self.command, self.construction, self.label = command, construction, label
        self.freeness_label, self.opening_claim, self.opening = freeness_label, opening_claim, opening
        self.facts_claim, self.fact_table, self.expressions = facts_claim, fact_table, expressions
        self.symmetry_claims, self.cross_check, self.pair_name = symmetry_claims, cross_check, pair_name


HEISENBERG = SkewPreset(
    command="certify heisenberg", construction=skewfrac.HEISENBERG_CONSTRUCTION,
    label="freesymmetricHeisenberg", freeness_label="freealgebrainWeyl",
    opening_claim="image table of x, y, z, V, V-+z^3/3, z+-y^2", opening=heisenberg_image_table,
    facts_claim="fact table (stars, commutation, invertibility)", fact_table=heisenberg_fact_table,
    expressions=st_expressions, symmetry_claims=("S* = S", "T* = T"),
    cross_check=heisenberg_cross_check, pair_name="(Sbar, Tbar)",
)
TWODIM = SkewPreset(
    command="certify twodim", construction=skewfrac.TWODIM_CONSTRUCTION,
    label="twodimensionalcase", freeness_label="twodimensionalcase",
    opening_claim="orbits of 1/3 and -1/3 under z -> z + 1 are infinite and distinct",
    opening=lambda facts: orbit_distinct(Fraction(1, 3), Fraction(-1, 3), -1),
    facts_claim="fact table (s* = s^-1, u* = u^-1, invertibility)", fact_table=twodim_fact_table,
    expressions=twodim_expressions,
    symmetry_claims=("(s+s^-1)* = s+s^-1", "(u(s+s^-1)u^-1)* = u(s+s^-1)u^-1"),
    cross_check=twodim_cross_check, pair_name="(s+s^-1, u(s+s^-1)u^-1)",
)


JET_ORDER_CEILING = 256  # highest p-order of the evaluated p-jets of `certify_skew_jets`
CROSS_ORDER = 16  # the order of the symmetry verdicts' jet cross-checks


def equality_verdict(claim: str, label: str, lhs, rhs, table: FactTable, cross_check) -> dict:
    """Prove lhs = rhs from the verified fact table, then run
    `cross_check(lhs, rhs)` for the verdict's data; an `equal` stands only if
    every boolean in that data is true.  An unproved claim keeps the
    prover's verdict with empty data, and the cross-check does not run."""
    res = prove_equal(lhs, rhs, table)
    data = cross_check(lhs, rhs) if res == "equal" else {}
    if not all(v for v in data.values() if isinstance(v, bool)):
        res = "failed"
    return verdict(claim, label, res, data)


def run_certify_skew(preset: SkewPreset, max_word_len: int = 3,
                     seed: int = DEFAULT_SEED) -> list[dict]:
    """The opening and facts verdicts, the two symmetry verdicts, then the
    two freeness proofs: the evaluated p-jets, which decide, and
    `composition_proof`."""
    facts = preset.fact_table()
    table, _, values = facts
    verdicts = [verdict(preset.opening_claim, preset.label, preset.opening(facts))]
    witnesses = verify_facts(table)
    verdicts.append(verdict(preset.facts_claim, preset.label, True, {"witnesses": witnesses}))
    check = preset.cross_check(values)
    verdicts += [equality_verdict(claim, preset.label, star(expr, table), expr, table, check)
                 for claim, expr in zip(preset.symmetry_claims, preset.expressions())]
    rep_jets = certify_skew_jets(preset.construction, max_word_len, command=preset.command,
                                 seed=seed)
    halves = composition_proof(preset.construction, max_word_len, preset.command, seed)
    second = next((r.verdict for r in halves if r.verdict != "certified"), "certified")
    verdicts.append(verdict(
        f"freeness of {preset.pair_name} to word length {max_word_len}", preset.freeness_label,
        rep_jets.verdict,
        {"jets": rep_jets.to_dict(), "group": halves[0].to_dict(),
         "groupring": halves[1].to_dict(), "paths_agree": rep_jets.verdict == second}))
    return verdicts


def composition_proof(construction, max_word_len: int, command: str, seed: int):
    """The second freeness proof of (Sbar, Tbar) = (xi + xi^-1, eta + eta^-1),
    (xi, eta) = (s, u s u^-1): x -> xi, y -> eta maps Q[F2] onto them, and is
    injective on reduced words to length L when group mode certifies, so
    with the monoid words in x + x^-1, y + y^-1 independent in Q[F2], the
    words in Sbar, Tbar are (README, Soundness notes).  The wiring check
    reads xi + xi^-1 and eta + eta^-1 at the group half's (N, W, t0): they
    must be Sbar and Tbar read there.  Returns both halves' reports."""
    group = certify_skew_jets(construction, max_word_len, mode="group", command=command, seed=seed)
    n, w, t0 = (group.params[k] for k in ("order", "points", "t0"))
    add = skewfrac.residue_pjet_ring(n).ops().add
    xi, xi_inv, eta, eta_inv = skewfrac.residue_generators(construction, "group", n, w, t0)[0]
    images = skewfrac.residue_generators(construction, "monoid", n, w, t0)[0]
    for sym, image in zip((add(xi, xi_inv), add(eta, eta_inv)), images):
        if skewfrac.residue_row(sym, n, w) != skewfrac.residue_row(image, n, w):
            raise KernelError("the group-mode generators do not sum to Sbar and Tbar")
    X, Y = groupring.symmetric_generators()
    return group, certify_freeness([X, Y], groupring.ring_ops(), groupring_coordinatizer(),
                                   max_word_len, "monoid", command=command, seed=seed)


def first_jet_attempt(word_count: int, top_power: int, step: int):
    """The first (N, W) of `certify_skew_jets`: about 1.15 * k * (word count)
    columns N*W for a construction of p-step k, whose jets fill only every
    k-th p-order, with W above the top power and near the square root of the
    columns.  N is at least k * (top power + 1) - 1, the p-order the words
    need to differ, and at most JET_ORDER_CEILING."""
    target = -(-115 * step * word_count // 100)
    w = max(top_power + 1, math.isqrt(target - 1) + 1)
    order = min(max(step * (top_power + 1) - 1, -(-target // w)), JET_ORDER_CEILING)
    return order, max(top_power + 1, -(-target // order))


def certify_skew_jets(construction, max_word_len: int, mode: str = "monoid",
                      command: str = "certify", seed: int = DEFAULT_SEED):
    """Freeness of words in the generators of `construction` = (c, alpha,
    beta, k), sigma(t) = t - c (`skewfrac.residue_generators`: Sbar and Tbar
    in monoid mode, xi and eta with their inverses in group mode), p-jets of
    order N read modulo MODULUS at W points, from the (N, W) of
    `first_jet_attempt`.  While the rank is deficient, which may be a limit
    of N or W, both grow by half, N up to JET_ORDER_CEILING; the generators
    are read again at each new (N, W).  An attempt with fewer columns N*W
    than words cannot reach full rank, so it is skipped.  W must exceed the
    top power of one letter (L in monoid mode, 2L in group mode) because a
    generator g in Q(t), such as Sbar or xi, acts pointwise:
    prod_{k<W} (g - g(P_k)) vanishes at all W points at every N.  The
    report's params record N, W, the modulus and the t0 used."""
    top_power = max_word_len * (2 if mode == "group" else 1)
    word_count = len(enumerate_words(2, max_word_len, mode == "group"))
    n, w = first_jet_attempt(word_count, top_power, construction[3])
    t0 = skewfrac.RESIDUE_T0
    while True:
        if n * w >= word_count:
            gens, t0 = skewfrac.residue_generators(construction, mode, n, w, t0)
            letters, inverses = (gens[::2], gens[1::2]) if mode == "group" else (gens, None)
            rep = certify_freeness(letters, skewfrac.residue_pjet_ring(n).ops(),
                                   skew_residue_coordinatizer(n, w), max_word_len, mode,
                                   command=command, seed=seed, inverses=inverses)
            rep.params.update(order=n, points=w, t0=t0, modulus=MODULUS)
            if rep.verdict == "certified" or n >= JET_ORDER_CEILING:
                return rep
        n, w = min(n + (n + 1) // 2, JET_ORDER_CEILING), max(w + (w + 1) // 2, top_power + 1)


pjets_agree = jets_agree  # p-jets are series jets


def run_certify_groupring(max_word_len: int = 6, seed: int = DEFAULT_SEED) -> list[dict]:
    X, Y = groupring.symmetric_generators()
    verdicts = [
        verdict("X and Y are fixed by the canonical involution", "freeinsidegroupring",
                groupring.gr_involution(X) == X and groupring.gr_involution(Y) == Y)
    ]
    rep = certify_freeness([X, Y], groupring.ring_ops(), groupring_coordinatizer(),
                           max_word_len, "monoid", command="certify groupring", seed=seed)
    verdicts.append(verdict(
        f"freeness of (x+x^-1, y+y^-1) to word length {max_word_len}",
        "freeinsidegroupring", rep.verdict, rep.to_dict()))
    return verdicts


def run_certify_cauchon(alpha, beta, shift=2, max_word_len: int = 2,
                        seed: int = DEFAULT_SEED) -> list[dict]:
    alpha, beta, shift = rat(alpha), rat(beta), rat(shift)
    ok = orbit_distinct(alpha, beta, shift)
    step = f"z - {shift}" if shift >= 0 else f"z + {-shift}"
    verdicts = [verdict(
        f"orbits of {alpha} and {beta} under z -> {step} are infinite and distinct",
        "Cauchon", ok)]
    if not ok:
        verdicts.append(verdict("freeness of the group algebra on (xi, eta)", "Cauchon",
                                "failed", {"reason": "orbit hypothesis fails; refusing to certify"}))
        return verdicts
    # evaluated p-jets of xi, eta and their exact inverses; the exact fraction
    # path decides on a deficiency, or on a content denominator divisible by MODULUS
    try:
        rep = certify_skew_jets((shift, alpha, beta, 1), max_word_len, mode="group",
                                command="certify cauchon", seed=seed)
    except ZeroDenominator:
        rep = None
    if rep is None or rep.verdict != "certified":
        s, u, xi, eta = cauchon_generators(alpha, beta, shift)
        rep = certify_freeness([xi, eta], skewfrac.ring_ops(s.aut), skew_exact_coordinatizer(s.aut),
                               max_word_len, "group", command="certify cauchon", seed=seed)
    verdicts.append(verdict(
        f"group-mode freeness of (xi, eta) to reduced word length {max_word_len}",
        "Cauchon", rep.verdict, rep.to_dict()))
    return verdicts


def run_certify_nilpotent(order: int = 12, seed: int = DEFAULT_SEED) -> list[dict]:
    """The morphisms of series, the commutative square and w+-v^2 (verdicts
    1-5) run by `forkjoin` while this process checks the facts, inverts A
    and B and proves S and T."""
    rnd = random.Random(seed)
    src = class3_tower(order)
    dst = heisenberg_tower(order)
    lw, lv, lu = src.levels
    table, _, jets = class3_fact_table(order, src)
    L3 = table.algebra
    embed_L = LieHom(L3, [src.gens[k] for k in ("u", "v", "w", "n1", "n2")], src.ops())

    # random sparse tower elements and products of generators, all drawn
    # before either half runs
    def rnd_elem():
        out = {}
        for _ in range(2):
            i = rnd.randint(-2, 2)
            inner = {rnd.randint(-2, 2): lw.make({rnd.randint(-2, 2):
                     series.bipoly_const(rnd.randint(-3, 3))}) for _ in range(2)}
            out[i] = lv.make(inner)
        return lu.make(out)

    pairs = [(rnd_elem(), rnd_elem()) for _ in range(20)]
    gens = [L3.gen("u"), L3.gen("v"), L3.gen("w"),
            u_mul(L3.gen("u"), L3.gen("v")), u_mul(L3.gen("v"), L3.gen("w"))]
    products = [u_mul(rnd.choice(gens), rnd.choice(gens)) for _ in range(20)]

    def morphisms() -> list[dict]:
        verdicts = []
        lz, _, lx = dst.levels
        # morphisms of series: spot identities
        phi_w = hom_phi_w(src, dst)
        phi_u = hom_phi_u(src, dst)
        n1 = series.bipoly_n1()
        ok = jets_agree(phi_w(lw.make({1: n1})), lz.zero_jet())
        three_plus_n1 = series.bipoly_const(3) + n1
        ok &= jets_agree(phi_w(lw.make({2: three_plus_n1})), lz.make({2: Fraction(3)}))
        ok &= jets_agree(phi_u(embed_L(L3.gen("u"))), lx.monomial(-1))
        verdicts.append(verdict("coefficient maps kill the augmentation ideal and send t_u^-1 to t_x^-1",
                                "morphismsofseries", ok))

        # homomorphism property on random sparse tower elements
        hom_ok = all(jets_agree(phi_u(jet_mul(a, b)), jet_mul(phi_u(a), phi_u(b))) for a, b in pairs)
        verdicts.append(verdict("Phi_u is multiplicative on random tower elements",
                                "morphismsofseries", hom_ok, {"samples": 20}))

        # compatibility square with the rho-induced map on U(L3)
        H = heisenberg()
        embed_H = LieHom(H, [dst.gens[k] for k in ("x", "y", "z")], dst.ops())
        rho = rho_class3_to_heisenberg(L3, H)
        sq_ok = all(jets_agree(phi_u(embed_L(g)), embed_H(rho(g))) for g in gens + products)
        verdicts.append(verdict("Phi_u . embed = embed . psi on generators and random products",
                                "commutativediagram", sq_ok))

        # invertibility claims with audit trails
        v_gen, w_gen = L3.gen("v"), L3.gen("w")
        for name, el, sign in (("w+v^2", w_gen + u_mul(v_gen, v_gen), 1),
                               ("w-v^2", w_gen - u_mul(v_gen, v_gen), -1)):
            j = embed_L(el)
            tv_level = j.coeffs[0]  # the t_u^0 coefficient: +-t_v^-2 + t_w^-1
            low = tv_level.coeffs[tv_level.nonzero_min_ord()]
            want = lw.one_jet() if sign == 1 else jet_neg(lw.one_jet())
            low_ok = tv_level.nonzero_min_ord() == -2 and jets_agree(low, want)
            verdicts.append(unit_verdict(f"{name} invertible; lowest t_v-coefficient is {sign}", j, low_ok)[0])
        return verdicts

    def symmetry() -> list[dict]:
        # the fact checks embed the atoms in `src`; seeded into the memo, the
        # inverses of A and B checked here serve the S/T cross-check below
        verdicts = []
        witnesses = verify_facts(table)
        ops = lu.ops()
        memo: dict = {}
        for name, label in (("A", "V-w^3/3"), ("B", "V+w^3/3")):
            v, memo[Inv(Atom(name))] = unit_verdict(
                f"{label} invertible via the recursive unit criterion", jets[name])
            verdicts.append(v)

        # symmetry of S and T built on u, v, w, with jet substitution cross-check
        def cross_check(lhs, rhs) -> dict:
            agree = jets_agree(substitute(lhs, jets, ops, memo), substitute(rhs, jets, ops, memo))
            return {"jet_cross_check": agree, "witnesses_count": len(witnesses)}

        S, T = st_expressions()
        for name, expr in (("S", S), ("T", T)):
            verdicts.append(equality_verdict(f"{name}* = {name} (class-3 atoms)",
                                             "freesymmetricresiduallynilpotent",
                                             star(expr, table), expr, table, cross_check))
        return verdicts

    first, rest = beside_each_other(morphisms, symmetry)
    return first + rest


def run_verify_scaling(lams=(2, 3), seed: int = DEFAULT_SEED, cross_order: int = CROSS_ORDER,
                       class3_order: int = 12, presets=("heisenberg", "class3")) -> list[dict]:
    """S and T against their images under each scaling lambda, on the
    Heisenberg and class-3 atoms; with both presets the Heisenberg half runs
    by `forkjoin` while this process runs the class-3 half."""
    S, T = st_expressions()

    def heisenberg_half() -> list[dict]:
        table, _, atoms = heisenberg_fact_table()
        return scaling_verdicts("Heisenberg", table, atoms, heisenberg_atom_jets(cross_order + 4)[1],
                                cross_order, lams, S, T)

    def class3_half() -> list[dict]:
        table, atoms, jets = class3_fact_table(class3_order)
        return scaling_verdicts("class-3", table, atoms, jets, class3_order, lams, S, T)

    halves = [half for name, half in (("heisenberg", heisenberg_half), ("class3", class3_half))
              if name in presets]
    if len(halves) < 2:
        return [v for half in halves for v in half()]
    first, rest = beside_each_other(*halves)
    return first + rest


def scaling_verdicts(label: str, table: FactTable, atoms: dict, jets: dict, xo: int,
                     lams, S, T) -> list[dict]:
    """S' = S and T' = T under each lambda of `lams` on one preset's atoms,
    after verifying `table`, cross-checked on their jets up to order `xo`.
    The jets' ring supplies the ops: the class-3 fact checks build the atom
    jets inside the table's own tower."""
    verify_facts(table)
    ops = jets["A"].ring.ops()
    verdicts = []
    L = table.algebra
    memo: dict = {}  # the unscaled S and T with their atoms' inverses
    for expr in (S, T):
        substitute(expr, jets, ops, memo)
    for lam in lams:
        lam = rat(lam)
        scaled_memo = dict(memo)  # released before the next lambda
        sc = scaling_automorphism(L, lam)
        factors = {}
        homogeneous = True
        for name, el in atoms.items():
            img = sc(el)
            w = chi_valuation(el)
            f = lam ** int(-w)
            homogeneous &= img == el.smul(f)
            factors[name] = f

        def cross_check(lhs, rhs) -> dict:
            return {"atom_factors": {k: str(v) for k, v in factors.items()},
                    "atoms_homogeneous": homogeneous,
                    "jet_cross_check": jets_agree(substitute(lhs, jets, ops, scaled_memo),
                                                  memo[rhs], upto=xo)}

        for ename, expr in (("S", S), ("T", T)):
            verdicts.append(equality_verdict(
                f"{ename}' = {ename} under lambda = {lam} ({label} atoms)", "freesymmetricOre",
                scale_atoms(expr, factors), expr, table, cross_check))
    return verdicts


def run_verify_valuation(seed: int = DEFAULT_SEED) -> list[dict]:
    L3 = free_nilpotent_class3()
    u3, v3, w3 = L3.gen("u"), L3.gen("v"), L3.gen("w")
    V = heisenberg_V(L3)
    table = {
        "chi(u)": (chi_valuation(u3), -1),
        "chi(v)": (chi_valuation(v3), -1),
        "chi(w)": (chi_valuation(w3), -2),
        "chi(uv+vu)": (chi_valuation(u_mul(u3, v3) + u_mul(v3, u3)), -2),
        "chi(V)": (chi_valuation(V), -6),
        "chi(V') for V' = t^6 V": (laurent_chi([(6, V)]), 0),
    }
    ok = all(got == want for got, want in table.values())
    return [verdict("valuation table and Laurent extension formula",
                    "specializationfromgraduation(1)", ok,
                    {k: {"got": str(g), "want": str(w)} for k, (g, w) in table.items()})]


# -- property suites (shared by `selftest` and the pytest suite) ---------------


def _rand_frac(rnd) -> Fraction:
    return Fraction(rnd.randint(-6, 6), rnd.randint(1, 4))


def _rand_uelem(rnd, L, max_deg=2, terms=2):
    out = L.zero()
    for _ in range(terms):
        mono = tuple(rnd.randint(0, max_deg) for _ in range(L.dim))
        out = out + pbw.UElem(L, {mono: _rand_frac(rnd)})
    return out


def _rand_ratfun(rnd, coeff=_rand_frac) -> RatFun:
    """Numerator and denominator of t-degree at most 1, each coefficient
    drawn by `coeff(rnd)`."""
    num = Poly([coeff(rnd) for _ in range(rnd.randint(1, 2))])
    while True:
        den = Poly([coeff(rnd) for _ in range(rnd.randint(1, 2))])
        if den:
            return RatFun(num, den)


def _rand_skewpoly(rnd, aut, deg=2) -> SkewPoly:
    return SkewPoly(aut, [_rand_ratfun(rnd) for _ in range(rnd.randint(1, deg + 1))])


def prop_pbw_associativity(seed: int, n: int = 200) -> tuple[bool, str]:
    rnd = random.Random(seed)
    for L in (heisenberg(), two_dimensional(), free_nilpotent_class3()):
        for _ in range(n):
            a, b, c = (_rand_uelem(rnd, L) for _ in range(3))
            if u_mul(u_mul(a, b), c) != u_mul(a, u_mul(b, c)):
                return False, f"associativity fails in U({L.name})"
    return True, f"{n} random triples per preset"


def prop_involution_axioms(seed: int, n: int = 100) -> tuple[bool, str]:
    rnd = random.Random(seed + 1)
    for L in (heisenberg(), two_dimensional(), free_nilpotent_class3()):
        for _ in range(n):
            a, b = _rand_uelem(rnd, L), _rand_uelem(rnd, L)
            if u_involution(u_mul(a, b)) != u_mul(u_involution(b), u_involution(a)):
                return False, f"(ab)* != b*a* in U({L.name})"
            if u_involution(u_involution(a)) != a:
                return False, f"a** != a in U({L.name})"
            if pbw.augmentation(u_involution(a)) != pbw.augmentation(a):
                return False, f"eps(a*) != eps(a) in U({L.name})"
    return True, f"{n} random pairs per preset"


def prop_valuation_axioms(seed: int, n: int = 100) -> tuple[bool, str]:
    rnd = random.Random(seed + 2)
    for L in (heisenberg(), free_nilpotent_class3()):
        for _ in range(n):
            a, b = _rand_uelem(rnd, L), _rand_uelem(rnd, L)
            ca, cb = chi_valuation(a), chi_valuation(b)
            if chi_valuation(u_mul(a, b)) != ca + cb:
                # graded domain: the product valuation must be additive
                return False, f"chi(ab) != chi(a)+chi(b) in U({L.name})"
            if chi_valuation(a + b) < min(ca, cb):
                return False, f"chi(a+b) < min in U({L.name})"
    return True, f"{n} random pairs per graded preset"


def prop_skew_euclid(seed: int, n: int = 60) -> tuple[bool, str]:
    rnd = random.Random(seed + 3)
    for c in (Fraction(1), Fraction(2), Fraction(-1), Fraction(0)):
        aut = ShiftAut(c)
        for _ in range(n):
            f = _rand_skewpoly(rnd, aut, 3)
            g = _rand_skewpoly(rnd, aut, 2)
            if not g:
                continue
            q, r = sp_divmod(f, g, "right")
            if sp_mul(q, g) + r != f or (r and r.degree >= g.degree):
                return False, "right division identity fails"
            q, r = sp_divmod(f, g, "left")
            if sp_mul(g, q) + r != f or (r and r.degree >= g.degree):
                return False, "left division identity fails"
            if f and g:
                gcrd, llcm, a, b = sp_gcrd_llcm(f, g)
                if sp_mul(a, f) != llcm or sp_mul(b, g) != llcm:
                    return False, "llcm cofactor identity fails"
                if llcm.degree != f.degree + g.degree - gcrd.degree:
                    return False, "llcm degree identity fails"
                for h in (f, g):
                    _, rr = sp_divmod(llcm, h, "right")
                    if rr:
                        return False, "llcm is not a common left multiple"
    return True, f"{n} random pairs per shift"


def _small_skewfrac(rnd, aut, pdeg=2) -> SkewFrac:
    """Height-controlled sample: the sigma-shift products in a degree-32
    expansion multiply coefficient sizes, so cross-oracle samples keep small
    integer coefficients and low t-degree."""
    small = functools.partial(_rand_ratfun, rnd, lambda r: Fraction(r.randint(-2, 2)))
    while True:
        den = SkewPoly(aut, [small() for _ in range(pdeg + 1)])
        if den:
            return SkewFrac(den, SkewPoly(aut, [small() for _ in range(rnd.randint(1, pdeg + 1))]))


def prop_fraction_jet_cross(seed: int, n: int = 8) -> tuple[bool, str]:
    """Exact fraction arithmetic against independent sigma-twisted jet
    arithmetic, and against the differential-operator series model.

    The full default order runs on the explicit certification elements
    (whose coefficient growth is tame); random samples run at a lower order
    because expanding generic fractions multiplies sigma-shifted denominators
    into coefficients of exponential height."""
    order, fuzz_order = 32, 12
    rnd = random.Random(seed + 4)
    sbar, tbar = build_heisenberg_images()
    aut = sbar.aut
    _, u = cauchon_pair(*skewfrac.HEISENBERG_CONSTRUCTION)
    for a, b in ((sbar, u), (u, tbar), (tbar, u.inv())):
        ja, jb = sf_to_pjet(a, order), sf_to_pjet(b, order)
        if not jets_agree(sf_to_pjet(a * b, order), ja * jb):
            return False, f"pjet multiplication disagrees at order {order}"
        if not jets_agree(sf_to_pjet(a + b, order), ja + jb):
            return False, f"pjet addition disagrees at order {order}"
        if not jets_agree(sf_to_pjet(a.inv(), order), ja.inv()):
            return False, f"pjet inversion disagrees at order {order}"
    for _ in range(n):
        a = _small_skewfrac(rnd, aut, 2)
        b = _small_skewfrac(rnd, aut, 2)
        ja, jb = sf_to_pjet(a, fuzz_order), sf_to_pjet(b, fuzz_order)
        if not jets_agree(sf_to_pjet(a * b, fuzz_order), ja * jb):
            return False, "pjet multiplication disagrees with exact multiplication"
        if not jets_agree(sf_to_pjet(a + b, fuzz_order), ja + jb):
            return False, "pjet addition disagrees with exact addition"
        if not jets_agree(sf_to_pjet(a.inv(), fuzz_order), ja.inv()):
            return False, "pjet inversion disagrees with exact inversion"
    ring = skewfrac.weyl_jet_ring(12)
    for _ in range(3):
        a = _small_skewfrac(rnd, aut, 1)
        b = _small_skewfrac(rnd, aut, 1)
        lhs = skewfrac.sf_to_weyl_jet(a * b, ring)
        rhs = jet_mul(skewfrac.sf_to_weyl_jet(a, ring), skewfrac.sf_to_weyl_jet(b, ring))
        if not jets_agree(lhs, rhs):
            return False, "series-model expansion disagrees with exact multiplication"
    return True, (f"explicit elements at order {order}; {n} random pairs at "
                  f"order {fuzz_order}")


def run_selftest(seed: int = DEFAULT_SEED, quick: bool = False) -> list[dict]:
    n_assoc = 50 if quick else 200
    n_pairs = 30 if quick else 100
    n_euclid = 15 if quick else 60
    n_cross = 4 if quick else 12
    verdicts = []
    for name, fn, label in (
        ("PBW associativity", lambda: prop_pbw_associativity(seed, n_assoc), "PBW"),
        ("involution axioms", lambda: prop_involution_axioms(seed, n_pairs), "principal involution"),
        ("valuation axioms", lambda: prop_valuation_axioms(seed, n_pairs), "specializationfromgraduation(1)"),
        ("skew-Euclidean identities", lambda: prop_skew_euclid(seed, n_euclid), "Ore condition"),
        ("fraction/jet cross-oracle", lambda: prop_fraction_jet_cross(seed, n_cross), "freealgebrainWeyl"),
    ):
        ok, detail = fn()
        verdicts.append(verdict(name, label, ok, {"detail": detail}))
    verdicts.extend(run_verify_valuation(seed))
    verdicts.extend(run_certify_groupring(3 if quick else 4, seed))
    verdicts.extend(run_certify_skew(TWODIM, 2, seed))
    verdicts.extend(run_certify_skew(HEISENBERG, 2, seed))
    verdicts.extend(run_verify_scaling((2, 3), seed, class3_order=10 if quick else 12))
    if not quick:
        verdicts.extend(run_certify_nilpotent(12, seed))
        verdicts.extend(run_certify_cauchon(Fraction(5, 6), Fraction(1, 6), 2, 2, seed))
    return verdicts
