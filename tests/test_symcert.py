"""Symbolic star/equality certification over the fact tables."""

import json
import pathlib
from fractions import Fraction as F

import pytest

from skewcert import cli, harness, skewfrac
from skewcert.errors import FactFailure, KernelError, UnknownAtomStar
from skewcert.harness import (
    class3_fact_table,
    equality_verdict,
    heisenberg_atom_jets,
    heisenberg_fact_table,
    st_expressions,
    twodim_expressions,
    twodim_fact_table,
    worst_exit,
)
from skewcert.pbw import chi_valuation, heisenberg, u_involution, u_mul
from skewcert.series import Jet, fraction_ops, heisenberg_tower, jets_agree
from skewcert.symcert import (
    Add,
    Atom,
    AtomFacts,
    ConstQ,
    FactTable,
    Inv,
    Mul,
    Neg,
    StarFact,
    normal_form,
    prove_equal,
    scale_atoms,
    star,
    substitute,
    verify_facts,
)


@pytest.fixture(scope="module")
def h_setup():
    table, phi, atoms = heisenberg_fact_table()
    verify_facts(table)
    return table, atoms


def test_expression_nodes_compare_by_class_and_field():
    x = Atom("x")
    assert Atom("x") == x and hash(Atom("x")) == hash(x)
    assert Inv(x) != Neg(x) and Mul((x,)) != Add((x,))
    assert Mul((Inv(x), ConstQ(F(1, 2)))) == Mul((Inv(Atom("x")), ConstQ(F(2, 4))))
    assert len({Inv(x), Neg(x), Inv(Atom("x"))}) == 2
    assert x != "x"
    with pytest.raises(AttributeError):
        x.name = "y"


def test_verify_facts_witnesses(h_setup):
    table, _ = h_setup
    assert table.verified
    assert any("star" in w for w in table.witnesses)
    assert any("invertible" in w for w in table.witnesses)


def test_verify_facts_star_example(h_setup):
    table, atoms = h_setup
    # the verified content: V* = V forces (V - z^3/3)* = V + z^3/3
    assert u_involution(atoms["A"]) == atoms["B"]
    assert u_involution(atoms["C"]) == -atoms["E"]


def test_verify_facts_commutation(h_setup):
    table, atoms = h_setup
    assert u_mul(atoms["A"], atoms["B"]) == u_mul(atoms["B"], atoms["A"])


def test_fact_failure_on_corrupt_star():
    table, _, atoms = heisenberg_fact_table()
    bad = table.atoms["A"]
    table.add_atom(AtomFacts("A", bad.definition, StarFact(-1, "B", 1),
                             bad.invert_via, bad.invert_check))
    with pytest.raises(FactFailure):
        verify_facts(table)


def test_fact_failure_on_false_commutation():
    table, _, atoms = heisenberg_fact_table()
    table.declare_commuting("A", "C")  # [V - z^3/3, z + y^2] != 0
    with pytest.raises(FactFailure):
        verify_facts(table)


def test_star_structural_rules(h_setup):
    table, _ = h_setup
    A = Atom("A")
    assert star(Inv(A), table) == Inv(Atom("B"))
    # star(A * B^-1) = (B^-1)* A* = A^-1 B with the declared star pairs
    got = star(Mul((A, Inv(Atom("B")))), table)
    assert got == Mul((Inv(Atom("A")), Atom("B")))
    # star((z+y^2)^-1 (z-y^2)) = (z+y^2)(z-y^2)^-1 after sign cancellation
    lhs = star(Mul((Inv(Atom("C")), Atom("E"))), table)
    want = Mul((Atom("C"), Inv(Atom("E"))))
    assert prove_equal(lhs, want, table) == "equal"


def test_star_is_an_involution(h_setup):
    table, _ = h_setup
    S, T = st_expressions()
    for e in (S, T):
        assert prove_equal(star(star(e, table), table), e, table) == "equal"


def test_unknown_atom_star(h_setup):
    table, _ = h_setup
    with pytest.raises(UnknownAtomStar):
        star(Atom("nope"), table)


def test_prove_equal_S_and_T(h_setup):
    table, _ = h_setup
    S, T = st_expressions()
    assert prove_equal(star(S, table), S, table) == "equal"
    assert prove_equal(star(T, table), T, table) == "equal"
    assert prove_equal(S, T, table) == "unequal"


def test_prove_equal_requires_verified_facts():
    table, _, _ = heisenberg_fact_table()
    S, _ = st_expressions()
    with pytest.raises(FactFailure):
        prove_equal(S, S, table)


def test_unable_outside_fragment(h_setup):
    table, _ = h_setup
    e = Inv(Add((Atom("A"), Atom("B"))))
    assert prove_equal(e, e, table) == "unable"


def test_unable_has_its_own_exit_code():
    # exit 2 needs a relation or counterexample, exit 3 a truncation limit
    def exit_of(*names):
        return worst_exit([{"verdict": n} for n in names])

    assert exit_of("equal", "unable") == 4
    assert exit_of("unable", "inconclusive") == 4
    assert exit_of("inconclusive", "inconclusive") == 3
    assert exit_of("unable", "failed") == exit_of("unequal") == exit_of("relation_found") == 2
    assert exit_of("certified", "equal") == 0
    # the whole vocabulary, one verdict at a time; any other string fails
    for name, code in (("certified", 0), ("equal", 0), ("failed", 2), ("unequal", 2),
                       ("relation_found", 2), ("inconclusive", 3), ("unable", 4),
                       ("pass", 2), ("verified", 2), ("true", 2), ("", 2)):
        assert exit_of(name) == code, name


def test_heisenberg_cross_check_window_reaches_its_order(h_setup, monkeypatch):
    # at the tower order CROSS_ORDER + 4 both sides are known below 19; built
    # at CROSS_ORDER they are known below 15 only, and a report claiming 16
    # would overstate the comparison, so the check refuses it
    table, _ = h_setup
    S, T = st_expressions()
    check = harness.heisenberg_cross_check(None)
    for e in (S, T):
        assert check(star(e, table), e) == {"jet_cross_check_order": 16, "jet_cross_check": True}
    real = harness.heisenberg_atom_jets
    monkeypatch.setattr(harness, "heisenberg_atom_jets", lambda order: real(harness.CROSS_ORDER))
    check = harness.heisenberg_cross_check(None)
    for e in (S, T):
        with pytest.raises(KernelError, match="^jet cross-check window 15 is below order 16$"):
            check(star(e, table), e)


def test_equality_verdict_needs_proof_and_cross_check(h_setup):
    table, _ = h_setup
    S, T = st_expressions()
    calls = []

    def cross_check(lhs, rhs):
        calls.append((lhs, rhs))
        return {"jet_cross_check": False, "order": 16}

    # a proved claim stands only when every boolean of its data is true
    v = equality_verdict("S* = S", "label", star(S, table), S, table, cross_check)
    assert v["verdict"] == "failed"
    assert v["data"] == {"jet_cross_check": False, "order": 16}
    assert calls == [(star(S, table), S)]
    v = equality_verdict("S* = S", "label", star(S, table), S, table,
                         lambda lhs, rhs: {"jet_cross_check": True, "order": 16})
    assert v["verdict"] == "equal"
    # an unproved claim keeps the prover's verdict; the cross-check never runs
    calls.clear()
    v = equality_verdict("S = T", "label", S, T, table, cross_check)
    assert (v["verdict"], v["data"]) == ("unequal", {})
    e = Inv(Add((Atom("A"), Atom("B"))))
    v = equality_verdict("e = e", "label", e, e, table, cross_check)
    assert (v["verdict"], v["data"]) == ("unable", {})
    assert calls == []


def test_scaling_cancellation(h_setup):
    table, _ = h_setup
    S, T = st_expressions()
    factors = {"A": F(64), "B": F(64), "C": F(4), "E": F(4)}
    assert prove_equal(scale_atoms(S, factors), S, table) == "equal"
    assert prove_equal(scale_atoms(T, factors), T, table) == "equal"
    lopsided = {"A": F(64), "B": F(32), "C": F(4), "E": F(4)}
    assert prove_equal(scale_atoms(S, lopsided), S, table) == "unequal"


def test_normal_form_words(h_setup):
    table, _ = h_setup
    # commuting atoms sort; noncommuting ones stay put
    e1 = Mul((Atom("B"), Atom("A")))
    e2 = Mul((Atom("A"), Atom("B")))
    assert normal_form(e1, table) == normal_form(e2, table)
    e3 = Mul((Atom("C"), Atom("A")))
    e4 = Mul((Atom("A"), Atom("C")))
    assert normal_form(e3, table) != normal_form(e4, table)


def test_conjugator_cancellation_blocked(h_setup):
    table, _ = h_setup
    # C^-1 (A) C cannot cancel because A does not commute with C
    e = Mul((Inv(Atom("C")), Atom("A"), Atom("C")))
    assert prove_equal(e, Atom("A"), table) == "unequal"
    # but C^-1 (B-ish commuting product of C,E) C does cancel
    e2 = Mul((Inv(Atom("C")), Atom("E"), Atom("C")))
    assert prove_equal(e2, Atom("E"), table) == "equal"


def test_neg_and_const_normalization(h_setup):
    table, _ = h_setup
    a = Atom("A")
    e1 = Mul((Neg(ConstQ(F(2))), a, Inv(Mul((ConstQ(F(2)), Atom("B"))))))
    e2 = Neg(Mul((a, Inv(Atom("B")))))
    assert prove_equal(e1, e2, table) == "equal"


def test_jet_substitution_cross_check(h_setup):
    table, _ = h_setup
    S, T = st_expressions()
    tower, jets = heisenberg_atom_jets(16)
    ops = tower.ops()
    memo = {}
    for expr in (S, T):
        lhs = substitute(star(expr, table), jets, ops, memo)
        rhs = substitute(expr, jets, ops, memo)
        assert jets_agree(lhs, rhs)
    # and S vs T do differ in the model
    assert not jets_agree(substitute(S, jets, ops, memo), substitute(T, jets, ops, memo))


def test_twodim_star_facts():
    table, model, values = twodim_fact_table()
    witnesses = verify_facts(table)
    assert any("s* = s^-1" in w for w in witnesses)
    S2, T2 = twodim_expressions()
    assert prove_equal(star(S2, table), S2, table) == "equal"
    assert prove_equal(star(T2, table), T2, table) == "equal"


GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def _scrubbed(verdicts) -> list:
    """`verdicts` as a golden report holds them: rendered to JSON as the CLI
    renders it, with every elapsed_ms zeroed."""
    text = json.dumps(verdicts, default=cli._json_default)
    return json.loads(text, object_hook=lambda d: {**d, "elapsed_ms": 0} if "elapsed_ms" in d else d)


def test_twodim_symmetry_verdicts_form_no_pjet(monkeypatch):
    # the symmetry claims are checked exactly in K(p;sigma): no Q(t) p-jet
    # is formed, and the report is the golden's
    def forbidden(*args):
        raise AssertionError("a Q(t) p-jet was formed")

    monkeypatch.setattr(harness, "sf_to_pjet", forbidden)
    monkeypatch.setattr(skewfrac, "pjet_ring", forbidden)
    verdicts = harness.run_certify_skew(harness.TWODIM, 2)
    golden = json.loads((GOLDEN / "twodim.json").read_text())["verdicts"]
    assert _scrubbed(verdicts) == golden
    assert [v["data"] for v in verdicts[2:4]] == [{"exact_cross_check": True}] * 2


def test_twodim_exact_cross_check_catches_a_wrong_claim(monkeypatch):
    table, _, values = twodim_fact_table()
    verify_facts(table)
    check = harness.twodim_cross_check(values)
    su, us = Mul((Atom("s"), Atom("u"))), Mul((Atom("u"), Atom("s")))
    assert check(su, us) == {"exact_cross_check": False}
    # a prover that wrongly finds su = us is caught by the exact values
    monkeypatch.setattr(harness, "prove_equal", lambda lhs, rhs, table: "equal")
    v = equality_verdict("su = us", "label", su, us, table, check)
    assert (v["verdict"], v["data"]) == ("failed", {"exact_cross_check": False})


def test_class3_table_has_no_false_commutation():
    table, atoms, _ = class3_fact_table(8)
    # A and B genuinely do not commute in the class-3 algebra, and the table
    # must not claim they do
    assert not table.commuting
    assert u_mul(atoms["A"], atoms["B"]) != u_mul(atoms["B"], atoms["A"])
    verify_facts(table)
    S, T = st_expressions()
    assert prove_equal(star(S, table), S, table) == "equal"
    assert prove_equal(star(T, table), T, table) == "equal"


def test_nilpotent_inverts_each_top_level_jet_once(monkeypatch, one_process):
    # w+v^2, w-v^2, A and B are inverted for their verdicts; the S/T cross-
    # check reuses the checked inverses of A and B and inverts C and E once
    # (the starred T holds Inv(Neg(E)) and Inv(Neg(C)), which reuse them)
    from skewcert import harness, series

    top = {"t_u": 0, "t_x": 0}
    real = series.jet_inv

    def counting(a, *args, **kwargs):
        if a.ring.var in top:
            top[a.ring.var] += 1
        return real(a, *args, **kwargs)

    monkeypatch.setattr(series, "jet_inv", counting)
    monkeypatch.setattr(harness, "jet_inv", counting)
    verdicts = harness.run_certify_nilpotent(10)
    assert [v["verdict"] for v in verdicts] == ["certified"] * 7 + ["equal"] * 2
    assert top == {"t_u": 6, "t_x": 0}

    # the heisenberg S/T cross-check inverts A, B, C and E once each
    top["t_u"] = 0
    table = heisenberg_fact_table()[0]
    check = harness.heisenberg_cross_check(None)
    for expr in st_expressions():
        assert check(star(expr, table), expr)["jet_cross_check"]
    assert top == {"t_u": 0, "t_x": 4}

    # every lambda of verify scaling reuses the unscaled atoms' inverses
    top["t_x"] = 0
    verdicts = harness.run_verify_scaling((2, 3), class3_order=10)
    assert [v["verdict"] for v in verdicts] == ["equal"] * 8
    assert top == {"t_u": 4, "t_x": 4}


# -- shared products in substitute against a plain evaluation -----------------


def _plain(e, values, ops):
    """Every node evaluated afresh: products left to right through ops.mul,
    one ops.inv per Inv node, no memo and no scalar peeling."""
    if isinstance(e, ConstQ):
        return ops.smul(e.value, ops.one)
    if isinstance(e, Atom):
        return values[e.name]
    if isinstance(e, Neg):
        return ops.neg(_plain(e.arg, values, ops))
    if isinstance(e, Add):
        return ops.total(_plain(t, values, ops) for t in e.terms)
    if isinstance(e, Mul):
        val = _plain(e.factors[0], values, ops)
        for f in e.factors[1:]:
            val = ops.mul(val, _plain(f, values, ops))
        return val
    if isinstance(e, Inv):
        return ops.inv(_plain(e.arg, values, ops))
    raise TypeError(e)


def _same(a, b) -> bool:
    """Equal order by order down to the base coefficients, trunc included."""
    if isinstance(a, Jet):
        return (isinstance(b, Jet) and a.trunc == b.trunc and a.coeffs.keys() == b.coeffs.keys()
                and all(_same(c, b.coeffs[k]) for k, c in a.coeffs.items()))
    return type(a) is type(b) and a == b


def _tower_setup(name):
    if name == "heisenberg":
        table, _, atoms = heisenberg_fact_table()
        verify_facts(table)
        tower, jets = heisenberg_atom_jets(20)
        return table, atoms, jets, tower.ops()
    table, atoms, jets = class3_fact_table(8)
    verify_facts(table)  # the invertibility checks fill in the atom jets
    return table, atoms, jets, jets["A"].ring.ops()


@pytest.mark.parametrize("tower", ["heisenberg", "class3"])
def test_shared_products_match_plain_evaluation(tower):
    table, atoms, jets, ops = _tower_setup(tower)
    S, T = st_expressions()
    exprs = [S, T, star(S, table), star(T, table)]
    for lam in (2, 3):
        factors = {k: F(lam) ** int(-chi_valuation(el)) for k, el in atoms.items()}
        exprs += [scale_atoms(S, factors), scale_atoms(T, factors)]
    memo = {}
    for e in exprs:
        assert _same(substitute(e, jets, ops, memo), _plain(e, jets, ops)), e


def test_unbalanced_scaling_is_not_shared_into_agreement():
    # (2A)(3B)^-1 + (2A)^-1(3B) = 2/3 AB^-1 + 3/2 A^-1B differs from S: the
    # peeled scalars must survive the shared products
    table, _, jets, ops = _tower_setup("heisenberg")
    S, _ = st_expressions()
    memo = {}
    substitute(S, jets, ops, memo)
    lopsided = scale_atoms(S, {"A": F(2), "B": F(3)})
    assert not jets_agree(substitute(lopsided, jets, ops, memo), memo[S])
    assert prove_equal(lopsided, S, table) == "unequal"


def _count_products(monkeypatch):
    """Count the ring multiplications substitute makes inside the harness."""
    from skewcert import harness

    count = [0]
    real = harness.substitute

    def counting(e, values, ops, memo=None):
        def mul(a, b):
            count[0] += 1
            return ops.mul(a, b)

        return real(e, values, ops.replace(mul=mul), memo)

    monkeypatch.setattr(harness, "substitute", counting)
    return harness, count


def test_verify_scaling_shares_products(monkeypatch, one_process):
    # per tower: S costs 2 products and T 4; per lambda S' reuses both of S's,
    # and its value is stored like S's, so T' reuses all of T's: 2 * 6 = 12
    harness, count = _count_products(monkeypatch)
    verdicts = harness.run_verify_scaling()
    assert [v["verdict"] for v in verdicts] == ["equal"] * 8
    assert count[0] == 12


def test_nilpotent_cross_check_shares_products(monkeypatch):
    # S and T cost 6 products; S* reuses both of S's, and T* all of T's
    harness, count = _count_products(monkeypatch)
    verdicts = harness.run_certify_nilpotent()
    assert [v["verdict"] for v in verdicts][-2:] == ["equal"] * 2
    assert count[0] == 6


def test_sums_stored_differently_keep_their_own_products():
    # a sum stands for an earlier one in product prefixes only when its value
    # is stored alike: non-cancelling scale factors, a lower trunc or an
    # extra inexact zero each give products of their own
    table, _, jets, ops = _tower_setup("heisenberg")
    S, T = st_expressions()
    C, E = Atom("C"), Atom("E")
    lx, ly = jets["A"].ring, jets["A"].ring.coeff.zero.ring
    x = jets["C"]
    values = dict(jets, x=x, x_low=lx.make(x.coeffs, 8),
                  x_zero=lx.make({**x.coeffs, 6: ly.zero_jet(3)}, 8))
    memo = {}
    exprs = [T, star(T, table)]
    for s in (scale_atoms(S, {"A": F(2), "B": F(3)}), Add((Atom("x"),)),
              Add((Atom("x_low"),)), Add((Atom("x_zero"),))):
        exprs += [s, Mul((Inv(C), E, s, C, Inv(E)))]
    for e in exprs:
        assert _same(substitute(e, values, ops, memo), _plain(e, values, ops)), e
    same = {k[1]: v for k, v in memo.items() if type(k) is tuple and k[0] == "same"}
    assert same == {star(S, table): S}


def test_inverse_of_scalars_keeps_its_value():
    # an inverse with nothing but scalars under it stays a factor of its own
    x = Atom("x")
    q = fraction_ops()
    assert substitute(Inv(ConstQ(F(3))), {}, q) == F(1, 3)
    assert substitute(Inv(Neg(ConstQ(F(3)))), {}, q) == F(-1, 3)
    assert substitute(Mul((x, Inv(ConstQ(F(3))))), {"x": F(5)}, q) == F(5, 3)
    tower = heisenberg_tower(8)
    ops = tower.ops()
    values = {"x": tower.gens["x"]}
    for e in (Inv(ConstQ(F(3))), Inv(Neg(ConstQ(F(3)))), Mul((x, Inv(ConstQ(F(3))))),
              Mul((Inv(Neg(ConstQ(F(3)))), x, Inv(Mul((ConstQ(F(2)), x)))))):
        assert _same(substitute(e, values, ops), _plain(e, values, ops)), e
    for o in (q, ops):
        with pytest.raises(ZeroDivisionError):
            substitute(Inv(ConstQ(F(0))), {}, o)
        with pytest.raises(ZeroDivisionError):
            substitute(Mul((x, Inv(ConstQ(F(0))))), {"x": o.one}, o)
