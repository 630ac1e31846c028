"""Symbolic star/equality certification over the fact tables."""

from fractions import Fraction as F

import pytest

from skewcert.errors import FactFailure, UnknownAtomStar
from skewcert.harness import (
    class3_fact_table,
    heisenberg_atom_jets,
    heisenberg_fact_table,
    st_expressions,
    twodim_expressions,
    twodim_fact_table,
)
from skewcert.pbw import heisenberg, u_involution, u_mul
from skewcert.series import jets_agree
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


def test_nilpotent_inverts_each_top_level_jet_once(monkeypatch):
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
    check = harness.heisenberg_cross_check(None, 16)
    for expr in st_expressions():
        assert check(star(expr, table), expr)["jet_cross_check"]
    assert top == {"t_u": 0, "t_x": 4}

    # every lambda of verify scaling reuses the unscaled atoms' inverses
    top["t_x"] = 0
    verdicts = harness.run_verify_scaling((2, 3), class3_order=10)
    assert [v["verdict"] for v in verdicts] == ["equal"] * 8
    assert top == {"t_u": 4, "t_x": 4}
