"""Word enumeration, exact rank computation, freeness verdicts."""

from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skewcert import groupring, harness
from skewcert.errors import AdapterFailure, KernelError, LowestCoeffNotUnit, PoleAtPoint
from skewcert.freecert import (
    MODULUS,
    CertReport,
    Coordinatizer,
    _eliminate,
    certify_freeness,
    enumerate_words,
    evaluate_words,
    rank_mod_p_packed,
    rank_over_Q,
)
from skewcert.harness import (
    groupring_coordinatizer,
    skew_exact_coordinatizer,
    skew_pjet_coordinatizer,
    skew_residue_coordinatizer,
)
from skewcert.skewfrac import ShiftAut, build_heisenberg_images, heisenberg_image_jets, pjet_ring_ops
from skewcert import skewfrac
from oracles import cauchon_image_jets, residue_pjets, word_str


def test_enumerate_counts():
    assert len(enumerate_words(2, 2, False)) == 7
    assert len(enumerate_words(2, 3, False)) == 15
    assert len(enumerate_words(2, 1, True)) == 5
    assert len(enumerate_words(2, 2, True)) == 17
    assert len(enumerate_words(3, 2, False)) == 13


def test_enumerate_length_lex_order():
    words = enumerate_words(2, 2, False)
    assert words[0] == ()
    assert words[1:3] == [(1,), (2,)]
    lengths = [len(w) for w in words]
    assert lengths == sorted(lengths)


def test_group_words_reduced():
    for w in enumerate_words(2, 3, True):
        assert all(w[i] != -w[i + 1] for i in range(len(w) - 1))


def test_word_str():
    assert word_str((), ["a", "b"]) == "1"
    assert word_str((1, -2), ["a", "b"]) == "a.b'"


def recombine(relation, vecs):
    acc = {}
    for c, v in zip(relation, vecs):
        for k, q in v.items():
            acc[k] = acc.get(k, F(0)) + c * q
    return acc


def test_rank_standard_basis():
    vecs = [{i: F(1)} for i in range(4)]
    assert rank_over_Q(vecs) == (4, None)


def test_rank_with_relation():
    vecs = [{0: F(1)}, {1: F(1)}, {0: F(1), 1: F(1)}]
    rank, rel = rank_over_Q(vecs)
    assert rank == 2
    assert rel == [F(1), F(1), F(-1)]


def test_rank_scaled_relation():
    vecs = [{0: F(1, 2)}, {0: F(3)}]
    rank, rel = rank_over_Q(vecs)
    assert rank == 1
    assert rel == [F(6), F(-1)]
    assert not any(recombine(rel, vecs).values())


def test_rank_empty_and_zero_rows():
    assert rank_over_Q([]) == (0, None)
    rank, rel = rank_over_Q([{}, {0: F(1)}])
    assert rank == 1
    assert rel == [F(1), F(0)]


small_fracs = st.builds(F, st.integers(-9, 9), st.integers(1, 5))


@st.composite
def sparse_matrices(draw):
    """Sparse Fraction rows over a few columns; some rows are rational
    combinations of earlier rows, so deficient ranks occur often."""
    width = draw(st.integers(1, 6))
    vecs = []
    for _ in range(draw(st.integers(1, 7))):
        if vecs and draw(st.booleans()):
            coeffs = draw(st.lists(small_fracs, min_size=len(vecs), max_size=len(vecs)))
            row = recombine(coeffs, vecs)
        else:
            cols = draw(st.sets(st.integers(0, width - 1), max_size=width))
            row = {c: draw(small_fracs) for c in cols}
        vecs.append({k: q for k, q in row.items() if q})
    return width, vecs


@given(sparse_matrices(), st.permutations(range(6)))
def test_rank_matches_sympy(case, perm):
    sympy = pytest.importorskip("sympy")
    width, vecs = case
    dense = [[sympy.Rational(v.get(j, 0).numerator, v.get(j, 0).denominator)
              for j in range(width)] for v in vecs]
    rank, rel = rank_over_Q(vecs)
    assert rank == sympy.Matrix(dense).rank()
    # renamed columns, first seen in another order: the relation is unique,
    # so neither the names nor the order of the columns may change it
    renamed = [{perm[k]: v[k] for k in sorted(v, key=perm.__getitem__)} for v in vecs]
    assert rank_over_Q(renamed) == (rank, rel)
    if rank == len(vecs):
        assert rel is None
    else:
        assert any(rel)
        assert not any(recombine(rel, vecs).values())
        ints = [int(c) for c in rel]
        assert ints == rel and gcd(*ints) == 1 and next(c for c in ints if c) > 0
        # it writes the first vector that depends on those before it in them
        r = max(i for i, c in enumerate(rel) if c)
        assert sympy.Matrix(dense[:r]).rank() == r


def test_rank_full_over_Q_but_deficient_mod_p():
    # each input is deficient modulo MODULUS, so the exact pass decides
    assert rank_over_Q([{0: F(MODULUS)}]) == (1, None)
    assert rank_over_Q([{0: F(1), 1: F(1)}, {0: F(1), 1: F(1 + MODULUS)}]) == (2, None)
    # the row scale MODULUS turns the second entry into MODULUS itself
    assert rank_over_Q([{0: F(1, MODULUS), 1: F(1)}, {0: F(1)}]) == (2, None)
    rank, rel = rank_over_Q([{0: F(1, MODULUS)}, {0: F(1)}])
    assert (rank, rel) == (1, [F(MODULUS), F(-1)])


residues = st.one_of(st.integers(-3, 3), st.integers(-4 * MODULUS, 4 * MODULUS),
                     st.sampled_from([MODULUS, 2 * MODULUS, -MODULUS, MODULUS - 1, 2**60, 2**64]))


@st.composite
def residue_matrices(draw):
    """Integer rows for the modulo-MODULUS rank, dense or sparse over a few
    columns with gaps; some rows repeat earlier rows or are scaled
    combinations of them, so deficient ranks occur often."""
    width, dense = draw(st.integers(1, 8)), draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(0, 9))):
        if rows and draw(st.booleans()):
            row = {}
            for i in draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=3)):
                f = draw(residues)
                for c, x in rows[i].items():
                    row[c] = row.get(c, 0) + f * x
        else:
            cols = range(width) if dense else draw(st.sets(st.integers(0, width - 1)))
            row = {3 * c: draw(residues) for c in cols}
        rows.append(row)
    return rows


@given(residue_matrices())
def test_packed_rank_matches_the_dict_elimination(rows):
    assert rank_mod_p_packed(rows) == _eliminate(rows, MODULUS)[0]


@pytest.mark.parametrize("scale, rank", [(1, 1), (2**60, 1), (3, 2)])
def test_packed_rank_reads_q_and_2q_slots_as_zero(scale, rank):
    # after the row operation on pivot (1, 1), the second slot of (1, 1) is
    # 4q folded to q, and that of (2^60, 2^60) is folded to 2q; (3, 4) is
    # independent of (1, 1)
    rows = [{0: 1, 1: 1}, {0: scale, 1: scale + (rank - 1)}]
    assert rank_mod_p_packed(rows) == _eliminate(rows, MODULUS)[0] == rank


def test_packed_rank_of_zero_rows():
    assert rank_mod_p_packed([]) == rank_mod_p_packed([{}, {5: MODULUS}]) == 0


def test_packed_rank_folds_before_a_slot_overflows():
    # every pivot e_i has zeros where 4q - e_i is 4q, so each elimination of
    # the last row adds 4q(q - 1), just below 2^124, to all its later slots:
    # 40 operations in a row, and a slot that reached 2^128 would carry into
    # the next column and leave a spurious residue behind the last pivot
    rows = [{i: 1} for i in range(40)] + [{i: MODULUS - 1 for i in range(40)}]
    assert rank_mod_p_packed(rows) == _eliminate(rows, MODULUS)[0] == 40


def test_groupring_certified_l3():
    X, Y = groupring.symmetric_generators()
    rep = certify_freeness([X, Y], groupring.ring_ops(), groupring_coordinatizer(), 3)
    assert rep.verdict == "certified"
    assert rep.rank == rep.expected == rep.word_count == 15


def test_duplicate_generator_relation():
    X, _ = groupring.symmetric_generators()
    rep = certify_freeness([X, X], groupring.ring_ops(), groupring_coordinatizer(), 1)
    assert rep.verdict == "relation_found"
    assert rep.relation == [F(0), F(1), F(-1)]


def test_dependent_product_generator_relation():
    # X, Y, XY: the first dependent word is x3 itself, and it equals x1 x2
    X, Y = groupring.symmetric_generators()
    ops = groupring.ring_ops()
    rep = certify_freeness([X, Y, ops.mul(X, Y)], ops, groupring_coordinatizer(), 5)
    assert (rep.verdict, rep.rank, rep.word_count) == ("relation_found", 232, 364)
    assert {i: c for i, c in enumerate(rep.relation) if c} == {3: 1, 5: -1}


def test_monotonicity_prefix_closed():
    X, Y = groupring.symmetric_generators()
    for L in (1, 2):
        rep = certify_freeness([X, Y], groupring.ring_ops(), groupring_coordinatizer(), L)
        assert rep.verdict == "certified"


def test_groupring_l8_rank():
    # 511 = 2^9 - 1 words, certified by full rank modulo the prime alone
    rep = harness.run_certify_groupring(8)[1]
    assert rep["verdict"] == "certified"
    assert rep["data"]["rank"] == rep["data"]["word_count"] == 511


def test_false_relation_raises_kernel_error():
    # an exact coordinatizer that maps every word to the same vector
    lying = Coordinatizer("lying", lambda values: [{0: F(1)} for _ in values])
    X, Y = groupring.symmetric_generators()
    with pytest.raises(KernelError, match="does not re-evaluate to zero"):
        certify_freeness([X, Y], groupring.ring_ops(), lying, 1)


def test_group_mode_needs_units():
    X, Y = groupring.symmetric_generators()
    with pytest.raises(AdapterFailure):
        certify_freeness([X, Y], groupring.ring_ops(), groupring_coordinatizer(), 1, "group")


def test_skew_dual_path_agreement_small():
    aut = ShiftAut(F(1))
    sbar, tbar = build_heisenberg_images()
    rep_exact = certify_freeness(
        [sbar, tbar], skewfrac.ring_ops(aut), skew_exact_coordinatizer(aut), 1
    )
    s_jet, t_jet = heisenberg_image_jets(16)
    rep_jets = certify_freeness(
        [s_jet, t_jet], pjet_ring_ops(aut, 16), skew_pjet_coordinatizer(aut, 16), 1
    )
    assert rep_exact.verdict == rep_jets.verdict == "certified"
    assert rep_exact.rank == rep_jets.rank == 3


def test_relation_reverifies_in_skew_field():
    aut = ShiftAut(F(1))
    sbar, _ = build_heisenberg_images()
    rep = certify_freeness(
        [sbar, sbar], skewfrac.ring_ops(aut), skew_exact_coordinatizer(aut), 1
    )
    assert rep.verdict == "relation_found"
    assert rep.relation == [F(0), F(1), F(-1)]


@pytest.mark.parametrize("length, rank, word_count", [(2, 5, 7), (4, 9, 31)])
def test_sbar_and_its_square_are_not_free(length, rank, word_count):
    # Sbar lies in Q(t): the words are its powers Sbar^0..Sbar^(2L), and the
    # first dependent word, x1 x1, is x2
    aut = ShiftAut(F(1))
    sbar, _ = build_heisenberg_images()
    ops = skewfrac.ring_ops(aut)
    rep = certify_freeness([sbar, ops.mul(sbar, sbar)], ops, skew_exact_coordinatizer(aut), length)
    assert (rep.verdict, rep.rank, rep.word_count) == ("relation_found", rank, word_count)
    words = enumerate_words(2, length, False)
    assert {words[i]: c for i, c in enumerate(rep.relation) if c} == {(2,): 1, (1, 1): -1}


def test_report_serialization():
    rep = CertReport(
        command="c", params={"mode": "monoid"}, verdict="relation_found",
        rank=1, expected=2, word_count=2, relation=[F(1), F(-1, 2)],
        truncation_order=None, elapsed_ms=3, seed=9,
    )
    d = rep.to_dict()
    assert d["relation"] == ["1/1", "-1/2"]
    assert d["verdict"] == "relation_found"
    assert set(d) == {
        "command", "params", "verdict", "rank", "expected", "word_count",
        "relation", "truncation_order", "elapsed_ms", "seed",
    }


def test_report_dict_is_a_copy():
    rep = CertReport(command="c", params={"mode": "monoid"}, verdict="relation_found",
                     rank=1, expected=2, word_count=2, relation=[F(1), F(-1, 2)])
    d = rep.to_dict()
    d["params"]["mode"] = "group"
    d["relation"].append("0/1")
    d["rank"] = 7
    assert rep.params == {"mode": "monoid"} and rep.relation == [F(1), F(-1, 2)]
    assert rep.rank == 1 and rep.to_dict()["relation"] == ["1/1", "-1/2"]


def test_truncated_deficiency_is_inconclusive_after_one_build():
    # a coordinatizer of truncated values that reports the zero vector: the
    # deficiency may be a truncation artifact, so no relation is claimed
    builds = []

    def build(values):
        builds.append(len(values))
        return [{} for _ in values]

    blind = Coordinatizer("blind", build, precision=lambda values: 16)
    X, Y = groupring.symmetric_generators()
    rep = certify_freeness([X, Y], groupring.ring_ops(), blind, 1)
    assert rep.verdict == "inconclusive"
    assert rep.relation is None
    assert builds == [3]
    assert rep.truncation_order == 16


def test_skew_pipeline_escalates_jets_to_ceiling(monkeypatch):
    # a blind evaluated-jet path stays deficient at every (order, points):
    # from one point, the order and the points grow by half, the points at
    # once past the top power of one letter, and the order up to the
    # ceiling, in the monoid jets and again in the group half of the second
    # proof; the verdict is inconclusive, with exit 3 and never 2
    steps = []

    def blind(order, points):
        steps.append((order, points))
        return Coordinatizer("pjet-residues", lambda values: [{} for _ in values],
                             precision=harness._jet_precision, modular=True)

    monkeypatch.setattr(harness, "skew_residue_coordinatizer", blind)
    monkeypatch.setattr(harness, "JET_ORDER_CEILING", 64)
    monkeypatch.setattr(harness, "first_jet_attempt", lambda *args: (16, 1))
    verdicts = harness.run_certify_skew(harness.HEISENBERG, 1, 16)
    assert steps == [(16, 1), (24, 2), (36, 3), (54, 5), (64, 8),
                     (16, 1), (24, 3), (36, 5), (54, 8), (64, 12)]
    v = verdicts[-1]
    assert v["verdict"] == "inconclusive" and harness.worst_exit(verdicts) == 3
    jets = v["data"]["jets"]
    assert jets["verdict"] == "inconclusive" and jets["relation"] is None
    assert jets["params"]["coordinatizer"] == "pjet-residues"
    assert (jets["params"]["order"], jets["params"]["points"]) == (64, 8)
    assert jets["truncation_order"] == 64
    assert v["data"]["group"]["verdict"] == "inconclusive"
    assert v["data"]["groupring"]["verdict"] == "certified"
    assert v["data"]["paths_agree"]


@pytest.mark.parametrize("length", [2, 3])
@pytest.mark.parametrize("preset, order", [(harness.HEISENBERG, 32), (harness.TWODIM, 16)],
                         ids=["heisenberg", "twodim"])
def test_exact_rank_equals_the_jets_rank(preset, order, length):
    # the exact Ore coordinatizer no longer runs in the CLI; it stays the
    # reference of the evaluated path that decides
    images = skewfrac.symmetric_images(*preset.construction)
    aut = images[0].aut
    exact = certify_freeness(list(images), skewfrac.ring_ops(aut), skew_exact_coordinatizer(aut), length)
    jets = harness.certify_skew_jets(preset.construction, length, order)
    assert (exact.verdict, jets.verdict) == ("certified", "certified")
    assert exact.rank == jets.rank == exact.word_count


@pytest.mark.parametrize("preset", [harness.HEISENBERG, harness.TWODIM], ids=["heisenberg", "twodim"])
def test_perturbed_conjugator_trips_the_wiring_check(preset, monkeypatch):
    # group mode read with u = (1 - p^k')(1 + p^k')^-1 for the wrong k' still
    # certifies its own words, but its eta + eta^-1 is no longer Tbar
    real = skewfrac.residue_generators

    def perturbed(construction, mode, *args):
        if mode == "group":
            c, alpha, beta, k = construction
            construction = (c, alpha, beta, 3 - k)
        return real(construction, mode, *args)

    assert harness.composition_proof(preset.construction, 2, "certify", 0)[0].verdict == "certified"
    monkeypatch.setattr(skewfrac, "residue_generators", perturbed)
    assert harness.certify_skew_jets(preset.construction, 2, mode="group").verdict == "certified"
    with pytest.raises(KernelError, match="do not sum to Sbar and Tbar"):
        harness.composition_proof(preset.construction, 2, "certify", 0)


def test_modular_rows_are_ranked_modulo_the_prime_only():
    # independent over Q, dependent modulo MODULUS: residues say nothing
    # over Q, so the deficiency is inconclusive and no relation is claimed
    residues = Coordinatizer("residues", lambda values: [{0: 1}, {0: 1 + MODULUS}],
                             precision=lambda values: 8, modular=True)
    X, Y = groupring.symmetric_generators()
    rep = certify_freeness([X, Y], groupring.ring_ops(), residues, 1)
    assert (rep.verdict, rep.rank, rep.relation) == ("inconclusive", 1, None)


def preset_jets(preset, length, order):
    return harness.certify_skew_jets(preset.construction, length, order)


def test_deficient_residue_rank_never_reaches_bareiss(monkeypatch):
    from skewcert import freecert

    def refuse(vectors):
        raise AssertionError("residue rows reached rank_over_Q")

    monkeypatch.setattr(freecert, "rank_over_Q", refuse)
    monkeypatch.setattr(harness, "JET_ORDER_CEILING", 4)
    rep = preset_jets(harness.HEISENBERG, 2, 4)
    assert (rep.verdict, rep.rank, rep.word_count, rep.relation) == ("inconclusive", 6, 7, None)
    assert (rep.params["order"], rep.params["points"]) == (4, 5)


def test_four_points_escalate_past_the_word_length(monkeypatch):
    # at W = 4 <= L the word prod_k (Sbar - Sbar(P_k)) of length 4 vanishes
    # at every point, whatever the order; the points must grow past L, and
    # the run certifies
    monkeypatch.setattr(harness, "first_jet_attempt", lambda *args: (32, 4))
    rep = preset_jets(harness.HEISENBERG, 4, 32)
    assert (rep.verdict, rep.rank) == ("certified", 31)
    assert (rep.params["order"], rep.params["points"]) == (48, 6)


@pytest.mark.parametrize("preset, order", [(harness.HEISENBERG, 32), (harness.TWODIM, 16)])
def test_evaluated_jets_certify_at_length_four(preset, order):
    rep = preset_jets(preset, 4, order)
    assert (rep.verdict, rep.rank, rep.word_count) == ("certified", 31, 31)
    assert rep.params == {"mode": "monoid", "max_word_len": 4, "coordinatizer": "pjet-residues",
                          "order": order, "points": 5, "t0": skewfrac.RESIDUE_T0,
                          "modulus": MODULUS}


def test_pole_at_t0_moves_it_in_the_pipeline(monkeypatch):
    third = pow(3, -1, MODULUS)  # a pole of Sbar in the two-dimensional case
    monkeypatch.setattr(skewfrac, "RESIDUE_T0", third)
    rep = preset_jets(harness.TWODIM, 2, 16)
    assert rep.verdict == "certified" and rep.params["t0"] == third + 1


# -- certify cauchon: group mode on evaluated p-jets -----------------------------

CAUCHON = (F(5, 6), F(1, 6), F(2))  # alpha, beta, shift


def cauchon_jets(length, order=None):
    alpha, beta, c = CAUCHON
    return harness.certify_skew_jets((c, alpha, beta, 1), length, order, "group")


@pytest.mark.parametrize("construction, mode, length, order, final", [
    ((CAUCHON[2], *CAUCHON[:2], 1), "group", 2, 2, (5, 8)),
    ((CAUCHON[2], *CAUCHON[:2], 1), "group", 3, 4, (9, 11)),
    (harness.HEISENBERG.construction, "monoid", 4, 2, (12, 18)),
])
def test_attempts_with_fewer_columns_than_words_are_skipped(monkeypatch, construction, mode,
                                                           length, order, final):
    # from one point, N and W grow past the attempts whose N*W columns
    # cannot hold a full rank; the final (N, W) is the one the attempts
    # would reach
    steps = []

    def recording(order, points):
        steps.append((order, points))
        return skew_residue_coordinatizer(order, points)

    monkeypatch.setattr(harness, "first_jet_attempt", lambda *args: (order, 1))
    monkeypatch.setattr(harness, "skew_residue_coordinatizer", recording)
    rep = harness.certify_skew_jets(construction, length, order, mode)
    assert (rep.verdict, rep.rank) == ("certified", rep.word_count)
    assert all(n * w >= rep.word_count for n, w in steps)
    assert steps[0] != (order, 1) and steps[-1] == final
    assert (rep.params["order"], rep.params["points"]) == final


@pytest.mark.parametrize("step", [1, 2])
@pytest.mark.parametrize("mode, order", [("group", None), ("monoid", 1), ("monoid", 16),
                                         ("monoid", 32), ("monoid", harness.JET_ORDER_CEILING)])
def test_first_jet_attempt_invariants(step, mode, order):
    # the first attempt holds every word in its columns, its points exceed
    # the top power of one letter, and its order is at most the ceiling;
    # in monoid mode the order is --order
    for length in range(1, 9):
        word_count = len(enumerate_words(2, length, mode == "group"))
        top_power = length * (2 if mode == "group" else 1)
        n, w = harness.first_jet_attempt(word_count, top_power, step, order)
        assert n * w >= word_count and w > top_power and 1 <= n <= harness.JET_ORDER_CEILING
        assert n == order or mode == "group"


@pytest.mark.parametrize("length", [2, 3])
def test_cauchon_evaluated_rank_matches_the_exact_rank(length):
    # oracle: the exact fraction path at L=2.  At L=3 it takes minutes; the
    # exact rank over Q of the Q(t) p-jets, inverted by the jet ring, stands
    # in: truncation is linear, so it is a lower bound of the exact rank
    s, _, xi, eta = skewfrac.cauchon_generators(*CAUCHON)
    if length == 2:
        gens, ops, coord = [xi, eta], skewfrac.ring_ops(s.aut), skew_exact_coordinatizer(s.aut)
    else:
        gens = cauchon_image_jets(16, *CAUCHON)[::2]
        ops, coord = pjet_ring_ops(s.aut, 16), skew_pjet_coordinatizer(s.aut, 16)
    rep_exact = certify_freeness(gens, ops, coord, length, "group")
    rep = cauchon_jets(length)
    assert rep.rank == rep_exact.rank == rep.word_count == len(enumerate_words(2, length, True))
    assert rep.verdict == rep_exact.verdict == "certified"
    order, points = {2: (4, 5), 3: (8, 8)}[length]
    assert rep.params == {"mode": "group", "max_word_len": length, "coordinatizer": "pjet-residues",
                          "order": order, "points": points, "t0": skewfrac.RESIDUE_T0,
                          "modulus": MODULUS}


def test_evaluated_jets_are_never_inverted():
    # group mode over the residues needs the exact inverses handed in
    xi, _, eta, _ = cauchon_image_jets(4, *CAUCHON)
    gens, _ = residue_pjets([xi, eta], CAUCHON[2], 4, 0, skewfrac.RESIDUE_T0)
    assert skewfrac.residue_ops().inv is None
    with pytest.raises(LowestCoeffNotUnit):
        evaluate_words(gens, skewfrac.residue_pjet_ring(4).ops(), [(-1,)], "group")


@pytest.mark.parametrize("length", [2, 3])
def test_cauchon_four_points_escalate_past_twice_the_word_length(monkeypatch, length):
    # xi = s lies in Q(t): its 2L + 1 powers s^-L..s^L are reduced words,
    # and at W <= 2L points some combination of them vanishes at every order
    monkeypatch.setattr(harness, "first_jet_attempt", lambda *args: (16, 4))
    rep = cauchon_jets(length)
    assert (rep.verdict, rep.rank) == ("certified", rep.word_count)
    assert (rep.params["order"], rep.params["points"]) == (24, {2: 6, 3: 7}[length])


def test_cauchon_deficient_jets_fall_back_to_the_exact_path(monkeypatch):
    # at p-order 1 only the powers of s survive: the jets stay deficient at
    # the ceiling, which bounds the first attempt too, and the exact path
    # decides; a limit of the jets never exits 2
    steps = []

    def recording(order, points):
        steps.append((order, points))
        return skew_residue_coordinatizer(order, points)

    monkeypatch.setattr(harness, "JET_ORDER_CEILING", 1)
    monkeypatch.setattr(harness, "skew_residue_coordinatizer", recording)
    verdicts = harness.run_certify_cauchon(*CAUCHON, 2)
    assert steps == [(1, 20)]
    data = verdicts[-1]["data"]
    assert verdicts[-1]["verdict"] == data["verdict"] == "certified"
    assert data["params"]["coordinatizer"] == "exact-left-fraction"
    assert (data["rank"], data["truncation_order"]) == (17, None)
    assert harness.worst_exit(verdicts) == 0


def test_cauchon_content_without_a_residue_falls_back_to_the_exact_path():
    # alpha = 1/MODULUS: s has no residue modulo MODULUS at any point
    verdicts = harness.run_certify_cauchon(F(1, MODULUS), F(1, 6), 2, 1)
    data = verdicts[-1]["data"]
    assert (verdicts[-1]["verdict"], data["rank"]) == ("certified", 5)
    assert data["params"]["coordinatizer"] == "exact-left-fraction"


def test_cauchon_pole_at_t0_moves_it(monkeypatch):
    beta = pow(6, -1, MODULUS)  # the pole of s = (t - 5/6)(t - 1/6)^-1
    xi = cauchon_image_jets(1, *CAUCHON)[0]
    with pytest.raises(PoleAtPoint):
        xi.coeffs[0].eval_mod([beta], MODULUS)
    monkeypatch.setattr(skewfrac, "RESIDUE_T0", beta)
    rep = cauchon_jets(2)
    assert (rep.verdict, rep.rank) == ("certified", 17)
    assert (rep.params["t0"], rep.params["points"]) == (beta + 1, 5)
