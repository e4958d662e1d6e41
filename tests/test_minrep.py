"""Graded models, multiplicity series, invariant counts, sign assignments."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liedual.branching import embedding, restrict_generic, sp4_omega4_weight
from liedual.charalg import dimension
from liedual.lattice import Weight, build_root_system, group, make_weight
from liedual.minrep import (
    DUALPAIR_CASES,
    MINREP_CASES,
    InvalidTypeError,
    MultiplicitySeries,
    NotCoveredError,
    OddParityWarning,
    dualpair_graded,
    ktype_multiplicity,
    minrep_levels,
    multiplicity_series,
    quasisplit_level_multiplicity,
    sign_first_appearance,
    so3_cone_ok,
    so3_invariants,
    sp1so2_coefficient,
    verify_series,
)

G4 = group("A1", "A1", "A1", "A1")
GP = group("C2", "A1")


def w4(a, b, c, d):
    return make_weight(G4, ((a,), (b,), (c,), (d,)))


def wp(x, y, z):
    return make_weight(GP, ((x, y), (z,)))


def test_minrep_levels_split():
    g = minrep_levels("split-E6", 3)
    assert g.levels[0].total_dimension() == 1
    lvl1 = g.levels[1]
    assert lvl1.total_dimension() == 42
    (w, m), = lvl1.terms
    assert m == 1 and g.sign_of(1, w) == -1
    assert g.sign_of(2, g.levels[2].terms[0][0]) == 1


def test_minrep_levels_hermitian():
    g = minrep_levels("hermitian-E6", 2)
    assert g.levels[1].total_dimension() == 80
    assert g.levels[0].total_dimension() == 3  # V_2 (x) trivial
    with pytest.raises(NotCoveredError):
        g.sign_of(1, g.levels[1].terms[0][0])


def test_minrep_levels_e62():
    g = minrep_levels("e62-compact", 2)
    (w, m), = g.levels[1].terms
    assert m == 1 and w.charges == (Q(5),)
    assert g.levels[1].total_dimension() == 16


def test_dualpair_split_level_one_matches_stated_decomposition():
    g = dualpair_graded("splitJ-splitE", 1)
    data = {tuple(int(p[0]) for p in w.parts): m for w, m in g.levels[1].terms}
    expected = {(1, 1, 1, 1): 1, (0, 0, 0, 0): 2}
    for perm in {(1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1), (0, 0, 1, 1)}:
        expected[perm] = 1
    assert data == expected


@pytest.mark.parametrize("n", range(4))
def test_dualpair_split_levels_match_generic(n):
    g = dualpair_graded("splitJ-splitE", 3)
    res = restrict_generic(embedding("su2x4_in_sp4"), sp4_omega4_weight(n))
    assert g.levels[n].terms == res.decomposition.terms


@pytest.mark.parametrize("n", range(4))
def test_dualpair_mixed_levels_match_generic(n):
    g = dualpair_graded("splitJ-mixedE", 3)
    res = restrict_generic(embedding("sp2su2so2_in_sp4"), sp4_omega4_weight(n))
    assert g.levels[n].terms == res.decomposition.terms


def test_dualpair_split_cone_inequalities():
    # exhaustive up to the default truncation
    g = dualpair_graded("splitJ-splitE", 12)
    for n, char in g.levels.items():
        for w, _ in char.terms:
            a, b, c, d = (int(p[0]) for p in w.parts)
            assert so3_cone_ok(a, b, c, d), (n, (a, b, c, d))


def test_dualpair_e62_charge_ladder():
    g = dualpair_graded("e62-spin8", 5)
    for n, char in g.levels.items():
        charges = sorted(int(2 * w.parts[0][3]) for w, _ in char.terms)
        assert charges == list(range(-n, n + 1, 2))
        # torus triples sum to zero and start at n+4
        for w, _ in char.terms:
            assert sum(w.charges) == 0
            assert w.charges[0] == n + 4


def test_dualpair_e62_level_one_exact():
    g = dualpair_graded("e62-spin8", 1)
    entries = {(w.parts[0], w.charges) for w, _ in g.levels[1].terms}
    h = Q(1, 2)
    assert entries == {
        ((h, h, h, h), (Q(5), Q(-3), Q(-2))),
        ((h, h, h, -h), (Q(5), Q(-2), Q(-3))),
    }


def test_dualpair_hermJ_levels_conserve_dimension():
    g = dualpair_graded("hermJ-mixedE", 3)
    a5 = build_root_system("A5")
    for n, char in g.levels.items():
        expected = (n + 3) * dimension(a5, tuple(Q(v) for v in (n, n, n, 0, 0, 0)))
        assert char.total_dimension() == expected


def test_ktype_multiplicity_split_formula_examples():
    assert [ktype_multiplicity("splitJ-splitE", w4(0, 0, 0, 0), n) for n in range(4)] == [1, 2, 3, 4]
    assert ktype_multiplicity("splitJ-splitE", w4(2, 2, 2, 0), 3) == 1
    assert all(
        ktype_multiplicity("splitJ-splitE", w4(1, 1, 3, 1), n) <= max(0, n + 1 - 3)
        for n in range(6)
    )
    # odd-sum tuples are not types of the quotient group and never appear
    assert ktype_multiplicity("splitJ-splitE", w4(1, 1, 3, 0), 5) == 0
    with pytest.raises(InvalidTypeError):
        ktype_multiplicity("splitJ-splitE", w4(0, 0, 0, 0), 1, m=0)


def test_ktype_multiplicity_mixed_is_step_function():
    # stabilization at n = x with value d from the circle-refined branching
    for (x, y, z, m) in [(1, 1, 2, 0), (2, 0, 0, 0), (2, 1, 1, 1), (3, 1, 2, 2)]:
        d = sp1so2_coefficient(x, y, z, m)
        series = [
            ktype_multiplicity("splitJ-mixedE", wp(x, y, z), n, m) for n in range(8)
        ]
        assert series == [0] * min(x, 8) + [d] * (8 - x)


def test_ktype_multiplicity_hermJ_examples():
    assert quasisplit_level_multiplicity(1, 1, 2, 0, 1) == 1
    assert [ktype_multiplicity("hermJ-mixedE", wp(1, 1, 2), n, 0) for n in range(5)] == [0, 1, 1, 1, 1]
    assert ktype_multiplicity("hermJ-mixedE", wp(0, 0, 2), 0, 0) == 1


def test_so3_invariants_examples():
    assert so3_invariants(0, 0, 0, 0) == 1
    assert so3_invariants(1, 1, 1, 1) == 2
    assert so3_invariants(2, 2, 0, 0) == 1
    assert so3_invariants(2, 2, 2, 0) == 1
    with pytest.warns(OddParityWarning):
        assert so3_invariants(1, 1, 3, 0) == 0  # wrong parity
    assert so3_invariants(2, 2, 8, 0) == 0  # cone failure


def test_so3_invariants_warns_on_odd_parity():
    with pytest.warns(OddParityWarning):
        assert so3_invariants(1, 0, 0, 0) == 0


@settings(max_examples=80, deadline=None)
@given(
    a=st.integers(0, 6), b=st.integers(0, 6), c=st.integers(0, 6), d=st.integers(0, 6)
)
def test_so3_invariants_against_weight_count_oracle(a, b, c, d):
    # dim of invariants = (# weight-0 vectors) - (# weight-2 vectors) in the
    # four-fold tensor product; counted by convolving weight multisets.
    if (a + b + c + d) % 2:
        return
    def string(n):
        return list(range(-n, n + 1, 2))
    counts: dict[int, int] = {}
    for p in string(a):
        for q in string(b):
            counts[p + q] = counts.get(p + q, 0) + 1
    counts2: dict[int, int] = {}
    for s, mult in counts.items():
        for r in string(c):
            counts2[s + r] = counts2.get(s + r, 0) + mult
    counts3: dict[int, int] = {}
    for s, mult in counts2.items():
        for r in string(d):
            counts3[s + r] = counts3.get(s + r, 0) + mult
    oracle = counts3.get(0, 0) - counts3.get(2, 0)
    assert so3_invariants(a, b, c, d) == oracle
    if not so3_cone_ok(a, b, c, d):
        assert oracle == 0


def test_cone_condition_is_necessary_for_invariants():
    for a in range(0, 5):
        for b in range(0, 5):
            for c in range(0, 5):
                for d in range(0, 5):
                    if (a + b + c + d) % 2:
                        continue
                    if so3_invariants(a, b, c, d) > 0:
                        assert so3_cone_ok(a, b, c, d)


def test_multiplicity_series_and_verifier_value_kind():
    series = multiplicity_series("hermJ-mixedE", wp(1, 1, 2), 8, m=0)
    assert series.first_level == 1
    assert series.stabilized_value == 1 and series.stabilized_kind == "value"
    check = verify_series(series, expected_onset=1, expected_bound=1)
    assert check.accepted and check.bound == 1 and check.kind == "value"


def test_multiplicity_series_and_verifier_increment_kind():
    series = multiplicity_series("splitJ-splitE", w4(2, 2, 0, 0), 10)
    assert series.first_level == 2
    assert series.stabilized_value == 1 and series.stabilized_kind == "increment"
    check = verify_series(series, expected_onset=2, expected_bound=1)
    assert check.accepted and check.kind == "increment" and check.bound == 1


def test_verifier_rejects_corrupted_series():
    good = multiplicity_series("splitJ-splitE", w4(0, 0, 0, 0), 8)
    values = list(good.values)
    values[5] = values[4] - 1  # decreasing step
    bad = MultiplicitySeries(good.case, good.ktype, None, tuple(values))
    check = verify_series(bad)
    assert not check.accepted and "decreasing" in check.reason


def test_verifier_rejects_unstable_increments():
    bumpy = MultiplicitySeries("x", w4(0, 0, 0, 0), None, (0, 1, 1, 2, 2, 3, 3, 4, 5, 7))
    assert not verify_series(bumpy).accepted


def test_verifier_onset_mismatch_reported():
    series = multiplicity_series("hermJ-mixedE", wp(0, 0, 4), 8, m=0)
    check = verify_series(series, expected_onset=3)
    assert not check.accepted and "onset" in check.reason


def test_sign_first_appearance_split():
    res = sign_first_appearance("splitJ-splitE", w4(2, 2, 0, 0))
    assert (res.side, res.witness_level) == ("rho1", 2)
    res = sign_first_appearance("splitJ-splitE", w4(2, 2, 2, 0))
    assert (res.side, res.witness_level) == ("epsilon", 3)
    res = sign_first_appearance("splitJ-splitE", w4(0, 0, 0, 0))
    assert (res.side, res.witness_level) == ("rho1", 0)
    # zero slot may sit anywhere
    res = sign_first_appearance("splitJ-splitE", w4(2, 0, 2, 2))
    assert (res.side, res.witness_level) == ("epsilon", 3)
    with pytest.raises(NotCoveredError):
        sign_first_appearance("splitJ-splitE", w4(2, 2, 1, 1))
    with pytest.raises(NotCoveredError):
        sign_first_appearance("splitJ-splitE", w4(4, 0, 0, 2))


def test_sign_first_appearance_mixed():
    res = sign_first_appearance("splitJ-mixedE", wp(2, 0, 0))
    assert (res.side, res.witness_level) == ("epsilon", 2)
    res = sign_first_appearance("splitJ-mixedE", wp(4, 0, 0))
    assert (res.side, res.witness_level) == ("rho1", 4)
    with pytest.raises(NotCoveredError):
        sign_first_appearance("splitJ-mixedE", wp(2, 2, 0))


def test_sign_first_appearance_hermitian():
    res = sign_first_appearance("hermJ-mixedE", wp(0, 0, 4))
    assert (res.side, res.witness_level) == ("epsilon", 1)
    res = sign_first_appearance("hermJ-mixedE", wp(0, 0, 2))
    assert (res.side, res.witness_level) == ("rho1", 0)
    with pytest.raises(NotCoveredError):
        sign_first_appearance("hermJ-mixedE", wp(0, 0, 0))
    with pytest.raises(NotCoveredError):
        sign_first_appearance("hermJ-mixedE", wp(2, 0, 2))


def test_dualpair_budget_is_opt_in():
    from liedual.branching import BudgetExceededError

    dualpair_graded("splitJ-splitE", 12)  # closed forms need no budget
    with pytest.raises(BudgetExceededError):
        dualpair_graded("splitJ-splitE", 4, budget=100)


def test_unknown_cases_rejected():
    with pytest.raises(KeyError):
        minrep_levels("nope", 2)
    with pytest.raises(KeyError):
        dualpair_graded("nope", 2)
    with pytest.raises(KeyError):
        ktype_multiplicity("nope", w4(0, 0, 0, 0), 1)
    assert set(DUALPAIR_CASES) == {
        "splitJ-splitE",
        "splitJ-mixedE",
        "hermJ-mixedE",
        "e62-spin8",
    }


def test_split_sign_grading_tracks_level_parity():
    g = dualpair_graded("splitJ-mixedE", 3)
    for n, char in g.levels.items():
        for w, _ in char.terms:
            assert g.sign_of(n, w) == (-1) ** n


def test_hermJ_sign_grading_only_on_sp2_trivial_types():
    g = dualpair_graded("hermJ-mixedE", 3)
    lvl = g.levels[2]
    for w, _ in lvl.terms:
        if w.parts[0] == (Q(0), Q(0)):
            assert g.sign_of(2, w) == 1
        else:
            with pytest.raises(NotCoveredError):
                g.sign_of(2, w)


_SOURCE = {"splitJ-splitE": "split-E6", "splitJ-mixedE": "split-E6", "hermJ-mixedE": "hermitian-E6"}


@pytest.mark.parametrize("case", sorted(_SOURCE))
def test_dualpair_levels_agree_with_ktype_multiplicity(case):
    # levels 0..6 against the per-type formulas and the source dimensions
    g = dualpair_graded(case, 6)
    source = minrep_levels(_SOURCE[case], 6)
    for n, char in g.levels.items():
        for w, mult in char.terms:
            charge = int(w.charges[0]) if w.charges else None
            assert ktype_multiplicity(case, Weight(w.parts), n, charge) == mult, (n, w)
        assert char.total_dimension() == source.levels[n].total_dimension(), n


def test_sign_is_one_rule_per_case():
    g = dualpair_graded("splitJ-splitE", 4)
    for n, char in g.levels.items():
        for w, _ in char.terms:
            assert g.sign_of(n, w) == (-1) ** n
    for g in (dualpair_graded("e62-spin8", 4), minrep_levels("hermitian-E6", 4)):
        for n, char in g.levels.items():
            for w, _ in char.terms:
                with pytest.raises(NotCoveredError):
                    g.sign_of(n, w)
    # above the truncation no term is signed, in every case
    for case in MINREP_CASES + DUALPAIR_CASES:
        g = (minrep_levels if case in MINREP_CASES else dualpair_graded)(case, 3)
        for w, _ in g.levels[3].terms:
            with pytest.raises(NotCoveredError):
                g.sign_of(4, w)


def test_e62_series_agrees_with_graded_levels():
    # ktype_multiplicity builds only level n; every term of the graded
    # levels 0..12 must read back at its own level and nowhere else.
    top = 12
    graded = dualpair_graded("e62-spin8", top)
    for n, char in graded.levels.items():
        for w, mult in char.terms:
            series = multiplicity_series("e62-spin8", w, top)
            expected = tuple(graded.levels[k].multiplicity(w) for k in range(top + 1))
            assert series.values == expected
            assert series.values[n] == mult == 1
    gs = group("D4", circles=3)
    # The level-2 Spin(8) type of b = 2, against the wrong torus character.
    stranger = make_weight(gs, ((1, 1, 1, 1),), (6, -3, -3))
    assert multiplicity_series("e62-spin8", stranger, top).values == (0,) * (top + 1)
