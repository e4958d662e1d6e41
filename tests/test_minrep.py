"""Graded models, multiplicity series, invariant counts, sign assignments."""

import itertools
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liedual.branching import embedding, restrict_generic
from liedual.charalg import dimension
from liedual import minrep
from liedual.lattice import InvariantError, Weight, build_root_system, group, make_weight
from liedual.minrep import (
    DUALPAIR_CASES,
    _hermJ_level,
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
    sp1so2_coefficients,
    verify_series,
)
from liedual.rules import sp4_omega4_weight

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
        d = sp1so2_coefficients(x, y).get((z, m), 0)
        series = [
            ktype_multiplicity("splitJ-mixedE", wp(x, y, z), n, m) for n in range(8)
        ]
        assert series == [0] * min(x, 8) + [d] * (8 - x)


def test_ktype_multiplicity_hermJ_examples():
    assert quasisplit_level_multiplicity(1, 1, 2, 0, 1) == 1
    assert [ktype_multiplicity("hermJ-mixedE", wp(1, 1, 2), n, 0) for n in range(5)] == [0, 1, 1, 1, 1]
    assert ktype_multiplicity("hermJ-mixedE", wp(0, 0, 2), 0, 0) == 1


def test_hermJ_count_without_charge_is_the_sum_of_the_charge_blocks():
    # Without a charge, a type is counted straight from the closed-form terms
    # of every charge; no charge block is built.  It must equal the sum of
    # the level's 2n+1 blocks, odd types (never present) included.
    present = 0
    for x in range(7):
        for y in range(x + 1):
            for z in range(10):
                for n in range(11):
                    blocks = sum(
                        quasisplit_level_multiplicity(x, y, z, m, n) for m in range(-n, n + 1)
                    )
                    assert ktype_multiplicity("hermJ-mixedE", wp(x, y, z), n) == blocks
                    present += blocks > 0
    assert present > 100


def test_charged_level_builds_equal_their_cached_blocks():
    # Two paths: the level builds read the closed-form cores directly, the
    # per-charge and per-type queries read the cached blocks.
    for n in range(15):
        direct: dict = {}
        minrep._hermJ_mixedE(direct, n)
        blocks: dict = {}
        for m in range(-n, n + 1):
            for ((x, y), z), mult in _hermJ_level(n, m).items():
                key = (2 * x, 2 * y, 2 * z, 2 * m)
                blocks[key] = blocks.get(key, 0) + mult
        assert direct == blocks, n
        direct = {}
        minrep._splitJ_mixedE(direct, n)
        assert {key[0] for key in direct} == {2 * n}
        for y in range(n + 1):
            block = {(z // 2, m // 2): v for (_, yy, z, m), v in direct.items() if yy == 2 * y}
            assert block == dict(sp1so2_coefficients(n, y)), (n, y)
        assert sum(len(sp1so2_coefficients(n, y)) for y in range(n + 1)) == len(direct)


def test_dualpair_graded_fills_no_block_cache():
    # The level builds leave _hermJ_level and sp1so2_coefficients to the
    # per-charge and per-type queries, which alone fill them.
    _hermJ_level.cache_clear()
    sp1so2_coefficients.cache_clear()
    dualpair_graded("hermJ-mixedE", 8)
    dualpair_graded("splitJ-mixedE", 8)
    assert _hermJ_level.cache_info().currsize == 0
    assert sp1so2_coefficients.cache_info().currsize == 0
    ktype_multiplicity("hermJ-mixedE", wp(0, 0, 4), 3, 1)
    ktype_multiplicity("splitJ-mixedE", wp(2, 0, 0), 3)
    assert _hermJ_level.cache_info().currsize == 1
    assert sp1so2_coefficients.cache_info().currsize == 1


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


@pytest.mark.parametrize(
    "case, ktype, m, first",
    [
        ("splitJ-splitE", (2, 2, 0, 0), None, 2),
        ("splitJ-mixedE", (4, 0, 0), 0, 4),
        ("hermJ-mixedE", (0, 0, 6), 0, 2),
    ],
)
def test_series_cut_before_first_appearance_has_not_stabilized(case, ktype, m, first):
    w = w4(*ktype) if len(ktype) == 4 else wp(*ktype)
    for truncation in range(first):
        series = multiplicity_series(case, w, truncation, m)
        assert series.first_level is None
        assert (series.stabilized_value, series.stabilized_kind) == (None, None)
    series = multiplicity_series(case, w, first, m)
    assert series.first_level == first
    assert series.stabilized_value == 1 and series.stabilized_kind is not None


def test_type_that_never_appears_stabilizes_at_zero():
    increment = multiplicity_series("splitJ-splitE", w4(0, 0, 0, 2), 1)
    assert (increment.stabilized_value, increment.stabilized_kind) == (0, "increment")
    value = multiplicity_series("hermJ-mixedE", wp(1, 1, 0), 1, m=0)
    assert (value.stabilized_value, value.stabilized_kind) == (0, "value")


def _series_types():
    for a, b, c, d in itertools.product(range(5), repeat=4):
        if (a + b + c + d) % 2 == 0:
            yield "splitJ-splitE", w4(a, b, c, d), None
    for x in range(6):
        for y in range(x + 1):
            for z in range(7):
                if (x + y + z) % 2 == 0:
                    for m in (None, 0, 1, 2):
                        yield "splitJ-mixedE", wp(x, y, z), m
                        yield "hermJ-mixedE", wp(x, y, z), m


def test_stabilized_is_unknown_exactly_until_first_appearance():
    # Every type here appears by level 12 if it ever does, so the long
    # series tells which short truncations end before the first appearance.
    for case, w, m in _series_types():
        first = multiplicity_series(case, w, 12, m).first_level
        for truncation in range(4):
            series = multiplicity_series(case, w, truncation, m)
            unknown = first is not None and first > truncation
            assert (series.stabilized_kind is None) == unknown, (case, w, m, truncation)


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


def test_split_mixed_first_appearance_sign_is_not_the_level_sign():
    # The one place the two sign readers differ: V_(2k,0) (x) V_0 first
    # appears at level 2k with sign (-1)^k, where the level sign of that
    # level's charge-0 term is (-1)^(2k) = +1.  Settling the signs must
    # change this on purpose.
    g = dualpair_graded("splitJ-mixedE", 6)
    for k in range(4):
        w = wp(2 * k, 0, 0)
        res = sign_first_appearance("splitJ-mixedE", w)
        assert (res.witness_level, res.sign) == (2 * k, (-1) ** k)
        (term,) = [t for t, _ in g.levels[2 * k].terms if t == Weight(w.parts, (Q(0),))]
        assert g.sign_of(2 * k, term) == 1


@pytest.mark.parametrize("table", [sp1so2_coefficients, _hermJ_level])
def test_cached_tables_are_read_only(table):
    before = dict(table(2, 0))
    key = next(iter(before))
    with pytest.raises(TypeError):
        table(2, 0)[key] = 99
    assert dict(table(2, 0)) == before
    if table is sp1so2_coefficients:
        assert sp1so2_coefficients(2, 0).get(key, 0) == before[key]


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


def test_level_builders_reject_each_others_cases():
    # Both builders read one table of all seven cases; each takes only its own.
    for case in DUALPAIR_CASES:
        with pytest.raises(KeyError, match=case):
            minrep_levels(case, 1)
    for case in MINREP_CASES:
        with pytest.raises(KeyError, match=case):
            dualpair_graded(case, 1)


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


def test_split_series_equals_levels_and_per_level_multiplicities():
    # Every type with entries <= 6, to level 12: the series accumulates one
    # block per level, and must read what ktype_multiplicity reads level by
    # level and what the graded levels, built from the closed forms, hold.
    top = 12
    graded = dualpair_graded("splitJ-splitE", top)
    levels = [graded.levels[n].as_dict() for n in range(top + 1)]
    for a, b, c, d in itertools.product(range(7), repeat=4):
        w = w4(a, b, c, d)
        values = multiplicity_series("splitJ-splitE", w, top).values
        assert values == tuple(ktype_multiplicity("splitJ-splitE", w, n) for n in range(top + 1))
        assert values == tuple(level.get(w, 0) for level in levels), (a, b, c, d)


def test_sign_first_appearance_e62_is_not_covered():
    # e62-spin8 is a case with no sign grading, not an unknown case.
    w = dualpair_graded("e62-spin8", 2).levels[2].terms[0][0]
    with pytest.raises(NotCoveredError, match="e62-spin8"):
        sign_first_appearance("e62-spin8", w)
    with pytest.raises(KeyError, match="nope"):
        sign_first_appearance("nope", w)


def test_ktype_multiplicity_checks_the_case_before_the_level():
    with pytest.raises(KeyError, match="nope"):
        ktype_multiplicity("nope", w4(0, 0, 0, 0), -1)
    e62 = dualpair_graded("e62-spin8", 0).levels[0].terms[0][0]
    types = {
        "splitJ-splitE": w4(0, 0, 0, 0),
        "splitJ-mixedE": wp(0, 0, 0),
        "hermJ-mixedE": wp(0, 0, 2),
        "e62-spin8": e62,
    }
    assert set(types) == set(DUALPAIR_CASES)
    for case, w in types.items():
        assert ktype_multiplicity(case, w, -1) == 0
        assert ktype_multiplicity(case, w, 0) == 1


_H = Q(1, 2)


@pytest.mark.parametrize(
    "case, w",
    [
        ("splitJ-splitE", Weight(((_H,), (_H,), (Q(0),), (Q(0),)))),
        ("splitJ-splitE", Weight(((2,), (2,), (0,), (0,)), (Q(0),))),
        ("splitJ-mixedE", Weight(((Q(5, 2), _H), (_H,)))),
        ("splitJ-mixedE", Weight(((2, 0), (0,)), (Q(0),))),
        ("hermJ-mixedE", Weight(((0, 0), (Q(9, 2),)))),
        ("hermJ-mixedE", Weight(((0, 0), (4,)), (Q(0),))),
    ],
    ids=[
        "splitJ-splitE-half",
        "splitJ-splitE-charged",
        "splitJ-mixedE-half",
        "splitJ-mixedE-charged",
        "hermJ-mixedE-half",
        "hermJ-mixedE-charged",
    ],
)
def test_types_must_be_integral_and_uncharged(case, w):
    # int() would truncate 1/2 to 0 and read another type's series; a
    # charge on the type would be ignored in favour of the m argument.
    with pytest.raises(InvalidTypeError):
        ktype_multiplicity(case, w, 3)
    with pytest.raises(InvalidTypeError):
        sign_first_appearance(case, w)


_E62 = dualpair_graded("e62-spin8", 1).levels[1].terms[0][0]


@pytest.mark.parametrize(
    "w, m",
    [
        (w4(0, 0, 0, 0), None),
        (Weight(((1, 1, 1),), _E62.charges), None),
        (Weight(_E62.parts, _E62.charges[:2]), None),
        (Weight(_E62.parts + ((0,),), _E62.charges), None),
        (_E62, 0),
    ],
    ids=["su2-4-type", "three-coordinates", "two-charges", "two-parts", "with-m"],
)
def test_e62_types_must_be_spin8_with_three_charges(w, m):
    # Each of these used to read 0 at every level, and m was ignored.
    with pytest.raises(InvalidTypeError):
        ktype_multiplicity("e62-spin8", w, 1, m)
    with pytest.raises(InvalidTypeError):
        multiplicity_series("e62-spin8", w, 3, m)


_ANY_TYPE = {
    "splitJ-splitE": w4(0, 0, 0, 0),
    "splitJ-mixedE": wp(0, 0, 0),
    "hermJ-mixedE": wp(0, 0, 2),
    "e62-spin8": dualpair_graded("e62-spin8", 0).levels[0].terms[0][0],
}


@pytest.mark.parametrize("case", DUALPAIR_CASES)
def test_multiplicity_series_rejects_negative_truncation(case):
    with pytest.raises(ValueError, match="truncation must be non-negative"):
        multiplicity_series(case, _ANY_TYPE[case], -1)


@pytest.mark.parametrize(
    "case, w",
    [
        ("splitJ-splitE", w4(2, 2, 0, 0)),
        ("splitJ-mixedE", wp(2, 0, 0)),
        ("hermJ-mixedE", wp(0, 0, 4)),
    ],
    ids=["splitJ-splitE", "splitJ-mixedE", "hermJ-mixedE"],
)
def test_first_appearance_reads_ktype_multiplicity(monkeypatch, case, w):
    # Every family checks its witness through _key_multiplicity alone, so
    # shifting that one reader by a level breaks each first appearance.
    real = minrep._key_multiplicity

    def shifted(case, key, n, m):
        return real(case, key, n - 1, m)

    monkeypatch.setattr(minrep, "_key_multiplicity", shifted)
    with pytest.raises(InvariantError, match="not a first appearance"):
        sign_first_appearance(case, w)


@pytest.mark.parametrize(
    "values, bound, reason",
    [
        ((1,), None, "series too short"),
        ((0, -1, 1), None, "negative multiplicity"),
        ((0, 1, 1, 1), 2, "bound 1 != predicted 2"),
    ],
)
def test_verifier_rejection_reasons(values, bound, reason):
    series = MultiplicitySeries("splitJ-splitE", w4(0, 0, 0, 0), None, values)
    check = verify_series(series, expected_bound=bound)
    assert not check.accepted and check.reason == reason


def test_verifier_checks_onset_before_bound():
    series = MultiplicitySeries("splitJ-splitE", w4(0, 0, 0, 0), None, (0, 1, 1, 1))
    check = verify_series(series, expected_onset=5, expected_bound=2)
    assert check == (False, "value", 1, 1, "onset 1 != predicted 5")
    assert verify_series(series, expected_onset=1, expected_bound=2).reason == "bound 1 != predicted 2"
    assert verify_series(series, expected_onset=1, expected_bound=1).accepted


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: dualpair_graded("splitJ-splitE", -1), "truncation must be non-negative"),
        (lambda: so3_invariants(-1, 0, 0, 0), "weights must be non-negative"),
    ],
    ids=["dualpair_graded", "so3_invariants"],
)
def test_input_checks_raise_with_a_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError and str(info.value) == message
