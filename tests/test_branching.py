"""Embedding catalog, generic restriction oracle, and closed-form rules."""

import ast
import builtins
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import liedual
from liedual.branching import (
    CATALOG,
    BudgetExceededError,
    EmbeddingMap,
    NegativeMultiplicityError,
    embedding,
    restrict_generic,
)
from liedual.charalg import (
    _dominant_multiplicities,
    _full_multiplicities,
    chamber_fold,
    dimension,
    orbit_fold,
    tensor_decompose,
    weight_dimension,
)
from liedual.lattice import (
    SUPPORTED_TYPES,
    InvalidWeightError,
    Weight,
    build_root_system,
    dominant_conjugate,
    format_weight,
    group,
    in_weight_lattice,
    is_dominant_vector,
    make_weight,
    normalize_vector,
    weight_key,
    weyl_orbit,
)
from liedual.rules import (
    RULE_IDS,
    RULES,
    branch_so5_to_so3so2,
    branch_sp2_to_su2su2,
    branch_sp4_to_sp2sp2,
    branch_spin10_halfspin_to_spin8u1,
    branch_su6_omega3_to_sp2su2u1,
    branch_su6_omega3_to_sp3,
    sp4_omega4_weight,
    spin10_halfspin_weight,
    su6_omega3_weight,
    verify_rule,
)

PUBLIC_NAMES = {
    "sp2xsp2_in_sp4",
    "su2x4_in_sp4",
    "su2su2_in_sp2",
    "sp1so2_in_sp2",
    "so3so2_in_so5",
    "spin8u1_in_spin10",
    "sp2su2u1_in_su6",
    "sp3_in_su6",
    "diag_su2_in_su2x2",
    "diag_su2_in_su2x3",
    "diag_su2_in_su2x4",
}


def test_catalog_names():
    assert PUBLIC_NAMES <= set(CATALOG)
    assert all(CATALOG[n].name == n for n in CATALOG)
    internal = set(CATALOG) - PUBLIC_NAMES
    assert internal == {"sp2sp1_in_sp3", "sp2su2so2_in_sp4"}


def test_catalog_row_shapes():
    for e in CATALOG.values():
        width = sum(rs.ambient_dim for rs in e.big.factors)
        for rows, rs in zip(e.factor_rows, e.small.factors):
            assert len(rows) == rs.ambient_dim
            assert all(len(r) == width for r in rows)
        assert len(e.charge_rows) == e.small.circles


def test_restrict_generic_sp4_omega4():
    res = restrict_generic(embedding("sp2xsp2_in_sp4"), sp4_omega4_weight(1))
    expected = {
        make_weight(res.decomposition.group, ((0, 0), (0, 0))): 1,
        make_weight(res.decomposition.group, ((1, 0), (1, 0))): 1,
        make_weight(res.decomposition.group, ((1, 1), (1, 1))): 1,
    }
    assert res.decomposition.as_dict() == expected
    assert res.decomposition.total_dimension() == 1 + 16 + 25 == 42


def test_restrict_generic_sp3_in_su6():
    res = restrict_generic(embedding("sp3_in_su6"), su6_omega3_weight(1))
    dims = sorted(
        weight_dimension(res.decomposition.group, w)
        for w, _ in res.decomposition.terms
    )
    assert dims == [6, 14]


def test_restrict_generic_trivial():
    for name in ("sp2xsp2_in_sp4", "sp2su2u1_in_su6", "spin8u1_in_spin10"):
        e = embedding(name)
        hw = make_weight(e.big, (tuple(Q(0) for _ in range(rs.ambient_dim)) for rs in e.big.factors))
        res = restrict_generic(e, hw)
        assert len(res.decomposition) == 1
        assert res.decomposition.total_dimension() == 1


def test_budget_enforced():
    with pytest.raises(BudgetExceededError):
        restrict_generic(embedding("sp2xsp2_in_sp4"), sp4_omega4_weight(2), budget=100)


_WRONG_EMBEDDING_MESSAGES = {
    1: "bogus: simple reflection 1 of factor 0 (C2) has no lift to the Weyl group of GroupSpec(C4)",
    2: "bogus: simple reflection 1 of factor 0 (C2) has no lift to the Weyl group of GroupSpec(C4)",
}


@pytest.mark.parametrize("n", [1, 2])
def test_wrong_embedding_aborts_with_negative_multiplicity(n):
    # Doubling one coordinate row is not the weight map of any subgroup;
    # the oracle must abort rather than clamp.  The reflection swapping the
    # two C2 rows sends the column (2,0,0,0) to (0,2,0,0), which is no
    # column of C4 up to sign, so the certificate refuses the map before
    # any weight is projected, whatever the level.
    right = embedding("sp2xsp2_in_sp4")
    rows = (
        (tuple(2 * x for x in right.factor_rows[0][0]), right.factor_rows[0][1]),
        right.factor_rows[1],
    )
    wrong = EmbeddingMap("bogus", right.big, right.small, rows, ())
    with pytest.raises(NegativeMultiplicityError) as raised:
        restrict_generic(wrong, sp4_omega4_weight(n))
    assert str(raised.value) == _WRONG_EMBEDDING_MESSAGES[n]


def test_charge_row_typo_fails_the_certificate():
    # With the charge row (1/2, 1/2) the C2 weight (1,0) projects to twice
    # (1)@1/2 and twice (-1)@-1/2, which no Weyl-invariant multiset holds.
    # Its dominant slice alone, 2 (1)@1/2, folds to 2 V_1 (x) chi_1/2:
    # non-negative, of the right dimension 4, certified by the slice, but
    # wrong.  The certificate catches it: the A1 reflection sends both
    # columns (1, 1/2) to (-1, 1/2), which is neither column up to sign.
    right = embedding("sp1so2_in_sp2")
    typo = EmbeddingMap(
        "typo", right.big, right.small, right.factor_rows, ((Q(1, 2), Q(1, 2)),)
    )
    with pytest.raises(NegativeMultiplicityError) as raised:
        restrict_generic(typo, make_weight(group("C2"), ((1, 0),)))
    assert str(raised.value) == (
        "typo: simple reflection 1 of factor 0 (A1) has no lift to the Weyl group of GroupSpec(C2)"
    )


def test_projection_with_part_of_an_orbit_fails():
    # Both SU2 rows read x1 + x2, so (1)x(-1) is never hit: the projection
    # holds only half the orbit of (1)x(1).  The first SU2 reflection sends
    # both columns (1, 1) to (-1, 1), which is neither column up to sign.
    right = embedding("su2su2_in_sp2")
    rows = (((Q(1), Q(1)),), ((Q(1), Q(1)),))
    wrong = EmbeddingMap("same-rows", right.big, right.small, rows, ())
    with pytest.raises(NegativeMultiplicityError) as raised:
        restrict_generic(wrong, make_weight(group("C2"), ((1, 0),)))
    assert str(raised.value) == (
        "same-rows: simple reflection 1 of factor 0 (A1) has no lift "
        "to the Weyl group of GroupSpec(C2)"
    )


def _reflect_key(gs, key, f, i):
    """The doubled small key with simple reflection ``i`` of factor ``f``
    applied to its part, normalized as ``EmbeddingMap._apply`` normalizes."""
    rs, part = gs.factors[f], gs.slices[f]
    alpha = [int(a) for a in rs.simple_roots[i - 1]]
    vec = key[part]
    pairing = 2 * sum(a * x for a, x in zip(alpha, vec)) // sum(a * a for a in alpha)
    moved = normalize_vector(rs, tuple(x - pairing * a for x, a in zip(vec, alpha)))
    return key[: part.start] + moved + key[part.stop :]


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_every_catalog_map_is_certified(name):
    # Each lift w is a Weyl element of the big group: a permutation of each
    # factor's coordinates, signed for B, C and D with an even sign count
    # for D; and phi(w x) = s(phi(x)) on every big coordinate vector
    # (times 6, so that every charge is whole).
    e = CATALOG[name]
    lifts, _ = e._certified()
    assert sorted(lifts) == [
        (f, i) for f, rs in enumerate(e.small.factors) for i in range(1, rs.rank + 1)
    ]
    width = e.big.width
    for (f, i), lift in lifts.items():
        for rs, part in zip(e.big.factors, e.big.slices):
            block = lift[part]
            assert sorted(k for k, _ in block) == list(range(part.start, part.stop))
            if rs.series == "A":
                assert {sign for _, sign in block} == {1}
            if rs.series == "D":
                assert sum(sign < 0 for _, sign in block) % 2 == 0
        for j in range(width):
            x = tuple(6 * (m == j) for m in range(width))
            moved = [0] * width
            k, sign = lift[j]
            moved[k] = 6 * sign
            assert e._apply(tuple(moved)) == _reflect_key(e.small, e._apply(x), f, i)


def test_certificate_is_computed_once_per_map(monkeypatch):
    calls = []
    real = liedual.branching._certify
    monkeypatch.setattr(liedual.branching, "_certify", lambda e: calls.append(e) or real(e))
    right = embedding("sp2xsp2_in_sp4")
    fresh = EmbeddingMap("fresh", right.big, right.small, right.factor_rows, ())
    restrict_generic(fresh, sp4_omega4_weight(1))
    restrict_generic(fresh, sp4_omega4_weight(2))
    assert calls == [fresh]


_SO5_SO3_ROWS = (
    ((Q(1), Q(0), Q(0), Q(0)), (Q(0), Q(1), Q(0), Q(0))),
    ((Q(0), Q(0), Q(2), Q(0)),),
)


def test_d_parity_mended_on_a_zero_column():
    # SO(5) x SO(3) inside SO(8): the fourth coordinate maps to 0.  The B2
    # reflection negating the second coordinate negates one nonzero column,
    # an odd sign count that no D4 Weyl element has alone; the zero column's
    # free sign makes it even.
    e = EmbeddingMap("so5so3_in_so8", group("D4"), group("B2", "A1"), _SO5_SO3_ROWS, ())
    lifts, _ = e._certified()
    assert lifts[0, 2] == ((0, 1), (1, -1), (2, 1), (3, -1))
    gs = e.big
    for hw, expected in [
        ((1, 0, 0, 0), ["(0,0)x(2)", "(1,0)x(0)"]),
        ((1, 1, 0, 0), ["(0,0)x(2)", "(1,0)x(2)", "(1,1)x(0)"]),
        ((Q(1, 2),) * 3 + (Q(-1, 2),), ["(1/2,1/2)x(1)"]),
    ]:
        w = make_weight(gs, (hw,))
        got = restrict_generic(e, w).decomposition
        assert [(format_weight(t), m) for t, m in got.terms] == [(t, 1) for t in expected]
        assert {weight_key(e.small, t): m for t, m in got.terms} == _restrict_by_full_fold(e, w)


def test_d_parity_with_no_zero_column_is_refused():
    # A circle reading the fourth coordinate leaves no zero column, so the
    # odd sign count stays: the half-spin weights' charge s4/2 is fixed by
    # the B2 and A1 signs, and negating one B2 sign moves it.  Matching the
    # columns up to sign alone would accept this map, and its dominant slice
    # folds to (1/2,1/2)x(1)@1/2, dimension 8, which passes every later check.
    e = EmbeddingMap(
        "so5so3u1_in_so8",
        group("D4"),
        group("B2", "A1", circles=1),
        _SO5_SO3_ROWS,
        ((Q(0), Q(0), Q(0), Q(1)),),
    )
    with pytest.raises(NegativeMultiplicityError) as raised:
        restrict_generic(e, make_weight(group("D4"), ((Q(1, 2),) * 4,)))
    assert str(raised.value) == (
        "so5so3u1_in_so8: simple reflection 2 of factor 0 (B2) has no lift "
        "to the Weyl group of GroupSpec(D4)"
    )


def test_result_counts_the_work_of_each_phase():
    # The SO(5) vector (1,0) has the dominant weights (1,0) and (0,0).  The
    # walk sets the SO(3) coordinate first: 1, -1 (cut) or 0, then the other
    # (6 nodes), and 0, 0 (2 nodes); it keeps (1,0), (0,1), (0,-1) and (0,0).
    # The fold adds 5 signed terms; the certificate subtracts 4 weights.
    res = restrict_generic(embedding("so3so2_in_so5"), make_weight(group("B2"), ((1, 0),)))
    assert (res.source_weights, res.nodes, res.leaves) == (2, 8, 4)
    assert (res.folded_terms, res.subtractions) == (5, 4)


def _scaled_orbit_fold(factor):
    """``orbit_fold`` with every sign times ``factor``."""
    return lambda rs, mu: {k: factor * s for k, s in orbit_fold(rs, mu).items()}


def _a1_multiplicities(change):
    """``_dominant_multiplicities`` with each A1 factor's map changed, so that
    the source (B2 below) keeps its own."""
    def corrupt(rs, hw):
        real = _dominant_multiplicities(rs, hw)
        return change(hw, real) if rs.label == "A1" else real
    return corrupt


@pytest.mark.parametrize(
    "attr, corrupt, message",
    [
        ("orbit_fold", _scaled_orbit_fold(-1), "negative coefficient -1 at (2)@0"),
        ("orbit_fold", _scaled_orbit_fold(2), "dimension 10 restricted from 5"),
        (
            "_dominant_multiplicities",
            _a1_multiplicities(lambda hw, real: {mu: 2 * m for mu, m in real.items()}),
            "subtracting (0)@-1 drove (0)@-1 negative",
        ),
        (
            "_dominant_multiplicities",
            _a1_multiplicities(lambda hw, real: {hw: 1}),
            "1 dominant projected weights left after subtracting every term",
        ),
    ],
    ids=["negative-coefficient", "lost-dimension", "negative-subtraction", "left-over"],
)
def test_post_fold_checks(monkeypatch, attr, corrupt, message):
    # The vector of SO(5) restricts to V_2 + chi_1 + chi_-1 under SO(3) x SO(2).
    # Each corrupted fold or certificate input trips exactly one check.
    monkeypatch.setattr(liedual.branching, attr, corrupt)
    with pytest.raises(NegativeMultiplicityError) as raised:
        restrict_generic(embedding("so3so2_in_so5"), make_weight(group("B2"), ((1, 0),)))
    assert str(raised.value) == f"so3so2_in_so5: {message}"


def _restrict_by_full_fold(e, hw):
    """The oracle's answer the long way, as int keys: the whole projected
    diagram, each dominant weight spread by ``weyl_orbit`` and every weight
    pushed through ``EmbeddingMap._apply``, folded at once by
    ``chamber_fold``.  No invariance check, slice or orbit fold."""
    top = weight_key(e.big, hw)
    per_factor = [
        [(normalize_vector(rs, mu), m) for mu, m in _dominant_multiplicities(rs, top[part]).items()]
        for rs, part in zip(e.big.factors, e.big.slices)
    ]
    support = {}
    for combo in itertools.product(*per_factor):
        mult = math.prod(m for _, m in combo)
        orbits = [weyl_orbit(rs, mu) for rs, (mu, _) in zip(e.big.factors, combo)]
        for parts in itertools.product(*orbits):
            key = e._apply(sum(parts, ()))
            support[key] = support.get(key, 0) + mult
    return chamber_fold(e.small, support)


@st.composite
def _dominant_source(draw, gs, top=2):
    """A dominant weight of ``gs``, entries at most ``top`` in absolute value."""
    parts = []
    for rs in gs.factors:
        odd = draw(st.integers(0, 1)) if rs.series in ("B", "D") else 0
        twice = [2 * draw(st.integers(-top, top - 1)) + odd for _ in range(rs.ambient_dim)]
        parts.append(tuple(Q(x, 2) for x in dominant_conjugate(rs, twice)[0]))
    return make_weight(gs, parts)


@pytest.mark.parametrize("label", SUPPORTED_TYPES)
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_diagonal_restriction_is_the_tensor_product(label, data):
    # Two paths: the oracle along the diagonal G -> G x G, rows (I | I),
    # against the shifted-orbit tensor decomposition.  The dominance forms
    # read both big factors, and A5 x A5 is certified by permutations.
    small = group(label)
    dim = small.factors[0].ambient_dim
    rows = tuple(tuple(Q(int(i == j % dim)) for j in range(2 * dim)) for i in range(dim))
    e = EmbeddingMap(f"diag_{label}", group(label, label), small, (rows,), ())
    hw = data.draw(_dominant_source(e.big, top=1))
    assume(weight_dimension(e.big, hw) <= 3000)
    rs = small.factors[0]
    got = restrict_generic(e, hw).decomposition
    assert got == tensor_decompose(rs, *hw.parts), format_weight(hw)


@pytest.mark.parametrize("name", sorted(CATALOG))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_oracle_matches_the_fold_of_the_full_projected_diagram(name, data):
    # Two paths: the oracle checks Weyl invariance and folds and certifies
    # the dominant slice only; the reference folds every projected weight.
    e = CATALOG[name]
    hw = data.draw(_dominant_source(e.big))
    assume(weight_dimension(e.big, hw) <= 3000)
    try:
        expected = _restrict_by_full_fold(e, hw)
    except InvalidWeightError:  # a third-integral charge
        with pytest.raises(InvalidWeightError):
            restrict_generic(e, hw)
        return
    got = restrict_generic(e, hw).decomposition
    assert {weight_key(e.small, w): m for w, m in got.terms} == expected, format_weight(hw)


def test_oracle_builds_no_full_weight_diagram():
    # The source is streamed from its dominant weights: restricting leaves
    # no whole diagram behind in the unbounded cache.
    before = _full_multiplicities.cache_info()
    restrict_generic(embedding("sp2xsp2_in_sp4"), sp4_omega4_weight(3))
    assert _full_multiplicities.cache_info() == before


@pytest.mark.parametrize(
    "hw, spelled",
    [
        (Weight(((1, 1, 0, 0),), (Q(1),)), "(1,1,0,0)@1"),
        (Weight(((1, 1, 0, 0), (0,))), "(1,1,0,0)x(0)"),
    ],
    ids=["stray-charge", "extra-part"],
)
def test_weight_of_another_shape_is_rejected(hw, spelled):
    # C4 has one factor and no circle: the stray charge used to be ignored,
    # and the extra part to fail inside zip().
    with pytest.raises(InvalidWeightError) as raised:
        restrict_generic(embedding("sp2xsp2_in_sp4"), hw, budget=1)
    assert str(raised.value) == f"{spelled} is not a weight of GroupSpec(C4)"


def test_non_dominant_weight_is_rejected_before_the_budget():
    hw = make_weight(group("C4"), ((0, 1, 0, 0),))
    with pytest.raises(ValueError, match=r"^\(0,1,0,0\) is not dominant for C4$"):
        restrict_generic(embedding("sp2xsp2_in_sp4"), hw, budget=1)


def test_third_integral_charge_is_rejected():
    # sp2su2u1_in_su6 gives the fundamental (1,0,0,0,0,0) the charge 1/3,
    # which no circle character carries.
    hw = make_weight(group("A5"), ((1, 0, 0, 0, 0, 0),))
    with pytest.raises(InvalidWeightError) as raised:
        restrict_generic(embedding("sp2su2u1_in_su6"), hw)
    assert str(raised.value) == (
        "sp2su2u1_in_su6: projecting (1,0,0,0,0,0): "
        "circle charges must be integers or half-integers"
    )


def _dominant_weights_up_to_two(gs):
    """The dominant weights of a simple ``gs`` with first coordinate <= 2."""
    rs = gs.factors[0]
    steps = [Q(k, 2) for k in range(4, -5, -1)]
    found = set()
    for v in itertools.combinations_with_replacement(steps, rs.ambient_dim):
        if in_weight_lattice(rs, v) and is_dominant_vector(rs, v):
            w = make_weight(gs, (v,))  # A5 weights shift to minimum 0
            if w.parts[0][0] <= 2:
                found.add(w)
    return sorted(found, key=lambda w: w.sort_key())


@pytest.mark.parametrize("label", ["A1", "B2", "C2", "C3", "D4", "A5"])
def test_identity_map_restricts_each_weight_to_itself(label):
    # The certificate subtracts each term's diagram from the projected
    # support; both must be A5-normalized the same way, or the zero weight
    # (1,..,1) of V_(2,1,1,1,1,0) is left over.
    gs = group(label)
    dim = gs.factors[0].ambient_dim
    rows = tuple(tuple(Q(int(i == j)) for j in range(dim)) for i in range(dim))
    identity = EmbeddingMap(f"id_{label}", gs, gs, (rows,), ())
    weights = _dominant_weights_up_to_two(gs)
    assert weights
    for hw in weights:
        assert restrict_generic(identity, hw).decomposition.terms == ((hw, 1),)


def test_non_integral_factor_row_rejected_at_construction():
    # Factor rows must map doubled weights to doubled weights.
    right = embedding("sp1so2_in_sp2")
    with pytest.raises(ValueError, match=r"half: factor 0 row 0 \(1/2,1\) is not integral"):
        EmbeddingMap("half", right.big, right.small, (((Q(1, 2), Q(1)),),), right.charge_rows)


def _sp1so2_with(**changes):
    right = embedding("sp1so2_in_sp2")
    rows = {"factor_rows": right.factor_rows, "charge_rows": right.charge_rows} | changes
    return EmbeddingMap("bad", right.big, right.small, rows["factor_rows"], rows["charge_rows"])


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"factor_rows": (((Q(1), Q(1)),), ((Q(1), Q(0)),))}, "2 factor blocks for 1 factors"),
        ({"factor_rows": (((Q(1), Q(1)), (Q(1), Q(0))),)}, "factor 0 has 2 rows for A1"),
        ({"factor_rows": (((Q(1),),),)}, r"factor 0 row 0 \(1\) has length 1, not 2"),
        ({"factor_rows": (((Q(1), Q(1), Q(0)),),)}, "factor 0 row 0 .* has length 3, not 2"),
        ({"charge_rows": ()}, "0 charge rows for 1 circles"),
        ({"charge_rows": ((Q(1, 2),),)}, r"charge row 0 \(1/2\) has length 1, not 2"),
    ],
)
def test_embedding_map_shape_checked_at_construction(changes, message):
    # A short row or a surplus block would otherwise be cut off silently.
    with pytest.raises(ValueError, match=f"bad: {message}"):
        _sp1so2_with(**changes)


def test_charge_units_per_embedding():
    # d is the least common denominator of an embedding's charge rows.
    units = {name: e.charge_denominator for name, e in CATALOG.items()}
    assert units.pop("sp2su2u1_in_su6") == 3
    assert units.pop("sp1so2_in_sp2") == 2
    assert set(units.values()) == {1}
    e = embedding("sp2su2u1_in_su6")
    # Twice the SU(6) weight (1,1,1,0,0,0) goes to twice (1,0) x 0 at
    # charge 1: the flat key (2, 0, 0, 2).
    assert e._apply((2, 2, 2, 0, 0, 0)) == (2, 0, 0, 2)


def test_branch_sp4_to_sp2sp2_examples():
    assert len(branch_sp4_to_sp2sp2(0)) == 1
    one = branch_sp4_to_sp2sp2(1)
    assert len(one) == 3 and one.total_dimension() == 42
    two = branch_sp4_to_sp2sp2(2)
    assert len(two) == 6 and two.total_dimension() == 594


def test_branch_sp2_to_su2su2_examples():
    out = branch_sp2_to_su2su2(1, 1)
    pairs = {(int(w.parts[0][0]), int(w.parts[1][0])) for w, _ in out.terms}
    assert pairs == {(0, 0), (1, 1)}
    assert out.total_dimension() == 5
    out = branch_sp2_to_su2su2(1, 0)
    pairs = {(int(w.parts[0][0]), int(w.parts[1][0])) for w, _ in out.terms}
    assert pairs == {(1, 0), (0, 1)}
    assert out.total_dimension() == 4
    assert branch_sp2_to_su2su2(0, 0).total_dimension() == 1


def test_branch_so5_examples():
    out = branch_so5_to_so3so2(1, 0)
    data = {(w.parts[0][0], w.charges[0]): m for w, m in out.terms}
    assert data == {(0, 1): 1, (0, -1): 1, (2, 0): 1}
    assert out.total_dimension() == 5
    out = branch_so5_to_so3so2(Q(1, 2), Q(1, 2))
    data = {(w.parts[0][0], w.charges[0]): m for w, m in out.terms}
    assert data == {(1, Q(1, 2)): 1, (1, Q(-1, 2)): 1}
    assert out.total_dimension() == 4
    assert branch_so5_to_so3so2(0, 0).total_dimension() == 1


def test_branch_so5_charge_symmetry():
    for a, b in [(3, 1), (Q(5, 2), Q(3, 2)), (4, 0)]:
        out = branch_so5_to_so3so2(a, b)
        data = {(w.parts[0][0], w.charges[0]): m for w, m in out.terms}
        for (z, k), m in data.items():
            assert data.get((z, -k)) == m


def test_branch_spin10_examples():
    assert branch_spin10_halfspin_to_spin8u1(0).total_dimension() == 1
    one = branch_spin10_halfspin_to_spin8u1(1)
    dims = [weight_dimension(one.group, w) for w, _ in one.terms]
    assert dims == [8, 8]
    assert one.total_dimension() == 16
    two = branch_spin10_halfspin_to_spin8u1(2)
    assert two.total_dimension() == dimension(
        build_root_system("D5"), tuple(Q(1) for _ in range(5))
    )
    charges = sorted(int(w.charges[0]) for w, _ in two.terms)
    assert charges == [-2, 0, 2]


def test_branch_su6_omega3_examples():
    out = branch_su6_omega3_to_sp2su2u1(1, 1)
    assert [(w.parts, w.charges) for w, _ in out.terms] == [
        (((Q(1), Q(0)), (Q(0),)), (Q(1),))
    ]
    assert out.total_dimension() == 4
    out = branch_su6_omega3_to_sp2su2u1(1, 0)
    got = {(tuple(map(int, w.parts[0])), int(w.parts[1][0])) for w, _ in out.terms}
    assert got == {((0, 0), 1), ((1, 1), 1)}
    assert out.total_dimension() == 12
    assert branch_su6_omega3_to_sp2su2u1(0, 0).total_dimension() == 1
    assert len(branch_su6_omega3_to_sp2su2u1(1, 2)) == 0


def test_branch_su6_omega3_negative_charge_convention():
    plus = branch_su6_omega3_to_sp2su2u1(3, 2)
    minus = branch_su6_omega3_to_sp2su2u1(3, -2)
    assert len(plus) == len(minus)
    for (wp, mp), (wm, mm) in zip(plus.terms, minus.terms):
        assert wp.parts == wm.parts and mp == mm
        assert wp.charges[0] == -wm.charges[0]


def test_branch_sp3_examples():
    signed = branch_su6_omega3_to_sp3(1)
    by_weight = {tuple(map(int, w.parts[0])): signed.sign(w) for w, _ in signed.character.terms}
    assert by_weight == {(1, 0, 0): -1, (1, 1, 1): 1}
    dims = sorted(
        weight_dimension(signed.character.group, w)
        for w, _ in signed.character.terms
    )
    assert dims == [6, 14]
    signed = branch_su6_omega3_to_sp3(2)
    ladder = sorted(
        (int(w.parts[0][1]), signed.sign(w)) for w, _ in signed.character.terms
    )
    assert ladder == [(0, 1), (1, -1), (2, 1)]


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_verify_rule_small_ranges(rule_id):
    level = {"sp2_to_su2su2": 4, "so5_to_so3so2": 3}.get(rule_id, 2)
    report = verify_rule(rule_id, level)
    assert report.ok, [c for c in report.checks if c.status == "FAIL"]


@pytest.mark.parametrize("rule_id", ["sp2_to_su2su2", "so5_to_so3so2"])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_two_parameter_rules_match_the_oracle_beyond_the_grid(rule_id, data):
    # Two paths past criterion 2's grid: parameters drawn up to twice the
    # rule's default level.  A source over 3000 dimensions is rejected by
    # assume, never counted as a pass.
    rule = RULES[rule_id]
    e = embedding(rule.embedding)
    params = data.draw(st.sampled_from(sorted(rule.grid(2 * rule.default_level))))
    hw = rule.source(*params)
    assume(weight_dimension(e.big, hw) <= 3000)
    got = restrict_generic(e, hw).decomposition
    assert got == rule.closed(*params), (rule_id, params)


@pytest.mark.parametrize(
    "rule_id", ["sp4_to_sp2sp2", "spin10_halfspin", "su6_omega3", "su6_omega3_to_sp3"]
)
def test_one_parameter_rules_replay_to_level_eight(rule_id):
    # Past criterion 2's level 4: every one-parameter rule against the
    # oracle at levels 0..8, with a budget that no case reaches.
    report = verify_rule(rule_id, 8, 10**9)
    assert [c.name for c in report.checks] == [f"{rule_id} {n}" for n in range(9)]
    assert [c.status for c in report.checks] == ["PASS"] * 9, [
        (c.name, c.status) for c in report.checks if c.status != "PASS"
    ]


def test_verify_rule_rejects_unknown():
    with pytest.raises(KeyError):
        verify_rule("nonsense")


@pytest.mark.parametrize(
    "rule, args, message",
    [
        (branch_sp4_to_sp2sp2, (-1,), "level must be non-negative"),
        (branch_spin10_halfspin_to_spin8u1, (-1,), "level must be non-negative"),
        (branch_su6_omega3_to_sp2su2u1, (-1, 0), "level must be non-negative"),
        (branch_su6_omega3_to_sp3, (-1,), "level must be non-negative"),
        (branch_so5_to_so3so2, (0, 1), "need a >= b >= 0 with a = b mod Z"),
    ],
    ids=["sp4_to_sp2sp2", "spin10_halfspin", "su6_omega3", "su6_omega3_to_sp3", "so5_to_so3so2"],
)
def test_closed_forms_refuse_bad_parameters(rule, args, message):
    with pytest.raises(ValueError) as info:
        rule(*args)
    assert type(info.value) is ValueError and str(info.value) == message


@pytest.mark.parametrize("name", ["nope", "sp4_to_sp2sp2"])
def test_embedding_refuses_unknown_names(name):
    # A rule id is not an embedding name.
    with pytest.raises(KeyError) as info:
        embedding(name)
    assert type(info.value) is KeyError and info.value.args == (f"unknown embedding {name!r}",)


_UNDER_O = """
import sys
from liedual import branching, rules

e, hw = branching.embedding("sp2xsp2_in_sp4"), rules.sp4_omega4_weight(1)
exact = branching.restrict_generic(e, hw).decomposition.terms == (
    rules.branch_sp4_to_sp2sp2(1).terms
)
real = branching.weight_dimension
branching.weight_dimension = lambda gs, w: real(gs, w) + 1
try:
    branching.restrict_generic(e, hw)
    raised = False
except branching.NegativeMultiplicityError:
    raised = True
print(sys.flags.optimize, exact, raised)
"""


def test_invariants_survive_python_O():
    # Asserts vanish under -O; dimension conservation must still raise.
    src = str(Path(liedual.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _UNDER_O],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out.split() == ["1", "True", "True"]


def test_package_has_no_assert_statements():
    # Invariants must be exceptions: python -O strips every assert.
    package = Path(liedual.__file__).resolve().parent
    sources = sorted(package.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_has_no_unused_imports():
    # An import that nothing reads is left over from a deleted caller.
    package = Path(liedual.__file__).resolve().parent
    sources = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    assert sources
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(), str(path))
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def test_package_reads_no_unbound_name():
    # Code moved between modules can lose an import that only a run would
    # miss: every name a module reads, in an annotation too, is bound
    # somewhere in that module (an import, a definition, an assignment or
    # a parameter) or is a builtin.
    package = Path(liedual.__file__).resolve().parent
    known = set(dir(builtins)) | {"__file__"}
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
                bound.add(node.id)
            elif isinstance(node, ast.arg):
                bound.add(node.arg)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                bound.add(node.name)
        found += [
            f"{path.name}:{node.lineno} {node.id}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)
            and node.id not in bound | known
        ]
    assert found == []

def test_only_lattice_reads_a_rational():
    # ``lattice._rational`` is the one grammar of an outside coordinate;
    # ``Fraction(x)`` elsewhere would read text with exponents, at a cost
    # that grows with their value.  Constants and two-argument calls are fine.
    package = Path(liedual.__file__).resolve().parent
    sources = [p for p in sorted(package.glob("*.py")) if p.name != "lattice.py"]
    assert sources
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            args = node.args + [k.value for k in node.keywords]
            if name in ("Fraction", "Q") and len(args) == 1 and not isinstance(args[0], ast.Constant):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_package_has_no_unread_private_helpers():
    # A private module-level function or class that nothing in the package
    # reads is left over from a deleted caller.
    package = Path(liedual.__file__).resolve().parent
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(package.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    defined = [
        (name, node)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    found = [
        f"{name}:{node.lineno} {node.name}"
        for name, node in defined
        if node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in read
    ]
    assert found == []


def test_dimension_conservation_on_all_catalog_entries():
    samples = {
        "sp2xsp2_in_sp4": sp4_omega4_weight(1),
        "su2x4_in_sp4": sp4_omega4_weight(1),
        "su2su2_in_sp2": make_weight(group("C2"), ((2, 1),)),
        "sp1so2_in_sp2": make_weight(group("C2"), ((2, 1),)),
        "so3so2_in_so5": make_weight(group("B2"), ((Q(3, 2), Q(1, 2)),)),
        "spin8u1_in_spin10": spin10_halfspin_weight(1),
        "sp2su2u1_in_su6": su6_omega3_weight(1),
        "sp3_in_su6": su6_omega3_weight(1),
        "diag_su2_in_su2x2": make_weight(group("A1", "A1"), ((1,), (2,))),
        "diag_su2_in_su2x3": make_weight(group("A1", "A1", "A1"), ((1,), (1,), (2,))),
        "diag_su2_in_su2x4": make_weight(
            group("A1", "A1", "A1", "A1"), ((1,), (1,), (1,), (1,))
        ),
        "sp2sp1_in_sp3": make_weight(group("C3"), ((2, 1, 1),)),
        "sp2su2so2_in_sp4": sp4_omega4_weight(1),
    }
    assert set(samples) == set(CATALOG)
    for name, hw in samples.items():
        res = restrict_generic(embedding(name), hw)
        assert res.decomposition.total_dimension() == weight_dimension(
            embedding(name).big, hw
        )
