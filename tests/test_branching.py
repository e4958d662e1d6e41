"""Embedding catalog, generic restriction oracle, and closed-form rules."""

import os
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

import liedual
from liedual.branching import (
    CATALOG,
    BudgetExceededError,
    EmbeddingMap,
    NegativeMultiplicityError,
    RULE_IDS,
    branch_so5_to_so3so2,
    branch_sp2_to_su2su2,
    branch_sp4_to_sp2sp2,
    branch_spin10_halfspin_to_spin8u1,
    branch_su6_omega3_to_sp2su2u1,
    branch_su6_omega3_to_sp3,
    embedding,
    restrict_generic,
    sp4_omega4_weight,
    spin10_halfspin_weight,
    su6_omega3_weight,
    verify_rule,
)
from liedual.charalg import dimension, weight_dimension
from liedual.lattice import build_root_system, group, make_weight

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
    assert all(CATALOG[n].internal for n in internal)


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
    1: "bogus: dimension 126 restricted from 42",
    2: "bogus: negative coefficient -1 at "
    "(((Fraction(1, 1), Fraction(1, 1)), (Fraction(2, 1), Fraction(0, 1))), ())",
}


@pytest.mark.parametrize("n", [1, 2])
def test_wrong_embedding_aborts_with_negative_multiplicity(n):
    # Doubling one coordinate row is not the weight map of any subgroup;
    # the oracle must abort rather than clamp.  At n=1 the fold conserves
    # no dimension, at n=2 it has a negative coefficient.  Messages show
    # Fraction weights, never the oracle's internal doubled integers.
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
    # With the charge row (1/2, 1/2) the C2 weight (1,0) folds to
    # 2 V_1 (x) chi_1/2: non-negative and of the right dimension 4, but
    # wrong.  Only subtracting the terms' diagrams catches it.
    right = embedding("sp1so2_in_sp2")
    typo = EmbeddingMap(
        "typo", right.big, right.small, right.factor_rows, ((Q(1, 2), Q(1, 2)),)
    )
    with pytest.raises(NegativeMultiplicityError) as raised:
        restrict_generic(typo, make_weight(group("C2"), ((1, 0),)))
    assert str(raised.value) == (
        "typo: subtracting Weight(parts=((Fraction(1, 1),),), charges=(Fraction(1, 2),)) "
        "drove (((Fraction(-1, 1),),), (Fraction(1, 2),)) negative"
    )


def test_non_integral_factor_row_rejected_at_construction():
    # Factor rows must map doubled weights to doubled weights.
    right = embedding("sp1so2_in_sp2")
    with pytest.raises(ValueError, match=r"half: factor 0 row 0 \(1/2, 1\) is not integral"):
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
    # Charges are integers in the unit 1/(2d) inside the oracle.
    units = {name: e.charge_denominator for name, e in CATALOG.items()}
    assert units.pop("sp2su2u1_in_su6") == 3
    assert units.pop("sp1so2_in_sp2") == 2
    assert set(units.values()) == {1}
    e = embedding("sp2su2u1_in_su6")
    # Twice the SU(6) weight (1,1,1,0,0,0) goes to twice (1,0) x 0 at
    # charge 6/6 = 1.
    assert e._apply((2, 2, 2, 0, 0, 0)) == (((2, 0), (0,)), (6,))


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


def test_verify_rule_rejects_unknown():
    with pytest.raises(KeyError):
        verify_rule("nonsense")


_UNDER_O = """
import sys
from liedual import branching

e, hw = branching.embedding("sp2xsp2_in_sp4"), branching.sp4_omega4_weight(1)
exact = branching.restrict_generic(e, hw).decomposition.terms == (
    branching.branch_sp4_to_sp2sp2(1).terms
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
