"""Compositional consistency between independent restriction paths."""

from fractions import Fraction as Q

import pytest

from liedual.branching import embedding, restrict_generic
from liedual.charalg import su2_tensor
from liedual.lattice import Weight, group, make_weight
from liedual.minrep import sp1so2_coefficients
from liedual.rules import (
    branch_sp2_to_su2su2,
    branch_so5_to_so3so2,
    sp4_omega4_weight,
    su6_omega3_weight,
)


@pytest.mark.parametrize("n", range(3))
def test_su2_four_factor_restriction_factors_through_pairs(n):
    # restricting C4 -> C2 x C2 and then each C2 -> A1 x A1 must agree with
    # the direct C4 -> A1^4 restriction
    via_pairs: dict[Weight, int] = {}
    e1 = embedding("sp2xsp2_in_sp4")
    for w, mult in restrict_generic(e1, sp4_omega4_weight(n)).decomposition.terms:
        left = branch_sp2_to_su2su2(int(w.parts[0][0]), int(w.parts[0][1]))
        right = branch_sp2_to_su2su2(int(w.parts[1][0]), int(w.parts[1][1]))
        for wl, ml in left.terms:
            for wr, mr in right.terms:
                key = Weight((wl.parts[0], wl.parts[1], wr.parts[0], wr.parts[1]))
                via_pairs[key] = via_pairs.get(key, 0) + mult * ml * mr
    direct = restrict_generic(embedding("su2x4_in_sp4"), sp4_omega4_weight(n))
    assert via_pairs == direct.decomposition.as_dict()


@pytest.mark.parametrize("n", range(1, 4))
def test_sp3_chain_matches_charge_merged_su6_restriction(n):
    # SU(6) -> Sp(3) -> Sp(2) x Sp(1) must agree with SU(6) -> Sp(2) x SU2
    # once the circle charge is forgotten; the two subgroup chains are
    # conjugate, so the characters coincide.
    via_sp3: dict[tuple, int] = {}
    e7 = embedding("sp3_in_su6")
    e9 = embedding("sp2sp1_in_sp3")
    for w, mult in restrict_generic(e7, su6_omega3_weight(n)).decomposition.terms:
        inner = restrict_generic(e9, w)
        for w2, m2 in inner.decomposition.terms:
            key = (w2.parts[0], w2.parts[1])
            via_sp3[key] = via_sp3.get(key, 0) + mult * m2
    via_u1: dict[tuple, int] = {}
    e6 = embedding("sp2su2u1_in_su6")
    for w, mult in restrict_generic(e6, su6_omega3_weight(n)).decomposition.terms:
        key = (w.parts[0], w.parts[1])
        via_u1[key] = via_u1.get(key, 0) + mult
    assert via_sp3 == via_u1


@pytest.mark.parametrize("x,y", [(1, 0), (1, 1), (2, 1), (3, 2), (4, 0), (4, 4)])
def test_circle_refined_restriction_sums_to_diagonal_restriction(x, y):
    # For each diagonal-SU2 weight z, summing the circle-refined
    # multiplicities over all charges must match composing the pair
    # restriction with Clebsch-Gordan on the diagonal.
    refined: dict[int, int] = {}
    for (z, _m), mult in sp1so2_coefficients(x, y).items():
        refined[z] = refined.get(z, 0) + mult
    diagonal: dict[int, int] = {}
    for w, _ in branch_sp2_to_su2su2(x, y).terms:
        a, b = int(w.parts[0][0]), int(w.parts[1][0])
        for z in su2_tensor(a, b):
            diagonal[z] = diagonal.get(z, 0) + 1
    assert refined == diagonal


@pytest.mark.parametrize("n", range(3))
def test_hermitian_levels_equal_generic_assembly(n):
    # the graded hermitian level must agree with assembling the generic
    # third-fundamental restriction against the outer SU2 factor
    from liedual.minrep import dualpair_graded

    gs = group("C2", "A1", circles=1)
    assembled: dict[Weight, int] = {}
    e6 = embedding("sp2su2u1_in_su6")
    for w, mult in restrict_generic(e6, su6_omega3_weight(n)).decomposition.terms:
        inner = int(w.parts[1][0])
        for z in su2_tensor(n + 2, inner):
            key = make_weight(gs, (w.parts[0], (z,)), w.charges)
            assembled[key] = assembled.get(key, 0) + mult
    graded = dualpair_graded("hermJ-mixedE", n)
    assert assembled == graded.levels[n].as_dict()


def test_so5_restriction_total_charge_zero():
    # weighted charge sums vanish: the circle acts with symmetric spectrum
    for a, b in [(2, 1), (Q(5, 2), Q(1, 2)), (3, 3)]:
        char = branch_so5_to_so3so2(a, b)
        total = sum(m * w.charges[0] for w, m in char.terms)
        assert total == 0


def test_trivial_type_line_in_every_mixed_level():
    # the compact pair fixes a line in the level-1 term and in all others
    from liedual.minrep import ktype_multiplicity

    gs = group("C2", "A1")
    trivial = make_weight(gs, ((0, 0), (0,)))
    for n in range(6):
        assert ktype_multiplicity("splitJ-mixedE", trivial, n, 0) == 1
