"""Root-system construction, Weyl moves, and weight plumbing."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liedual.lattice import (
    SUPPORTED_TYPES,
    InvalidWeightError,
    UnsupportedTypeError,
    build_root_system,
    cartan_matrix,
    dominant_conjugate,
    dominant_conjugate_by_reflections,
    group,
    in_weight_lattice,
    is_dominant_vector,
    make_weight,
    normalize_vector,
    pairing,
    qv,
    reflect,
    root_coordinates,
    vadd,
    vneg,
    vscale,
    weyl_group_order,
    weyl_orbit,
    weyl_orbit_size,
)

EXPECTED_POSITIVE_COUNTS = {
    "A1": 1,
    "A5": 15,
    "B2": 4,
    "C2": 4,
    "C3": 9,
    "C4": 16,
    "D4": 12,
    "D5": 20,
}


@pytest.mark.parametrize("label", SUPPORTED_TYPES)
def test_positive_root_counts(label):
    rs = build_root_system(label)
    assert len(rs.positive_roots) == EXPECTED_POSITIVE_COUNTS[label]


@pytest.mark.parametrize("label", SUPPORTED_TYPES)
def test_weyl_vector_is_half_sum_and_pairs_to_one(label):
    rs = build_root_system(label)
    total = rs.positive_roots[0]
    for r in rs.positive_roots[1:]:
        total = vadd(total, r)
    assert vscale(Q(1, 2), total) == rs.weyl_vector
    for a in rs.simple_roots:
        assert pairing(rs.weyl_vector, a) == 1


@pytest.mark.parametrize("label", SUPPORTED_TYPES)
def test_all_roots_sum_to_zero(label):
    rs = build_root_system(label)
    total = tuple(Q(0) for _ in range(rs.ambient_dim))
    for r in rs.positive_roots:
        total = vadd(total, r)
        total = vadd(total, vneg(r))
    assert all(x == 0 for x in total)


def test_d4_simple_roots_standard_coordinates():
    rs = build_root_system("D4")
    assert rs.simple_roots == (
        qv(1, -1, 0, 0),
        qv(0, 1, -1, 0),
        qv(0, 0, 1, -1),
        qv(0, 0, 1, 1),
    )
    assert rs.weyl_vector == qv(3, 2, 1, 0)


def test_c4_positive_roots_and_weyl_vector():
    rs = build_root_system("C4")
    assert len(rs.positive_roots) == 16
    assert rs.weyl_vector == qv(4, 3, 2, 1)


def test_a1_rank_one():
    rs = build_root_system("A1")
    assert rs.simple_roots == (qv(2),)
    assert pairing(rs.weyl_vector, rs.simple_roots[0]) == 1


def test_unsupported_label():
    with pytest.raises(UnsupportedTypeError):
        build_root_system("E6")


def test_cartan_matrices_match_standard():
    # Spot checks; the builder also asserts the full table at construction.
    assert cartan_matrix(build_root_system("C2")) == ((2, -1), (-2, 2))
    assert cartan_matrix(build_root_system("B2")) == ((2, -2), (-1, 2))
    assert cartan_matrix(build_root_system("D4"))[1] == (-1, 2, -1, -1)


def test_dominant_conjugate_examples():
    d4 = build_root_system("D4")
    vec, sign = dominant_conjugate(d4, qv(3, -1, -2, 0))
    assert vec == qv(3, 2, 1, 0)
    assert sign in (-1, 1)
    assert dominant_conjugate(build_root_system("A1"), qv(0)) == (qv(0), 0)
    assert dominant_conjugate(build_root_system("C2"), qv(1, 2)) == (qv(2, 1), -1)


def test_dominant_conjugate_idempotent_on_dominant():
    c2 = build_root_system("C2")
    vec, sign = dominant_conjugate(c2, qv(3, 1))
    assert (vec, sign) == (qv(3, 1), 1)
    vec, sign = dominant_conjugate(c2, qv(2, 2))  # on a wall
    assert vec == qv(2, 2) and sign == 0


@pytest.mark.parametrize("label", ["A1", "C2"])
def test_orbit_has_one_dominant_representative(label):
    rs = build_root_system(label)
    for v in [qv(*([3, 1][: rs.ambient_dim])), qv(*([2, 2][: rs.ambient_dim]))]:
        target, _ = dominant_conjugate(rs, v)
        for u in weyl_orbit(rs, v):
            got, _ = dominant_conjugate(rs, u)
            assert got == target


def _random_vector(draw, rs):
    if rs.series in ("B", "D") and draw(st.booleans()):
        return tuple(
            Q(2 * draw(st.integers(-6, 6)) + 1, 2) for _ in range(rs.ambient_dim)
        )
    return tuple(Q(draw(st.integers(-6, 6))) for _ in range(rs.ambient_dim))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), label=st.sampled_from(SUPPORTED_TYPES))
def test_dominant_conjugate_matches_reflection_walk(data, label):
    rs = build_root_system(label)
    v = _random_vector(data.draw, rs)
    assert dominant_conjugate(rs, v) == dominant_conjugate_by_reflections(rs, v)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), label=st.sampled_from(["A1", "B2", "C2", "D4"]))
def test_orbit_closed_under_reflections(data, label):
    rs = build_root_system(label)
    v = _random_vector(data.draw, rs)
    orbit = weyl_orbit(rs, v)
    for a in rs.simple_roots:
        assert reflect(v, a) in orbit


@settings(max_examples=60, deadline=None)
@given(data=st.data(), label=st.sampled_from(SUPPORTED_TYPES))
def test_weyl_moves_commute_with_doubling(data, label):
    # The oracle runs these on doubled int tuples: 2v must move exactly
    # as v does, with the same sign, and stay integral.
    rs = build_root_system(label)
    v = _random_vector(data.draw, rs)
    doubled = tuple(int(2 * x) for x in v)
    d, sign = dominant_conjugate(rs, v)
    d2, sign2 = dominant_conjugate(rs, doubled)
    assert (d2, sign2) == (tuple(2 * x for x in d), sign)
    assert all(type(x) is int for x in d2)
    orbit2 = weyl_orbit(rs, doubled)
    assert orbit2 == {tuple(2 * x for x in u) for u in weyl_orbit(rs, v)}
    assert all(type(x) is int for u in orbit2 for x in u)
    assert normalize_vector(rs, doubled) == tuple(2 * x for x in normalize_vector(rs, v))


def test_weyl_orbit_size_examples():
    c2 = build_root_system("C2")
    assert weyl_orbit_size(c2, qv(0, 0)) == 1
    assert weyl_orbit_size(c2, qv(1, 1)) == 4
    d4 = build_root_system("D4")
    assert weyl_orbit_size(d4, qv(1, 1, 0, 0)) == 24
    with pytest.raises(ValueError):
        weyl_orbit_size(c2, qv(1, 2))


@settings(max_examples=50, deadline=None)
@given(data=st.data(), label=st.sampled_from(SUPPORTED_TYPES))
def test_weyl_orbit_size_matches_enumeration(data, label):
    rs = build_root_system(label)
    v = tuple(Q(data.draw(st.integers(0, 2))) for _ in range(rs.ambient_dim))
    d, _ = dominant_conjugate(rs, v)
    assert weyl_orbit_size(rs, d) == len(weyl_orbit(rs, d))


def test_weyl_group_orders():
    assert weyl_group_order(build_root_system("A5")) == 720
    assert weyl_group_order(build_root_system("C4")) == 384
    assert weyl_group_order(build_root_system("D4")) == 192
    assert weyl_group_order(build_root_system("D5")) == 1920


def test_weight_lattice_membership():
    b2 = build_root_system("B2")
    assert in_weight_lattice(b2, qv("1/2", "1/2"))
    assert in_weight_lattice(b2, qv(2, 1))
    assert not in_weight_lattice(b2, qv("1/2", 1))
    c2 = build_root_system("C2")
    assert not in_weight_lattice(c2, qv("1/2", "1/2"))
    d5 = build_root_system("D5")
    assert in_weight_lattice(d5, qv("1/2", "1/2", "1/2", "1/2", "-1/2"))


def test_make_weight_validation_and_normalization():
    gs = group("A5")
    w = make_weight(gs, ((2, 1, 1, -1, -1, -1),))
    assert w.parts[0] == qv(3, 2, 2, 0, 0, 0)
    with pytest.raises(InvalidWeightError):
        make_weight(gs, ((Q(1, 2), 0, 0, 0, 0, 0),))
    with pytest.raises(InvalidWeightError):
        make_weight(group("C2", circles=1), ((1, 0),), (Q(1, 3),))
    with pytest.raises(InvalidWeightError):
        make_weight(group("C2"), ((1, 0), (1, 0)))


def test_root_coordinates_roundtrip():
    for label in SUPPORTED_TYPES:
        rs = build_root_system(label)
        coeffs = [Q(i + 1) for i in range(rs.rank)]
        v = tuple(Q(0) for _ in range(rs.ambient_dim))
        for c, a in zip(coeffs, rs.simple_roots):
            v = vadd(v, vscale(c, a))
        assert root_coordinates(rs, v) == tuple(coeffs)
    assert root_coordinates(build_root_system("A5"), qv(1, 0, 0, 0, 0, 0)) is None


def test_dominance_uses_stated_conventions():
    c2 = build_root_system("C2")
    assert is_dominant_vector(c2, qv(3, 1))
    assert not is_dominant_vector(c2, qv(1, 3))
    d4 = build_root_system("D4")
    assert is_dominant_vector(d4, qv(2, 1, 1, -1))
    assert not is_dominant_vector(d4, qv(2, 1, 1, -2))
