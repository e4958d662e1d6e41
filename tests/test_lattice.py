"""Root-system construction, Weyl moves, and weight plumbing."""

import itertools
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liedual.rules import branch_so5_to_so3so2
from liedual.lattice import (
    SUPPORTED_TYPES,
    InvalidWeightError,
    UnsupportedTypeError,
    _check_invariants,
    build_root_system,
    cartan_matrix,
    dominant_conjugate,
    dominant_conjugate_by_reflections,
    doubled,
    group,
    in_weight_lattice,
    is_dominant_vector,
    make_weight,
    normalize_vector,
    pairing,
    qv,
    read_flat_weight,
    reflect,
    twice_root_coordinates,
    vadd,
    vscale,
    vsub,
    weyl_group_order,
    weyl_orbit,
    weyl_orbit_size,
)
from liedual.theta import torus_character

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


def _fraction_root_system(label):
    """The ``Fraction`` construction ``build_root_system`` replaced: unit
    vectors added and subtracted as ``Fraction``s, rho half their sum."""
    series, rank = label[0], int(label[1:])
    if label == "A1":
        series = "C"
    dim = rank + 1 if series == "A" else rank

    def unit(i, value=1):
        v = [Q(0)] * dim
        v[i] = Q(value)
        return tuple(v)

    simple = [vsub(unit(i), unit(i + 1)) for i in range(dim - 1)]
    positive = []
    for i in range(dim):
        for j in range(i + 1, dim):
            positive.append(vsub(unit(i), unit(j)))
            if series != "A":
                positive.append(vadd(unit(i), unit(j)))
    if series in ("B", "C"):
        length = 1 if series == "B" else 2
        simple.append(unit(rank - 1, length))
        positive.extend(unit(i, length) for i in range(rank))
    elif series == "D":
        simple.append(vadd(unit(rank - 2), unit(rank - 1)))
    total = tuple(Q(0) for _ in range(dim))
    for v in positive:
        total = vadd(total, v)
    return {
        "label": label,
        "series": series,
        "rank": rank,
        "ambient_dim": dim,
        "simple_roots": tuple(simple),
        "positive_roots": tuple(positive),
        "weyl_vector": vscale(Q(1, 2), total),
    }


@pytest.mark.parametrize("label", SUPPORTED_TYPES)
def test_integer_construction_matches_fraction_reference(label):
    rs = build_root_system(label)
    reference = _fraction_root_system(label)
    assert set(rs._fields) == set(reference)
    for name, expected in reference.items():
        assert getattr(rs, name) == expected, name  # tuples compare in order
    vectors = (*rs.simple_roots, *rs.positive_roots, rs.weyl_vector)
    assert all(type(x) is Q for v in vectors for x in v)


@pytest.mark.parametrize("label", SUPPORTED_TYPES)
def test_invariant_checks_reject_a_broken_root_system(label):
    rs = build_root_system(label)
    _check_invariants(rs)
    wrong_root = (vscale(2, rs.simple_roots[0]),) + rs.simple_roots[1:]
    # A rank-one Cartan matrix is (2) for any root; only rho catches A1.
    with pytest.raises(ValueError, match="Cartan" if rs.rank > 1 else "Weyl vector"):
        _check_invariants(rs._replace(simple_roots=wrong_root))
    shifted = (rs.weyl_vector[0] + 1,) + rs.weyl_vector[1:]
    with pytest.raises(ValueError, match="Weyl vector"):
        _check_invariants(rs._replace(weyl_vector=shifted))
    with pytest.raises(ValueError, match="root count"):
        _check_invariants(rs._replace(positive_roots=rs.positive_roots[1:]))


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
        total = vsub(total, r)
    assert all(x == 0 for x in total)


@pytest.mark.parametrize("label", SUPPORTED_TYPES)
def test_roots_form_a_root_system(label):
    rs = build_root_system(label)
    positive = set(rs.positive_roots)
    assert set(rs.simple_roots) <= positive
    roots = positive | {vscale(-1, r) for r in positive}
    for a in rs.simple_roots:
        assert {reflect(r, a) for r in roots} == roots
    for r in rs.positive_roots:
        coords = twice_root_coordinates(rs, r)
        assert coords is not None
        assert all(c % 2 == 0 and c >= 0 for c in coords)


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
@given(data=st.data(), label=st.sampled_from(SUPPORTED_TYPES))
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
    h = Q(1, 2)
    assert weyl_orbit_size(d4, (h, h, h, h)) == 8
    assert weyl_orbit_size(d4, (h, h, h, -h)) == 8
    assert weyl_orbit_size(build_root_system("B2"), (h, h)) == 4
    assert weyl_orbit_size(build_root_system("A5"), qv(1, 0, 0, 0, 0, 0)) == 6
    with pytest.raises(ValueError):
        weyl_orbit_size(c2, qv(1, 2))


@settings(max_examples=50, deadline=None)
@given(data=st.data(), label=st.sampled_from(SUPPORTED_TYPES))
def test_weyl_orbit_size_matches_enumeration(data, label):
    rs = build_root_system(label)
    v = tuple(Q(data.draw(st.integers(0, 2))) for _ in range(rs.ambient_dim))
    d, _ = dominant_conjugate(rs, v)
    assert weyl_orbit_size(rs, d) == len(weyl_orbit(rs, d))


def _fundamental_weights(rs):
    """omega_j with <omega_j, alpha_i^vee> = delta_ij, in stored coordinates."""
    if rs.label == "A1":
        return [qv(1)]
    omegas = [
        tuple(Q(int(k < j)) for k in range(rs.ambient_dim)) for j in range(1, rs.rank + 1)
    ]
    h = Q(1, 2)
    if rs.series == "B":
        omegas[-1] = (h,) * rs.rank
    if rs.series == "D":
        omegas[-2] = (h,) * (rs.rank - 1) + (-h,)
        omegas[-1] = (h,) * rs.rank
    return omegas


@pytest.mark.parametrize("label", SUPPORTED_TYPES)
def test_weyl_orbit_size_on_every_parabolic_stabilizer(label):
    # The sum of the fundamental weights off a set S of simple roots is
    # fixed by exactly the reflections in S, so all 2^rank stabilizers
    # are met once each.
    rs = build_root_system(label)
    omegas = _fundamental_weights(rs)
    for j, omega in enumerate(omegas):
        assert [pairing(omega, a) for a in rs.simple_roots] == [int(i == j) for i in range(rs.rank)]
    zero = tuple(Q(0) for _ in range(rs.ambient_dim))
    for size in range(rs.rank + 1):
        for fixed in itertools.combinations(range(rs.rank), size):
            v = zero
            for j, omega in enumerate(omegas):
                if j not in fixed:
                    v = vadd(v, omega)
            assert weyl_orbit_size(rs, v) == len(weyl_orbit(rs, v)), fixed


def test_weyl_group_orders():
    assert weyl_group_order(build_root_system("A5")) == 720
    assert weyl_group_order(build_root_system("C4")) == 384
    assert weyl_group_order(build_root_system("D4")) == 192
    assert weyl_group_order(build_root_system("D5")) == 1920
    # W acts simply transitively on the orbit of the regular vector rho.
    for label in SUPPORTED_TYPES:
        rs = build_root_system(label)
        assert weyl_group_order(rs) == len(weyl_orbit(rs, rs.weyl_vector)), label


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
        assert twice_root_coordinates(rs, v) == tuple(2 * c for c in coeffs)
    assert twice_root_coordinates(build_root_system("A5"), qv(1, 0, 0, 0, 0, 0)) is None


def test_dominance_uses_stated_conventions():
    c2 = build_root_system("C2")
    assert is_dominant_vector(c2, qv(3, 1))
    assert not is_dominant_vector(c2, qv(1, 3))
    d4 = build_root_system("D4")
    assert is_dominant_vector(d4, qv(2, 1, 1, -1))
    assert not is_dominant_vector(d4, qv(2, 1, 1, -2))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), label=st.sampled_from(SUPPORTED_TYPES))
def test_is_dominant_vector_matches_simple_root_pairings(data, label):
    # The closed form against the definition, <v, alpha^vee> >= 0 for every
    # simple root, on Fraction vectors and on their doubled ints.  Small
    # entries put many vectors on walls; the conjugate is always dominant.
    rs = build_root_system(label)
    twice = data.draw(st.tuples(*[st.integers(-4, 4)] * rs.ambient_dim))
    v = tuple(Q(x, 2) for x in twice)
    for u in (v, dominant_conjugate(rs, v)[0]):
        expected = all(pairing(u, a) >= 0 for a in rs.simple_roots)
        assert is_dominant_vector(rs, u) == expected, u
        assert is_dominant_vector(rs, tuple(int(2 * x) for x in u)) == expected, u


def test_readers_share_the_command_line_grammar():
    # Integers, p/q, finite decimals, ints and Fractions, whitespace allowed.
    assert qv(1, " -3 ", "1/2", "0.5", Q(3, 4)) == (Q(1), Q(-3), Q(1, 2), Q(1, 2), Q(3, 4))
    assert make_weight(group("B2"), (("3/2", "0.5"),)) == make_weight(
        group("B2"), ((Q(3, 2), Q(1, 2)),)
    )
    # Fraction would read "1_0" as 10 and the Arabic-Indic digit one as 1.
    for bad in ("", "x", "1/0", "1.5.0", 0.5, None, "1_0", "\u0661"):
        with pytest.raises(InvalidWeightError, match=r"^bad rational "):
            qv(bad)


@pytest.mark.parametrize(
    "call, text",
    [
        (lambda: qv("1e3"), "1e3"),
        (lambda: qv("1E3"), "1E3"),
        (lambda: make_weight(group("A1"), (("1e3",),)), "1e3"),
        (lambda: make_weight(group("A1", circles=1), ((0,),), ("2e-1",)), "2e-1"),
        (lambda: read_flat_weight(group("A1"), ["1e3"]), "1e3"),
        (lambda: torus_character("1e1", "-1e1", 0), "1e1"),
        (lambda: branch_so5_to_so3so2("1e0", 0), "1e0"),
    ],
)
def test_api_readers_refuse_exponents(call, text):
    # Fraction reads exponents at a cost that grows with their value; the
    # API refuses them as the command line does, before Fraction sees them.
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == f"bad rational {text!r}"


@pytest.mark.parametrize(
    "v, message",
    [
        ((Q(1, 3),), "(1/3) is not a weight-lattice vector"),
        ((Q(1, 2), Q(2, 3)), "(1/2,2/3) is not a weight-lattice vector"),
    ],
)
def test_doubled_refuses_thirds(v, message):
    with pytest.raises(InvalidWeightError) as info:
        doubled(v)
    assert type(info.value) is InvalidWeightError and str(info.value) == message
