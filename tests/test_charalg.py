"""Dimension formula, Freudenthal recursion, tensor products, inf. characters."""

import itertools
from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from liedual.charalg import (
    FormalCharacter,
    NonDominantError,
    dimension,
    freudenthal_total,
    infinitesimal_character,
    su2_tensor,
    tensor_decompose,
    weight_dimension,
    weight_multiplicities,
)
from liedual.charalg import _dominant_weights, _root_classes
from liedual.lattice import (
    SUPPORTED_TYPES,
    InvalidWeightError,
    build_root_system,
    dominant_conjugate,
    dominant_representative,
    dot,
    doubled,
    group,
    halved,
    is_dominant_vector,
    make_weight,
    qv,
    reflect,
    twice_root_coordinates,
    vadd,
    vscale,
    weyl_orbit,
    weyl_orbit_size,
)

A1 = build_root_system("A1")
C2 = build_root_system("C2")
C4 = build_root_system("C4")
D4 = build_root_system("D4")


def test_dimension_examples():
    assert dimension(C2, qv(1, 0)) == 4
    assert dimension(C2, qv(1, 1)) == 5
    for n in range(8):
        assert dimension(A1, qv(n)) == n + 1
    assert dimension(C4, qv(1, 1, 1, 1)) == 42
    assert dimension(C4, qv(2, 2, 2, 2)) == 594


def test_dimension_rejects_non_dominant():
    with pytest.raises(NonDominantError):
        dimension(C2, qv(0, 1))


@pytest.mark.parametrize("hw", [(Q(1, 3), Q(0)), (Q(1, 2), Q(1, 2))])
def test_dimension_rejects_off_lattice_input(hw):
    # Bad input, not an internal defect: not InvariantError.
    with pytest.raises(InvalidWeightError, match="is not a C2 weight"):
        dimension(C2, hw)


def test_dimension_known_small_values():
    assert dimension(build_root_system("C3"), qv(1, 0, 0)) == 6
    assert dimension(build_root_system("C3"), qv(1, 1, 1)) == 14
    assert dimension(build_root_system("A5"), qv(1, 1, 1, 0, 0, 0)) == 20
    assert dimension(build_root_system("B2"), qv(1, 0)) == 5
    assert dimension(build_root_system("B2"), qv("1/2", "1/2")) == 4
    h = Q(1, 2)
    assert dimension(build_root_system("D5"), (h, h, h, h, h)) == 16


def test_weight_multiplicities_examples():
    wf = weight_multiplicities(A1, qv(2))
    assert dict(wf.support) == {qv(2): 1, qv(0): 1, qv(-2): 1}
    wf = weight_multiplicities(C2, qv(1, 1))
    assert wf.total() == 5
    assert wf.support[qv(0, 0)] == 1
    assert wf.support[qv(-1, 1)] == 1
    assert dict(weight_multiplicities(C2, qv(0, 0)).support) == {qv(0, 0): 1}


#: Highest weights with dimension <= 10^4 across every supported type.
_FREUDENTHAL_SWEEP = [
    ("A1", (9,)),
    ("A5", (2, 1, 1, 0, 0, 0)),
    ("A5", (3, 3, 3, 0, 0, 0)),
    ("B2", (3, 1)),
    ("B2", (Q(5, 2), Q(3, 2))),
    ("C2", (4, 2)),
    ("C3", (2, 1, 1)),
    ("C4", (2, 2, 2, 2)),
    ("C4", (1, 1, 0, 0)),
    ("D4", (2, 1, 1, -1)),
    ("D4", (Q(3, 2), Q(3, 2), Q(1, 2), Q(1, 2))),
    ("D5", (1, 1, 0, 0, 0)),
    ("D5", (Q(3, 2), Q(1, 2), Q(1, 2), Q(1, 2), Q(1, 2))),
]


@pytest.mark.parametrize("label,hw", _FREUDENTHAL_SWEEP)
def test_freudenthal_total_equals_weyl_dimension(label, hw):
    rs = build_root_system(label)
    hw = tuple(Q(x) for x in hw)
    assert dimension(rs, hw) <= 10**4
    assert freudenthal_total(rs, hw) == dimension(rs, hw)


@pytest.mark.parametrize("label,hw", _FREUDENTHAL_SWEEP)
def test_dominant_weights_come_after_everything_above_them(label, hw):
    # The recursion at mu reads m(d) for d the dominant conjugate of each
    # mu + k alpha; every such d that is a weight must come before mu.
    rs = build_root_system(label)
    order = _dominant_weights(rs, doubled(tuple(Q(x) for x in hw)))
    position = {mu: i for i, mu in enumerate(order)}
    bound = max(sum(x * x for x in mu) for mu in order)
    for mu in order:
        for alpha in rs.positive_roots:
            step = tuple(2 * int(x) for x in alpha)
            above = vadd(mu, step)
            # |mu + k alpha|^2 is convex in k and at most bound at k = 0,
            # and Weyl moves keep norms: past the bound nothing is listed.
            while sum(x * x for x in above) <= bound:
                d, _ = dominant_conjugate(rs, above)
                assert position.get(d, -1) < position[mu], (halved(mu), halved(d))
                above = vadd(above, step)


def _fraction_freudenthal(rs, hw):
    """Reference: the Freudenthal recursion in Fraction coordinates, with
    the orbit expansion, as the oracle ran before it moved to integers."""
    rho = rs.weyl_vector
    top = vadd(hw, rho)
    top_norm = dot(top, top)
    mults = {hw: 1}
    for mu in map(halved, _dominant_weights(rs, doubled(hw))):
        if mu == hw:
            continue
        acc = Q(0)
        for alpha in rs.positive_roots:
            k = 1
            while True:
                above = vadd(mu, vscale(k, alpha))
                d, _ = dominant_conjugate(rs, above)
                if d not in mults:
                    break
                acc += mults[d] * dot(above, alpha)
                k += 1
        shifted = vadd(mu, rho)
        value = 2 * acc / (top_norm - dot(shifted, shifted))
        assert value.denominator == 1 and value > 0
        mults[mu] = int(value)
    return {v: m for mu, m in mults.items() for v in weyl_orbit(rs, mu)}


@pytest.mark.parametrize("label,hw", _FREUDENTHAL_SWEEP)
def test_weight_multiplicities_match_fraction_reference(label, hw):
    rs = build_root_system(label)
    hw = tuple(Q(x) for x in hw)
    support = weight_multiplicities(rs, hw).support
    assert dict(support) == _fraction_freudenthal(rs, hw)
    assert all(type(x) is Q for v in support for x in v)


@st.composite
def _dominant_weights_of_every_type(draw):
    """A type and a dominant weight of it: drawn doubled entries, all even,
    or for B and D all odd (spin weights), moved to the dominant chamber."""
    rs = build_root_system(draw(st.sampled_from(SUPPORTED_TYPES)))
    odd = rs.series in ("B", "D") and draw(st.booleans())
    twice = tuple(2 * draw(st.integers(-2, 2)) + odd for _ in range(rs.ambient_dim))
    return rs, halved(dominant_representative(rs, twice))


@settings(max_examples=25, deadline=None)
@given(drawn=_dominant_weights_of_every_type())
def test_weyl_and_freudenthal_agree_on_drawn_weights(drawn):
    # Three paths to one number: the Weyl formula, the stabilizer-orbit
    # recursion's orbit-size total, and the dominant part of the expanded
    # weight diagram; the diagram itself against the full-root reference.
    rs, hw = drawn
    dim = dimension(rs, hw)
    assume(dim <= 3000)
    assert freudenthal_total(rs, hw) == dim
    support = weight_multiplicities(rs, hw).support
    dominant = [(v, m) for v, m in support.items() if is_dominant_vector(rs, v)]
    assert sum(m * weyl_orbit_size(rs, v) for v, m in dominant) == dim
    assert dict(support) == _fraction_freudenthal(rs, hw)


@pytest.mark.parametrize("label", SUPPORTED_TYPES)
def test_root_classes_are_the_wall_stabilizer_orbits_modulo_sign(label):
    # For every set J of simple roots: the classes partition the positive
    # roots, each is closed modulo sign under the reflections in J, and
    # each is the closure of its first root (one orbit, not a union).
    rs = build_root_system(label)
    positive = set(rs.positive_roots)
    simple = [tuple(map(int, a)) for a in rs.simple_roots]

    def up_to_sign(v):
        return v if v in positive else vscale(-1, v)

    for size in range(rs.rank + 1):
        for mirrors in itertools.combinations(simple, size):
            classes = _root_classes(rs, mirrors)
            assert sum(map(len, classes)) == len(positive), mirrors
            assert set().union(*classes) == positive, mirrors
            for cls in classes:
                members = set(cls)
                orbit = [cls[0]]
                for r in orbit:
                    for a in mirrors:
                        image = up_to_sign(reflect(r, a))
                        assert image in members, (mirrors, cls, image)
                        if image not in orbit:
                            orbit.append(image)
                assert set(orbit) == members, (mirrors, cls)


#: An integral dominant weight of every supported type.
_INTEGRAL_WEIGHTS = {
    "A1": (3,),
    "A5": (2, 1, 1, 0, 0, 0),
    "B2": (2, 1),
    "C2": (1, 0),
    "C3": (2, 1, 0),
    "C4": (1, 1, 0, 0),
    "D4": (1, 1, 1, -1),
    "D5": (1, 1, 0, 0, 0),
}


@pytest.mark.parametrize("label", SUPPORTED_TYPES)
def test_int_and_fraction_inputs_agree(label):
    rs = build_root_system(label)
    hw = _INTEGRAL_WEIGHTS[label]
    exact = tuple(Q(x) for x in hw)
    span = vadd(rs.simple_roots[0], rs.simple_roots[-1])
    coords = twice_root_coordinates(rs, tuple(int(x) for x in span))
    assert coords is not None and coords == twice_root_coordinates(rs, span)
    assert all(isinstance(c, (int, Q)) for c in coords)  # no float halves
    assert dimension(rs, hw) == dimension(rs, exact)
    assert freudenthal_total(rs, hw) == freudenthal_total(rs, exact) == dimension(rs, exact)
    assert weight_multiplicities(rs, hw) == weight_multiplicities(rs, exact)
    assert tensor_decompose(rs, hw, hw) == tensor_decompose(rs, exact, exact)


def test_freudenthal_handles_shifted_coset_representative():
    a5 = build_root_system("A5")
    shifted = qv(0, 0, 0, -1, -1, -1)  # same irreducible as (1,1,1,0,0,0)
    assert dimension(a5, shifted) == 20
    assert freudenthal_total(a5, shifted) == 20


@pytest.mark.parametrize("label,hw", [("C2", (2, 1)), ("D4", (1, 1, 1, 1)), ("B2", (Q(3, 2), Q(1, 2)))])
def test_weight_function_reflection_invariant(label, hw):
    rs = build_root_system(label)
    hw = tuple(Q(x) for x in hw)
    support = weight_multiplicities(rs, hw).support
    for alpha in rs.simple_roots:
        for v, m in support.items():
            assert support.get(reflect(v, alpha)) == m


_H = Q(1, 2)

# One highest weight per type and the D spin weights, which have no zero
# entry, so their orbits are the halved ones.
_ORBIT_CASES = [
    ("A1", (3,)),
    ("A5", (2, 1, 0, 0, 0, 0)),
    ("B2", (Q(3, 2), _H)),
    ("C2", (2, 0)),
    ("C3", (2, 1, 0)),
    ("C4", (1, 1, 1, 1)),
    ("D4", (_H, _H, _H, -_H)),
    ("D4", (Q(3, 2), _H, _H, _H)),
    ("D5", (_H, _H, _H, _H, _H)),
    ("D5", (Q(3, 2), _H, _H, _H, -_H)),
    ("D5", (1, 1, 0, 0, 0)),
]


def test_orbit_size_consistent_with_multiplicity_totals():
    # Each dominant weight contributes multiplicity x orbit size, and the
    # Weyl dimension formula does not count orbits.
    for label, hw in _ORBIT_CASES:
        rs = build_root_system(label)
        hw = tuple(Q(x) for x in hw)
        support = weight_multiplicities(rs, hw).support
        total = sum(
            m * weyl_orbit_size(rs, v) for v, m in support.items() if is_dominant_vector(rs, v)
        )
        assert total == dimension(rs, hw), (label, hw)


def test_tensor_examples():
    out = tensor_decompose(A1, qv(2), qv(2))
    assert {w.parts[0][0]: m for w, m in out.terms} == {0: 1, 2: 1, 4: 1}
    out = tensor_decompose(C2, qv(1, 0), qv(0, 0))
    assert out.as_dict() == {make_weight(group("C2"), ((1, 0),)): 1}


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 8), m=st.integers(0, 8), t=st.integers(0, 4))
def test_su2_string_range(n, m, t):
    # V_{n+2} (x) V_{n-m-2t} runs from m+2t+2 to 2n-m-2t+2 in steps of 2.
    if n - m - 2 * t < 0:
        return
    out = tensor_decompose(A1, qv(n + 2), qv(n - m - 2 * t))
    got = sorted(int(w.parts[0][0]) for w, _ in out.terms)
    assert got == list(range(m + 2 * t + 2, 2 * n - m - 2 * t + 3, 2))
    assert all(mult == 1 for _, mult in out.terms)
    assert got == su2_tensor(n + 2, n - m - 2 * t)


@settings(max_examples=30, deadline=None)
@given(
    x1=st.integers(0, 3),
    y1=st.integers(0, 3),
    x2=st.integers(0, 3),
    y2=st.integers(0, 3),
)
def test_tensor_symmetric_and_dimension_conserving(x1, y1, x2, y2):
    a = (Q(max(x1, y1)), Q(min(x1, y1)))
    b = (Q(max(x2, y2)), Q(min(x2, y2)))
    left = tensor_decompose(C2, a, b)
    right = tensor_decompose(C2, b, a)
    assert left.terms == right.terms
    assert left.total_dimension() == dimension(C2, a) * dimension(C2, b)


def test_tensor_associativity_on_a1():
    v1 = qv(1)
    first = tensor_decompose(A1, v1, v1)
    acc1: dict = {}
    for w, m in first.terms:
        for w2, m2 in tensor_decompose(A1, w.parts[0], v1).terms:
            acc1[w2] = acc1.get(w2, 0) + m * m2
    # right association gives the same totals
    acc2: dict = {}
    for w, m in tensor_decompose(A1, v1, v1).terms:
        for w2, m2 in tensor_decompose(A1, v1, w.parts[0]).terms:
            acc2[w2] = acc2.get(w2, 0) + m * m2
    assert acc1 == acc2


def test_infinitesimal_character_examples():
    for n in range(0, 6, 2):
        for b in range(-n, n + 1, 2):
            ic = infinitesimal_character(
                D4, (Q(n, 2), Q(n, 2), Q(n, 2), Q(b, 2))
            )
            assert ic.rep == (
                Q(n, 2) + 3,
                Q(n, 2) + 2,
                Q(n, 2) + 1,
                Q(b, 2),
            )
    assert infinitesimal_character(D4, qv(0, 0, 0, 0)).rep == qv(3, 2, 1, 0)
    assert infinitesimal_character(A1, qv(0)).rep == qv(1)


def test_weight_dimension_products():
    gs = group("C2", "A1")
    w = make_weight(gs, ((1, 1), (2,)))
    assert weight_dimension(gs, w) == 15


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: FormalCharacter.from_dict(group("A1"), {make_weight(group("A1"), ((1,),)): -1}),
            ValueError,
            "formal characters carry non-negative multiplicities",
        ),
        (lambda: su2_tensor(-1, 0), NonDominantError, "negative A1 weight"),
        (lambda: freudenthal_total(C2, qv(0, 1)), NonDominantError, "(0,1) is not dominant for C2"),
    ],
    ids=["from_dict-negative", "su2_tensor-negative", "freudenthal_total-non-dominant"],
)
def test_input_checks_raise_with_a_message(call, error, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
