"""Dimension formula, Freudenthal recursion, tensor products, inf. characters."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liedual.charalg import (
    NonDominantError,
    dimension,
    freudenthal_total,
    infinitesimal_character,
    is_weight_of,
    su2_tensor,
    tensor_decompose,
    weight_dimension,
    weight_multiplicities,
)
from liedual.charalg import _dominant_weights
from liedual.lattice import (
    SUPPORTED_TYPES,
    build_root_system,
    dominant_conjugate,
    dot,
    group,
    height,
    make_weight,
    qv,
    reflect,
    root_coordinates,
    vadd,
    vscale,
    vsub,
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


def _fraction_freudenthal(rs, hw):
    """Reference: the Freudenthal recursion in Fraction coordinates, with
    the orbit expansion, as the oracle ran before it moved to integers."""
    rho = rs.weyl_vector
    top = vadd(hw, rho)
    top_norm = dot(top, top)
    mults = {hw: 1}
    for mu in sorted(_dominant_weights(rs, hw), key=lambda v: height(rs, v), reverse=True):
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
    below = vsub(exact, rs.simple_roots[0])
    span = vadd(rs.simple_roots[0], rs.simple_roots[-1])
    coords = root_coordinates(rs, tuple(int(x) for x in span))
    assert coords is not None and coords == root_coordinates(rs, span)
    assert all(isinstance(c, (int, Q)) for c in coords)  # no float halves
    assert dimension(rs, hw) == dimension(rs, exact)
    assert freudenthal_total(rs, hw) == freudenthal_total(rs, exact) == dimension(rs, exact)
    assert weight_multiplicities(rs, hw) == weight_multiplicities(rs, exact)
    for v in (exact, below, tuple(int(x) for x in below)):
        assert is_weight_of(rs, hw, v) == is_weight_of(rs, exact, v)
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


def test_orbit_size_consistent_with_multiplicity_totals():
    support = weight_multiplicities(C2, qv(2, 0)).support
    # each dominant weight contributes multiplicity x orbit size
    total = 0
    seen = set()
    for v in support:
        from liedual.lattice import dominant_conjugate

        d, _ = dominant_conjugate(C2, v)
        if d in seen:
            continue
        seen.add(d)
        total += support[d] * weyl_orbit_size(C2, d)
    assert total == dimension(C2, qv(2, 0))


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


def test_is_weight_of():
    assert is_weight_of(C2, qv(1, 1), qv(0, 0))
    assert is_weight_of(C2, qv(1, 1), qv(-1, 1))
    assert not is_weight_of(C2, qv(1, 1), qv(1, 0))
    assert not is_weight_of(C2, qv(1, 1), qv(2, 2))


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
