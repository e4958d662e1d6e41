"""Integer keys on the graded path, against the ``Fraction`` bodies they replaced.

The closed forms ``branch_so5_to_so3so2`` and
``branch_su6_omega3_to_sp2su2u1`` run on integer cores, and
``dualpair_graded`` sums, sorts and dedupes ``IntKey``s (doubled flat sort
keys).  The ``Fraction``-keyed bodies below are the earlier implementations,
kept as references.  An ``int`` where a ``Fraction`` belongs hashes and
compares equal to it, so every comparison also checks coordinate types.
"""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liedual.charalg as charalg
from liedual.branching import (
    RULES,
    branch_so5_to_so3so2,
    branch_sp2_to_su2su2,
    branch_su6_omega3_to_sp2su2u1,
)
from liedual.charalg import FormalCharacter, su2_tensor
from liedual.lattice import (
    InvalidWeightError,
    Weight,
    doubled,
    group,
    make_weight,
)
from liedual.minrep import DUALPAIR_CASES, dualpair_graded


# --------------------------------------------------------------------------
# Fraction references.


def _fraction_so5_to_so3so2(a, b) -> FormalCharacter:
    def so2_product(p_values, q_values):
        out = {}
        for u in p_values:
            for v in q_values:
                out[u + v] = out.get(u + v, 0) + 1
        return out

    def chi_interval(n, step):
        values = []
        v = n
        while v >= -n:
            values.append(v)
            v -= step
        return values

    a, b = Q(a), Q(b)
    gs = group("A1", circles=1)
    terms = {}
    c = a % 1
    while c <= a:
        if c >= b:
            charges = so2_product(chi_interval(b, 1), chi_interval(a - c, 2))
        else:
            charges = so2_product(chi_interval(c, 1), chi_interval(a - b, 2))
        for k, mult in charges.items():
            w = make_weight(gs, ((2 * c,),), (k,))
            terms[w] = terms.get(w, 0) + mult
        c += 1
    return FormalCharacter.from_dict(gs, terms)


def _fraction_su6_omega3_to_sp2su2u1(n, m) -> FormalCharacter:
    gs = group("C2", "A1", circles=1)
    mm = abs(m)
    terms = {}
    if mm > n:
        return FormalCharacter.from_dict(gs, terms)
    t = 0
    while n - mm - 2 * t >= 0:
        z = n - mm - 2 * t
        for s in range(2 * t + mm, 2 * n - 2 * t - mm + 1, 2):
            for d in range(mm, min(mm + 2 * t, s) + 1, 2):
                x, y = (s + d) // 2, (s - d) // 2
                terms[make_weight(gs, ((x, y), (z,)), (m,))] = 1
        t += 1
    return FormalCharacter.from_dict(gs, terms)


def _fraction_dualpair_levels(case: str, top: int) -> dict[int, FormalCharacter]:
    """``Weight``-keyed running sums, on the reference closed forms."""
    levels = {}
    if case == "splitJ-splitE":
        gs = group("A1", "A1", "A1", "A1")
        data = {}
        for n in range(top + 1):
            for y in range(n + 1):
                pairs = [(w.parts[0][0], w.parts[1][0]) for w, _ in branch_sp2_to_su2su2(n, y).terms]
                for a, b in pairs:
                    for c, d in pairs:
                        w = Weight(((Q(a),), (Q(b),), (Q(c),), (Q(d),)))
                        data[w] = data.get(w, 0) + 1
            levels[n] = FormalCharacter.from_dict(gs, data)
    elif case == "splitJ-mixedE":
        gs = group("C2", "A1", circles=1)
        data = {}
        for n in range(top + 1):
            for y in range(n + 1):
                for w0, mult in _fraction_so5_to_so3so2(Q(n + y, 2), Q(n - y, 2)).terms:
                    z, m = int(w0.parts[0][0]), int(2 * w0.charges[0])
                    w = make_weight(gs, ((n, y), (z,)), (m,))
                    data[w] = data.get(w, 0) + mult
            levels[n] = FormalCharacter.from_dict(gs, data)
    elif case == "hermJ-mixedE":
        gs = group("C2", "A1", circles=1)
        for n in range(top + 1):
            data = {}
            for m in range(-n, n + 1):
                for w0, mult in _fraction_su6_omega3_to_sp2su2u1(n, m).terms:
                    x, y = int(w0.parts[0][0]), int(w0.parts[0][1])
                    for z in su2_tensor(n + 2, int(w0.parts[1][0])):
                        w = make_weight(gs, ((x, y), (z,)), (m,))
                        data[w] = data.get(w, 0) + mult
            levels[n] = FormalCharacter.from_dict(gs, data)
    else:
        gs = group("D4", circles=3)
        for n in range(top + 1):
            h = Q(n, 2)
            data = {}
            for b in range(-n, n + 1, 2):
                charges = (n + 4, Q(-(b + n), 2) - 2, Q(b - n, 2) - 2)
                data[make_weight(gs, ((h, h, h, Q(b, 2)),), charges)] = 1
            levels[n] = FormalCharacter.from_dict(gs, data)
    return levels


def _assert_same_fraction_terms(got: FormalCharacter, want: FormalCharacter, label):
    assert got == want, label
    for w, _ in got.terms:
        coords = [x for part in w.parts for x in part] + list(w.charges)
        assert all(type(x) is Q for x in coords), (label, w)


# --------------------------------------------------------------------------
# The integer paths against the references.


def test_so5_core_matches_fraction_reference():
    for a, b in RULES["so5_to_so3so2"].grid(8):
        want = _fraction_so5_to_so3so2(a, b)
        _assert_same_fraction_terms(branch_so5_to_so3so2(a, b), want, (a, b))


def test_su6_omega3_core_matches_fraction_reference():
    gs = group("C2", "A1", circles=1)
    for (n,) in RULES["su6_omega3"].grid(8):
        every = {}
        for m in range(-n - 1, n + 2):
            want = _fraction_su6_omega3_to_sp2su2u1(n, m)
            _assert_same_fraction_terms(branch_su6_omega3_to_sp2su2u1(n, m), want, (n, m))
            every.update(want.as_dict())
        # the rule's closed form, all charges of level n at once
        want = FormalCharacter.from_dict(gs, every)
        _assert_same_fraction_terms(RULES["su6_omega3"].closed(n), want, n)


@pytest.mark.parametrize("case", DUALPAIR_CASES)
def test_dualpair_levels_match_fraction_reference(case):
    top = 24 if case == "e62-spin8" else 12
    graded = dualpair_graded(case, top)
    reference = _fraction_dualpair_levels(case, top)
    assert sorted(graded.levels) == sorted(reference) == list(range(top + 1))
    for n in range(top + 1):
        _assert_same_fraction_terms(graded.levels[n], reference[n], (case, n))


# --------------------------------------------------------------------------
# FormalCharacter.from_int_keys.


_KEY_GROUPS = {
    "A1^4": group("A1", "A1", "A1", "A1"),
    "C2xA1xU1": group("C2", "A1", circles=1),
    "D4xU1^3": group("D4", circles=3),
}

_HALVES = st.integers(-12, 12).map(lambda k: Q(k, 2))


def _any_weights(gs):
    """Weights of the shape of ``gs`` with arbitrary half-integer entries."""
    parts = st.tuples(*(st.tuples(*[_HALVES] * rs.ambient_dim) for rs in gs.factors))
    return st.builds(Weight, parts, st.tuples(*[_HALVES] * gs.circles))


def _lattice_weights(gs):
    """Weights of ``gs``: integral A/C parts, D parts all integral or all
    half-integral, half-integral charges allowed."""

    def vectors(rs):
        ints = st.tuples(*[st.integers(-6, 6)] * rs.ambient_dim)
        shift = st.sampled_from([Q(0), Q(1, 2)] if rs.series == "D" else [Q(0)])
        return st.builds(lambda v, s: tuple(x + s for x in v), ints, shift)

    parts = st.tuples(*(vectors(rs) for rs in gs.factors))
    return st.builds(lambda p, c: make_weight(gs, p, c), parts, st.tuples(*[_HALVES] * gs.circles))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(_KEY_GROUPS)))
def test_int_keys_sort_like_sort_key(data, name):
    ws = data.draw(st.lists(_any_weights(_KEY_GROUPS[name]), max_size=12))
    by_int_key = sorted(ws, key=lambda w: doubled(w.sort_key()))
    assert by_int_key == sorted(ws, key=Weight.sort_key)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(_KEY_GROUPS)))
def test_from_int_keys_equals_from_dict(data, name):
    gs = _KEY_GROUPS[name]
    mults = data.draw(st.dictionaries(_lattice_weights(gs), st.integers(0, 3), max_size=10))
    keyed = {doubled(w.sort_key()): m for w, m in mults.items()}
    want = FormalCharacter.from_dict(gs, mults)
    _assert_same_fraction_terms(FormalCharacter.from_int_keys(gs, keyed), want, name)


def test_from_int_keys_rejects_bad_keys():
    a5 = group("A5")
    with pytest.raises(InvalidWeightError, match="canonical"):
        FormalCharacter.from_int_keys(a5, {(4, 4, 4, 2, 2, 2): 1})  # not A5-normalized
    with pytest.raises(InvalidWeightError, match="flat key"):
        FormalCharacter.from_int_keys(group("C2", circles=1), {(2, 0): 1})
    with pytest.raises(InvalidWeightError):
        FormalCharacter.from_int_keys(group("C2"), {(1, 1): 1})  # (1/2, 1/2)
    with pytest.raises(ValueError, match="non-negative"):
        FormalCharacter.from_int_keys(group("A1"), {(2,): -1})


def test_graded_levels_validate_each_distinct_term_once(monkeypatch):
    calls = []

    def counting(gs, parts, charges=()):
        calls.append(1)
        return make_weight(gs, parts, charges)

    monkeypatch.setattr(charalg, "make_weight", counting)
    graded = dualpair_graded("splitJ-mixedE", 5)
    distinct = {w for char in graded.levels.values() for w, _ in char.terms}
    assert len(calls) == len(distinct)
    # a term of level 4 is the very Weight of level 5
    level5 = {w: w for w, _ in graded.levels[5].terms}
    assert all(level5[w] is w for w, _ in graded.levels[4].terms)
