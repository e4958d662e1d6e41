"""Integer keys inside the package, against the ``Fraction`` bodies they replaced.

Every closed form, ``minrep_levels``, ``tensor_decompose`` and
``dualpair_graded`` build ``IntKey``s (doubled flat sort keys) for
``FormalCharacter.from_int_keys``.  The ``Fraction``-keyed bodies below are
the earlier implementations, kept as references.  An ``int`` where a
``Fraction`` belongs hashes and compares equal to it, so every comparison
also checks coordinate types.
"""

import itertools
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liedual.charalg as charalg
import liedual.lattice as lattice
import liedual.minrep as minrep
from liedual.rules import (
    RULES,
    _sp2_to_su2su2_core,
    branch_so5_to_so3so2,
    branch_sp2_to_su2su2,
    branch_sp4_to_sp2sp2,
    branch_spin10_halfspin_to_spin8u1,
    branch_su6_omega3_to_sp2su2u1,
    branch_su6_omega3_to_sp3,
    su2su2_coefficient,
)
from liedual.charalg import (
    FormalCharacter,
    su2_tensor,
    tensor_decompose,
    weight_multiplicities,
)
from liedual.lattice import (
    SUPPORTED_TYPES,
    GroupSpec,
    InvalidWeightError,
    Weight,
    build_root_system,
    dominant_conjugate,
    doubled,
    format_weight,
    group,
    halved,
    key_weight,
    key_weights,
    make_weight,
    normalize_vector,
    vadd,
    vsub,
    weight_key,
)
from liedual.minrep import (
    DUALPAIR_CASES,
    MINREP_CASES,
    _su2su2_terms,
    dualpair_graded,
    minrep_levels,
)


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


def _fraction_sp4_to_sp2sp2(n) -> FormalCharacter:
    gs = group("C2", "C2")
    terms = {}
    for x in range(n + 1):
        for y in range(x + 1):
            w = make_weight(gs, ((x, y), (x, y)))
            terms[w] = 1
    return FormalCharacter.from_dict(gs, terms)


def _fraction_sp2_to_su2su2(x, y) -> FormalCharacter:
    gs = group("A1", "A1")
    terms = {}
    for a in range(x + y + 1):
        for b in range(x + y + 1):
            if (a + b) % 2 != (x + y) % 2:
                continue
            if abs(a - b) <= x - y <= a + b <= x + y:
                terms[make_weight(gs, ((a,), (b,)))] = 1
    return FormalCharacter.from_dict(gs, terms)


def _fraction_su2su2_terms(x, y):
    return tuple(
        (int(w.parts[0][0]), int(w.parts[1][0])) for w, _ in _fraction_sp2_to_su2su2(x, y).terms
    )


def _fraction_spin10_halfspin_to_spin8u1(n) -> FormalCharacter:
    gs = group("D4", circles=1)
    terms = {}
    for b in range(-n, n + 1, 2):
        w = make_weight(gs, ((Q(n, 2), Q(n, 2), Q(n, 2), Q(b, 2)),), (b,))
        terms[w] = 1
    return FormalCharacter.from_dict(gs, terms)


def _fraction_su6_omega3_to_sp3(n):
    gs = group("C3")
    terms = {}
    signs = {}
    for m in range(n + 1):
        w = make_weight(gs, ((n, m, m),))
        terms[w] = 1
        signs[w] = (-1) ** (n - m)
    return FormalCharacter.from_dict(gs, terms), signs


def _fraction_minrep_levels(case, truncation) -> dict[int, FormalCharacter]:
    levels = {}
    if case == "split-E6":
        gs = group("C4")
        for n in range(truncation + 1):
            w = make_weight(gs, ((n, n, n, n),))
            levels[n] = FormalCharacter.from_dict(gs, {w: 1})
    elif case == "hermitian-E6":
        gs = group("A1", "A5")
        for n in range(truncation + 1):
            w = make_weight(gs, ((n + 2,), (n, n, n, 0, 0, 0)))
            levels[n] = FormalCharacter.from_dict(gs, {w: 1})
    else:
        gs = group("D5", circles=1)
        for n in range(truncation + 1):
            h = Q(n, 2)
            w = make_weight(gs, ((h, h, h, h, h),), (n + 4,))
            levels[n] = FormalCharacter.from_dict(gs, {w: 1})
    return levels


def _fraction_tensor_decompose(rs, hw1, hw2) -> FormalCharacter:
    """Racah-Speiser on ``Fraction`` weights: each weight mu of V_hw2 adds
    sign * mult at the dominant conjugate of hw1 + mu + rho, minus rho."""
    rho = rs.weyl_vector
    terms = {}
    for mu, mult in weight_multiplicities(rs, hw2).support.items():
        d, sign = dominant_conjugate(rs, vadd(vadd(hw1, mu), rho))
        if sign:
            w = Weight((normalize_vector(rs, vsub(d, rho)),))
            terms[w] = terms.get(w, 0) + sign * mult
    return FormalCharacter.from_dict(GroupSpec((rs,)), terms)


def _fraction_dualpair_levels(case: str, top: int) -> dict[int, FormalCharacter]:
    """``Weight``-keyed running sums, on the reference closed forms."""
    levels = {}
    if case == "splitJ-splitE":
        gs = group("A1", "A1", "A1", "A1")
        data = {}
        for n in range(top + 1):
            for y in range(n + 1):
                pairs = _fraction_su2su2_terms(n, y)
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


def test_sp4_to_sp2sp2_matches_fraction_reference():
    for (n,) in RULES["sp4_to_sp2sp2"].grid(8):
        _assert_same_fraction_terms(branch_sp4_to_sp2sp2(n), _fraction_sp4_to_sp2sp2(n), n)


def test_sp2_to_su2su2_matches_fraction_reference():
    for x, y in RULES["sp2_to_su2su2"].grid(8):
        want = _fraction_sp2_to_su2su2(x, y)
        _assert_same_fraction_terms(branch_sp2_to_su2su2(x, y), want, (x, y))
        # the graded split-split levels read the same pairs as ints
        assert _su2su2_terms(x, y) == _fraction_su2su2_terms(x, y), (x, y)


def test_sp2_core_enumerates_what_the_coefficient_accepts():
    # The core generates each a's run of b from the inequalities; the
    # reference filters every (a, b) of the square through the coefficient.
    for x in range(20):
        for y in range(x + 1):
            square = itertools.product(range(x + y + 1), repeat=2)
            want = tuple(ab for ab in square if su2su2_coefficient(x, y, *ab))
            assert _sp2_to_su2su2_core(x, y) == want, (x, y)


def test_spin10_halfspin_matches_fraction_reference():
    for (n,) in RULES["spin10_halfspin"].grid(8):
        want = _fraction_spin10_halfspin_to_spin8u1(n)
        _assert_same_fraction_terms(branch_spin10_halfspin_to_spin8u1(n), want, n)


def test_su6_omega3_to_sp3_matches_fraction_reference():
    for (n,) in RULES["su6_omega3_to_sp3"].grid(8):
        want, want_signs = _fraction_su6_omega3_to_sp3(n)
        signed = branch_su6_omega3_to_sp3(n)
        _assert_same_fraction_terms(signed.character, want, n)
        assert dict(signed.signs) == want_signs, n
        # the signs are keyed by the character's own Weights
        assert all(a is b for a, (b, _) in zip(signed.signs, signed.character.terms)), n


@pytest.mark.parametrize("case", MINREP_CASES)
def test_minrep_levels_match_fraction_reference(case):
    graded = minrep_levels(case, 8)
    reference = _fraction_minrep_levels(case, 8)
    assert sorted(graded.levels) == sorted(reference) == list(range(9))
    for n in range(9):
        _assert_same_fraction_terms(graded.levels[n], reference[n], (case, n))


_TENSOR_CASES = {
    "A1": [((a,), (b,)) for a in range(5) for b in range(5)],
    "A5": [
        ((1, 0, 0, 0, 0, 0), (1, 1, 1, 0, 0, 0)),
        ((2, 1, 0, 0, 0, 0), (1, 1, 1, 0, 0, 0)),
        ((1, 1, 1, 0, 0, 0), (1, 1, 1, 0, 0, 0)),
    ],
    "B2": [((Q(1, 2), Q(1, 2)), (1, 0)), ((Q(3, 2), Q(1, 2)), (Q(1, 2), Q(1, 2))), ((1, 1), (2, 1))],
    "C2": [((x, y), (1, 1)) for x in range(3) for y in range(x + 1)],
    "C3": [((2, 1, 0), (1, 1, 1)), ((1, 1, 0), (1, 0, 0))],
    "D4": [
        ((Q(1, 2),) * 4, (Q(1, 2),) * 4),
        ((Q(1, 2),) * 3 + (Q(-1, 2),), (1, 0, 0, 0)),
        ((1, 1, 0, 0), (Q(1, 2),) * 4),
    ],
}


@pytest.mark.parametrize("label", sorted(_TENSOR_CASES))
def test_tensor_decompose_matches_fraction_reference(label):
    rs = build_root_system(label)
    for hw1, hw2 in _TENSOR_CASES[label]:
        hw1, hw2 = tuple(map(Q, hw1)), tuple(map(Q, hw2))
        want = _fraction_tensor_decompose(rs, hw1, hw2)
        _assert_same_fraction_terms(tensor_decompose(rs, hw1, hw2), want, (hw1, hw2))


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
    keys = []

    def counting(gs, batch):
        keys.extend(batch)
        return lattice.key_weights(gs, batch)

    monkeypatch.setattr(charalg, "key_weights", counting)
    graded = dualpair_graded("splitJ-mixedE", 5)
    distinct = {w for char in graded.levels.values() for w, _ in char.terms}
    assert len(keys) == len(set(keys)) == len(distinct)
    # a term of level 4 is the very Weight of level 5
    level5 = {w: w for w, _ in graded.levels[5].terms}
    assert all(level5[w] is w for w, _ in graded.levels[4].terms)


# The truncations of the graded-series benchmark.
_BENCH_TRUNCATIONS = {"splitJ-splitE": 12, "splitJ-mixedE": 14, "hermJ-mixedE": 14, "e62-spin8": 24}


# Every graded case: the benchmark's four at its truncations, and the three
# minimal representations.
_TRUNCATIONS = {**_BENCH_TRUNCATIONS, **dict.fromkeys(MINREP_CASES, 12)}


@pytest.mark.parametrize("case", sorted(_TRUNCATIONS))
def test_graded_levels_share_pairs_and_keep_values(case):
    # Each level, built from its own block against level n-1 (a running
    # case) or against nothing, equals a from-scratch build of all its keys
    # with no shared memo; a term whose multiplicity is unchanged from level
    # n-1 is that level's very (Weight, multiplicity) pair, and a changed
    # one a new pair around the same Weight.  At these truncations every
    # case then holds one pair object per distinct term value, and one
    # charge tuple per distinct tail.
    top = _TRUNCATIONS[case]
    graded = (dualpair_graded if case in DUALPAIR_CASES else minrep_levels)(case, top)
    gs, add_level, running = minrep._LEVELS[case][:3]
    data = {}
    previous = {}
    shared = 0
    for n in range(top + 1):
        if not running:
            data = {}
        add_level(data, n)
        level = graded.levels[n]
        assert level == FormalCharacter.from_int_keys(gs, data), (case, n)
        for pair in level.terms:
            old = previous.get(pair[0])
            if old is None:
                continue
            assert old[0] is pair[0]
            if old[1] == pair[1]:
                assert old is pair, (case, n, format_weight(pair[0]))
                shared += 1
        previous = {pair[0]: pair for pair in level.terms}
    pairs = [pair for level in graded.levels.values() for pair in level.terms]
    assert len({id(pair) for pair in pairs}) == len(set(pairs))
    charges = [w.charges for w, _ in pairs]
    assert len({id(c) for c in charges}) == len(set(charges))
    if case == "splitJ-mixedE":  # a type keeps its multiplicity once it appears
        assert shared == len(pairs) - len(set(pairs)) > 0


_C2A1U1_KEYS = [(2 * x, 2 * y, 2 * z, m) for x in range(3) for y in range(x + 1) for z in range(2) for m in (-1, 2)]


@settings(max_examples=60, deadline=None)
@given(
    steps=st.lists(
        st.tuples(
            st.booleans(),
            st.dictionaries(st.sampled_from(_C2A1U1_KEYS), st.integers(-2, 3), max_size=8),
        ),
        max_size=6,
    )
)
def test_deltas_through_a_memo_equal_from_scratch_builds(steps):
    # Each step applies a delta to the last character built through one memo,
    # or, with ``restart``, to nothing; a delta never takes a total below 0,
    # so some steps drop terms.  The result must equal a from-scratch build
    # of the summed multiplicities and keep each unchanged pair of the last
    # character; a delta that would take a term below 0 is refused and
    # leaves the memo as it was.
    gs = _KEY_GROUPS["C2xA1xU1"]
    memo = charalg.TermMemo()
    total: dict = {}
    last: dict = {}
    for restart, delta in steps:
        if restart:
            memo.keys = []
            total = {}
        delta = {k: max(d, -total.get(k, 0)) for k, d in delta.items()}
        got = FormalCharacter.from_int_keys(gs, delta, memo)
        for k, d in delta.items():
            total[k] = total.get(k, 0) + d
        total = {k: m for k, m in total.items() if m}
        assert got == FormalCharacter.from_int_keys(gs, total)
        assert memo.keys == sorted(total)
        for pair in got.terms:
            old = last.get(pair[0])
            if old is not None and old[1] == pair[1]:
                assert old is pair
        last = {pair[0]: pair for pair in got.terms}
        if total:
            k = min(total)
            with pytest.raises(ValueError, match="non-negative"):
                FormalCharacter.from_int_keys(gs, {k: -total[k] - 1}, memo)


# --------------------------------------------------------------------------
# lattice.key_weights against make_weight.


_DEFECTS = ("none", "parity", "short", "long", "shift")


@st.composite
def _flat_keys(draw, label, defects=_DEFECTS):
    """A group of ``label``, maybe one more factor, and 0..2 circles, with a
    flat doubled key for it: canonical A parts, B and D parts all even or
    all odd, other parts even; then maybe one of ``defects``: an entry's
    parity flipped, the length off by one, or every A part moved off its
    canonical form."""
    more = draw(st.lists(st.sampled_from(SUPPORTED_TYPES), max_size=1))
    gs = group(label, *more, circles=draw(st.integers(0, 2)))
    key = []
    for rs in gs.factors:
        odd = draw(st.integers(0, 1)) if rs.series in ("B", "D") else 0
        part = [2 * draw(st.integers(-3, 3)) + odd for _ in range(rs.ambient_dim)]
        key += [x - min(part) for x in part] if rs.series == "A" else part
    key += [draw(st.integers(-5, 5)) for _ in range(gs.circles)]
    defect = draw(st.sampled_from(defects))
    if defect == "parity":
        key[draw(st.integers(0, gs.width - 1))] += 1
    elif defect == "short":
        key.pop()
    elif defect == "long":
        key.append(0)
    elif defect == "shift":
        for rs, s in zip(gs.factors, gs.slices):
            if rs.series == "A":
                key[s] = [x + 2 for x in key[s]]
    return gs, tuple(key)


def _make_weight_of_key(gs, key):
    """The ``Weight`` ``make_weight`` reads from the halves of ``key``, which
    must leave it unchanged, or None where either rejects it."""
    flat = halved(key)
    try:
        w = make_weight(gs, (flat[s] for s in gs.slices), flat[gs.width :])
    except InvalidWeightError:
        return None
    return w if w.sort_key() == flat else None


def _verdict(crossing, gs, key):
    """``crossing(gs, key)``, or the message of the ``InvalidWeightError`` it raises."""
    try:
        return crossing(gs, key)
    except InvalidWeightError as exc:
        return str(exc)


@pytest.mark.parametrize("label", SUPPORTED_TYPES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_check_int_key_agrees_with_make_weight(label, data):
    # Each key is asked for twice, so the second answer comes from the
    # cached factor-part verdicts and must be the first one again.
    gs, key = data.draw(_flat_keys(label))
    want = _make_weight_of_key(gs, key)
    for _ in range(2):
        checked = _verdict(_one_key_batch, gs, key)
        built = _verdict(key_weight, gs, key)
        if want is None:
            assert isinstance(checked, str) and built == checked, (gs, key)
        else:
            # The batch and the one-key crossing build make_weight's Weight
            # from the very same shared halves.
            assert checked == [want], (gs, key)
            assert all(a is b for a, b in zip(built.parts, checked[0].parts, strict=True)), (gs, key)
            assert built == want, (gs, key)
            assert all(type(x) is Q for x in built.sort_key()), (gs, key)
            (got, _), = FormalCharacter.from_int_keys(gs, {key: 1}).terms
            assert got == want, (gs, key)


def _one_key_batch(gs, key):
    return key_weights(gs, [key])


@pytest.mark.parametrize(
    "labels, circles, key, message",
    [
        (("C2",), 0, (1, 0), "(1/2,0) is not a C2 weight"),
        (("B2",), 0, (1, 2), "(1/2,1) is not a B2 weight"),
        (("D4",), 1, (1, 1, 1, 1), "(1, 1, 1, 1) is not a flat key of GroupSpec(D4+U1)"),
        (("A5", "C2"), 0, (2, 2, 2, 2, 2, 2, 1, 0), "(1/2,0) is not a C2 weight"),
        (
            ("A5",),
            1,
            (4, 4, 4, 2, 2, 2, 1),
            "(4, 4, 4, 2, 2, 2, 1) is not the canonical key of (2,2,2,1,1,1)@1/2",
        ),
    ],
)
def test_check_int_key_messages(labels, circles, key, message):
    # Twice each: a factor part the cache has seen and rejected raises again.
    gs = group(*labels, circles=circles)
    for crossing in (_one_key_batch, key_weight) * 2:
        with pytest.raises(InvalidWeightError) as info:
            crossing(gs, key)
        assert str(info.value) == message, crossing


_A5C2U1 = group("A5", "C2", circles=1)


@pytest.mark.parametrize(
    "batch, message",
    [
        (
            [(4, 4, 4, 2, 2, 2, 1, 0, 1), (0,) * 9, (2, 2, 2, 0, 0, 0, 2, 0)],
            "(2, 2, 2, 0, 0, 0, 2, 0) is not a flat key of GroupSpec(A5xC2+U1)",
        ),
        (
            [(4, 4, 4, 2, 2, 2, 2, 0, 1), (2, 2, 2, 0, 0, 0, 1, 0, 1), (0,) * 9],
            "(1/2,0) is not a C2 weight",
        ),
        (
            [(6, 6, 6, 6, 6, 6, 1, 0, 0, 0), (4, 4, 4, 2, 2, 2, 2, 0, 1), (0,) * 9],
            "(4, 4, 4, 2, 2, 2, 2, 0, 1) is not the canonical key of (2,2,2,1,1,1)x(1,0)@1/2",
        ),
    ],
    ids=["length", "second-factor-off-lattice", "non-canonical-A"],
)
def test_bad_batch_raises_the_error_of_its_first_bad_key(batch, message):
    # Each batch, given out of order, holds a valid key and bad keys of
    # several faults; the error is that of the first bad key in sorted
    # order, as the one-key crossing of each key in turn raises it.
    first = None
    for key in sorted(batch):
        verdict = _verdict(key_weight, _A5C2U1, key)
        if isinstance(verdict, str):
            first = first or verdict
    assert first == message
    for _ in range(2):
        with pytest.raises(InvalidWeightError) as info:
            key_weights(_A5C2U1, batch)
        assert str(info.value) == message
        with pytest.raises(InvalidWeightError) as info:
            FormalCharacter.from_int_keys(_A5C2U1, dict.fromkeys(batch, 1))
        assert str(info.value) == message


def test_key_weights_share_their_halves():
    a, b = FormalCharacter.from_int_keys(group("C2", "A1"), {(4, 2, 2): 1, (4, 0, 4): 1}).terms
    assert a[0].parts[0][0] is b[0].parts[0][0]  # both 2, one object
    assert lattice._half.cache_info().hits > 0
    # Equal factor parts are one tuple, within a key and across keys.
    gs = group("C2", "C2", circles=1)
    hits = lattice._part.cache_info().hits
    c = key_weight(gs, (4, 2, 4, 2, 1))
    d = key_weight(gs, (4, 2, 0, 0, 3))
    assert c.parts[0] is c.parts[1] is d.parts[0] == (Q(2), Q(1))
    assert lattice._part.cache_info().hits >= hits + 2


# --------------------------------------------------------------------------
# lattice.weight_key and key_weight: the one crossing in and out.


@st.composite
def _weights(draw, label):
    """A group of ``label`` with 0..2 circles, and a weight of it from
    ``make_weight``: B and D parts maybe all half-odd, charges in Z/2."""
    gs = group(label, circles=draw(st.integers(0, 2)))
    rs = gs.factors[0]
    odd = draw(st.integers(0, 1)) if rs.series in ("B", "D") else 0
    part = [Q(2 * draw(st.integers(-3, 3)) + odd, 2) for _ in range(rs.ambient_dim)]
    charges = [Q(draw(st.integers(-5, 5)), 2) for _ in range(gs.circles)]
    return gs, make_weight(gs, (part,), charges)


@pytest.mark.parametrize("label", SUPPORTED_TYPES)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_weight_key_and_key_weight_invert_each_other(label, data):
    gs, w = data.draw(_weights(label))
    back = key_weight(gs, weight_key(gs, w))
    assert back == w and all(type(x) is Q for x in back.sort_key()), (gs, w)
    gs, key = data.draw(_flat_keys(label, ("none",)))
    assert weight_key(gs, key_weight(gs, key)) == key, (gs, key)


_C2A1U1 = group("C2", "A1", circles=1)


@pytest.mark.parametrize(
    "w, spelled",
    [
        (Weight(((Q(1), Q(0)),), (Q(1),)), "(1,0)@1"),
        (Weight(((Q(1), Q(0)), (Q(1),), (Q(0),)), (Q(1),)), "(1,0)x(1)x(0)@1"),
        (Weight(((Q(1), Q(0), Q(0)), (Q(1),)), (Q(1),)), "(1,0,0)x(1)@1"),
        (Weight(((Q(1), Q(0)), (Q(1),)), (Q(1), Q(1, 2))), "(1,0)x(1)@1,1/2"),
        (Weight(((Q(1), Q(0)), (Q(1),))), "(1,0)x(1)"),
        (Weight(((Q(1), Q(0)), (Q(1),)), (Q(1, 3),)), "(1,0)x(1)@1/3"),
    ],
    ids=["missing-part", "extra-part", "part-length", "stray-charge", "missing-charge", "third"],
)
def test_weight_key_names_a_misshapen_weight(w, spelled):
    assert format_weight(w) == spelled
    with pytest.raises(InvalidWeightError) as info:
        weight_key(_C2A1U1, w)
    assert str(info.value) == f"{spelled} is not a weight of GroupSpec(C2xA1+U1)"
