"""Graded compact-type models of the minimal representations.

Three graded models (one per real form) and four dual-pair restrictions,
with charge gradings, order-two sign gradings, first-appearance witnesses,
and the eventually-linear-growth verifier for multiplicity series.

Level characters are assembled from the closed-form branching rules, which
keeps every level cheap; the rules themselves are certified against the
generic restriction oracle elsewhere.  One ``_LEVELS`` entry per case holds
its group, level builder, signed terms and series kind, read by one level
loop and one sign reader, ``_level_sign``; only the splitJ-mixedE
first-appearance sign, (-1)^(x/2), is not the level sign.

``TYPE_GROUPS`` holds the series cases' type groups, for ``cli`` and
``theta`` too.  ``_type_key``, the one K-type reader, runs once per public
call.  A splitJ-splitE series accumulates one block per level, and
``_key_multiplicity`` reads the same accumulation.
``sign_first_appearance`` reads first appearance through
``_key_multiplicity``; ``verify_series`` serves criteria 5 and 7 alike.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Sequence

from .rules import (
    _so5_to_so3so2_core,
    _sp2_to_su2su2_core,
    _su6_omega3_to_sp2su2u1_core,
    su2su2_coefficient,
)
from .charalg import FormalCharacter, IntKey, TermMemo, su2_tensor, weight_dimension
from .lattice import GroupSpec, InvariantError, Weight, format_weight, group, weight_key

MINREP_CASES = ("split-E6", "hermitian-E6", "e62-compact")
DUALPAIR_CASES = ("splitJ-splitE", "splitJ-mixedE", "hermJ-mixedE", "e62-spin8")


class NotCoveredError(ValueError):
    """Sign bookkeeping requested outside the implemented family."""


class InvalidTypeError(ValueError):
    """The given weight is not a type of the case's compact group."""


class OddParityWarning(UserWarning):
    """Diagonal-invariant count requested for an odd-sum four-tuple."""


class GradedCharacter(NamedTuple):
    """Level-indexed formal characters, signed by the rule of their case."""

    case: str
    group: GroupSpec
    levels: Mapping[int, FormalCharacter]

    def sign_of(self, n: int, w: Weight) -> int:
        """(-1)^n, or ``NotCoveredError`` off the levels or for an unsigned type.

        ``w`` is not checked to be a term of level ``n``: that scans the level.
        """
        sign = _level_sign(self.case, n, w) if n in self.levels else None
        if sign is None:
            raise NotCoveredError(
                f"no sign grading for level {n} term {format_weight(w)} in case {self.case}"
            )
        return sign


def minrep_levels(case: str, truncation: int) -> GradedCharacter:
    """Graded compact-type decomposition of one minimal representation.

    split-E6: level n is the n-th fourth-fundamental type of Sp(4), and the
    order-two symmetry acts by (-1)^n.  hermitian-E6: level n is
    V_{n+2} (x) (n-th third-fundamental type of SU(6)).  e62-compact:
    level n is the n-th half-spin type of Spin(10) with circle charge n+4.
    """
    if case not in MINREP_CASES:
        raise KeyError(f"unknown case {case!r}")
    return _graded(case, truncation)


@functools.lru_cache(maxsize=None)
def _su2su2_terms(x: int, y: int) -> tuple[tuple[int, int], ...]:
    """The (a, b) of V_a (x) V_b in V_(x,y) under SU2 x SU2, sorted."""
    return _sp2_to_su2su2_core(x, y)


@functools.lru_cache(maxsize=None)
def sp1so2_coefficients(x: int, y: int) -> Mapping[tuple[int, int], int]:
    """Restriction of V_(x,y) to Sp(1) x SO2 with integer circle charges.

    Charges here are twice the SO(5)-natural half-integer charges, so the
    circle's character lattice is identified with Z.  Read-only: the
    mapping is cached.
    """
    # V_(x,y) of Sp(2) is the SO(5) irreducible ((x+y)/2, (x-y)/2): doubled,
    # (x+y, x-y).  The core's (2c, 2k) are the SU2 weight and integer charge.
    return MappingProxyType(_so5_to_so3so2_core(x + y, x - y))


@functools.lru_cache(maxsize=None)
def _hermJ_level(n: int, m: int) -> Mapping[tuple[tuple[int, int], int], int]:
    """Charge-m block of level n for the quasi-split hermitian dual pair.

    Tensor of the SU2 content of the charge-m block of the n-th
    third-fundamental type with the outer V_{n+2} factor.  Read-only: the
    mapping is cached.
    """
    out: dict[tuple[tuple[int, int], int], int] = {}
    for x, y, inner in _su6_omega3_to_sp2su2u1_core(n, m):
        for z in su2_tensor(n + 2, inner):
            key = ((x, y), z)
            out[key] = out.get(key, 0) + 1
    return MappingProxyType(out)


def quasisplit_level_multiplicity(x: int, y: int, z: int, m: int, n: int) -> int:
    """Multiplicity of V_(x,y) (x) V_z at circle charge m in level n."""
    if n < 0:
        return 0
    return _hermJ_level(n, m).get(((x, y), z), 0)


def _split_E6(data: dict[IntKey, int], n: int) -> None:
    data[(2 * n,) * 4] = 1


def _hermitian_E6(data: dict[IntKey, int], n: int) -> None:
    data[(2 * n + 4,) + (2 * n,) * 3 + (0,) * 3] = 1


def _e62_compact(data: dict[IntKey, int], n: int) -> None:
    data[(n,) * 5 + (2 * n + 8,)] = 1


def _splitJ_splitE(data: dict[IntKey, int], n: int) -> None:
    for y in range(n + 1):
        pairs = [(2 * a, 2 * b) for a, b in _su2su2_terms(n, y)]
        for left in pairs:
            for right in pairs:
                key = left + right
                data[key] = data.get(key, 0) + 1


def _splitJ_mixedE(data: dict[IntKey, int], n: int) -> None:
    # sp1so2_coefficients(n, y), read from the core: the level build leaves
    # that cache to the per-type queries.
    for y in range(n + 1):
        for (z, m), mult in _so5_to_so3so2_core(n + y, n - y).items():
            key = (2 * n, 2 * y, 2 * z, 2 * m)
            data[key] = data.get(key, 0) + mult


def _hermJ_mixedE(data: dict[IntKey, int], n: int) -> None:
    # The _hermJ_level(n, m) blocks, read from the core, as _key_multiplicity
    # reads them: the level build leaves that cache to the per-charge queries.
    for m in range(-n, n + 1):
        for x, y, inner in _su6_omega3_to_sp2su2u1_core(n, m):
            for z in su2_tensor(n + 2, inner):
                key = (2 * x, 2 * y, 2 * z, 2 * m)
                data[key] = data.get(key, 0) + 1


def _e62_spin8(data: dict[IntKey, int], n: int) -> None:
    """V_(n/2,n/2,n/2,b/2) against the torus character
    chi(n+4, -(b+n)/2-2, (b-n)/2-2), for b = -n, -n+2, .., n."""
    for b in range(-n, n + 1, 2):
        data[(n, n, n, b, 2 * n + 8, -(b + n) - 4, b - n - 4)] = 1


# case: (group, the function adding level n's block of IntKey terms to a
# dict in place, whether a level is a running sum whose block updates level
# n-1, the factors whose part is zero in a term that carries the order-two
# sign (-1)^n or None if none does, how a series case stabilizes or None)
_LEVELS: dict[str, tuple[GroupSpec, Callable[[dict[IntKey, int], int], None], bool,
                         tuple[int, ...] | None, str | None]] = {
    "split-E6": (group("C4"), _split_E6, False, (), None),
    "hermitian-E6": (group("A1", "A5"), _hermitian_E6, False, None, None),
    "e62-compact": (group("D5", circles=1), _e62_compact, False, None, None),
    "splitJ-splitE": (group("A1", "A1", "A1", "A1"), _splitJ_splitE, True, (), "increment"),
    "splitJ-mixedE": (group("C2", "A1", circles=1), _splitJ_mixedE, True, (), "value"),
    "hermJ-mixedE": (group("C2", "A1", circles=1), _hermJ_mixedE, False, (0,), "value"),
    "e62-spin8": (group("D4", circles=3), _e62_spin8, False, None, None),
}


def _level_sign(case: str, n: int, w: Weight) -> int | None:
    """The order-two sign (-1)^n of level n's term (or type) ``w``, or None
    if its case does not sign it.  ``w`` is not checked to be in level n."""
    zero = _LEVELS[case][3]
    return None if zero is None or any(any(w.parts[f]) for f in zero) else (-1) ** n


def _graded(case: str, truncation: int) -> GradedCharacter:
    """Levels 0..truncation of a ``_LEVELS`` case, each built by
    ``FormalCharacter.from_int_keys`` from its own block: a running case's
    block updates level n-1, any other case's stands alone.  One ``Weight``
    per distinct term, and a term whose multiplicity is unchanged from level
    n-1 is that level's very ``(Weight, multiplicity)`` pair."""
    if truncation < 0:
        raise ValueError("truncation must be non-negative")
    gs, add_level, running = _LEVELS[case][:3]
    levels: dict[int, FormalCharacter] = {}
    memo = TermMemo()
    for n in range(truncation + 1):
        block: dict[IntKey, int] = {}
        add_level(block, n)
        if not running:
            memo.keys = []
        levels[n] = FormalCharacter.from_int_keys(gs, block, memo)
    return GradedCharacter(case, gs, levels)


def dualpair_graded(case: str, truncation: int) -> GradedCharacter:
    """Level-by-level restriction of a minimal representation to a dual pair.

    splitJ-splitE: types of SU2^4 with sign (-1)^n.  splitJ-mixedE: types of
    Sp(2) x SU2 with an integer circle charge and sign (-1)^n.  In both, level
    n is a running sum: level n-1 plus the blocks of V_(n,y), y <= n.
    hermJ-mixedE: types of Sp(2) x SU2 with circle charge, signed only on
    Sp(2)-trivial terms.  e62-spin8: unsigned Spin(8) types against torus
    characters chi(n+4, -(b+n)/2-2, (b-n)/2-2).

    Levels are assembled from the certified closed forms on integer keys:
    every sum runs over ``IntKey``s (doubled flat sort keys), and each level
    is built by ``FormalCharacter.from_int_keys`` from its own block, which
    in the two running sums updates level n-1 (only the block's keys are
    summed and sorted, and merged into level n-1's order) and otherwise
    stands alone.  One validated ``Weight`` per distinct term, shared by
    every level it is in, comes from one bulk key crossing per level; a term
    whose multiplicity is unchanged from level n-1 is level n-1's very
    ``(Weight, multiplicity)`` pair, so a running sum, whose multiplicities
    never fall, holds one pair per distinct term value.  The build fills
    neither ``_hermJ_level`` nor ``sp1so2_coefficients``.
    """
    if case not in DUALPAIR_CASES:
        raise KeyError(f"unknown case {case!r}")
    return _graded(case, truncation)


# Each series case's type group: its level group without the circle.
TYPE_GROUPS: dict[str, GroupSpec] = {
    case: GroupSpec(gs.factors) for case, (gs, *_, kind) in _LEVELS.items() if kind
}


def _type_key(case: str, ktype: Weight) -> IntKey:
    """The one K-type reader: ``ktype`` keyed by ``lattice.weight_key`` on
    the case's type group (``TYPE_GROUPS``, or the level group for
    e62-spin8) and checked for dominance by ``charalg.weight_dimension``.
    Any fault is an ``InvalidTypeError``."""
    if case not in DUALPAIR_CASES:
        raise KeyError(f"unknown case {case!r}")
    gs = TYPE_GROUPS.get(case, _LEVELS[case][0])
    try:
        key = weight_key(gs, ktype)
        weight_dimension(gs, ktype)
    except ValueError as exc:
        raise InvalidTypeError(str(exc)) from None
    return key


def _ints(key: IntKey) -> tuple[int, ...]:
    """The coordinates of a series case's type key: A1 and C2 keys are even."""
    return tuple(x // 2 for x in key)


def ktype_multiplicity(
    case: str, ktype: Weight, n: int, m: int | None = None
) -> int:
    """Multiplicity of a compact type in level n, optionally at one charge."""
    return _key_multiplicity(case, _type_key(case, ktype), n, m)


def _key_multiplicity(case: str, key: IntKey, n: int, m: int | None) -> int:
    """``ktype_multiplicity`` of the type read as ``key`` by ``_type_key``."""
    if n < 0:
        return 0
    if m is not None and case in ("splitJ-splitE", "e62-spin8"):
        raise InvalidTypeError(f"{case} types take no charge m")
    if case == "e62-spin8":
        data: dict[IntKey, int] = {}
        _e62_spin8(data, n)  # level n's int keys, read at the type's key
        return data.get(key, 0)
    if case == "splitJ-splitE":
        return _split_values(key, n)[-1]
    x, y, z = _ints(key)
    if (x + y + z) % 2:
        return 0
    if case == "splitJ-mixedE":  # a type appears at level x, at its full value
        if n < x:
            return 0
        if m is None:
            return sum(v for (zz, _), v in sp1so2_coefficients(x, y).items() if zz == z)
        return sp1so2_coefficients(x, y).get((z, m), 0)
    if m is not None:  # hermJ-mixedE
        return quasisplit_level_multiplicity(x, y, z, m, n)
    # Every charge at once, without building the blocks: count the inner
    # V_(x,y) (x) V_inner of each charge whose V_{n+2} (x) V_inner holds V_z.
    # Each core term has x + y + inner = n mod 2, so with x + y + z even, z
    # has the parity of n + 2 + inner and the range is the whole test.
    return sum(
        1
        for mm in range(-n, n + 1)
        for xx, yy, inner in _su6_omega3_to_sp2su2u1_core(n, mm)
        if xx == x and yy == y and abs(n + 2 - inner) <= z <= n + 2 + inner
    )


def _split_values(key: IntKey, top: int) -> tuple[int, ...]:
    """The splitJ-splitE multiplicities of the type read as ``key`` at levels
    0..top: level n is level n-1 plus the block of V_(n,y), y <= n, whose
    count is the sum over y of the products of the SU2 x SU2 coefficients of
    V_(n,y) at (a, b) and at (c, d)."""
    a, b, c, d = _ints(key)
    if (a + b + c + d) % 2:
        return (0,) * (top + 1)  # not a type of the mu2 quotient, never occurs
    blocks = (
        sum(su2su2_coefficient(n, y, a, b) * su2su2_coefficient(n, y, c, d) for y in range(n + 1))
        for n in range(top + 1)
    )
    return tuple(itertools.accumulate(blocks))


def so3_invariants(a: int, b: int, c: int, d: int) -> int:
    """Dimension of diagonal-SU2 invariants in V_a (x) V_b (x) V_c (x) V_d.

    Odd-parity inputs return 0 with a warning; they never arise in the
    gradings this feeds, and total functions keep sweep code simple.
    """
    if min(a, b, c, d) < 0:
        raise ValueError("weights must be non-negative")
    if (a + b + c + d) % 2:
        warnings.warn("odd-parity four-tuple has no invariants", OddParityWarning)
        return 0
    left = set(su2_tensor(a, b))
    right = set(su2_tensor(c, d))
    return len(left & right)


def so3_cone_ok(a: int, b: int, c: int, d: int) -> bool:
    """All four cyclic inequalities: each entry at most the sum of the rest."""
    total = a + b + c + d
    return all(total - 2 * v >= 0 for v in (a, b, c, d))


class MultiplicitySeries(NamedTuple):
    """Graded multiplicities of one compact type, levels 0..N.

    The stabilized fields are None when the type appears only after level
    N; a type that never appears stabilizes at 0.
    """

    case: str
    ktype: Weight
    charge: int | None
    values: tuple[int, ...]
    stabilized_value: int | None = None
    stabilized_kind: str | None = None  # "value" or "increment"

    @property
    def first_level(self) -> int | None:
        for i, v in enumerate(self.values):
            if v > 0:
                return i
        return None


def multiplicity_series(
    case: str, ktype: Weight, truncation: int, m: int | None = None
) -> MultiplicitySeries:
    if truncation < 0:
        raise ValueError("truncation must be non-negative")
    key = _type_key(case, ktype)
    if case == "splitJ-splitE" and m is None:
        values = _split_values(key, truncation)  # one accumulation, not one per level
    else:
        values = tuple(_key_multiplicity(case, key, n, m) for n in range(truncation + 1))
    kind = _LEVELS[case][4]
    if kind is None:
        return MultiplicitySeries(case, ktype, m, values)
    stabilized = values[-1] - (values[-2] if kind == "increment" and truncation else 0)
    if not any(values):
        horizon = _appearance_horizon(case, key)
        if horizon > truncation and _key_multiplicity(case, key, horizon, m):
            stabilized = kind = None  # the type first appears after the truncation
    return MultiplicitySeries(case, ktype, m, values, stabilized, kind)


def _appearance_horizon(case: str, key: IntKey) -> int:
    """A level by which a series case's type (its ``key``) has appeared, if ever.

    splitJ-mixedE types appear exactly at level x.  A hermJ-mixedE type
    that appears stabilizes by level (x+y+z)/2 - 1, by the onset closed
    form in ``theta``.  A splitJ-splitE type needs V_a (x) V_b and
    V_c (x) V_d in one Sp(2) irreducible, which the first (a+b+c+d)/2
    levels hold if any level does (criterion 3 for d = 0).
    """
    return _ints(key)[0] if case == "splitJ-mixedE" else sum(_ints(key)) // 2


class SeriesCheck(NamedTuple):
    accepted: bool
    kind: str | None
    bound: int | None
    onset: int | None
    reason: str


def _tail_onset(seq: Sequence[int]) -> int:
    """The index where the constant tail of ``seq`` starts."""
    onset = len(seq)
    while onset > 0 and seq[onset - 1] == seq[-1]:
        onset -= 1
    return onset


def verify_series(
    series: MultiplicitySeries,
    expected_onset: int | None = None,
    expected_bound: int | None = None,
) -> SeriesCheck:
    """Accept a series whose growth is eventually linear.

    A series passes if it is non-negative, non-decreasing, and either
    eventually constant (bound = the limit value) or with eventually
    constant increments (bound = the limit increment).  The bound is the
    graded-growth bound on quotient dimensions; a decreasing step is
    rejected outright.
    """
    v = series.values
    if len(v) < 2:
        return SeriesCheck(False, None, None, None, "series too short")
    if any(x < 0 for x in v):
        return SeriesCheck(False, None, None, None, "negative multiplicity")
    if any(v[i + 1] < v[i] for i in range(len(v) - 1)):
        return SeriesCheck(False, None, None, None, "decreasing step")
    if v[-2] == v[-1]:
        kind, tail = "value", v
    else:
        kind, tail = "increment", [v[0]] + [v[i] - v[i - 1] for i in range(1, len(v))]
    bound, onset = tail[-1], _tail_onset(tail)
    # A constant value tail holds at least v[-2:]; an increment tail must too.
    if onset > len(v) - 2:
        return SeriesCheck(False, None, None, None, "increments not eventually constant")
    predicted = (("onset", onset, expected_onset), ("bound", bound, expected_bound))
    for name, got, expected in predicted:
        if expected is not None and got != expected:
            return SeriesCheck(False, kind, bound, onset, f"{name} {got} != predicted {expected}")
    return SeriesCheck(True, kind, bound, onset, "ok")


class SignAssignment(NamedTuple):
    witness_level: int
    sign: int

    @property
    def side(self) -> str:
        """"rho1" or "epsilon": +1 at first appearance lands on the trivial
        extension, -1 on the sign extension of the order-two component."""
        return "rho1" if self.sign == 1 else "epsilon"


def sign_first_appearance(case: str, ktype: Weight) -> SignAssignment:
    """First-appearance level and order-two sign for the covered families.

    splitJ-splitE covers all-even types with a zero coordinate whose other
    entries satisfy the triangle condition; splitJ-mixedE covers
    V_(2k,0) (x) V_0; hermJ-mixedE covers the Sp(2)-trivial types
    V_(0,0) (x) V_(2k) with k >= 1.  e62-spin8 has no sign grading.  The
    type must occur once at the witness level and not at the level before.
    """
    key = _type_key(case, ktype)
    if case == "splitJ-splitE":
        rest = list(_ints(key))
        if 0 not in rest:
            raise NotCoveredError("need a zero coordinate")
        rest.remove(0)
        a, b, c = rest
        if any(v % 2 for v in rest):
            raise NotCoveredError("need even coordinates")
        if not so3_cone_ok(a, b, c, 0):
            raise NotCoveredError("triangle condition fails")
        witness, charge = (a + b + c) // 2, None
    elif case == "splitJ-mixedE":
        x, y, z = _ints(key)
        if y != 0 or z != 0 or x % 2:
            raise NotCoveredError("family is V_(2k,0) (x) V_0")
        witness, charge = x, 0
    elif case == "hermJ-mixedE":
        x, y, z = _ints(key)
        if x != 0 or y != 0 or z == 0 or z % 2:
            raise NotCoveredError("family is V_(0,0) (x) V_(2k), k >= 1")
        witness, charge = z // 2 - 1, 0
    else:
        raise NotCoveredError(f"no sign grading in case {case}")
    if (
        _key_multiplicity(case, key, witness, charge) != 1
        or _key_multiplicity(case, key, witness - 1, charge) != 0
    ):
        raise InvariantError(f"{case}: level {witness} is not a first appearance")
    # splitJ-mixedE: (-1)^(x/2), where the level sign of the same term is +1;
    # the two readers disagree here until a twining-character oracle decides.
    sign = (-1) ** (witness // 2) if case == "splitJ-mixedE" else _level_sign(case, witness, ktype)
    return SignAssignment(witness, sign)
