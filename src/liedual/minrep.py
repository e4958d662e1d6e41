"""Graded compact-type models of the minimal representations.

Three graded models (one per real form) and four dual-pair restrictions,
with charge gradings, order-two sign gradings, first-appearance witnesses,
and the eventually-linear-growth verifier for multiplicity series.

Level characters are assembled from the closed-form branching rules, which
keeps every level cheap; the rules themselves are certified against the
generic restriction oracle elsewhere.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Callable, Mapping

from .branching import (
    BudgetExceededError,
    branch_sp2_to_su2su2,
    branch_so5_to_so3so2,
    branch_su6_omega3_to_sp2su2u1,
)
from .charalg import FormalCharacter, su2_tensor
from .lattice import GroupSpec, InvariantError, Weight, group, make_weight

MINREP_CASES = ("split-E6", "hermitian-E6", "e62-compact")
DUALPAIR_CASES = ("splitJ-splitE", "splitJ-mixedE", "hermJ-mixedE", "e62-spin8")


class NotCoveredError(ValueError):
    """Sign bookkeeping requested outside the implemented family."""


class InvalidTypeError(ValueError):
    """The given weight is not a type of the case's compact group."""


class OddParityWarning(UserWarning):
    """Diagonal-invariant count requested for an odd-sum four-tuple."""


# The order-two sign is (-1)^n on level n; this says which terms carry it.
_SIGNED_TERMS: dict[str, Callable[[Weight], bool]] = {
    "split-E6": lambda w: True,
    "splitJ-splitE": lambda w: True,
    "splitJ-mixedE": lambda w: True,
    "hermJ-mixedE": lambda w: w.parts[0] == (0, 0),
}  # no term of the other cases is signed


@dataclass(frozen=True)
class GradedCharacter:
    """Level-indexed formal characters, signed by the rule of their case."""

    case: str
    group: GroupSpec
    levels: Mapping[int, FormalCharacter]

    def sign_of(self, n: int, w: Weight) -> int:
        """(-1)^n, or ``NotCoveredError`` off the levels or for an unsigned type.

        ``w`` is not checked to be a term of level ``n``: that scans the level.
        """
        signed = _SIGNED_TERMS.get(self.case)
        if n not in self.levels or signed is None or not signed(w):
            raise NotCoveredError(
                f"no sign grading for level {n} term {w} in case {self.case}"
            )
        return (-1) ** n


def minrep_levels(case: str, truncation: int) -> GradedCharacter:
    """Graded compact-type decomposition of one minimal representation.

    split-E6: level n is the n-th fourth-fundamental type of Sp(4), and the
    order-two symmetry acts by (-1)^n.  hermitian-E6: level n is
    V_{n+2} (x) (n-th third-fundamental type of SU(6)).  e62-compact:
    level n is the n-th half-spin type of Spin(10) with circle charge n+4.
    """
    if case not in MINREP_CASES:
        raise KeyError(f"unknown case {case!r}")
    if truncation < 0:
        raise ValueError("truncation must be non-negative")
    levels: dict[int, FormalCharacter] = {}
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
    return GradedCharacter(case, gs, levels)


@functools.lru_cache(maxsize=None)
def _su2su2_terms(x: int, y: int) -> tuple[tuple[int, int], ...]:
    char = branch_sp2_to_su2su2(x, y)
    return tuple(
        (int(w.parts[0][0]), int(w.parts[1][0])) for w, _ in char.terms
    )


def su2su2_coefficient(x: int, y: int, a: int, b: int) -> int:
    """Multiplicity of V_a (x) V_b in V_(x,y) under SU2 x SU2."""
    if a < 0 or b < 0:
        return 0
    ok = (
        (a + b) % 2 == (x + y) % 2
        and abs(a - b) <= x - y <= a + b <= x + y
    )
    return 1 if ok else 0


@functools.lru_cache(maxsize=None)
def sp1so2_coefficients(x: int, y: int) -> Mapping[tuple[int, int], int]:
    """Restriction of V_(x,y) to Sp(1) x SO2 with integer circle charges.

    Charges here are twice the SO(5)-natural half-integer charges, so the
    circle's character lattice is identified with Z.
    """
    char = branch_so5_to_so3so2(Q(x + y, 2), Q(x - y, 2))
    out: dict[tuple[int, int], int] = {}
    for w, mult in char.terms:
        z = int(w.parts[0][0])
        m = int(2 * w.charges[0])
        out[(z, m)] = out.get((z, m), 0) + mult
    return out


def sp1so2_coefficient(x: int, y: int, z: int, m: int) -> int:
    return sp1so2_coefficients(x, y).get((z, m), 0)


@functools.lru_cache(maxsize=None)
def _hermJ_level(n: int, m: int) -> Mapping[tuple[tuple[int, int], int], int]:
    """Charge-m block of level n for the quasi-split hermitian dual pair.

    Tensor of the SU2 content of the charge-m block of the n-th
    third-fundamental type with the outer V_{n+2} factor.
    """
    out: dict[tuple[tuple[int, int], int], int] = {}
    for w, mult in branch_su6_omega3_to_sp2su2u1(n, m).terms:
        x, y = int(w.parts[0][0]), int(w.parts[0][1])
        inner = int(w.parts[1][0])
        for z in su2_tensor(n + 2, inner):
            key = ((x, y), z)
            out[key] = out.get(key, 0) + mult
    return out


def quasisplit_level_multiplicity(x: int, y: int, z: int, m: int, n: int) -> int:
    """Multiplicity of V_(x,y) (x) V_z at circle charge m in level n."""
    if n < 0:
        return 0
    return _hermJ_level(n, m).get(((x, y), z), 0)


_DUALPAIR_SOURCE = {
    "splitJ-splitE": "split-E6",
    "splitJ-mixedE": "split-E6",
    "hermJ-mixedE": "hermitian-E6",
    "e62-spin8": "e62-compact",
}


_E62_GROUP = group("D4", circles=3)


def _e62_level(n: int) -> FormalCharacter:
    """Level n of e62-spin8: V_(n/2,n/2,n/2,b/2) against the torus character
    chi(n+4, -(b+n)/2-2, (b-n)/2-2), for b = -n, -n+2, .., n."""
    h = Q(n, 2)
    data = {}
    for b in range(-n, n + 1, 2):
        w = make_weight(
            _E62_GROUP,
            ((h, h, h, Q(b, 2)),),
            (n + 4, Q(-(b + n), 2) - 2, Q(b - n, 2) - 2),
        )
        data[w] = 1
    return FormalCharacter.from_dict(_E62_GROUP, data)


def dualpair_graded(
    case: str, truncation: int, budget: int | None = None
) -> GradedCharacter:
    """Level-by-level restriction of a minimal representation to a dual pair.

    splitJ-splitE: types of SU2^4 with sign (-1)^n.  splitJ-mixedE: types of
    Sp(2) x SU2 with an integer circle charge and sign (-1)^n.  In both, level
    n is a running sum: level n-1 plus the blocks of V_(n,y), y <= n.
    hermJ-mixedE: types of Sp(2) x SU2 with circle charge, signed only on
    Sp(2)-trivial terms.  e62-spin8: unsigned Spin(8) types against torus
    characters chi(n+4, -(b+n)/2-2, (b-n)/2-2).

    Levels are assembled from the certified closed forms, so no dimension
    budget applies by default; passing one bounds the top level's source
    dimension (useful when replaying levels against the generic oracle).
    """
    if case not in DUALPAIR_CASES:
        raise KeyError(f"unknown case {case!r}")
    if truncation < 0:
        raise ValueError("truncation must be non-negative")
    if budget is not None:
        source = minrep_levels(_DUALPAIR_SOURCE[case], truncation)
        top_dim = source.levels[truncation].total_dimension()
        if top_dim > budget:
            raise BudgetExceededError(
                f"level {truncation} source dimension {top_dim} exceeds budget {budget}"
            )
    levels: dict[int, FormalCharacter] = {}
    if case == "splitJ-splitE":
        gs = group("A1", "A1", "A1", "A1")
        data: dict[Weight, int] = {}
        for n in range(truncation + 1):
            for y in range(n + 1):
                pairs = _su2su2_terms(n, y)
                for a, b in pairs:
                    for c, d in pairs:
                        w = Weight(((Q(a),), (Q(b),), (Q(c),), (Q(d),)))
                        data[w] = data.get(w, 0) + 1
            levels[n] = FormalCharacter.from_dict(gs, data)
    elif case == "splitJ-mixedE":
        gs = group("C2", "A1", circles=1)
        data = {}
        for n in range(truncation + 1):
            for y in range(n + 1):
                for (z, m), mult in sp1so2_coefficients(n, y).items():
                    w = make_weight(gs, ((n, y), (z,)), (m,))
                    data[w] = data.get(w, 0) + mult
            levels[n] = FormalCharacter.from_dict(gs, data)
    elif case == "hermJ-mixedE":
        gs = group("C2", "A1", circles=1)
        for n in range(truncation + 1):
            data = {}
            for m in range(-n, n + 1):
                for ((x, y), z), mult in _hermJ_level(n, m).items():
                    w = make_weight(gs, ((x, y), (z,)), (m,))
                    data[w] = data.get(w, 0) + mult
            levels[n] = FormalCharacter.from_dict(gs, data)
    else:  # e62-spin8
        gs = _E62_GROUP
        levels = {n: _e62_level(n) for n in range(truncation + 1)}
    return GradedCharacter(case, gs, levels)


def _split_type(w: Weight) -> tuple[int, int, int, int]:
    if len(w.parts) != 4 or any(len(p) != 1 for p in w.parts):
        raise InvalidTypeError(f"{w} is not an SU2^4 type")
    vals = tuple(int(p[0]) for p in w.parts)
    if any(v < 0 for v in vals):
        raise InvalidTypeError("negative SU2 weight")
    return vals


def _pair_type(w: Weight) -> tuple[int, int, int]:
    if len(w.parts) != 2 or len(w.parts[0]) != 2 or len(w.parts[1]) != 1:
        raise InvalidTypeError(f"{w} is not an Sp(2) x SU2 type")
    x, y = int(w.parts[0][0]), int(w.parts[0][1])
    z = int(w.parts[1][0])
    if not (x >= y >= 0 and z >= 0):
        raise InvalidTypeError("non-dominant Sp(2) x SU2 type")
    return x, y, z


def ktype_multiplicity(
    case: str, ktype: Weight, n: int, m: int | None = None
) -> int:
    """Multiplicity of a compact type in level n, optionally at one charge."""
    if n < 0:
        return 0
    if case == "splitJ-splitE":
        a, b, c, d = _split_type(ktype)
        if m is not None:
            raise InvalidTypeError("splitJ-splitE carries no circle charge")
        if (a + b + c + d) % 2:
            return 0  # not a type of the mu2 quotient, never occurs
        total = 0
        for x in range(n + 1):
            for y in range(x + 1):
                total += su2su2_coefficient(x, y, a, b) * su2su2_coefficient(
                    x, y, c, d
                )
        return total
    if case == "splitJ-mixedE":
        x, y, z = _pair_type(ktype)
        if (x + y + z) % 2:
            return 0
        if m is None:
            return sum(
                mult
                for (zz, _), mult in sp1so2_coefficients(x, y).items()
                if zz == z
            ) * (1 if n >= x else 0)
        return sp1so2_coefficient(x, y, z, m) if n >= x else 0
    if case == "hermJ-mixedE":
        x, y, z = _pair_type(ktype)
        if (x + y + z) % 2:
            return 0
        if m is None:
            return sum(
                quasisplit_level_multiplicity(x, y, z, mm, n)
                for mm in range(-n, n + 1)
            )
        return quasisplit_level_multiplicity(x, y, z, m, n)
    if case == "e62-spin8":
        return _e62_level(n).multiplicity(ktype)
    raise KeyError(f"unknown case {case!r}")


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


@dataclass(frozen=True)
class MultiplicitySeries:
    """Graded multiplicities of one compact type, levels 0..N."""

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
    values = tuple(
        ktype_multiplicity(case, ktype, n, m) for n in range(truncation + 1)
    )
    stabilized: int | None = None
    kind: str | None = None
    if case in ("splitJ-mixedE", "hermJ-mixedE"):
        kind = "value"
        stabilized = values[-1]
    elif case == "splitJ-splitE":
        kind = "increment"
        stabilized = values[-1] - values[-2] if len(values) > 1 else values[-1]
    return MultiplicitySeries(case, ktype, m, values, stabilized, kind)


@dataclass(frozen=True)
class SeriesCheck:
    accepted: bool
    kind: str | None
    bound: int | None
    onset: int | None
    reason: str


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
    kind: str
    bound: int
    if all(x == v[-1] for x in v[-2:]):
        tail = v[-1]
        onset = len(v)
        while onset > 0 and v[onset - 1] == tail:
            onset -= 1
        kind, bound = "value", tail
    else:
        diffs = [v[0]] + [v[i] - v[i - 1] for i in range(1, len(v))]
        tail = diffs[-1]
        onset = len(diffs)
        while onset > 0 and diffs[onset - 1] == tail:
            onset -= 1
        if onset > len(v) - 2:
            return SeriesCheck(
                False, None, None, None, "increments not eventually constant"
            )
        kind, bound = "increment", tail
    if expected_onset is not None and onset != expected_onset:
        return SeriesCheck(
            False, kind, bound, onset, f"onset {onset} != predicted {expected_onset}"
        )
    if expected_bound is not None and bound != expected_bound:
        return SeriesCheck(
            False, kind, bound, onset, f"bound {bound} != predicted {expected_bound}"
        )
    return SeriesCheck(True, kind, bound, onset, "ok")


@dataclass(frozen=True)
class SignAssignment:
    side: str  # "rho1" or "epsilon"
    witness_level: int
    sign: int


def _side_of(sign: int) -> str:
    # +1 at first appearance lands on the trivial extension, -1 on the sign
    # extension of the order-two component.
    return "rho1" if sign == 1 else "epsilon"


def _require_first_appearance(
    case: str, level_multiplicity: Callable[[int], int], witness: int
) -> None:
    if level_multiplicity(witness) != 1 or (
        witness > 0 and level_multiplicity(witness - 1) != 0
    ):
        raise InvariantError(f"{case}: level {witness} is not a first appearance")


def sign_first_appearance(case: str, ktype: Weight) -> SignAssignment:
    """First-appearance level and order-two sign for the covered families.

    splitJ-splitE covers all-even types with a zero coordinate whose other
    entries satisfy the triangle condition; splitJ-mixedE covers
    V_(2k,0) (x) V_0; hermJ-mixedE covers the Sp(2)-trivial types
    V_(0,0) (x) V_(2k) with k >= 1.
    """
    if case == "splitJ-splitE":
        vals = _split_type(ktype)
        if 0 not in vals:
            raise NotCoveredError("need a zero coordinate")
        rest = list(vals)
        rest.remove(0)
        a, b, c = rest
        if any(v % 2 for v in rest):
            raise NotCoveredError("need even coordinates")
        if not so3_cone_ok(a, b, c, 0):
            raise NotCoveredError("triangle condition fails")
        witness = (a + b + c) // 2
        _require_first_appearance(
            case, lambda n: ktype_multiplicity(case, ktype, n), witness
        )
        sign = (-1) ** witness
        return SignAssignment(_side_of(sign), witness, sign)
    if case == "splitJ-mixedE":
        x, y, z = _pair_type(ktype)
        if y != 0 or z != 0 or x % 2:
            raise NotCoveredError("family is V_(2k,0) (x) V_0")
        k = x // 2
        witness = 2 * k
        _require_first_appearance(
            case, lambda n: ktype_multiplicity(case, ktype, n, m=0), witness
        )
        sign = (-1) ** k
        return SignAssignment(_side_of(sign), witness, sign)
    if case == "hermJ-mixedE":
        x, y, z = _pair_type(ktype)
        if x != 0 or y != 0 or z == 0 or z % 2:
            raise NotCoveredError("family is V_(0,0) (x) V_(2k), k >= 1")
        k = z // 2
        witness = k - 1
        _require_first_appearance(
            case, lambda n: quasisplit_level_multiplicity(0, 0, z, 0, n), witness
        )
        sign = (-1) ** witness
        return SignAssignment(_side_of(sign), witness, sign)
    raise KeyError(f"unknown case {case!r}")
