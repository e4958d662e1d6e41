"""Restriction along catalogued embeddings, plus closed-form branching rules.

``restrict_generic`` is the oracle: it pushes the full weight diagram of an
irreducible through the embedding's coordinate map, folds it into the
dominant chamber (Racah-Speiser) and certifies the fold by subtracting each
term's diagram.  Every closed-form rule below can be replayed against it
term by term via ``verify_rule``.

Weights enter and leave as ``Fraction`` ``Weight``s.  Inside, the oracle
runs on integers: factor parts in doubled coordinates (2v,
``lattice.doubled``), as in ``charalg``, and circle charges in a
per-embedding unit 1/(2d), d the least common denominator of the charge
rows.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Callable, Iterable, Mapping

from .charalg import (
    FlatKey,
    FormalCharacter,
    _full_multiplicities,
    chamber_fold,
    weight_dimension,
)
from .lattice import (
    Doubled,
    GroupSpec,
    InvariantError,
    Vector,
    Weight,
    doubled,
    group,
    halved,
    make_weight,
    normalize_vector,
    weight_is_dominant,
)

DEFAULT_BUDGET = 200_000


class NegativeMultiplicityError(RuntimeError):
    """A negative, lost or left-over multiplicity: the embedding map is wrong."""


class BudgetExceededError(RuntimeError):
    """Source dimension above the configured generic-restriction budget."""


#: A sparse integer row: (index, coefficient) for each nonzero entry.
SparseRow = tuple[tuple[int, int], ...]


def _sparse(row: Iterable[int]) -> SparseRow:
    return tuple((i, c) for i, c in enumerate(row) if c)


@dataclass(frozen=True)
class EmbeddingMap:
    """Named linear restriction map from big-group to small-group weights.

    ``factor_rows[f]`` holds one row per coordinate of small factor ``f``;
    ``charge_rows`` holds one row per circle factor.  Rows act on the
    concatenation of the big group's factor coordinates.  Factor rows must
    be integral, so that they map doubled weights to doubled weights;
    charge rows may have any denominator.  Shapes and integrality are
    checked at construction.
    """

    name: str
    big: GroupSpec
    small: GroupSpec
    factor_rows: tuple[tuple[Vector, ...], ...]
    charge_rows: tuple[Vector, ...]
    internal: bool = False

    def __post_init__(self) -> None:
        small = self.small.factors
        if len(self.factor_rows) != len(small):
            raise ValueError(
                f"{self.name}: {len(self.factor_rows)} factor blocks for {len(small)} factors"
            )
        if len(self.charge_rows) != self.small.circles:
            raise ValueError(
                f"{self.name}: {len(self.charge_rows)} charge rows for "
                f"{self.small.circles} circles"
            )
        width = sum(rs.ambient_dim for rs in self.big.factors)
        for f, (rs, rows) in enumerate(zip(small, self.factor_rows, strict=True)):
            if len(rows) != rs.ambient_dim:
                raise ValueError(
                    f"{self.name}: factor {f} has {len(rows)} rows for {rs.label}, "
                    f"which needs {rs.ambient_dim}"
                )
            for r, row in enumerate(rows):
                shown = ", ".join(str(x) for x in row)
                if len(row) != width:
                    raise ValueError(
                        f"{self.name}: factor {f} row {r} ({shown}) has length {len(row)}, "
                        f"not {width}"
                    )
                if any(x.denominator != 1 for x in row):
                    raise ValueError(f"{self.name}: factor {f} row {r} ({shown}) is not integral")
        for r, row in enumerate(self.charge_rows):
            if len(row) != width:
                shown = ", ".join(str(x) for x in row)
                raise ValueError(
                    f"{self.name}: charge row {r} ({shown}) has length {len(row)}, not {width}"
                )

    @functools.cached_property
    def charge_denominator(self) -> int:
        """d: charges are integers in the unit 1/(2d) inside the oracle."""
        return math.lcm(*(x.denominator for row in self.charge_rows for x in row))

    @functools.cached_property
    def _integer_rows(self) -> tuple[tuple[tuple[SparseRow, ...], ...], tuple[SparseRow, ...]]:
        d = self.charge_denominator
        factors = tuple(
            tuple(_sparse(int(x) for x in row) for row in rows) for rows in self.factor_rows
        )
        charges = tuple(_sparse(int(d * x) for x in row) for row in self.charge_rows)
        return factors, charges

    def _apply(self, flat: Doubled) -> FlatKey:
        """Image of a doubled big-group weight: doubled small-group parts and
        charges in the unit 1/(2d)."""
        factors, charge_rows = self._integer_rows
        # Runs once per source weight; list comprehensions beat generators here.
        parts = tuple(
            [tuple([sum([c * flat[i] for i, c in row]) for row in rows]) for rows in factors]
        )
        charges = tuple([sum([c * flat[i] for i, c in row]) for row in charge_rows])
        return parts, charges


def _rows(*entries: Iterable[int | str | Q]) -> tuple[Vector, ...]:
    return tuple(tuple(Q(x) for x in row) for row in entries)


def _unit_rows(dim: int, *indices: int) -> tuple[Vector, ...]:
    out = []
    for i in indices:
        row = [Q(0)] * dim
        row[i] = Q(1)
        out.append(tuple(row))
    return tuple(out)


def _build_catalog() -> dict[str, EmbeddingMap]:
    third = Q(1, 3)
    half = Q(1, 2)
    entries = [
        EmbeddingMap(
            "sp2xsp2_in_sp4",
            group("C4"),
            group("C2", "C2"),
            (_unit_rows(4, 0, 1), _unit_rows(4, 2, 3)),
            (),
        ),
        EmbeddingMap(
            "su2x4_in_sp4",
            group("C4"),
            group("A1", "A1", "A1", "A1"),
            tuple(_unit_rows(4, i) for i in range(4)),
            (),
        ),
        EmbeddingMap(
            "su2su2_in_sp2",
            group("C2"),
            group("A1", "A1"),
            (_unit_rows(2, 0), _unit_rows(2, 1)),
            (),
        ),
        # Sp(1) x SO2 inside Sp(2); circle charge in the SO(5)-natural
        # half-integer normalization (x, y) -> ((x+y)/2, (x-y)/2).
        EmbeddingMap(
            "sp1so2_in_sp2",
            group("C2"),
            group("A1", circles=1),
            (_rows((1, 1)),),
            _rows((half, -half)),
        ),
        EmbeddingMap(
            "so3so2_in_so5",
            group("B2"),
            group("A1", circles=1),
            (_rows((2, 0)),),
            _rows((0, 1)),
        ),
        EmbeddingMap(
            "spin8u1_in_spin10",
            group("D5"),
            group("D4", circles=1),
            (_unit_rows(5, 0, 1, 2, 3),),
            _rows((0, 0, 0, 0, 2)),
        ),
        EmbeddingMap(
            "sp2su2u1_in_su6",
            group("A5"),
            group("C2", "A1", circles=1),
            (
                _rows((1, 0, 0, -1, 0, 0), (0, 1, -1, 0, 0, 0)),
                _rows((0, 0, 0, 0, 1, -1)),
            ),
            _rows((third, third, third, third, -2 * third, -2 * third)),
        ),
        EmbeddingMap(
            "sp3_in_su6",
            group("A5"),
            group("C3"),
            (_rows((1, 0, 0, 0, 0, -1), (0, 1, 0, 0, -1, 0), (0, 0, 1, -1, 0, 0)),),
            (),
        ),
    ]
    for k in (2, 3, 4):
        entries.append(
            EmbeddingMap(
                f"diag_su2_in_su2x{k}",
                group(*(["A1"] * k)),
                group("A1"),
                (_rows([1] * k),),
                (),
            )
        )
    # Derived compositions used by the graded minimal-representation models;
    # not part of the public rule surface.
    entries.append(
        EmbeddingMap(
            "sp2sp1_in_sp3",
            group("C3"),
            group("C2", "A1"),
            (_unit_rows(3, 0, 1), _unit_rows(3, 2)),
            (),
            internal=True,
        )
    )
    entries.append(
        EmbeddingMap(
            "sp2su2so2_in_sp4",
            group("C4"),
            group("C2", "A1", circles=1),
            (_unit_rows(4, 0, 1), _rows((0, 0, 1, 1))),
            _rows((0, 0, 1, -1)),
            internal=True,
        )
    )
    catalog = {e.name: e for e in entries}
    if len(catalog) != len(entries):
        raise InvariantError("catalog names must be unique")
    return catalog


CATALOG: dict[str, EmbeddingMap] = _build_catalog()


def embedding(name: str) -> EmbeddingMap:
    try:
        return CATALOG[name]
    except KeyError:
        raise KeyError(f"unknown embedding {name!r}") from None


@dataclass(frozen=True)
class BranchResult:
    source: tuple[GroupSpec, Weight]
    embedding_name: str
    decomposition: FormalCharacter


def _group_diagram(gs: GroupSpec, w: Weight) -> dict[tuple[Doubled, ...], int]:
    """Weight diagram of an irreducible of a product group, by factor, doubled."""
    diagrams = [
        _full_multiplicities(rs, doubled(part))
        for rs, part in zip(gs.factors, w.parts, strict=True)
    ]
    out: dict[tuple[Doubled, ...], int] = {}
    for combo in itertools.product(*(d.items() for d in diagrams)):
        parts = tuple(vec for vec, _ in combo)
        mult = 1
        for _, m in combo:
            mult *= m
        out[parts] = out.get(parts, 0) + mult
    return out


def _fractions(key: FlatKey, unit: int) -> tuple[tuple[Vector, ...], tuple[Q, ...]]:
    """A projected key as ``Fraction`` parts and charges, charges in 1/unit."""
    parts, charges = key
    return tuple(halved(p) for p in parts), tuple(Q(c, unit) for c in charges)


def restrict_generic(
    e: EmbeddingMap, hw: Weight, budget: int | None = None
) -> BranchResult:
    """Restrict one irreducible of ``e.big`` along the embedding.

    The projected weight diagram is folded (``charalg.chamber_fold``); a
    negative coefficient or a lost dimension aborts, nothing is clamped.
    As a certificate, every term's diagram is then subtracted from the
    projected support, which must stay non-negative and end empty: a wrong
    map can fold to a non-negative, dimension-conserving answer.  The
    projection, fold and certificate run on integer keys (see the module
    docstring); messages show ``Fraction`` weights.
    """
    limit = DEFAULT_BUDGET if budget is None else budget
    if not weight_is_dominant(e.big, hw):
        raise ValueError(f"{hw} is not dominant for {e.big}")
    source_dim = weight_dimension(e.big, hw)
    if source_dim > limit:
        raise BudgetExceededError(
            f"dim {source_dim} exceeds generic-restriction budget {limit}"
        )
    small = e.small.factors
    support: dict[FlatKey, int] = {}
    for big_parts, mult in _group_diagram(e.big, hw).items():
        parts, charges = e._apply(sum(big_parts, ()))
        key = (
            tuple([normalize_vector(rs, p) for rs, p in zip(small, parts, strict=True)]),
            charges,
        )
        support[key] = support.get(key, 0) + mult

    unit = 2 * e.charge_denominator
    terms: dict[Weight, int] = {}
    for top, coeff in chamber_fold(e.small, support).items():
        if coeff < 0:
            raise NegativeMultiplicityError(
                f"{e.name}: negative coefficient {coeff} at {_fractions(top, unit)}"
            )
        terms[make_weight(e.small, *_fractions(top, unit))] = coeff
    decomposition = FormalCharacter.from_dict(e.small, terms)
    target_dim = decomposition.total_dimension()
    if target_dim != source_dim:
        raise NegativeMultiplicityError(
            f"{e.name}: dimension {target_dim} restricted from {source_dim}"
        )
    for w, coeff in decomposition.terms:
        charges = tuple(int(c * unit) for c in w.charges)
        for parts, mult in _group_diagram(e.small, w).items():
            key = (parts, charges)
            value = support.get(key, 0) - coeff * mult
            if value < 0:
                raise NegativeMultiplicityError(
                    f"{e.name}: subtracting {w} drove {_fractions(key, unit)} negative"
                )
            if value == 0:
                support.pop(key, None)
            else:
                support[key] = value
    if support:
        raise NegativeMultiplicityError(
            f"{e.name}: {len(support)} projected weights left after subtracting every term"
        )
    return BranchResult((e.big, hw), e.name, decomposition)


# --------------------------------------------------------------------------
# Closed-form rules.


def branch_sp4_to_sp2sp2(n: int) -> FormalCharacter:
    """Level-n fourth-fundamental restriction Sp(4) -> Sp(2) x Sp(2).

    Multiplicity-free sum of V_(x,y) (x) V_(x,y) over x >= y >= 0, x <= n.
    """
    if n < 0:
        raise ValueError("level must be non-negative")
    gs = group("C2", "C2")
    terms = {}
    for x in range(n + 1):
        for y in range(x + 1):
            w = make_weight(gs, ((x, y), (x, y)))
            terms[w] = 1
    return FormalCharacter.from_dict(gs, terms)


def branch_sp2_to_su2su2(x: int, y: int) -> FormalCharacter:
    """Restriction of V_(x,y) from Sp(2) to SU2 x SU2.

    Multiplicity-free sum of V_a (x) V_b with a+b = x+y (mod 2),
    |a-b| <= x-y and x-y <= a+b <= x+y.
    """
    if not x >= y >= 0:
        raise ValueError("need x >= y >= 0")
    gs = group("A1", "A1")
    terms = {}
    for a in range(x + y + 1):
        for b in range(x + y + 1):
            if (a + b) % 2 != (x + y) % 2:
                continue
            if abs(a - b) <= x - y <= a + b <= x + y:
                terms[make_weight(gs, ((a,), (b,)))] = 1
    return FormalCharacter.from_dict(gs, terms)


def _so2_product(p_values: list[Q], q_values: list[Q]) -> dict[Q, int]:
    out: dict[Q, int] = {}
    for u in p_values:
        for v in q_values:
            out[u + v] = out.get(u + v, 0) + 1
    return out


def _chi_interval(n: Q, step: int) -> list[Q]:
    # characters chi_n + chi_{n-step} + ... + chi_{-n}
    values = []
    v = n
    while v >= -n:
        values.append(v)
        v -= step
    return values


def branch_so5_to_so3so2(a: Q | int, b: Q | int) -> FormalCharacter:
    """Restriction of the SO(5) irreducible (a, b) to SO(3) x SO(2).

    The SO(3) piece V_c is encoded as the SU2 weight 2c; SO(2) charges are
    half-integers on spin weights.  chi[c] is A(b) B(a-c) for a >= c >= b
    and A(c) B(a-b) for a >= b >= c, with A(n) running in steps of 1 and
    B(n) in steps of 2.
    """
    a, b = Q(a), Q(b)
    if not (a >= b >= 0 and (a - b).denominator == 1):
        raise ValueError("need a >= b >= 0 with a = b mod Z")
    gs = group("A1", circles=1)
    terms: dict[Weight, int] = {}
    c = a % 1  # smallest c >= 0 congruent to a mod Z
    while c <= a:
        if c >= b:
            charges = _so2_product(_chi_interval(b, 1), _chi_interval(a - c, 2))
        else:
            charges = _so2_product(_chi_interval(c, 1), _chi_interval(a - b, 2))
        for k, mult in charges.items():
            w = make_weight(gs, ((2 * c,),), (k,))
            terms[w] = terms.get(w, 0) + mult
        c += 1
    return FormalCharacter.from_dict(gs, terms)


def branch_spin10_halfspin_to_spin8u1(n: int) -> FormalCharacter:
    """Restriction of the n-th half-spin power from Spin(10) to Spin(8) x U(1).

    Sum of V_(n/2,n/2,n/2,b/2) (x) chi_b over integers b with |b| <= n and
    b = n (mod 2).
    """
    if n < 0:
        raise ValueError("level must be non-negative")
    gs = group("D4", circles=1)
    terms = {}
    for b in range(-n, n + 1, 2):
        w = make_weight(gs, ((Q(n, 2), Q(n, 2), Q(n, 2), Q(b, 2)),), (b,))
        terms[w] = 1
    return FormalCharacter.from_dict(gs, terms)


def branch_su6_omega3_to_sp2su2u1(n: int, m: int) -> FormalCharacter:
    """Charge-m block of the n-th third-fundamental power under
    Sp(2) x SU2 x U(1) inside SU(6).

    For m >= 0 the block is sum over t >= 0 of (sum V_(x,y)) (x) V_{n-m-2t}
    with x+y = m (mod 2) and 2n-2t-2m >= x+y-m >= 2t >= x-y-m >= 0.
    Negative m is defined by charge negation of the |m| block.
    |m| > n yields the empty character.
    """
    if n < 0:
        raise ValueError("level must be non-negative")
    gs = group("C2", "A1", circles=1)
    mm = abs(m)
    terms: dict[Weight, int] = {}
    if mm > n:
        return FormalCharacter.from_dict(gs, terms)
    t = 0
    while n - mm - 2 * t >= 0:
        z = n - mm - 2 * t
        for s in range(2 * t + mm, 2 * n - 2 * t - mm + 1, 2):  # s = x + y
            for d in range(mm, min(mm + 2 * t, s) + 1, 2):  # d = x - y
                x, y = (s + d) // 2, (s - d) // 2
                w = make_weight(gs, ((x, y), (z,)), (m,))
                terms[w] = 1
        t += 1
    return FormalCharacter.from_dict(gs, terms)


@dataclass(frozen=True)
class SignedCharacter:
    """Formal character whose terms carry a sign under an order-2 symmetry."""

    character: FormalCharacter
    signs: Mapping[Weight, int]

    def sign(self, w: Weight) -> int:
        return self.signs[w]


def branch_su6_omega3_to_sp3(n: int) -> SignedCharacter:
    """Restriction of the n-th third-fundamental power from SU(6) to Sp(3).

    Multiplicity-free sum of V_(n,m,m) over 0 <= m <= n; the order-2
    symmetry fixing Sp(3) acts on V_(n,m,m) by (-1)^(n-m).
    """
    if n < 0:
        raise ValueError("level must be non-negative")
    gs = group("C3")
    terms = {}
    signs = {}
    for m in range(n + 1):
        w = make_weight(gs, ((n, m, m),))
        terms[w] = 1
        signs[w] = (-1) ** (n - m)
    return SignedCharacter(FormalCharacter.from_dict(gs, terms), signs)


def su6_omega3_weight(n: int) -> Weight:
    gs = group("A5")
    return make_weight(gs, ((n, n, n, 0, 0, 0),))


def spin10_halfspin_weight(n: int) -> Weight:
    gs = group("D5")
    h = Q(n, 2)
    return make_weight(gs, ((h, h, h, h, h),))


def sp4_omega4_weight(n: int) -> Weight:
    gs = group("C4")
    return make_weight(gs, ((n, n, n, n),))


# --------------------------------------------------------------------------
# Rule registry and verification against the generic oracle.


@dataclass(frozen=True)
class Check:
    """One named check.

    Sweeps report PASS, FAIL or BUDGET (source over the oracle's budget, so
    not checked); ``liedual branch`` reports MATCH, MISMATCH or NOTE.
    """

    name: str
    status: str
    expected: str
    actual: str


@dataclass(frozen=True)
class Report:
    title: str
    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(c.status == "PASS" for c in self.checks)

    @property
    def verdict(self) -> str:
        """PASS; else FAIL if any check failed; else BUDGET."""
        if self.ok:
            return "PASS"
        return "FAIL" if any(c.status == "FAIL" for c in self.checks) else "BUDGET"

    @property
    def summary(self) -> str:
        passed = sum(1 for c in self.checks if c.status == "PASS")
        return f"{self.verdict} {passed}/{len(self.checks)}"


@dataclass(frozen=True)
class Rule:
    """A closed-form branching rule and how to replay it against the oracle.

    ``source(*params)`` is the highest weight restricted along the embedding
    and ``closed(*params)`` its predicted decomposition; ``grid(level)``
    lists the parameter tuples checked up to ``level``.  Parameters are
    non-negative integers, or half-integers if ``half_integral``.  A
    ``charged`` rule's closed form spans every circle charge, and
    ``liedual branch --charge m`` keeps the charge-m block.  ``extra``
    returns (expected, actual) of a failed rule-specific invariant, or None.
    """

    rule_id: str
    embedding: str
    params: tuple[str, ...]
    source: Callable[..., Weight]
    closed: Callable[..., FormalCharacter]
    grid: Callable[[int], list[tuple]]
    default_level: int
    charged: bool = False
    half_integral: bool = False
    extra: Callable[..., tuple[str, str] | None] | None = None


def _levels(top: int) -> list[tuple]:
    return [(n,) for n in range(top + 1)]


def _pairs(top: int) -> list[tuple]:
    return [(x, y) for x in range(top + 1) for y in range(x + 1)]


def _half_pairs(top: int) -> list[tuple]:
    """top >= a >= b >= 0, both integers or both in Z + 1/2."""
    return [
        (a + s, b + s) for s in (Q(0), Q(1, 2)) for a, b in _pairs(top) if a + s <= top
    ]


def _su6_omega3_all_charges(n: int) -> FormalCharacter:
    terms: dict[Weight, int] = {}
    for m in range(-n, n + 1):  # charge blocks are disjoint
        terms.update(branch_su6_omega3_to_sp2su2u1(n, m).as_dict())
    return FormalCharacter.from_dict(group("C2", "A1", circles=1), terms)


def _sp3_sign_ladder(n: int) -> tuple[str, str] | None:
    # Sign bookkeeping is internal to the rule; the oracle sees the
    # character, so check the m-ladder of the sign labels has no gaps.
    ladder = sorted(int(w.parts[0][1]) for w in branch_su6_omega3_to_sp3(n).signs)
    return None if ladder == list(range(n + 1)) else ("m-ladder 0..n", str(ladder))


# Entries look module functions up at call time, so wrappers installed on
# this module's attributes (tracing, mocks) see every call.
RULES: dict[str, Rule] = {
    rule.rule_id: rule
    for rule in (
        Rule(
            "sp4_to_sp2sp2",
            embedding="sp2xsp2_in_sp4",
            params=("n",),
            source=lambda n: sp4_omega4_weight(n),
            closed=lambda n: branch_sp4_to_sp2sp2(n),
            grid=_levels,
            default_level=4,
        ),
        Rule(
            "sp2_to_su2su2",
            embedding="su2su2_in_sp2",
            params=("x", "y"),
            source=lambda x, y: make_weight(group("C2"), ((x, y),)),
            closed=lambda x, y: branch_sp2_to_su2su2(x, y),
            grid=_pairs,
            default_level=8,
        ),
        Rule(
            "so5_to_so3so2",
            embedding="so3so2_in_so5",
            params=("a", "b"),
            source=lambda a, b: make_weight(group("B2"), ((a, b),)),
            closed=lambda a, b: branch_so5_to_so3so2(a, b),
            grid=_half_pairs,
            default_level=5,
            half_integral=True,
        ),
        Rule(
            "spin10_halfspin",
            embedding="spin8u1_in_spin10",
            params=("n",),
            source=lambda n: spin10_halfspin_weight(n),
            closed=lambda n: branch_spin10_halfspin_to_spin8u1(n),
            grid=_levels,
            default_level=4,
        ),
        Rule(
            "su6_omega3",
            embedding="sp2su2u1_in_su6",
            params=("n",),
            source=lambda n: su6_omega3_weight(n),
            closed=_su6_omega3_all_charges,
            grid=_levels,
            default_level=4,
            charged=True,
        ),
        Rule(
            "su6_omega3_to_sp3",
            embedding="sp3_in_su6",
            params=("n",),
            source=lambda n: su6_omega3_weight(n),
            closed=lambda n: branch_su6_omega3_to_sp3(n).character,
            grid=_levels,
            default_level=4,
            extra=_sp3_sign_ladder,
        ),
    )
}

RULE_IDS = tuple(RULES)


def _char_repr(char: FormalCharacter) -> str:
    fragments = []
    for w, m in char.terms:
        parts = ",".join("(" + ",".join(str(x) for x in p) + ")" for p in w.parts)
        chg = ";".join(str(c) for c in w.charges)
        key = parts + ("[" + chg + "]" if chg else "")
        fragments.append(f"{m}*{key}")
    return " + ".join(fragments) if fragments else "0"


def verify_rule(
    rule_id: str, max_level: int | None = None, budget: int | None = None
) -> Report:
    """Replay one closed-form rule against restrict_generic over its grid.

    Checks are named "<rule_id> <params>" and ordered by parameters.  A case
    whose source is over budget is a BUDGET check; the sweep goes on.
    """
    try:
        rule = RULES[rule_id]
    except KeyError:
        raise KeyError(f"unknown rule {rule_id!r}") from None
    e = embedding(rule.embedding)
    top = rule.default_level if max_level is None else max_level
    checks: list[Check] = []
    for params in sorted(rule.grid(top)):
        name = " ".join(str(x) for x in (rule_id, *params))
        try:
            generic = restrict_generic(e, rule.source(*params), budget).decomposition
        except BudgetExceededError as exc:
            checks.append(Check(name, "BUDGET", "source within budget", str(exc)))
            continue
        closed = rule.closed(*params)
        status = "PASS" if closed.terms == generic.terms else "FAIL"
        check = Check(name, status, _char_repr(closed), _char_repr(generic))
        if status == "PASS" and rule.extra and (broken := rule.extra(*params)):
            check = Check(name, "FAIL", *broken)
        checks.append(check)
    return Report(rule_id, tuple(checks))
