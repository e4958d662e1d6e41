"""Restriction along catalogued embeddings, plus closed-form branching rules.

``restrict_generic`` is the oracle.  Each embedding's coordinate map phi
is certified once, on first use: every simple reflection s of the small
group lifts to a big Weyl element w with phi(w x) = s(phi(x)), found by
matching the columns of phi's row matrix up to sign within each big
factor.  The projection of an irreducible is then Weyl-invariant for the
small group, so its dominant weights fix it, and only they are
enumerated: each dominant weight's Weyl orbit is built one coordinate at a
time, cut at the first small dominance inequality that fails.  That slice
is folded into the dominant chamber orbit by orbit (Racah-Speiser) and the
fold is certified by subtracting each term's dominant multiplicities.
Every closed-form rule below can be replayed against it term by term via
``verify_rule``.

Weights enter and leave as ``Fraction`` ``Weight``s.  Inside, the oracle
keys every weight as an ``IntKey`` (``lattice.weight_key``), from the
walk through the fold and the certificate to
``FormalCharacter.from_int_keys``; the closed forms build the same keys.
Messages and check strings spell weights and characters as the command
line does (``lattice.format_weight``, ``lattice.format_terms``); a FAIL
names the first term where closed form and oracle differ.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction as Q
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .charalg import (
    FormalCharacter,
    IntKey,
    _dominant_multiplicities,
    orbit_fold,
    weight_dimension,
)
from .lattice import (
    FrozenRecord,
    GroupSpec,
    InvalidWeightError,
    InvariantError,
    Vector,
    Weight,
    doubled,
    format_terms,
    format_weight,
    group,
    make_weight,
    normalize_vector,
    qv,
    spell,
    spell_key,
    weight_key,
)

DEFAULT_BUDGET = 200_000


class NegativeMultiplicityError(RuntimeError):
    """A negative, lost or left-over multiplicity, or a small reflection with
    no lift to the big Weyl group: the embedding map is wrong."""


class BudgetExceededError(RuntimeError):
    """Source dimension above the configured generic-restriction budget."""


#: A sparse integer row: (index, coefficient) for each nonzero entry.
SparseRow = tuple[tuple[int, int], ...]


def _sparse(row: Iterable[int]) -> SparseRow:
    return tuple((i, c) for i, c in enumerate(row) if c)


class EmbeddingMap(FrozenRecord):
    """Named linear restriction map from big-group to small-group weights.

    ``factor_rows[f]`` holds one row per coordinate of small factor ``f``;
    ``charge_rows`` holds one row per circle factor.  Rows act on the
    concatenation of the big group's factor coordinates.  Factor rows must
    be integral, so that they map doubled weights to doubled weights;
    charge rows may have any denominator.  Shapes and integrality are
    checked at construction, which also computes ``charge_denominator``,
    d, the least common denominator of the charge rows, and the rows as
    sparse integers (the charge rows times d) for ``_apply``.  The
    certificate (``_certify``) is computed on first use and kept.
    """

    _fields = ("name", "big", "small", "factor_rows", "charge_rows")
    __slots__ = (*_fields, "charge_denominator", "_integer_rows", "_certificate")

    name: str
    big: GroupSpec
    small: GroupSpec
    factor_rows: tuple[tuple[Vector, ...], ...]
    charge_rows: tuple[Vector, ...]
    charge_denominator: int
    _integer_rows: tuple[tuple[tuple[SparseRow, ...], ...], tuple[SparseRow, ...]]

    def __init__(
        self,
        name: str,
        big: GroupSpec,
        small: GroupSpec,
        factor_rows: tuple[tuple[Vector, ...], ...],
        charge_rows: tuple[Vector, ...],
    ) -> None:
        if len(factor_rows) != len(small.factors):
            raise ValueError(
                f"{name}: {len(factor_rows)} factor blocks for {len(small.factors)} factors"
            )
        if len(charge_rows) != small.circles:
            raise ValueError(
                f"{name}: {len(charge_rows)} charge rows for {small.circles} circles"
            )
        width = big.width
        for f, (rs, rows) in enumerate(zip(small.factors, factor_rows, strict=True)):
            if len(rows) != rs.ambient_dim:
                raise ValueError(
                    f"{name}: factor {f} has {len(rows)} rows for {rs.label}, "
                    f"which needs {rs.ambient_dim}"
                )
            for r, row in enumerate(rows):
                shown = spell(row)
                if len(row) != width:
                    raise ValueError(
                        f"{name}: factor {f} row {r} {shown} has length {len(row)}, not {width}"
                    )
                if any(x.denominator != 1 for x in row):
                    raise ValueError(f"{name}: factor {f} row {r} {shown} is not integral")
        for r, row in enumerate(charge_rows):
            if len(row) != width:
                raise ValueError(
                    f"{name}: charge row {r} {spell(row)} has length {len(row)}, not {width}"
                )
        d = math.lcm(*(x.denominator for row in charge_rows for x in row))
        integer_rows = (
            tuple(tuple(_sparse(int(x) for x in row) for row in rows) for rows in factor_rows),
            tuple(_sparse(int(d * x) for x in row) for row in charge_rows),
        )
        set_slot = object.__setattr__
        set_slot(self, "name", name)
        set_slot(self, "big", big)
        set_slot(self, "small", small)
        set_slot(self, "factor_rows", factor_rows)
        set_slot(self, "charge_rows", charge_rows)
        set_slot(self, "charge_denominator", d)
        set_slot(self, "_integer_rows", integer_rows)
        set_slot(self, "_certificate", None)

    def _certified(self) -> tuple[dict, tuple]:
        """``_certify(self)``, computed on first use and kept."""
        if self._certificate is None:
            object.__setattr__(self, "_certificate", _certify(self))
        return self._certificate

    def _apply(self, flat: IntKey) -> IntKey:
        """Image of a doubled big-group weight as a small-group ``IntKey``:
        each doubled part normalized, then the doubled charges.  The charge
        rows, times d, give integer charges in the unit 1/(2d); a doubled
        charge is that divided by d."""
        factors, charge_rows = self._integer_rows
        d = self.charge_denominator
        # Runs once per source weight; list comprehensions beat generators here.
        key: list[int] = []
        for rs, rows in zip(self.small.factors, factors):
            key += normalize_vector(rs, [sum([c * flat[i] for i, c in row]) for row in rows])
        for row in charge_rows:
            charge, rest = divmod(sum([c * flat[i] for i, c in row]), d)
            if rest:
                raise InvalidWeightError("circle charges must be integers or half-integers")
            key.append(charge)
        return tuple(key)


def _lift_block(
    columns: list[tuple[int, ...]], images: list[tuple[int, ...]], series: str, block: range
) -> list[tuple[int, int]] | None:
    """A one-to-one match of one big factor's reflected columns ``images``
    to its ``columns``, up to sign unless ``series`` is A: (k, sign) per
    column, or None.  A D factor needs an even sign count; the signs of
    columns equal up to sign have a fixed product, so only a zero column,
    whose sign is free, can mend an odd one."""
    signed = series != "A"

    def shape(c: tuple[int, ...]) -> tuple[int, ...]:
        return max(c, tuple(-x for x in c)) if signed else c

    targets: dict[tuple[int, ...], list[int]] = {}
    for k in block:
        targets.setdefault(shape(columns[k]), []).append(k)
    lift = []
    for j in block:
        found = targets.get(shape(images[j]))
        if not found:
            return None
        k = found.pop()
        lift.append((k, 1 if columns[k] == images[j] else -1))
    if series == "D" and sum(sign < 0 for _, sign in lift) % 2:
        zeros = [n for n, j in enumerate(block) if not any(columns[j])]
        if not zeros:
            return None
        lift[zeros[0]] = (lift[zeros[0]][0], -1)
    return lift


def _certify(e: EmbeddingMap) -> tuple[dict, tuple]:
    """Lift every simple reflection s of every small factor to a big Weyl
    element w with phi(w x) = s(phi(x)), and plan the dominant-slice walk.

    phi is the row matrix, charge rows times d; its column j is the image of
    big coordinate j.  w permutes each big factor's coordinates, with signs
    for B, C and D, so phi w is phi with its columns moved the same way:
    w exists when, within each big factor, the columns reflected by s are
    the factor's columns, matched one to one (``_lift_block``).  Then the
    projection of a Weyl-invariant multiset is invariant under each s, so
    under the small Weyl group, and its dominant slice fixes it.  The lifts
    are keyed (factor, reflection), each (k, sign) per big coordinate j: w
    sends coordinate j to sign times coordinate k.

    The walk's plan: each small dominance inequality, a simple root times
    its factor's rows, is a form over big coordinates that must be >= 0.
    Coordinates are ordered so that the form with the fewest coordinates
    left is completed first.  A step is (coordinate, big factor, the forms
    it completes, the factor's slice if it is the factor's last, else None).
    """
    d = e.charge_denominator
    rows = [tuple(int(x) for x in row) for rows in e.factor_rows for row in rows]
    rows += [tuple(int(d * x) for x in row) for row in e.charge_rows]
    columns = list(zip(*rows))
    lifts = {}
    forms = []
    for f, (rs, part) in enumerate(zip(e.small.factors, e.small.slices)):
        for i, root in enumerate(rs.simple_roots, 1):
            alpha = tuple(map(int, root))
            norm = sum(a * a for a in alpha)
            form = []
            images = []
            for j, c in enumerate(columns):
                dot = sum(a * x for a, x in zip(alpha, c[part]))
                if dot:
                    form.append((j, dot))
                reflected = list(c)
                reflected[part] = [x - 2 * dot // norm * a for x, a in zip(c[part], alpha)]
                images.append(tuple(reflected))
            lift = []
            for rs_big, bl in zip(e.big.factors, e.big.slices):
                matched = _lift_block(columns, images, rs_big.series, range(bl.start, bl.stop))
                if matched is None:
                    raise NegativeMultiplicityError(
                        f"{e.name}: simple reflection {i} of factor {f} ({rs.label}) "
                        f"has no lift to the Weyl group of {e.big}"
                    )
                lift += matched
            lifts[f, i] = tuple(lift)
            if form:
                forms.append(tuple(form))
    order: list[int] = []
    pending = [{j for j, _ in form} for form in forms]
    while len(order) < e.big.width:
        started = [p for p in pending if p]
        following = min(started, key=len) if started else set(range(e.big.width)) - set(order)
        for j in sorted(following):
            order.append(j)
            for p in pending:
                p.discard(j)
    position = {j: depth for depth, j in enumerate(order)}
    cuts: list[list] = [[] for _ in order]
    for form in forms:
        cuts[max(position[j] for j, _ in form)].append(form)
    owner = [b for b, rs in enumerate(e.big.factors) for _ in range(rs.ambient_dim)]
    ends = {max(position[j] for j in range(bl.start, bl.stop)): bl for bl in e.big.slices}
    steps = tuple(
        (j, owner[j], tuple(cuts[depth]), ends.get(depth)) for depth, j in enumerate(order)
    )
    return lifts, steps


def _rows(*entries: Iterable[int | str | Q]) -> tuple[Vector, ...]:
    return tuple(qv(*row) for row in entries)


def _unit_rows(dim: int, *indices: int) -> tuple[Vector, ...]:
    return _rows(*([int(j == i) for j in range(dim)] for i in indices))


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
        )
    )
    entries.append(
        EmbeddingMap(
            "sp2su2so2_in_sp4",
            group("C4"),
            group("C2", "A1", circles=1),
            (_unit_rows(4, 0, 1), _rows((0, 0, 1, 1))),
            _rows((0, 0, 1, -1)),
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


class BranchResult(NamedTuple):
    """A restriction and the work it took: the source's dominant weights,
    the nodes and leaves of the dominant-slice walk, the signed terms of
    the fold and the subtractions of the certificate."""

    source: tuple[GroupSpec, Weight]
    embedding_name: str
    decomposition: FormalCharacter
    source_weights: int
    nodes: int
    leaves: int
    folded_terms: int
    subtractions: int


def _dominant_parts(gs: GroupSpec, top: IntKey) -> Iterator[tuple[tuple[IntKey, ...], int]]:
    """The dominant weights of the irreducible of ``gs`` with key ``top``,
    one normalized part per factor, with their multiplicities: products of
    the factors' cached ``_dominant_multiplicities``."""
    per_factor = [
        [(normalize_vector(rs, mu), m) for mu, m in _dominant_multiplicities(rs, top[part]).items()]
        for rs, part in zip(gs.factors, gs.slices)
    ]
    for combo in itertools.product(*per_factor):
        yield tuple(mu for mu, _ in combo), math.prod(m for _, m in combo)


def _walk_slice(e: EmbeddingMap, hw_key: IntKey) -> tuple[dict[IntKey, int], int, int, int]:
    """The dominant slice of the projected source, with the counts of source
    dominant weights, walk nodes and leaves.

    For each dominant weight of the source, its Weyl orbit is built one
    coordinate at a time, in the certificate's order: each big factor's
    coordinates take the weight's entries, each once (permutations for A),
    with either sign for B, C and D, and for D with no zero entry the sign
    count of the weight's parity.  A branch is cut at the first small
    dominance form that it completes with a negative value, so only orbit
    elements that project dominant reach a leaf, where ``_apply`` keys them
    and checks their charges.  A small reflection fixes the charges, so the
    charges of the whole projection are among the leaves'."""
    _, steps = e._certified()
    width = len(steps)
    x = [0] * width
    found: dict[IntKey, int] = {}
    weights = nodes = leaves = 0

    def walk(depth: int) -> None:  # reads the current weight's mult, pools and parity
        nonlocal nodes, leaves
        if depth == width:
            leaves += 1
            key = e._apply(tuple(x))
            found[key] = found.get(key, 0) + mult
            return
        j, b, cuts, block = steps[depth]
        left = pools[b]
        for v, n in left.items():
            if not n:
                continue
            left[v] = n - 1
            for y in (v, -v) if v and signed[b] else (v,):
                x[j] = y
                if block is not None and parity[b] not in (None, sum(y < 0 for y in x[block]) % 2):
                    continue
                nodes += 1
                for form in cuts:
                    if sum([c * x[k] for k, c in form]) < 0:
                        break
                else:
                    walk(depth + 1)
            left[v] = n

    signed = [rs.series != "A" for rs in e.big.factors]
    for parts, mult in _dominant_parts(e.big, hw_key):
        weights += 1
        pools = []
        parity = []
        for rs, part in zip(e.big.factors, parts):
            pool: dict[int, int] = {}
            for y in part:
                pool[abs(y)] = pool.get(abs(y), 0) + 1
            pools.append(pool)
            d_parity = rs.series == "D" and 0 not in pool
            parity.append(sum(y < 0 for y in part) % 2 if d_parity else None)
        walk(0)
    return found, weights, nodes, leaves


def _fold(gs: GroupSpec, dominant: Mapping[IntKey, int]) -> tuple[dict[IntKey, int], int]:
    """The signed chamber fold of the Weyl-invariant multiset with these
    dominant multiplicities, and the number of signed terms added: per key,
    the product of its parts' ``orbit_fold``s, charges untouched; zero
    coefficients dropped."""
    out: dict[IntKey, int] = {}
    terms = 0
    for top, mult in dominant.items():
        charges = top[gs.width :]
        folds = [orbit_fold(rs, top[part]).items() for rs, part in zip(gs.factors, gs.slices)]
        for combo in itertools.product(*folds):
            terms += 1
            image = sum([vec for vec, _ in combo], ()) + charges
            out[image] = out.get(image, 0) + mult * math.prod(s for _, s in combo)
    return {k: v for k, v in out.items() if v != 0}, terms


def restrict_generic(
    e: EmbeddingMap, hw: Weight, budget: int | None = None
) -> BranchResult:
    """Restrict one irreducible of ``e.big`` along the embedding.

    ``hw`` is keyed by ``lattice.weight_key`` and checked for dominance
    once, by ``charalg.dimension``.  Then the map is certified, once per
    map (``_certify``): each small simple reflection s has a big Weyl
    element w with phi(w x) = s(phi(x)).  A Weyl-invariant source then
    projects to a multiset that each s, so the small Weyl group, fixes, and
    its dominant slice determines it.  Then the budget.  The slice is walked
    directly (``_walk_slice``): each dominant weight of ``hw`` (cached
    Freudenthal multiplicities) spreads over its Weyl orbit coordinate by
    coordinate, cut as soon as a small dominance inequality fails, and
    only the orbit elements that project dominant are projected.  The slice
    is folded orbit by orbit (``charalg.orbit_fold``); a negative
    coefficient or a lost dimension aborts, nothing is clamped.  As a
    certificate, every term's dominant multiplicities are then subtracted
    from the slice, which must stay non-negative and end empty: a wrong map
    can fold to a non-negative, dimension-conserving answer.  Every failure
    is a ``NegativeMultiplicityError``.  The walk, fold and certificate run
    on integer keys (see the module docstring), and the result counts
    their work.
    """
    limit = DEFAULT_BUDGET if budget is None else budget
    hw_key = weight_key(e.big, hw)
    source_dim = weight_dimension(e.big, hw)
    e._certified()
    if source_dim > limit:
        raise BudgetExceededError(
            f"dim {source_dim} exceeds generic-restriction budget {limit}"
        )
    try:
        remaining, weights, nodes, leaves = _walk_slice(e, hw_key)
    except InvalidWeightError as exc:
        raise InvalidWeightError(f"{e.name}: projecting {format_weight(hw)}: {exc}") from None

    folded, folded_terms = _fold(e.small, remaining)
    for key, coeff in folded.items():
        if coeff < 0:
            raise NegativeMultiplicityError(
                f"{e.name}: negative coefficient {coeff} at {spell_key(e.small, key)}"
            )
    decomposition = FormalCharacter.from_int_keys(e.small, folded)
    target_dim = decomposition.total_dimension()
    if target_dim != source_dim:
        raise NegativeMultiplicityError(
            f"{e.name}: dimension {target_dim} restricted from {source_dim}"
        )
    width = e.small.width
    subtractions = 0
    for top, (w, coeff) in zip(sorted(folded), decomposition.terms, strict=True):
        for parts, mult in _dominant_parts(e.small, top):
            subtractions += 1
            key = sum(parts, ()) + top[width:]
            value = remaining.get(key, 0) - coeff * mult
            if value < 0:
                raise NegativeMultiplicityError(
                    f"{e.name}: subtracting {format_weight(w)} drove "
                    f"{spell_key(e.small, key)} negative"
                )
            if value == 0:
                remaining.pop(key, None)
            else:
                remaining[key] = value
    if remaining:
        raise NegativeMultiplicityError(
            f"{e.name}: {len(remaining)} dominant projected weights left after "
            "subtracting every term"
        )
    return BranchResult(
        (e.big, hw), e.name, decomposition, weights, nodes, leaves, folded_terms, subtractions
    )


# --------------------------------------------------------------------------
# Closed-form rules.


def branch_sp4_to_sp2sp2(n: int) -> FormalCharacter:
    """Level-n fourth-fundamental restriction Sp(4) -> Sp(2) x Sp(2).

    Multiplicity-free sum of V_(x,y) (x) V_(x,y) over x >= y >= 0, x <= n.
    """
    if n < 0:
        raise ValueError("level must be non-negative")
    terms = {(2 * x, 2 * y, 2 * x, 2 * y): 1 for x in range(n + 1) for y in range(x + 1)}
    return FormalCharacter.from_int_keys(group("C2", "C2"), terms)


def su2su2_coefficient(x: int, y: int, a: int, b: int) -> int:
    """Multiplicity of V_a (x) V_b in V_(x,y) under SU2 x SU2."""
    if a < 0 or b < 0:
        return 0
    ok = (
        (a + b) % 2 == (x + y) % 2
        and abs(a - b) <= x - y <= a + b <= x + y
    )
    return 1 if ok else 0


def _sp2_to_su2su2_core(x: int, y: int) -> tuple[tuple[int, int], ...]:
    """The sorted (a, b) of ``branch_sp2_to_su2su2(x, y)``, each of multiplicity one."""
    if not x >= y >= 0:
        raise ValueError("need x >= y >= 0")
    return tuple(
        (a, b)
        for a in range(x + y + 1)
        for b in range(x + y + 1)
        if su2su2_coefficient(x, y, a, b)
    )


def branch_sp2_to_su2su2(x: int, y: int) -> FormalCharacter:
    """Restriction of V_(x,y) from Sp(2) to SU2 x SU2.

    Multiplicity-free sum of V_a (x) V_b with a+b = x+y (mod 2),
    |a-b| <= x-y and x-y <= a+b <= x+y.
    """
    terms = {(2 * a, 2 * b): 1 for a, b in _sp2_to_su2su2_core(x, y)}
    return FormalCharacter.from_int_keys(group("A1", "A1"), terms)


def _so5_to_so3so2_core(a2: int, b2: int) -> dict[tuple[int, int], int]:
    """``branch_so5_to_so3so2`` on doubled ints: (2a, 2b) to {(2c, 2k): mult},
    2c the SU2 weight of V_c and 2k the doubled SO(2) charge.

    chi[c] is A(b) B(a-c) for c >= b and A(c) B(a-b) for c < b, where A(p)
    has the charges p, p-1, .., -p and B(q) the charges q, q-2, .., -q.
    """
    if not (a2 >= b2 >= 0 and (a2 - b2) % 2 == 0):
        raise ValueError("need a >= b >= 0 with a = b mod Z")
    out: dict[tuple[int, int], int] = {}
    for c2 in range(a2 % 2, a2 + 1, 2):  # c = a mod Z, 0 <= c <= a
        p2, q2 = (b2, a2 - c2) if c2 >= b2 else (c2, a2 - b2)
        for u in range(-p2, p2 + 1, 2):
            for v in range(-q2, q2 + 1, 4):
                out[(c2, u + v)] = out.get((c2, u + v), 0) + 1
    return out


def branch_so5_to_so3so2(a: Q | int, b: Q | int) -> FormalCharacter:
    """Restriction of the SO(5) irreducible (a, b) to SO(3) x SO(2).

    The SO(3) piece V_c is encoded as the SU2 weight 2c; SO(2) charges are
    half-integers on spin weights.  chi[c] is A(b) B(a-c) for a >= c >= b
    and A(c) B(a-b) for a >= b >= c, with A(n) running in steps of 1 and
    B(n) in steps of 2.
    """
    a, b = qv(a, b)
    if not (a >= b >= 0 and (a - b).denominator == 1):
        raise ValueError("need a >= b >= 0 with a = b mod Z")
    a2, b2 = doubled((a, b))
    core = _so5_to_so3so2_core(a2, b2)
    return FormalCharacter.from_int_keys(
        group("A1", circles=1), {(2 * c2, k2): m for (c2, k2), m in core.items()}
    )


def branch_spin10_halfspin_to_spin8u1(n: int) -> FormalCharacter:
    """Restriction of the n-th half-spin power from Spin(10) to Spin(8) x U(1).

    Sum of V_(n/2,n/2,n/2,b/2) (x) chi_b over integers b with |b| <= n and
    b = n (mod 2).
    """
    if n < 0:
        raise ValueError("level must be non-negative")
    terms = {(n, n, n, b, 2 * b): 1 for b in range(-n, n + 1, 2)}
    return FormalCharacter.from_int_keys(group("D4", circles=1), terms)


def _su6_omega3_to_sp2su2u1_core(n: int, m: int) -> list[tuple[int, int, int]]:
    """The (x, y, z) of ``branch_su6_omega3_to_sp2su2u1(n, m)``, each of
    multiplicity one: V_(x,y) (x) V_z at charge m."""
    if n < 0:
        raise ValueError("level must be non-negative")
    mm = abs(m)
    out: list[tuple[int, int, int]] = []
    if mm > n:
        return out
    for t in range((n - mm) // 2 + 1):
        z = n - mm - 2 * t
        for s in range(2 * t + mm, 2 * n - 2 * t - mm + 1, 2):  # s = x + y
            for d in range(mm, min(mm + 2 * t, s) + 1, 2):  # d = x - y
                out.append(((s + d) // 2, (s - d) // 2, z))
    return out


def branch_su6_omega3_to_sp2su2u1(n: int, m: int) -> FormalCharacter:
    """Charge-m block of the n-th third-fundamental power under
    Sp(2) x SU2 x U(1) inside SU(6).

    For m >= 0 the block is sum over t >= 0 of (sum V_(x,y)) (x) V_{n-m-2t}
    with x+y = m (mod 2) and 2n-2t-2m >= x+y-m >= 2t >= x-y-m >= 0.
    Negative m is defined by charge negation of the |m| block.
    |m| > n yields the empty character.
    """
    terms = {
        (2 * x, 2 * y, 2 * z, 2 * m): 1
        for x, y, z in _su6_omega3_to_sp2su2u1_core(n, m)
    }
    return FormalCharacter.from_int_keys(group("C2", "A1", circles=1), terms)


class SignedCharacter(NamedTuple):
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
    char = FormalCharacter.from_int_keys(
        group("C3"), {(2 * n, 2 * m, 2 * m): 1 for m in range(n + 1)}
    )
    # The terms are sorted, so the m-th one is V_(n,m,m).
    signs = {w: (-1) ** (n - m) for m, (w, _) in enumerate(char.terms)}
    return SignedCharacter(char, signs)


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


class Check(NamedTuple):
    """One named check.

    Sweeps report PASS, FAIL or BUDGET (source over the oracle's budget, so
    not checked); ``liedual branch`` reports MATCH, MISMATCH or NOTE.
    """

    name: str
    status: str
    expected: str
    actual: str


class Report(NamedTuple):
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


class Rule(NamedTuple):
    """A closed-form branching rule and how to replay it against the oracle.

    ``source(*params)`` is the highest weight restricted along the embedding
    and ``closed(*params)`` its predicted decomposition; ``grid(level)``
    lists the parameter tuples checked up to ``level``.  Parameters are
    non-negative integers, or half-integers if ``half_integral``.  A
    ``charged`` rule's closed form spans every circle charge, and
    ``liedual branch --charge m`` keeps the charge-m block.
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
    terms = {
        (2 * x, 2 * y, 2 * z, 2 * m): 1
        for m in range(-n, n + 1)  # charge blocks are disjoint
        for x, y, z in _su6_omega3_to_sp2su2u1_core(n, m)
    }
    return FormalCharacter.from_int_keys(group("C2", "A1", circles=1), terms)


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
        ),
    )
}

RULE_IDS = tuple(RULES)


def verify_rule(
    rule_id: str, max_level: int | None = None, budget: int | None = None
) -> Report:
    """Replay one closed-form rule against restrict_generic over its grid.

    Checks are named "<rule_id> <params>" and ordered by parameters.  A case
    whose source is over budget is a BUDGET check; the sweep goes on.  A
    FAIL's ``actual`` starts with the first term that differs.
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
        actual = format_terms(generic.terms)
        status = "PASS" if closed.terms == generic.terms else "FAIL"
        if status == "FAIL":
            w = min((w for w, _ in set(closed.terms) ^ set(generic.terms)), key=Weight.sort_key)
            actual = (
                f"first difference at {format_weight(w)}: expected {closed.multiplicity(w)}, "
                f"actual {generic.multiplicity(w)}; {actual}"
            )
        checks.append(Check(name, status, format_terms(closed.terms), actual))
    return Report(rule_id, tuple(checks))
