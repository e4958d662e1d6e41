"""Restriction along catalogued embeddings: the generic oracle.

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
Every closed-form rule in ``rules`` can be replayed against it term by
term via ``rules.verify_rule``.

Weights enter and leave as ``Fraction`` ``Weight``s.  Inside, the oracle
keys every weight as an ``IntKey`` (``lattice.weight_key``), from the
walk through the fold and the certificate to
``FormalCharacter.from_int_keys``; the closed forms build the same keys.
Messages spell weights as the command line does (``lattice.format_weight``,
``lattice.spell_key``).  Its two errors, ``NegativeMultiplicityError`` and
``BudgetExceededError``, are defined in ``lattice``, so that the command
line catches them without loading this module.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction as Q
from typing import Iterable, Iterator, Mapping, NamedTuple

from .charalg import (
    FormalCharacter,
    IntKey,
    _dominant_multiplicities,
    orbit_fold,
    weight_dimension,
)
from .lattice import (
    BudgetExceededError,
    FrozenRecord,
    GroupSpec,
    InvalidWeightError,
    InvariantError,
    NegativeMultiplicityError,
    Vector,
    Weight,
    format_weight,
    group,
    normalize_vector,
    qv,
    spell,
    spell_key,
    weight_key,
)

DEFAULT_BUDGET = 200_000


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
