"""Root systems in classical epsilon coordinates, with exact arithmetic.

Supported simple types: A1 (one-dimensional realization, simple root 2*eps),
A5 (in R^6, weights taken modulo the all-ones vector and normalized so the
minimum coordinate is 0), B2, C2, C3, C4, D4, D5.  At the API, vectors are
tuples of ``fractions.Fraction``; all weight-lattice coordinates have
denominator 1 or 2, so twice a weight is an integer tuple; ``doubled`` and
``halved`` convert between the two.  The character oracle (``charalg``,
``branching``) runs on those doubled ``int`` tuples inside:
``dominant_conjugate``, ``weyl_orbit`` and ``normalize_vector`` only
sort, negate, subtract and compare entries, so they are exact on ``int``
tuples too and commute with doubling.  Everything here is immutable and pure.

Cartan-matrix convention: ``a[i][j] = <alpha_i, alpha_j^vee>``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Iterable, Sequence

Vector = tuple[Q, ...]

SUPPORTED_TYPES = ("A1", "A5", "B2", "C2", "C3", "C4", "D4", "D5")

#: Expected Cartan matrices, row i = <alpha_i, alpha_j^vee>.
_STANDARD_CARTAN: dict[str, tuple[tuple[int, ...], ...]] = {
    "A1": ((2,),),
    "A5": (
        (2, -1, 0, 0, 0),
        (-1, 2, -1, 0, 0),
        (0, -1, 2, -1, 0),
        (0, 0, -1, 2, -1),
        (0, 0, 0, -1, 2),
    ),
    "B2": ((2, -2), (-1, 2)),
    "C2": ((2, -1), (-2, 2)),
    "C3": ((2, -1, 0), (-1, 2, -1), (0, -2, 2)),
    "C4": ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -2, 2)),
    "D4": ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2)),
    "D5": (
        (2, -1, 0, 0, 0),
        (-1, 2, -1, 0, 0),
        (0, -1, 2, -1, -1),
        (0, 0, -1, 2, 0),
        (0, 0, -1, 0, 2),
    ),
}


class UnsupportedTypeError(ValueError):
    """Raised for a Cartan type label outside the supported list."""


class InvariantError(RuntimeError):
    """An exact-arithmetic invariant failed: a defect here, not bad input."""


def qv(*entries: int | str | Q) -> Vector:
    """Build an exact coordinate vector."""
    return tuple(Q(e) for e in entries)


def dot(u: Vector, v: Vector) -> Q:
    return sum((a * b for a, b in zip(u, v, strict=True)), Q(0))


def vadd(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vsub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vneg(u: Vector) -> Vector:
    return tuple(-a for a in u)


def vscale(c: Q | int, u: Vector) -> Vector:
    return tuple(c * a for a in u)


def _unit(dim: int, i: int, value: int = 1) -> Vector:
    v = [Q(0)] * dim
    v[i] = Q(value)
    return tuple(v)


@dataclass(frozen=True)
class RootSystem:
    """A simple root system realized in rational ambient coordinates."""

    label: str
    series: str
    rank: int
    ambient_dim: int
    simple_roots: tuple[Vector, ...]
    positive_roots: tuple[Vector, ...]
    weyl_vector: Vector

    def __repr__(self) -> str:  # keep reprs short in reports
        return f"RootSystem({self.label})"

    def __hash__(self) -> int:
        # The label determines the system; caches keyed on it would
        # otherwise hash every root's Fractions on each lookup.
        return hash(self.label)


def _half_sum(vectors: Iterable[Vector], dim: int) -> Vector:
    total = tuple(Q(0) for _ in range(dim))
    for v in vectors:
        total = vadd(total, v)
    return vscale(Q(1, 2), total)


@functools.lru_cache(maxsize=None)
def build_root_system(label: str) -> RootSystem:
    """Return the standard-coordinate root system for a supported type."""
    if label not in SUPPORTED_TYPES:
        raise UnsupportedTypeError(f"unsupported type label {label!r}")
    series, rank = label[0], int(label[1:])
    if label == "A1":
        dim = 1
        simple = [qv(2)]
        positive = [qv(2)]
    elif label == "A5":
        dim = 6
        simple = [vsub(_unit(dim, i), _unit(dim, i + 1)) for i in range(5)]
        positive = [
            vsub(_unit(dim, i), _unit(dim, j))
            for i in range(dim)
            for j in range(i + 1, dim)
        ]
    elif label == "B2":
        dim = 2
        simple = [qv(1, -1), qv(0, 1)]
        positive = [qv(1, -1), qv(0, 1), qv(1, 0), qv(1, 1)]
    elif series == "C":
        dim = rank
        simple = [vsub(_unit(dim, i), _unit(dim, i + 1)) for i in range(rank - 1)]
        simple.append(_unit(dim, rank - 1, 2))
        positive = []
        for i in range(rank):
            for j in range(i + 1, rank):
                positive.append(vsub(_unit(dim, i), _unit(dim, j)))
                positive.append(vadd(_unit(dim, i), _unit(dim, j)))
        positive.extend(_unit(dim, i, 2) for i in range(rank))
    else:  # D series
        dim = rank
        simple = [vsub(_unit(dim, i), _unit(dim, i + 1)) for i in range(rank - 1)]
        simple.append(vadd(_unit(dim, rank - 2), _unit(dim, rank - 1)))
        positive = []
        for i in range(rank):
            for j in range(i + 1, rank):
                positive.append(vsub(_unit(dim, i), _unit(dim, j)))
                positive.append(vadd(_unit(dim, i), _unit(dim, j)))
    rs = RootSystem(
        label=label,
        series=series,
        rank=rank,
        ambient_dim=dim,
        simple_roots=tuple(simple),
        positive_roots=tuple(positive),
        weyl_vector=_half_sum(positive, dim),
    )
    _check_invariants(rs)
    return rs


def cartan_matrix(rs: RootSystem) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix a[i][j] = <alpha_i, alpha_j^vee> from the stored roots."""
    rows = []
    for a in rs.simple_roots:
        row = []
        for b in rs.simple_roots:
            entry = pairing(a, b)
            if entry.denominator != 1:
                raise ValueError(f"non-integral Cartan entry for {rs.label}")
            row.append(int(entry))
        rows.append(tuple(row))
    return tuple(rows)


def _check_invariants(rs: RootSystem) -> None:
    if cartan_matrix(rs) != _STANDARD_CARTAN[rs.label]:
        raise ValueError(f"Cartan matrix mismatch for {rs.label}")
    for a in rs.simple_roots:
        if pairing(rs.weyl_vector, a) != 1:
            raise ValueError(f"Weyl vector pairing defect for {rs.label}")
    expected = {"A": rank_count_a, "B": rank_count_bc, "C": rank_count_bc, "D": rank_count_d}
    if len(rs.positive_roots) != expected[rs.series](rs.rank):
        raise ValueError(f"positive root count defect for {rs.label}")


def rank_count_a(rank: int) -> int:
    return rank * (rank + 1) // 2


def rank_count_bc(rank: int) -> int:
    return rank * rank


def rank_count_d(rank: int) -> int:
    return rank * (rank - 1)


def pairing(v: Vector, root: Vector) -> Q:
    """Pairing <v, root^vee> = 2 (v, root) / (root, root)."""
    return 2 * dot(v, root) / dot(root, root)


def reflect(v: Vector, root: Vector) -> Vector:
    return vsub(v, vscale(pairing(v, root), root))


def is_dominant_vector(rs: RootSystem, v: Vector) -> bool:
    return all(pairing(v, a) >= 0 for a in rs.simple_roots)


def _perm_sign(order: list[int]) -> int:
    inversions = 0
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            if order[i] > order[j]:
                inversions += 1
    return -1 if inversions % 2 else 1


def dominant_conjugate(rs: RootSystem, v: Vector) -> tuple[Vector, int]:
    """Dominant Weyl-orbit representative of ``v`` and the sign of the move.

    The sign is the determinant of the Weyl element applied, or 0 when the
    vector lies on a reflection wall (equivalently, when its stabilizer in
    the Weyl group is non-trivial).  Per-series closed forms: A sorts, B/C
    sort absolute values, D sorts absolute values with an even number of
    sign changes; ``dominant_conjugate_by_reflections`` is the generic
    oracle the closed forms are tested against.  Exact on ``int`` tuples.
    """
    if rs.label == "A1":
        x = v[0]
        if x == 0:
            return v, 0
        return (abs(x),), 1 if x > 0 else -1
    if rs.series == "A":
        order = sorted(range(len(v)), key=lambda i: v[i], reverse=True)
        w = tuple(v[i] for i in order)
        if any(w[i] == w[i + 1] for i in range(len(w) - 1)):
            return w, 0
        return w, _perm_sign(order)
    if rs.series in ("B", "C"):
        order = sorted(range(len(v)), key=lambda i: abs(v[i]), reverse=True)
        w = tuple(abs(v[i]) for i in order)
        if w[-1] == 0 or any(w[i] == w[i + 1] for i in range(len(w) - 1)):
            return w, 0
        flips = sum(1 for x in v if x < 0)
        return w, _perm_sign(order) * (-1 if flips % 2 else 1)
    # D series: only even sign-change counts exist, so the negative-entry
    # count mod 2 is an orbit invariant unless a zero absorbs it; an odd
    # count moves one sign onto the smallest entry.
    order = sorted(range(len(v)), key=lambda i: abs(v[i]), reverse=True)
    w = [abs(v[i]) for i in order]
    on_wall = any(w[i] == w[i + 1] for i in range(len(w) - 1))
    negatives = sum(1 for x in v if x < 0)
    if negatives % 2 and w[-1] != 0:
        w[-1] = -w[-1]
    if on_wall:
        return tuple(w), 0
    return tuple(w), _perm_sign(order)


def dominant_conjugate_by_reflections(rs: RootSystem, v: Vector) -> tuple[Vector, int]:
    """Simple-reflection walk to the dominant chamber; oracle path."""
    current = v
    steps = 0
    moved = True
    while moved:
        moved = False
        for a in rs.simple_roots:
            if pairing(current, a) < 0:
                current = reflect(current, a)
                steps += 1
                moved = True
    if any(pairing(current, a) == 0 for a in rs.simple_roots):
        return current, 0
    return current, -1 if steps % 2 else 1


def _signed_spreads(base: Vector, parity: int | None) -> Iterable[Vector]:
    """Sign patterns on the nonzero entries of ``base``.

    parity None allows every pattern (B/C orbits, or D orbits with a zero
    entry); otherwise only patterns whose negative count has the given
    parity (D orbits preserve it).
    """
    hot = [i for i, x in enumerate(base) if x != 0]
    for signs in itertools.product((1, -1), repeat=len(hot)):
        if parity is not None and sum(1 for s in signs if s < 0) % 2 != parity:
            continue
        out = list(base)
        for i, s in zip(hot, signs):
            out[i] = s * out[i]
        yield tuple(out)


def weyl_orbit(rs: RootSystem, v: Vector) -> frozenset[Vector]:
    """Full Weyl-group orbit of ``v``; exact on ``int`` tuples."""
    if rs.label == "A1":
        return frozenset({v, (-v[0],)})
    if rs.series == "A":
        return frozenset(itertools.permutations(v))
    base = tuple(abs(x) for x in v)
    perms = set(itertools.permutations(base))
    parity: int | None = None
    if rs.series == "D" and 0 not in base:
        parity = sum(1 for x in v if x < 0) % 2
    out: set[Vector] = set()
    for p in perms:
        out.update(_signed_spreads(p, parity))
    return frozenset(out)


def weyl_group_order(rs: RootSystem) -> int:
    return _weyl_order(rs.series, rs.rank)


def _weyl_order(series: str, rank: int) -> int:
    fact = 1
    for k in range(2, rank + 1):
        fact *= k
    if series == "A":
        return fact * (rank + 1)
    if series in ("B", "C"):
        return (2**rank) * fact
    if series == "D":
        return (2 ** (rank - 1)) * fact
    raise UnsupportedTypeError(series)


def weyl_orbit_size(rs: RootSystem, v: Vector) -> int:
    """Orbit size |W| / |Stab(v)| for a dominant vector.

    The stabilizer of a dominant vector is the parabolic subgroup generated
    by the simple reflections fixing it, so its order is a product of Weyl
    orders of the connected sub-diagrams on those nodes.
    """
    if not is_dominant_vector(rs, v):
        raise ValueError("weyl_orbit_size requires a dominant vector")
    fixed = [i for i, a in enumerate(rs.simple_roots) if pairing(v, a) == 0]
    order = weyl_group_order(rs)
    stab = 1
    for component in _diagram_components(rs, fixed):
        stab *= _component_weyl_order(rs, component)
    if order % stab:
        raise InvariantError(f"stabilizer order {stab} does not divide {order}")
    return order // stab


def _diagram_components(rs: RootSystem, nodes: list[int]) -> list[list[int]]:
    remaining = set(nodes)
    components = []
    while remaining:
        seed = remaining.pop()
        comp = {seed}
        frontier = [seed]
        while frontier:
            i = frontier.pop()
            for j in list(remaining):
                if dot(rs.simple_roots[i], rs.simple_roots[j]) != 0:
                    remaining.discard(j)
                    comp.add(j)
                    frontier.append(j)
        components.append(sorted(comp))
    return components


def _component_weyl_order(rs: RootSystem, component: list[int]) -> int:
    # Classify the sub-root-system spanned by these simple roots through its
    # rank and positive-root count; the (A3, D3) coincidence is harmless
    # because the Weyl orders agree.
    span = [rs.simple_roots[i] for i in component]
    count = 0
    for root in rs.positive_roots:
        coords = _solve_in_basis(span, root)
        if coords is not None:
            count += 1
    rank = len(component)
    if count == rank_count_a(rank):
        return _weyl_order("A", rank)
    if count == rank_count_bc(rank):
        return _weyl_order("B", rank)
    if count == rank_count_d(rank):
        return _weyl_order("D", rank)
    raise ValueError(f"unrecognized sub-diagram of {rs.label}")


def _solve_in_basis(basis: list[Vector], target: Vector) -> tuple[Q, ...] | None:
    """Coordinates of ``target`` in a linearly independent basis, or None."""
    n = len(basis)
    gram = [[dot(basis[i], basis[j]) for j in range(n)] for i in range(n)]
    rhs = [dot(basis[i], target) for i in range(n)]
    coords = _solve_linear(gram, rhs)
    if coords is None:
        return None
    rebuilt = tuple(Q(0) for _ in target)
    for c, b in zip(coords, basis, strict=True):
        rebuilt = vadd(rebuilt, vscale(c, b))
    if rebuilt != target:
        return None
    return tuple(coords)


def _solve_linear(matrix: list[list[Q]], rhs: list[Q]) -> list[Q] | None:
    """Exact Gaussian elimination for a small square system."""
    n = len(matrix)
    m = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def root_coordinates(rs: RootSystem, v: Vector) -> tuple[Q, ...] | None:
    """Coefficients of ``v`` in the simple-root basis, or None if off-span.

    Closed partial-sum forms per series; agrees with the generic Gram-solve
    path on the span.  Halves are ``Fraction`` halves, so ``int`` input
    gives exact coordinates too.
    """
    half = Q(1, 2)
    if rs.label == "A1":
        return (v[0] * half,)
    sums = list(itertools.accumulate(v))
    if rs.series == "A":
        if sums[-1] != 0:
            return None
        return tuple(sums[:-1])
    if rs.label == "B2":
        return (sums[0], sums[1])
    if rs.series == "C":
        return tuple(sums[:-1]) + (sums[-1] * half,)
    # D series
    last = sums[-1] * half
    return tuple(sums[:-2]) + (sums[-2] - last, last)


@functools.lru_cache(maxsize=None)
def height_functional(rs: RootSystem) -> Vector:
    """Vector h with (alpha_i, h) = 1 for all simple roots.

    Pairing against h decreases by exactly 1 under subtraction of a simple
    root; ``height`` uses it to order the Freudenthal recursion.
    """
    n = rs.rank
    gram = [
        [dot(rs.simple_roots[i], rs.simple_roots[j]) for j in range(n)]
        for i in range(n)
    ]
    coeffs = _solve_linear(gram, [Q(1)] * n)
    if coeffs is None:
        raise InvariantError(f"singular Gram matrix for {rs.label}")
    h = tuple(Q(0) for _ in range(rs.ambient_dim))
    for c, a in zip(coeffs, rs.simple_roots, strict=True):
        h = vadd(h, vscale(c, a))
    return h


def height(rs: RootSystem, v: Vector) -> Q:
    return dot(v, height_functional(rs))


def in_weight_lattice(rs: RootSystem, v: Vector) -> bool:
    """Weight-lattice membership in the stored coordinates.

    B and D types admit spin weights: either all coordinates integral or
    all half-odd-integral.  A and C types require integers.
    """
    if len(v) != rs.ambient_dim:
        return False
    if any(x.denominator not in (1, 2) for x in v):
        return False
    if rs.series in ("A", "C"):
        return all(x.denominator == 1 for x in v)
    denominators = {x.denominator for x in v}
    return denominators == {1} or denominators == {2}


#: A vector in doubled coordinates: 2v as integers.
Doubled = tuple[int, ...]


def doubled(v: Vector) -> Doubled:
    """2v as an ``int`` tuple; exact because coordinates have denominator 1 or 2."""
    twice = tuple(2 * x for x in v)
    if any(t.denominator != 1 for t in twice):
        raise InvalidWeightError(f"{v} is not a weight-lattice vector")
    return tuple(int(t) for t in twice)


def halved(v: Doubled) -> Vector:
    """The ``Fraction`` vector whose doubled coordinates are ``v``."""
    return tuple(Q(x, 2) for x in v)


def normalize_vector(rs: RootSystem, v: Vector) -> Vector:
    """Canonical coset representative; only A5 weights live modulo (1,..,1).

    Exact on ``int`` tuples and commutes with doubling.
    """
    if rs.label == "A5":
        low = min(v)
        return tuple(x - low for x in v)
    return v


@dataclass(frozen=True)
class GroupSpec:
    """A product of simple factors and a number of circle factors."""

    factors: tuple[RootSystem, ...]
    circles: int = 0

    def __repr__(self) -> str:
        labels = "x".join(rs.label for rs in self.factors)
        if self.circles:
            labels = labels + "+U1" * self.circles if labels else "U1" * self.circles
        return f"GroupSpec({labels})"


def group(*labels: str, circles: int = 0) -> GroupSpec:
    return GroupSpec(tuple(build_root_system(lb) for lb in labels), circles)


@dataclass(frozen=True)
class Weight:
    """Per-factor coordinate vectors plus circle charges."""

    parts: tuple[Vector, ...]
    charges: tuple[Q, ...] = ()

    def sort_key(self) -> tuple:
        return tuple(x for part in self.parts for x in part) + self.charges


class InvalidWeightError(ValueError):
    """Raised for coordinates outside the weight lattice of a group."""


def make_weight(
    gs: GroupSpec,
    parts: Iterable[Iterable[Q | int | str]],
    charges: Iterable[Q | int | str] = (),
) -> Weight:
    """Validate and normalize a weight for ``gs``."""
    vecs = tuple(tuple(Q(x) for x in part) for part in parts)
    chg = tuple(Q(x) for x in charges)
    if len(vecs) != len(gs.factors):
        raise InvalidWeightError("wrong number of factor components")
    if len(chg) != gs.circles:
        raise InvalidWeightError("wrong number of circle charges")
    normalized = []
    for rs, vec in zip(gs.factors, vecs, strict=True):
        if not in_weight_lattice(rs, vec):
            raise InvalidWeightError(f"{vec} is not a {rs.label} weight")
        normalized.append(normalize_vector(rs, vec))
    if any(c.denominator not in (1, 2) for c in chg):
        raise InvalidWeightError("circle charges must be integers or half-integers")
    return Weight(tuple(normalized), chg)


def split_by_factor(gs: GroupSpec, flat: Sequence) -> tuple[tuple, ...] | None:
    """Cut a flat coordinate list into one slice per factor of ``gs``, or
    None when its length is not the sum of the factors' ambient dimensions."""
    parts = []
    pos = 0
    for rs in gs.factors:
        parts.append(tuple(flat[pos : pos + rs.ambient_dim]))
        pos += rs.ambient_dim
    return tuple(parts) if pos == len(flat) else None


def weight_is_dominant(gs: GroupSpec, w: Weight) -> bool:
    return all(
        is_dominant_vector(rs, vec)
        for rs, vec in zip(gs.factors, w.parts, strict=True)
    )
