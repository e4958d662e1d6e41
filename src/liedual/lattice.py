"""Root systems in classical epsilon coordinates, with exact arithmetic.

Supported simple types: A1, A5, B2, C2, C3, C4, D4, D5, each built from its
series and rank by one rule per series (Bourbaki's Plates I-IV): A_n in
R^(n+1), modulo the all-ones vector with minimum coordinate 0; B_n, C_n and
D_n in R^n.  A1 is the one-coordinate realization with simple root 2*eps,
which is C1, so its ``series`` is "C" and every rule dispatches on the
series alone.  Vectors are ``Fraction`` tuples with denominator 1 or 2 at
the API and doubled ``int`` tuples inside (``doubled``, ``halved``); the
Weyl moves only sort, negate, subtract and compare, so they are exact on
both and commute with doubling.  The weight lattice has one rule, on
doubled coordinates (``_on_lattice``): all even for A and C, all even or
all odd for B and D.  ``key_weights`` applies it to flat doubled keys
(``IntKey``s), with the canonical A form; ``make_weight`` doubles its
input and reads the same rule.  A coordinate from outside (command line,
fixture row or API) is read here alone, by ``qv`` and ``make_weight``.

A ``Weight`` crosses to and from its ``IntKey`` here and nowhere else:
``weight_key`` is the one way in, ``key_weights`` the one way out, a batch
at a time (``key_weight`` is its one-key form), and ``format_weight`` the
one speller, as the command line writes a weight (``spell`` writes one
vector, ``spell_key`` an unvalidated key, so that building a message never
raises, ``format_terms`` a character's terms; no other module spells
them).  ``key_weights`` is the one validator of a key, and ``weight_key``
validates through it.  It checks a batch column by column and judges each
distinct (type, factor part) once: ``_part`` caches its lattice and
canonical-A verdicts with its ``Fraction`` halves, filled on first use.
The verdicts are read again on every call, so a rejected part raises each
time, and equal parts of the ``Weight``s built are one shared tuple.
Everything here is immutable, and pure but for those caches.

The oracle's two errors, ``NegativeMultiplicityError`` and
``BudgetExceededError``, are defined here beside ``InvariantError``, so
that the command line catches them without loading ``branching``.

Cartan-matrix convention: ``a[i][j] = <alpha_i, alpha_j^vee>``.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction as Q
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

Vector = tuple[Q, ...]

#: A vector in doubled coordinates: 2v as integers.
Doubled = tuple[int, ...]

#: A weight of a product group as one flat doubled tuple: twice its
#: ``Weight.sort_key()``, factor parts (``GroupSpec.slices``) then circle
#: charges.  Doubling scales every coordinate by the same positive
#: constant, so these keys sort in ``sort_key`` order.
IntKey = tuple[int, ...]

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

#: The supported type labels, in ``_STANDARD_CARTAN`` order.
SUPPORTED_TYPES = tuple(_STANDARD_CARTAN)


class UnsupportedTypeError(ValueError):
    """Raised for a Cartan type label outside the supported list."""


class InvariantError(RuntimeError):
    """An exact-arithmetic invariant failed: a defect here, not bad input."""


class NegativeMultiplicityError(RuntimeError):
    """A negative, lost or left-over multiplicity, or a small reflection with
    no lift to the big Weyl group: the embedding map is wrong."""


class BudgetExceededError(RuntimeError):
    """Source dimension above the configured generic-restriction budget."""


class InvalidWeightError(ValueError):
    """Raised for coordinates outside the weight lattice of a group."""


#: The characters of a rational's text, around its whitespace.
_RATIONAL_CHARS = frozenset("0123456789+-/.")


def _rational(x: int | str | Q) -> Q:
    """A ``Fraction`` as it is (no copy); an ``int`` as a ``Fraction``; text
    that is an integer, ``p/q`` or a finite decimal, in ASCII digits.
    ``Fraction`` also reads exponents, at a cost growing with their value,
    ``_`` between digits and non-ASCII digits, so text with any other
    character than ``_RATIONAL_CHARS`` (an ``e``, a ``_``, an Arabic-Indic
    digit), like anything else, is refused."""
    if type(x) is Q:
        return x
    try:
        if isinstance(x, (int, Q)) or isinstance(x, str) and set(x.strip()) <= _RATIONAL_CHARS:
            return Q(x)
    except (ValueError, ZeroDivisionError):
        pass
    raise InvalidWeightError(f"bad rational {x!r}")


def qv(*entries: int | str | Q) -> Vector:
    """An exact coordinate vector, each entry read by ``_rational``."""
    return tuple(map(_rational, entries))


def spell(v: Vector) -> str:
    """``v`` as the command line writes it, e.g. ``(1/2,0)``."""
    return "(" + ",".join(map(str, v)) + ")"


def dot(u: Vector, v: Vector) -> Q:
    return sum((a * b for a, b in zip(u, v, strict=True)), Q(0))


def vadd(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vsub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vscale(c: Q | int, u: Vector) -> Vector:
    return tuple(c * a for a in u)


class RootSystem(NamedTuple):
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


@functools.lru_cache(maxsize=None)
def build_root_system(label: str) -> RootSystem:
    """Return the standard-coordinate root system for a supported type.

    One rule per series: the roots e_i - e_j, plus e_i + e_j for B, C and
    D, plus e_i for B and 2e_i for C; the simple roots e_i - e_(i+1), then
    e_n for B, 2e_n for C and e_(n-1) + e_n for D.  The roots and 2*rho
    are built as ``int`` tuples and converted to ``Fraction`` once.
    """
    if label not in SUPPORTED_TYPES:
        raise UnsupportedTypeError(f"unsupported type label {label!r}")
    series, rank = label[0], int(label[1:])
    if label == "A1":
        series = "C"  # one coordinate, simple root 2*eps: the C1 realization
    dim = rank + 1 if series == "A" else rank

    def root(*entries: tuple[int, int]) -> tuple[int, ...]:
        """The integer vector with the given (index, value) entries."""
        v = [0] * dim
        for i, value in entries:
            v[i] = value
        return tuple(v)

    simple = [root((i, 1), (i + 1, -1)) for i in range(dim - 1)]
    positive = []
    for i in range(dim):
        for j in range(i + 1, dim):
            positive.append(root((i, 1), (j, -1)))
            if series != "A":
                positive.append(root((i, 1), (j, 1)))
    if series in ("B", "C"):
        length = 1 if series == "B" else 2
        simple.append(root((rank - 1, length)))
        positive.extend(root((i, length)) for i in range(rank))
    elif series == "D":
        simple.append(root((rank - 2, 1), (rank - 1, 1)))
    two_rho = tuple(map(sum, zip(*positive)))
    rs = RootSystem(
        label=label,
        series=series,
        rank=rank,
        ambient_dim=dim,
        simple_roots=tuple(tuple(map(Q, a)) for a in simple),
        positive_roots=tuple(tuple(map(Q, a)) for a in positive),
        weyl_vector=halved(two_rho),
    )
    _check_invariants(rs)
    return rs


def _int_dot(u: Doubled, v: Doubled) -> int:
    return sum(a * b for a, b in zip(u, v, strict=True))


def cartan_matrix(rs: RootSystem) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix a[i][j] = <alpha_i, alpha_j^vee> from the stored roots,
    on doubled integers: 2 (2a, 2b) / (2b, 2b)."""
    roots = [doubled(a) for a in rs.simple_roots]
    rows = []
    for a in roots:
        row = []
        for b in roots:
            entry, remainder = divmod(2 * _int_dot(a, b), _int_dot(b, b))
            if remainder:
                raise ValueError(f"non-integral Cartan entry for {rs.label}")
            row.append(entry)
        rows.append(tuple(row))
    return tuple(rows)


def _check_invariants(rs: RootSystem) -> None:
    """Cartan matrix, <rho, alpha^vee> = 1 and the positive-root count, on
    doubled integers: the rho check reads 2 (2rho, 2a) == (2a, 2a)."""
    if cartan_matrix(rs) != _STANDARD_CARTAN[rs.label]:
        raise ValueError(f"Cartan matrix mismatch for {rs.label}")
    two_rho = doubled(rs.weyl_vector)
    for a in map(doubled, rs.simple_roots):
        if 2 * _int_dot(two_rho, a) != _int_dot(a, a):
            raise ValueError(f"Weyl vector pairing defect for {rs.label}")
    n = rs.rank
    expected = {"A": n * (n + 1) // 2, "B": n * n, "C": n * n, "D": n * (n - 1)}
    if len(rs.positive_roots) != expected[rs.series]:
        raise ValueError(f"positive root count defect for {rs.label}")


def pairing(v: Vector, root: Vector) -> Q:
    """Pairing <v, root^vee> = 2 (v, root) / (root, root)."""
    return 2 * dot(v, root) / dot(root, root)


def reflect(v: Vector, root: Vector) -> Vector:
    return vsub(v, vscale(pairing(v, root), root))


def is_dominant_vector(rs: RootSystem, v: Vector) -> bool:
    """Whether <v, alpha^vee> >= 0 for every simple root alpha: a vector is
    dominant exactly when it is its own ``dominant_representative``.  Exact
    on ``int`` tuples."""
    return dominant_representative(rs, v) == tuple(v)


def dominant_representative(rs: RootSystem, v: Vector) -> Vector:
    """The dominant vector in the Weyl orbit of ``v``, the one closed form
    per series: A sorts, B/C sort absolute values, D sorts absolute values
    and, for an odd number of negative entries, negates the smallest (D moves
    change signs in pairs, so the parity is an orbit invariant unless a zero
    absorbs it).  Exact on ``int`` tuples."""
    if rs.series == "A":
        return tuple(sorted(v, reverse=True))
    w = sorted(map(abs, v), reverse=True)
    if rs.series == "D" and w[-1] and sum(1 for x in v if x < 0) % 2:
        w[-1] = -w[-1]
    return tuple(w)


def dominant_conjugate(rs: RootSystem, v: Vector) -> tuple[Vector, int]:
    """``dominant_representative`` of ``v`` and the sign of the move.

    The sign is the determinant of the Weyl element applied, or 0 when the
    vector lies on a reflection wall (equivalently, when its stabilizer in
    the Weyl group is non-trivial).  Off the walls the entries (A) or their
    absolute values (B/C/D) are distinct, so the permutation's sign is the
    parity of the pairs the sort reverses; B/C add one reflection per
    negative entry, and D's sign changes come in pairs, which have
    determinant 1.  ``dominant_conjugate_by_reflections`` is the generic
    oracle this is tested against.  Exact on ``int`` tuples.
    """
    w = dominant_representative(rs, v)
    keys = v if rs.series == "A" else tuple(map(abs, v))
    if rs.series in ("B", "C") and w[-1] == 0 or len(set(keys)) < len(keys):
        return w, 0
    n = len(keys)
    moves = sum(1 for i in range(n) for j in range(i + 1, n) if keys[i] < keys[j])
    if rs.series in ("B", "C"):
        moves += sum(1 for x in v if x < 0)
    return w, -1 if moves % 2 else 1


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
    """|W|: (n+1)! for A_n, 2^n n! for B_n and C_n, 2^(n-1) n! for D_n."""
    n = rs.rank
    if rs.series == "A":
        return math.factorial(n + 1)
    if rs.series == "D":
        return 2 ** (n - 1) * math.factorial(n)
    return 2**n * math.factorial(n)


def weyl_orbit_size(rs: RootSystem, v: Vector) -> int:
    """Size of the Weyl orbit of a dominant vector, counted as ``weyl_orbit``
    builds it: the distinct arrangements of the entries (A) or of their
    absolute values (B, C, D), times a sign on each nonzero entry (B, C, D),
    halved for D when no entry is zero (the negative count keeps its parity).
    """
    if not is_dominant_vector(rs, v):
        raise ValueError("weyl_orbit_size requires a dominant vector")
    if rs.series == "A":
        return _arrangements(v)
    nonzero = sum(1 for x in v if x != 0)
    size = _arrangements(tuple(abs(x) for x in v)) * 2**nonzero
    if rs.series == "D" and nonzero == len(v):
        size //= 2
    return size


def _arrangements(v: Vector) -> int:
    """Distinct permutations of ``v``: len(v)! / prod(run length)!."""
    count = math.factorial(len(v))
    for run in Counter(v).values():
        count //= math.factorial(run)
    return count


def twice_root_coordinates(rs: RootSystem, v: Vector) -> tuple[int, ...] | None:
    """Twice the coefficients of ``v`` in the simple-root basis, or None if
    off the span (only the A series has vectors off it).  Closed partial-sum
    forms per series; doubling clears the C and D halves, so ``int`` input
    gives ``int`` output.  On a doubled vector their sum, 4 times the depth,
    orders the Freudenthal recursion."""
    sums = list(itertools.accumulate(v))
    if rs.series == "A":
        return None if sums[-1] != 0 else tuple(2 * s for s in sums[:-1])
    if rs.series == "B":
        return tuple(2 * s for s in sums)
    if rs.series == "C":
        return tuple(2 * s for s in sums[:-1]) + (sums[-1],)
    # D series: the last two simple roots are e_(n-1) -+ e_n.
    return tuple(2 * s for s in sums[:-2]) + (2 * sums[-2] - sums[-1], sums[-1])


def _on_lattice(rs: RootSystem, part: Doubled) -> bool:
    """The weight-lattice rule on doubled coordinates, length included.

    B and D types admit spin weights: all doubled coordinates even or all
    odd.  A and C types require them all even (integral weights).
    """
    if len(part) != rs.ambient_dim:
        return False
    parities = {x % 2 for x in part}
    return parities == {0} or (rs.series in ("B", "D") and parities == {1})


def in_weight_lattice(rs: RootSystem, v: Vector) -> bool:
    """Weight-lattice membership in the stored coordinates: ``v`` doubled
    must be integral and satisfy ``_on_lattice``."""
    if any(x.denominator not in (1, 2) for x in v):
        return False
    return _on_lattice(rs, doubled(v))


def doubled(v: Vector) -> Doubled:
    """2v as an ``int`` tuple; exact because coordinates have denominator 1 or 2."""
    out = []
    for x in v:
        twice, rest = divmod(2 * x.numerator, x.denominator)
        if rest:
            raise InvalidWeightError(f"{spell(v)} is not a weight-lattice vector")
        out.append(twice)
    return tuple(out)


def halved(v: Doubled) -> Vector:
    """The ``Fraction`` vector whose doubled coordinates are ``v``."""
    return tuple(Q(x, 2) for x in v)


def normalize_vector(rs: RootSystem, v: Vector) -> Vector:
    """Canonical coset representative; only A-series weights live modulo
    (1,..,1).

    Exact on ``int`` tuples and commutes with doubling.
    """
    if rs.series == "A":
        low = min(v)
        return tuple(x - low for x in v)
    return v


class FrozenRecord:
    """Base of the records that validate or derive at construction.

    A subclass lists its fields in ``_fields`` and its derived values after
    them in ``__slots__``; its ``__init__`` sets each slot once, through
    ``object.__setattr__``.  After that, assigning or deleting any attribute
    raises ``AttributeError``.  Equality, hashing, the repr and pickling go
    field by field, as for a frozen dataclass: ``__reduce__`` rebuilds the
    record through ``__init__``, so the derived slots are computed again.
    """

    __slots__ = ()
    _fields: tuple[str, ...]

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class GroupSpec(FrozenRecord):
    """A product of simple factors and a number of circle factors.

    ``slices`` says where each factor's part sits in a flat coordinate
    tuple: the parts in order, then the circle charges from ``width``, the
    number of factor coordinates summed over the factors, on.  Both are
    computed once, at construction.
    """

    _fields = ("factors", "circles")
    __slots__ = (*_fields, "slices", "width")

    factors: tuple[RootSystem, ...]
    circles: int
    slices: tuple[slice, ...]
    width: int

    def __init__(self, factors: tuple[RootSystem, ...], circles: int = 0) -> None:
        ends = tuple(itertools.accumulate(rs.ambient_dim for rs in factors))
        set_slot = object.__setattr__
        set_slot(self, "factors", factors)
        set_slot(self, "circles", circles)
        set_slot(self, "slices", tuple(slice(a, b) for a, b in zip((0,) + ends, ends)))
        set_slot(self, "width", sum(rs.ambient_dim for rs in factors))

    def __repr__(self) -> str:
        labels = "x".join(rs.label for rs in self.factors)
        if self.circles:
            labels = labels + "+U1" * self.circles if labels else "U1" * self.circles
        return f"GroupSpec({labels})"


def group(*labels: str, circles: int = 0) -> GroupSpec:
    return GroupSpec(tuple(build_root_system(lb) for lb in labels), circles)


class Weight(NamedTuple):
    """Per-factor coordinate vectors plus circle charges."""

    parts: tuple[Vector, ...]
    charges: tuple[Q, ...] = ()

    def sort_key(self) -> tuple:
        return tuple(x for part in self.parts for x in part) + self.charges


def make_weight(
    gs: GroupSpec,
    parts: Iterable[Iterable[Q | int | str]],
    charges: Iterable[Q | int | str] = (),
) -> Weight:
    """Validate and normalize a weight for ``gs``, read by ``_rational``."""
    vecs = tuple(tuple(map(_rational, part)) for part in parts)
    chg = tuple(map(_rational, charges))
    if len(vecs) != len(gs.factors):
        raise InvalidWeightError("wrong number of factor components")
    if len(chg) != gs.circles:
        raise InvalidWeightError("wrong number of circle charges")
    normalized = []
    for rs, vec in zip(gs.factors, vecs, strict=True):
        if not in_weight_lattice(rs, vec):
            raise InvalidWeightError(f"{spell(vec)} is not a {rs.label} weight")
        normalized.append(normalize_vector(rs, vec))
    if any(c.denominator not in (1, 2) for c in chg):
        raise InvalidWeightError("circle charges must be integers or half-integers")
    return Weight(tuple(normalized), chg)


@functools.lru_cache(maxsize=None)
def _half(x: int) -> Q:
    """x/2 as a ``Fraction``: one object per doubled coordinate value."""
    return Q(x, 2)


@functools.lru_cache(maxsize=None)
def _charges(tail: IntKey) -> tuple[Q, ...]:
    """The ``_half`` charges of a key's doubled circle tail: one tuple per
    distinct tail."""
    return tuple(map(_half, tail))


@functools.lru_cache(maxsize=None)
def _part(label: str, part: Doubled) -> tuple[bool, bool, Vector]:
    """One factor part of an ``IntKey``, judged once: its ``_on_lattice``
    verdict, whether it is in canonical A form (minimum 0; true off A), and
    its ``_half`` coordinates, one tuple per distinct (label, part)."""
    rs = build_root_system(label)
    return (
        _on_lattice(rs, part),
        rs.series != "A" or min(part) == 0,
        tuple(map(_half, part)),
    )


#: ``Weight(parts, charges)`` from the pair ``(parts, charges)``, as the
#: ``NamedTuple`` constructor builds it, without its Python-level ``__new__``.
_new_weight = functools.partial(tuple.__new__, Weight)


def key_weights(gs: GroupSpec, keys: Sequence[IntKey]) -> list[Weight]:
    """The one way from ``IntKey``s of ``gs`` back to their ``Weight``s, and
    the one validator of a flat doubled key, on integers alone.

    A key is checked for its length (width plus circles), then ``_on_lattice``
    per factor part, in factor order, then the canonical A form (minimum 0),
    which ``make_weight`` would otherwise normalize to.  The batch is checked
    column by column: each distinct (type, factor part) is judged once, by
    ``_part``, whose verdicts are cached but raise again on every call.  A bad
    batch raises the error of its first bad key in sorted order.  The
    charges need no check: half of any integer is a half-integer, all that
    ``make_weight`` asks of a charge.  The ``Weight``s are built in one pass
    from the shared halves: equal factor parts are one tuple, equal charge
    tails one ``_charges`` tuple, equal coordinates one ``Fraction``."""
    length = gs.width + gs.circles
    halves = []
    if all(map(length.__eq__, map(len, keys))):
        for rs, s in zip(gs.factors, gs.slices):
            column = list(map(itemgetter(s), keys))
            verdicts = {part: _part(rs.label, part) for part in set(column)}
            if not all(on and canonical for on, canonical, _ in verdicts.values()):
                break
            half = {part: verdict[2] for part, verdict in verdicts.items()}
            halves.append(map(half.__getitem__, column))
        else:
            parts = zip(*halves) if halves else itertools.repeat((), len(keys))
            tails = (
                map(_charges, map(itemgetter(slice(gs.width, None)), keys))
                if gs.circles
                else itertools.repeat(())
            )
            return list(map(_new_weight, zip(parts, tails)))
    for key in sorted(keys):
        _raise_fault(gs, key)
    raise InvariantError(f"a batch of {gs} keys failed but none of its keys does")


def _raise_fault(gs: GroupSpec, key: IntKey) -> None:
    """Raise the ``InvalidWeightError`` of the first fault of ``key``, in the
    order ``key_weights`` names them; return if it has none."""
    if len(key) != gs.width + gs.circles:
        raise InvalidWeightError(f"{key} is not a flat key of {gs}")
    canonical = True
    for rs, s in zip(gs.factors, gs.slices):
        on_lattice, is_canonical, half = _part(rs.label, key[s])
        if not on_lattice:
            raise InvalidWeightError(f"{spell(half)} is not a {rs.label} weight")
        canonical = canonical and is_canonical
    if not canonical:
        raise InvalidWeightError(f"{key} is not the canonical key of {spell_key(gs, key)}")


def key_weight(gs: GroupSpec, key: IntKey) -> Weight:
    """``key_weights`` of one key."""
    (w,) = key_weights(gs, (key,))
    return w


def weight_key(gs: GroupSpec, w: Weight) -> IntKey:
    """The one way from a ``Weight`` of ``gs`` to its ``IntKey``: one part
    per factor, of that factor's length, one charge per circle, and every
    coordinate an integer or half-integer; then ``doubled`` and
    ``key_weight``.  Errors spell ``w`` as the command line does."""
    flat = w.sort_key()
    if (
        [len(part) for part in w.parts] != [rs.ambient_dim for rs in gs.factors]
        or len(w.charges) != gs.circles
        or any(x.denominator not in (1, 2) for x in flat)
    ):
        raise InvalidWeightError(f"{format_weight(w)} is not a weight of {gs}")
    key = doubled(flat)
    key_weight(gs, key)
    return key


def format_weight(w: Weight) -> str:
    """``w`` as the command line writes it, e.g. ``(1,0)x(2)@-1``."""
    body = "x".join(map(spell, w.parts))
    if w.charges:
        body += "@" + ",".join(map(str, w.charges))
    return body


def format_terms(terms: Iterable[tuple[Weight, int]]) -> str:
    """Terms ``(w, m)`` as ``m*w`` joined by `` + ``; ``0`` when there are none."""
    return " + ".join(f"{m}*{format_weight(w)}" for w, m in terms) or "0"


def spell_key(gs: GroupSpec, key: IntKey) -> str:
    """``key`` spelled as its weight, from unvalidated halves, so that a
    message about a key never raises."""
    return format_weight(Weight(tuple(halved(key[s]) for s in gs.slices), halved(key[gs.width :])))


def read_flat_weight(gs: GroupSpec, flat: Sequence[Q | int | str]) -> Weight:
    """The uncharged weight of ``gs`` whose factor parts, in order, make up
    ``flat``: the one reader of a flat coordinate list, cut by ``gs.slices``."""
    if len(flat) != gs.width:
        raise InvalidWeightError(f"expected {gs.width} coordinates, got {len(flat)}")
    return make_weight(gs, (flat[s] for s in gs.slices))
