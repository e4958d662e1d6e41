"""Exact character-level computations on root systems and product groups.

Two independent code paths exist on purpose: the Weyl dimension formula and
the Freudenthal recursion must agree on every irreducible, and the
shifted-orbit tensor decomposition is checked against dimension counting.
Everything is exact; no floating point.

Weights are ``Fraction`` tuples at the API.  The Freudenthal recursion, the
orbit expansion and the chamber fold run on doubled ``int`` tuples (2v,
exact because every weight coordinate has denominator 1 or 2): the
``lru_cache`` internals ``_dominant_multiplicities`` and
``_full_multiplicities`` take and return doubled vectors, and
``weight_multiplicities`` and ``freudenthal_total`` convert where a vector
enters or leaves, with ``lattice.doubled`` and ``lattice.halved``.  A
``FormalCharacter`` holds sorted ``IntKey``s and their multiplicities; they
cross to ``Weight``s, in one batch through ``lattice.key_weights``, only
when its ``terms`` is read, where the terms leave the package.  The Weyl
dimension formula (``_dimension``, per doubled part), the independent
second path, takes integer products over the positive roots and divides
once; it shares only the list of positive roots (``_integral_roots``,
built once per type) with the recursion.

The recursion is Freudenthal's in the stabilizer-orbit form of Moody and
Patera: at each dominant weight mu it walks one root string per orbit,
modulo sign, of mu's stabilizer on the positive roots, weighted by the
orbit's size (``_root_classes``, cached per type and wall set on first
use).  It keeps the positive-root form, which reads only multiplicities
above mu; the all-roots form would read some below mu, not yet known.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction as Q
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .lattice import (
    Doubled,
    FrozenRecord,
    GroupSpec,
    IntKey,
    InvalidWeightError,
    InvariantError,
    RootSystem,
    Vector,
    Weight,
    check_keys,
    dominant_conjugate,
    dominant_representative,
    doubled,
    halved,
    in_weight_lattice,
    is_dominant_vector,
    key_weights,
    normalize_vector,
    spell,
    twice_root_coordinates,
    vadd,
    vsub,
    weight_key,
    weyl_orbit,
    weyl_orbit_size,
)


class NonDominantError(ValueError):
    """Raised when an operation requires a dominant highest weight."""


def _require_dominant(rs: RootSystem, hw: Vector) -> None:
    if not is_dominant_vector(rs, hw):
        raise NonDominantError(f"{spell(hw)} is not dominant for {rs.label}")


@functools.lru_cache(maxsize=None)
def _integral_roots(rs: RootSystem) -> tuple[Doubled, ...]:
    roots = tuple(tuple(int(x) for x in alpha) for alpha in rs.positive_roots)
    if roots != rs.positive_roots:
        raise InvariantError(f"{rs.label} has a non-integral root")
    return roots


def _idot(u: Doubled, v: Doubled) -> int:
    return sum(a * b for a, b in zip(u, v))


@functools.lru_cache(maxsize=None)
def dimension(rs: RootSystem, hw: Vector) -> int:
    """Weyl dimension formula, exact (``_dimension``).  The one dominance
    check of an incoming weight (``dim``, ``restrict_generic``)."""
    if not in_weight_lattice(rs, hw):
        raise InvalidWeightError(f"{spell(hw)} is not a {rs.label} weight")
    return _dimension(rs, doubled(hw))


@functools.lru_cache(maxsize=None)
def _dimension(rs: RootSystem, hw: Doubled) -> int:
    """Weyl dimension of the doubled lattice weight ``hw``: the product of
    (2hw + 2rho, alpha) over the product of (2rho, alpha), alpha positive,
    as integers, after a dominance check."""
    if not is_dominant_vector(rs, hw):  # scale-free: halved only to be named
        _require_dominant(rs, halved(hw))
    rho = doubled(rs.weyl_vector)
    shifted = vadd(hw, rho)
    numerator = denominator = 1
    for alpha in _integral_roots(rs):
        numerator *= _idot(shifted, alpha)
        denominator *= _idot(rho, alpha)
    value, rest = divmod(numerator, denominator)
    if rest or value <= 0:
        raise InvariantError(
            f"Weyl dimension {Q(numerator, denominator)} of {spell(halved(hw))} is not a positive integer"
        )
    return value


class WeightFunction(NamedTuple):
    """Finite multiset of weights of one irreducible, Weyl-invariant."""

    rs: RootSystem
    support: Mapping[Vector, int]

    def total(self) -> int:
        return sum(self.support.values())


@functools.lru_cache(maxsize=None)
def _root_classes(rs: RootSystem, walls: tuple[Doubled, ...]) -> tuple[tuple[Doubled, ...], ...]:
    """The positive roots grouped into orbits, modulo sign, of the group W_J
    generated by the reflections in ``walls``, a set J of simple roots as
    ``int`` tuples: each class a tuple of positive roots, found by
    reflection closure."""
    roots = _integral_roots(rs)
    positive = set(roots)
    mirrors = [(a, _idot(a, a)) for a in walls]
    classes: list[tuple[Doubled, ...]] = []
    seen: set[Doubled] = set()
    for alpha in roots:
        if alpha in seen:
            continue
        seen.add(alpha)
        orbit = [alpha]
        for r in orbit:  # grows while it is read
            for a, norm in mirrors:
                c = 2 * _idot(r, a) // norm
                if not c:
                    continue
                image = tuple(x - c * y for x, y in zip(r, a))
                if image not in positive:
                    image = tuple(-x for x in image)
                if image not in seen:
                    seen.add(image)
                    orbit.append(image)
        classes.append(tuple(orbit))
    return tuple(classes)


@functools.lru_cache(maxsize=None)
def _dominant_multiplicities(rs: RootSystem, hw: Doubled) -> Mapping[Doubled, int]:
    """Freudenthal recursion over the dominant weights of V_hw, doubled, in
    its stabilizer-orbit form (Moody-Patera, Bull. AMS 7 (1982) 237-242).

    Weights are doubled and the roots, all integral, are not: mu + k alpha
    is mu + 2k alpha here, and the multiplicity at mu is
    4 acc / (|hw + rho|^2 - |mu + rho|^2) with acc the sum over positive
    alpha of the string sum f(alpha), the sum of m(mu + k alpha)
    (mu + k alpha, alpha) over k >= 1.  The stabilizer W_mu of the dominant
    mu is generated by the simple reflections J that fix it, and f is
    constant on its orbits: W_J permutes the positive roots outside Phi_J,
    and on Phi_J, f(alpha) = f(-alpha).  So one string per class of
    ``_root_classes`` is walked, weighted by the class size.  The form stays
    the positive-root one: every mu + k alpha read lies above mu, so its
    dominant conjugate is already known, where the all-roots form would
    read multiplicities below mu.
    """
    if not is_dominant_vector(rs, hw):  # scale-free: halved only to be named
        _require_dominant(rs, halved(hw))
    simple = [tuple(map(int, a)) for a in rs.simple_roots]
    rho = doubled(rs.weyl_vector)
    top = vadd(hw, rho)
    top_norm = _idot(top, top)
    mults: dict[Doubled, int] = {hw: 1}
    for mu in _dominant_weights(rs, hw):
        if mu == hw:
            continue
        walls = tuple(a for a in simple if not _idot(mu, a))
        acc = 0
        for roots in _root_classes(rs, walls):
            alpha = roots[0]
            step = vadd(alpha, alpha)
            above = vadd(mu, step)
            string = 0
            # Weight strings are contiguous, and anything above mu was
            # already processed, so a miss ends the ladder.
            while (m := mults.get(dominant_representative(rs, above))) is not None:
                string += m * _idot(above, alpha)
                above = vadd(above, step)
            acc += len(roots) * string
        shifted = vadd(mu, rho)
        denominator = top_norm - _idot(shifted, shifted)
        value, rest = divmod(4 * acc, denominator)
        if rest or value <= 0:
            raise InvariantError(
                f"Freudenthal multiplicity {Q(4 * acc, denominator)} at "
                f"{spell(halved(mu))} under {spell(halved(hw))}"
            )
        mults[mu] = value
    return MappingProxyType(mults)


def _dominant_weights(rs: RootSystem, hw: Doubled) -> list[Doubled]:
    """All dominant weights of V_hw, doubled: dominant lattice vectors under
    hw, in order of depth below hw (the sum of the simple-root coordinates
    of hw - mu).  So hw comes first, and the dominant conjugate of any
    mu + k alpha (alpha positive, k >= 1) comes before mu.  On doubled
    vectors ``twice_root_coordinates`` is 4 times the coordinates, which
    must be non-negative integers."""
    depth: dict[Doubled, int] = {}
    def keep(mu: Doubled) -> None:
        coords = twice_root_coordinates(rs, vsub(hw, mu))
        if coords is not None and all(c >= 0 and c % 4 == 0 for c in coords):
            depth[mu] = sum(coords)
    # Dominant weights under hw have entries inside [min(hw), max(hw)] for
    # A (any coset representative) and [class offset, max(hw)] for B/C/D,
    # stepping by 1 (2 doubled) within the congruence class.
    low = hw[-1] if rs.series == "A" else hw[0] % 2
    values = range(hw[0], low - 1, -2)
    for mu in itertools.combinations_with_replacement(values, rs.ambient_dim):
        keep(mu)
        # D series: the last coordinate of a dominant weight may be
        # negative, down to minus the one before it, so a nonzero last
        # entry is also kept negated.
        if rs.series == "D" and mu[-1]:
            keep(mu[:-1] + (-mu[-1],))
    return sorted(depth, key=depth.__getitem__)


@functools.lru_cache(maxsize=None)
def _full_multiplicities(rs: RootSystem, hw: Doubled) -> Mapping[Doubled, int]:
    """Every weight of V_hw with its multiplicity, doubled: dominant
    multiplicities spread over their Weyl orbits."""
    support: dict[Doubled, int] = {}
    for mu, m in _dominant_multiplicities(rs, hw).items():
        for v in weyl_orbit(rs, mu):
            support[v] = m
    return MappingProxyType(support)


def weight_multiplicities(rs: RootSystem, hw: Vector) -> WeightFunction:
    """All weights of V_hw with multiplicities (Freudenthal)."""
    support = _full_multiplicities(rs, doubled(hw))
    return WeightFunction(rs, {halved(v): m for v, m in support.items()})


def freudenthal_total(rs: RootSystem, hw: Vector) -> int:
    """Sum of all weight multiplicities; independent check of dimension()."""
    mults = _dominant_multiplicities(rs, doubled(hw))
    return sum(m * weyl_orbit_size(rs, mu) for mu, m in mults.items())


def chamber_fold(gs: GroupSpec, support: Mapping[IntKey, int]) -> dict[IntKey, int]:
    """Signed Weyl-chamber fold (Racah-Speiser, Klimyk; Fulton-Harris 25).

    Each factor part mu of a key moves to d - rho, normalized, d the
    dominant conjugate of mu + rho, and the key takes the product of the
    factor signs; weights on a wall drop out, and so do zero coefficients.
    Charges pass through untouched."""
    factors = [(rs, part, doubled(rs.weyl_vector)) for rs, part in zip(gs.factors, gs.slices)]
    width = gs.width
    out: dict[IntKey, int] = {}
    for key, m in support.items():
        folded: list[int] = []
        sign = 1
        for rs, part, rho in factors:
            d, s = dominant_conjugate(rs, vadd(key[part], rho))
            sign *= s
            if sign == 0:
                break
            folded += normalize_vector(rs, vsub(d, rho))
        if sign:
            folded += key[width:]
            image = tuple(folded)
            out[image] = out.get(image, 0) + sign * m
    return {k: v for k, v in out.items() if v != 0}


@functools.lru_cache(maxsize=None)
def orbit_fold(rs: RootSystem, mu: Doubled) -> Mapping[Doubled, int]:
    """``chamber_fold`` of the whole Weyl orbit of the doubled dominant
    ``mu`` on one factor, each weight once: {normalized d - rho: sum of
    signs}, zeros dropped.  A Weyl-invariant multiset folds as the sum of
    its dominant multiplicities times these."""
    orbit = dict.fromkeys(weyl_orbit(rs, mu), 1)
    return MappingProxyType(chamber_fold(GroupSpec((rs,)), orbit))


@functools.lru_cache(maxsize=None)
def _tensor_raw(rs: RootSystem, hw1: Vector, hw2: Vector) -> Mapping[IntKey, int]:
    """Shifted-orbit (Racah) decomposition of V_hw1 (x) V_hw2, doubled."""
    _require_dominant(rs, hw1)
    _require_dominant(rs, hw2)
    if dimension(rs, hw2) > dimension(rs, hw1):
        hw1, hw2 = hw2, hw1
    top = doubled(hw1)
    shifted = {vadd(top, mu): m for mu, m in _full_multiplicities(rs, doubled(hw2)).items()}
    folded = chamber_fold(GroupSpec((rs,)), shifted)
    if any(v < 0 for v in folded.values()):
        raise InvariantError(f"negative tensor multiplicity in {spell(hw1)} x {spell(hw2)}")
    return MappingProxyType(folded)


class FormalCharacter(FrozenRecord):
    """Non-negative integer combination of dominant weights of a group: its
    sorted ``IntKey``s and their multiplicities.  ``terms``, the ``(Weight,
    multiplicity)`` pairs, is the boundary reader: its first read crosses
    every key in one ``lattice.key_weights`` batch and keeps the result.
    Inside the package a character is read by its keys."""

    _fields = ("group", "keys", "mults")
    __slots__ = (*_fields, "_terms")

    group: GroupSpec
    keys: tuple[IntKey, ...]
    mults: tuple[int, ...]

    def __init__(self, group: GroupSpec, keys: tuple[IntKey, ...], mults: tuple[int, ...]) -> None:
        set_slot = object.__setattr__
        set_slot(self, "group", group)
        set_slot(self, "keys", keys)
        set_slot(self, "mults", mults)
        set_slot(self, "_terms", None)

    @staticmethod
    def from_dict(gs: GroupSpec, data: Mapping[Weight, int]) -> "FormalCharacter":
        """The public ``Weight``-keyed constructor: each weight with a nonzero
        multiplicity keyed by ``lattice.weight_key``, then ``from_int_keys``."""
        return FormalCharacter.from_int_keys(gs, {weight_key(gs, w): m for w, m in data.items() if m})

    @staticmethod
    def from_int_keys(gs: GroupSpec, data: Mapping[IntKey, int]) -> "FormalCharacter":
        """A character from a multiplicity per ``IntKey``: zeros are dropped,
        negatives refused, and the keys validated on integers by
        ``lattice.check_keys``, then sorted.  No ``Weight`` is built."""
        keys = sorted(k for k, m in data.items() if m)
        mults = tuple(map(data.__getitem__, keys))
        if min(mults, default=0) < 0:
            raise ValueError("formal characters carry non-negative multiplicities")
        check_keys(gs, keys)
        return FormalCharacter(gs, tuple(keys), mults)

    @property
    def terms(self) -> tuple[tuple[Weight, int], ...]:
        """The ``(Weight, multiplicity)`` pairs in key order, crossed on first read."""
        if self._terms is None:
            weights = key_weights(self.group, self.keys)
            object.__setattr__(self, "_terms", tuple(zip(weights, self.mults)))
        return self._terms

    def __repr__(self) -> str:
        return f"FormalCharacter(group={self.group!r}, terms={self.terms!r})"

    def as_dict(self) -> dict[Weight, int]:
        return dict(self.terms)

    def multiplicity(self, w: Weight) -> int:
        """The multiplicity of ``w``: 0 for any weight not among the terms."""
        try:
            return dict(zip(self.keys, self.mults)).get(weight_key(self.group, w), 0)
        except InvalidWeightError:
            return 0

    def total_dimension(self) -> int:
        slices = list(zip(self.group.factors, self.group.slices))
        return sum(
            m * math.prod(_dimension(rs, key[s]) for rs, s in slices)
            for key, m in zip(self.keys, self.mults)
        )

    def __len__(self) -> int:
        return len(self.keys)


def weight_dimension(gs: GroupSpec, w: Weight) -> int:
    """Dimension of the irreducible with highest weight ``w``."""
    value = 1
    for rs, part in zip(gs.factors, w.parts, strict=True):
        value *= dimension(rs, part)
    return value


def tensor_decompose(rs: RootSystem, hw1: Vector, hw2: Vector) -> FormalCharacter:
    """Decomposition of a tensor product of two irreducibles of one factor."""
    gs = GroupSpec((rs,))
    raw = _tensor_raw(rs, normalize_vector(rs, hw1), normalize_vector(rs, hw2))
    return FormalCharacter.from_int_keys(gs, raw)


def su2_tensor(a: int, b: int) -> list[int]:
    """Clebsch-Gordan range for A1 highest weights: |a-b|, |a-b|+2, .., a+b."""
    if a < 0 or b < 0:
        raise NonDominantError("negative A1 weight")
    return list(range(abs(a - b), a + b + 1, 2))


class InfChar(NamedTuple):
    """Infinitesimal character: dominant Weyl-orbit representative of hw+rho."""

    label: str
    rep: Vector


def infinitesimal_character(rs: RootSystem, hw: Vector) -> InfChar:
    _require_dominant(rs, hw)
    return InfChar(rs.label, dominant_representative(rs, vadd(hw, rs.weyl_vector)))
