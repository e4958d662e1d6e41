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
enters or leaves, with ``lattice.doubled`` and ``lattice.halved``; every
``FormalCharacter`` is built from ``IntKey``s, and each distinct key becomes
its ``Weight`` once, through ``lattice.key_weight``, the one way out of an
``IntKey``.  So a term's ``Fraction`` coordinates are made only where the
term leaves the package.  The Weyl dimension formula,
the independent second path, takes integer products over the positive
roots in doubled coordinates and divides once; it shares only the list of
positive roots (``_integral_roots``) with the recursion.
"""

from __future__ import annotations

import functools
import itertools
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
    dominant_conjugate,
    doubled,
    halved,
    in_weight_lattice,
    is_dominant_vector,
    key_weight,
    normalize_vector,
    root_coordinates,
    spell,
    vadd,
    vsub,
    weyl_orbit,
)


class NonDominantError(ValueError):
    """Raised when an operation requires a dominant highest weight."""


def _require_dominant(rs: RootSystem, hw: Vector) -> None:
    if not is_dominant_vector(rs, hw):
        raise NonDominantError(f"{spell(hw)} is not dominant for {rs.label}")


def _integral_roots(rs: RootSystem) -> list[Doubled]:
    roots = [tuple(int(x) for x in alpha) for alpha in rs.positive_roots]
    if roots != list(rs.positive_roots):
        raise InvariantError(f"{rs.label} has a non-integral root")
    return roots


def _idot(u: Doubled, v: Doubled) -> int:
    return sum(a * b for a, b in zip(u, v))


@functools.lru_cache(maxsize=None)
def dimension(rs: RootSystem, hw: Vector) -> int:
    """Weyl dimension formula, exact: the product of (2hw + 2rho, alpha)
    over the product of (2rho, alpha), alpha positive, as integers.  The one
    dominance check of an incoming weight (``dim``, ``restrict_generic``)."""
    if not in_weight_lattice(rs, hw):
        raise InvalidWeightError(f"{spell(hw)} is not a {rs.label} weight")
    _require_dominant(rs, hw)
    rho = doubled(rs.weyl_vector)
    shifted = vadd(doubled(hw), rho)
    numerator = denominator = 1
    for alpha in _integral_roots(rs):
        numerator *= _idot(shifted, alpha)
        denominator *= _idot(rho, alpha)
    value, rest = divmod(numerator, denominator)
    if rest or value <= 0:
        raise InvariantError(
            f"Weyl dimension {Q(numerator, denominator)} of {spell(hw)} is not a positive integer"
        )
    return value


class WeightFunction(NamedTuple):
    """Finite multiset of weights of one irreducible, Weyl-invariant."""

    rs: RootSystem
    support: Mapping[Vector, int]

    def total(self) -> int:
        return sum(self.support.values())


@functools.lru_cache(maxsize=None)
def _dominant_multiplicities(rs: RootSystem, hw: Doubled) -> Mapping[Doubled, int]:
    """Freudenthal recursion over the dominant weights of V_hw, doubled.

    Weights are doubled and the roots, all integral, are not: mu + k alpha
    is mu + 2k alpha here, and the multiplicity at mu is
    4 acc / (|hw + rho|^2 - |mu + rho|^2) with acc the sum of
    m(mu + k alpha) (mu + k alpha, alpha) over the strings above mu.
    """
    if not is_dominant_vector(rs, hw):  # scale-free: halved only to be named
        _require_dominant(rs, halved(hw))
    roots = _integral_roots(rs)
    rho = doubled(rs.weyl_vector)
    top = vadd(hw, rho)
    top_norm = _idot(top, top)
    mults: dict[Doubled, int] = {hw: 1}
    for mu in _dominant_weights(rs, hw):
        if mu == hw:
            continue
        acc = 0
        for alpha in roots:
            step = vadd(alpha, alpha)
            above = vadd(mu, step)
            while True:
                d, _ = dominant_conjugate(rs, above)
                # Weight strings are contiguous, and anything above mu was
                # already processed, so a miss ends the ladder.
                if d not in mults:
                    break
                acc += mults[d] * _idot(above, alpha)
                above = vadd(above, step)
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
    mu + k alpha (alpha positive, k >= 1) comes before mu."""
    depth: dict[Doubled, Q] = {}
    def keep(mu: Doubled) -> None:
        coords = root_coordinates(rs, vsub(hw, mu))
        if coords is not None and all(c >= 0 and c % 2 == 0 for c in coords):
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
    total = 0
    for mu, m in _dominant_multiplicities(rs, doubled(hw)).items():
        total += m * len(weyl_orbit(rs, mu))
    return total


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
    """Non-negative integer combination of dominant weights of a group."""

    _fields = __slots__ = ("group", "terms")

    group: GroupSpec
    terms: tuple[tuple[Weight, int], ...]

    def __init__(self, group: GroupSpec, terms: tuple[tuple[Weight, int], ...]) -> None:
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "terms", terms)

    @staticmethod
    def from_dict(gs: GroupSpec, data: Mapping[Weight, int]) -> "FormalCharacter":
        """The public ``Weight``-keyed constructor, weights taken as given; inside
        the package every character comes from ``from_int_keys``."""
        items = [(w, m) for w, m in data.items() if m != 0]
        if any(m < 0 for _, m in items):
            raise ValueError("formal characters carry non-negative multiplicities")
        items.sort(key=lambda pair: pair[0].sort_key())
        return FormalCharacter(gs, tuple(items))

    @staticmethod
    def from_int_keys(
        gs: GroupSpec,
        data: Mapping[IntKey, int],
        weights: dict[IntKey, Weight] | None = None,
    ) -> "FormalCharacter":
        """A character from ``IntKey``s: drops zeros, rejects negatives,
        sorts the int keys and turns each distinct one into a ``Weight``
        once, by ``lattice.key_weight``, which validates it on integers and
        builds shared ``Fraction`` halves.  Pass
        one ``weights`` dict (for one group) to several calls, e.g. the
        levels of a graded character, to reuse those ``Weight``s."""
        keys = sorted(k for k, m in data.items() if m != 0)
        if any(data[k] < 0 for k in keys):
            raise ValueError("formal characters carry non-negative multiplicities")
        if weights is None:
            weights = {}
        terms = []
        for k in keys:
            w = weights.get(k)
            if w is None:
                w = weights[k] = key_weight(gs, k)
            terms.append((w, data[k]))
        return FormalCharacter(gs, tuple(terms))

    def as_dict(self) -> dict[Weight, int]:
        return dict(self.terms)

    def multiplicity(self, w: Weight) -> int:
        return self.as_dict().get(w, 0)

    def total_dimension(self) -> int:
        return sum(m * weight_dimension(self.group, w) for w, m in self.terms)

    def __len__(self) -> int:
        return len(self.terms)


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
    d, _ = dominant_conjugate(rs, vadd(hw, rs.weyl_vector))
    return InfChar(rs.label, d)
