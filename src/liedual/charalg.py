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
``weight_multiplicities``, ``freudenthal_total`` and ``_tensor_raw`` convert
where a weight enters or leaves, with ``lattice.doubled`` and
``lattice.halved``.  The Weyl dimension formula stays in ``Fraction`` as the
independent second path.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction as Q
from types import MappingProxyType
from typing import Mapping

from .lattice import (
    Doubled,
    GroupSpec,
    InvariantError,
    RootSystem,
    Vector,
    Weight,
    dominant_conjugate,
    doubled,
    halved,
    height,
    is_dominant_vector,
    normalize_vector,
    pairing,
    root_coordinates,
    vadd,
    vsub,
    weyl_orbit,
)


class NonDominantError(ValueError):
    """Raised when an operation requires a dominant highest weight."""


def _require_dominant(rs: RootSystem, hw: Vector) -> None:
    if not is_dominant_vector(rs, hw):
        raise NonDominantError(f"{hw} is not dominant for {rs.label}")


@functools.lru_cache(maxsize=None)
def dimension(rs: RootSystem, hw: Vector) -> int:
    """Weyl dimension formula, exact."""
    _require_dominant(rs, hw)
    shifted = vadd(hw, rs.weyl_vector)
    value = Q(1)
    for alpha in rs.positive_roots:
        value *= pairing(shifted, alpha) / pairing(rs.weyl_vector, alpha)
    if value.denominator != 1 or value <= 0:
        raise InvariantError(f"Weyl dimension {value} of {hw} is not a positive integer")
    return int(value)


@dataclass(frozen=True)
class WeightFunction:
    """Finite multiset of weights of one irreducible, Weyl-invariant."""

    rs: RootSystem
    support: Mapping[Vector, int]

    def total(self) -> int:
        return sum(self.support.values())


def is_weight_of(rs: RootSystem, hw: Vector, v: Vector) -> bool:
    """Whether v is a weight of V_hw: the dominant conjugate of v must sit
    under hw in the root cone; classical saturation of weight sets."""
    d, _ = dominant_conjugate(rs, v)
    coords = root_coordinates(rs, vsub(hw, d))
    if coords is None:
        return False
    return all(c.denominator == 1 and c >= 0 for c in coords)


def _idot(u: Doubled, v: Doubled) -> int:
    return sum(a * b for a, b in zip(u, v))


@functools.lru_cache(maxsize=None)
def _dominant_multiplicities(rs: RootSystem, hw: Doubled) -> Mapping[Doubled, int]:
    """Freudenthal recursion over the dominant weights of V_hw, doubled.

    Weights are doubled and the roots, all integral, are not: mu + k alpha
    is mu + 2k alpha here, and the multiplicity at mu is
    4 acc / (|hw + rho|^2 - |mu + rho|^2) with acc the sum of
    m(mu + k alpha) (mu + k alpha, alpha) over the strings above mu.
    """
    half_hw = halved(hw)
    _require_dominant(rs, half_hw)
    dominants = sorted(_dominant_weights(rs, half_hw), key=lambda v: height(rs, v), reverse=True)
    roots = [tuple(int(x) for x in alpha) for alpha in rs.positive_roots]
    if roots != list(rs.positive_roots):
        raise InvariantError(f"{rs.label} has a non-integral root")
    rho = doubled(rs.weyl_vector)
    top = vadd(hw, rho)
    top_norm = _idot(top, top)
    mults: dict[Doubled, int] = {hw: 1}
    for mu in map(doubled, dominants):
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
                f"{halved(mu)} under {half_hw}"
            )
        mults[mu] = value
    return MappingProxyType(mults)


def _grid_down(top: Q, frac: Q) -> list[Q]:
    values = []
    v = top
    while v >= frac:
        values.append(v)
        v -= 1
    return values


def _dominant_weights(rs: RootSystem, hw: Vector) -> list[Vector]:
    """All dominant weights of V_hw: dominant lattice vectors under hw."""
    out = []
    if rs.label == "A1":
        x = hw[0]
        while x >= 0:
            out.append((x,))
            x -= 2
        return out
    def keep(mu: Vector) -> bool:
        coords = root_coordinates(rs, vsub(hw, mu))
        return coords is not None and all(
            c.denominator == 1 and c >= 0 for c in coords
        )
    if rs.series in ("A", "B", "C"):
        # dominant weights under hw have entries inside [min(hw), max(hw)]
        # for A (any coset representative) and [class offset, max(hw)] for
        # B/C, stepping by 1 within the congruence class
        frac = hw[-1] if rs.series == "A" else hw[0] % 1
        values = _grid_down(hw[0], frac)
        for mu in itertools.combinations_with_replacement(values, rs.ambient_dim):
            if keep(mu):
                out.append(mu)
        return out
    # D series: the last coordinate may be negative down to -x_{rank-1}.
    frac = hw[0] % 1
    values = _grid_down(hw[0], frac)
    for head in itertools.combinations_with_replacement(values, rs.rank - 1):
        for g in values:
            if g > head[-1]:
                continue
            for s in ((1,) if g == 0 else (1, -1)):
                mu = head + (s * g,)
                if keep(mu):
                    out.append(mu)
    return out


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
    return WeightFunction(rs, MappingProxyType({halved(v): m for v, m in support.items()}))


def freudenthal_total(rs: RootSystem, hw: Vector) -> int:
    """Sum of all weight multiplicities; independent check of dimension()."""
    total = 0
    for mu, m in _dominant_multiplicities(rs, doubled(hw)).items():
        total += m * len(weyl_orbit(rs, mu))
    return total


#: A weight of a product group in doubled coordinates: one vector per
#: simple factor, then the circle charges (integers in the caller's unit).
FlatKey = tuple[tuple[Doubled, ...], tuple[int, ...]]


def chamber_fold(gs: GroupSpec, support: Mapping[FlatKey, int]) -> dict[FlatKey, int]:
    """Signed Weyl-chamber fold (Racah-Speiser, Klimyk; Fulton-Harris 25).

    Keys are doubled.  Each (mu, charges) moves to (d - rho, charges), d the
    dominant conjugate of mu + rho per factor, with the product of the
    factor signs; weights on a wall drop out, and so do zero coefficients.
    Charges pass through untouched."""
    rhos = [doubled(rs.weyl_vector) for rs in gs.factors]
    out: dict[FlatKey, int] = {}
    for (parts, charges), m in support.items():
        folded = []
        sign = 1
        for rs, rho, part in zip(gs.factors, rhos, parts, strict=True):
            d, s = dominant_conjugate(rs, vadd(part, rho))
            sign *= s
            if sign == 0:
                break
            folded.append(normalize_vector(rs, vsub(d, rho)))
        if sign:
            key = (tuple(folded), charges)
            out[key] = out.get(key, 0) + sign * m
    return {k: v for k, v in out.items() if v != 0}


@functools.lru_cache(maxsize=None)
def _tensor_raw(rs: RootSystem, hw1: Vector, hw2: Vector) -> Mapping[Vector, int]:
    """Shifted-orbit (Racah) decomposition of V_hw1 (x) V_hw2."""
    _require_dominant(rs, hw1)
    _require_dominant(rs, hw2)
    if dimension(rs, hw2) > dimension(rs, hw1):
        hw1, hw2 = hw2, hw1
    top = doubled(hw1)
    shifted = {
        ((vadd(top, mu),), ()): m for mu, m in _full_multiplicities(rs, doubled(hw2)).items()
    }
    folded = chamber_fold(GroupSpec((rs,)), shifted)
    if any(v < 0 for v in folded.values()):
        raise InvariantError(f"negative tensor multiplicity in {hw1} x {hw2}")
    return MappingProxyType({halved(parts[0]): m for (parts, _), m in folded.items()})


@dataclass(frozen=True)
class FormalCharacter:
    """Non-negative integer combination of dominant weights of a group."""

    group: GroupSpec
    terms: tuple[tuple[Weight, int], ...]

    @staticmethod
    def from_dict(gs: GroupSpec, data: Mapping[Weight, int]) -> "FormalCharacter":
        items = [(w, m) for w, m in data.items() if m != 0]
        if any(m < 0 for _, m in items):
            raise ValueError("formal characters carry non-negative multiplicities")
        items.sort(key=lambda pair: pair[0].sort_key())
        return FormalCharacter(gs, tuple(items))

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
    return FormalCharacter.from_dict(gs, {Weight((v,)): m for v, m in raw.items()})


def su2_tensor(a: int, b: int) -> list[int]:
    """Clebsch-Gordan range for A1 highest weights: |a-b|, |a-b|+2, .., a+b."""
    if a < 0 or b < 0:
        raise NonDominantError("negative A1 weight")
    return list(range(abs(a - b), a + b + 1, 2))


@dataclass(frozen=True)
class InfChar:
    """Infinitesimal character: dominant Weyl-orbit representative of hw+rho."""

    label: str
    rep: Vector


def infinitesimal_character(rs: RootSystem, hw: Vector) -> InfChar:
    _require_dominant(rs, hw)
    d, _ = dominant_conjugate(rs, vadd(hw, rs.weyl_vector))
    return InfChar(rs.label, d)


def infchar_of_vector(rs: RootSystem, v: Vector) -> InfChar:
    """InfChar determined by an arbitrary orbit representative."""
    d, _ = dominant_conjugate(rs, v)
    return InfChar(rs.label, d)
