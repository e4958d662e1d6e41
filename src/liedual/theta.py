"""Correspondence bookkeeping across the dual pair.

Infinitesimal-character transfer to the Spin(8) side, degenerate
principal-series type counts (the quasi-split one checked against the ladder
count through ``rules.su2su2_coefficient`` and against the graded series),
and dimension verification of the lowest-type tables.
All infinitesimal-character comparisons are exact orbit equalities of
dominant representatives; there is no numeric tolerance anywhere.  A
``TorusCharacterData`` reads its triple through ``lattice.qv`` and scales
it to even integers once, in its ``scaled`` slot; the two transfers read
that slot, compute and conjugate their raw vectors on ``int`` tuples
independently, and divide once, equal coordinates being one ``Fraction``.
Type groups come from ``minrep.TYPE_GROUPS``; criterion 5 accepts a series
through ``minrep.verify_series``, the criterion-7 verifier.  ``lattice.qv``
reads torus triples and ``lattice.read_flat_weight`` a table row's text; the
row's dimension is computed as it is read, so a malformed or non-dominant
row is a ``FixtureError`` naming ``path:line``.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction as Q
from pathlib import Path

from .charalg import InfChar, infinitesimal_character, weight_dimension
from .lattice import (
    FrozenRecord,
    GroupSpec,
    InvariantError,
    Weight,
    build_root_system,
    dominant_representative,
    format_weight,
    make_weight,
    qv,
    read_flat_weight,
    spell,
)
from .minrep import (
    TYPE_GROUPS,
    MultiplicitySeries,
    dualpair_graded,
    quasisplit_level_multiplicity,
    so3_invariants,
    verify_series,
)
from .rules import Check, Report, su2su2_coefficient

_TORUS_CASES = {
    # (E, K) labels: split/hermitian Jordan algebra x split/complex torus
    # part, each with the linear forms of nu = (a, b, c) that are integers.
    "R3-R2": (),  # all rational
    "R3-C": ((1, 0, 0), (0, 1, 0), (0, 0, 1)),  # all integral
    "RC-R2": ((0, 1, -1),),  # first rational, difference of last two integral
    "RC-C": ((1, 0, 0), (0, 1, -1)),  # first integral, difference of last two integral
}


class FixtureError(ValueError):
    """A table fixture is missing or malformed."""


class TorusCharacterData(FrozenRecord):
    """Sum-zero parameter triple of a two-torus character, desk scale.

    ``nu`` is read by ``lattice.qv``.  ``scaled`` is ``(s, s * nu)`` for
    s = 2 lcm(denominators of nu), even integers, computed once; the
    sum-zero and integrality checks and both transfers read it."""

    _fields = ("nu", "case")
    __slots__ = (*_fields, "scaled")

    nu: tuple[Q, Q, Q]
    case: str | None
    scaled: tuple[int, tuple[int, int, int]]

    def __init__(self, nu: tuple[Q, Q, Q], case: str | None = None) -> None:
        nu = qv(*nu)
        if len(nu) != 3:
            raise ValueError(f"a torus character has three parameters, not {len(nu)}")
        s = 2 * math.lcm(*(x.denominator for x in nu))
        scaled = tuple(x.numerator * (s // x.denominator) for x in nu)
        if sum(scaled):
            raise ValueError("torus parameters must sum to zero")
        if case is not None:
            if case not in _TORUS_CASES:
                raise ValueError(f"unknown torus case {case!r}")
            for form in _TORUS_CASES[case]:
                if sum(f * v for f, v in zip(form, scaled)) % s:
                    raise ValueError(f"{case} characters need {form} . (a, b, c) integral")
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "case", case)
        object.__setattr__(self, "scaled", (s, scaled))


def torus_character(a, b, c, case: str | None = None) -> TorusCharacterData:
    return TorusCharacterData((a, b, c), case)


@functools.lru_cache(maxsize=None)
def _ratio(x: int, s: int) -> Q:
    """x/s as a ``Fraction``: one object per coordinate value and scale."""
    return Q(x, s)


@functools.lru_cache(maxsize=None)
def _outer_roots() -> tuple[tuple[int, ...], ...]:
    """The D4 outer simple roots alpha_1, alpha_2, alpha_3 of
    ``infchar_symmetric_form``, read from ``simple_roots`` as ``int`` tuples."""
    simple = build_root_system("D4").simple_roots
    return tuple(tuple(map(int, simple[i])) for i in (0, 2, 3))


def _infchar_of_scaled(v: tuple[int, ...], s: int) -> InfChar:
    """The D4 ``InfChar`` of v/s: ``dominant_representative`` is exact on ints
    and commutes with positive scaling, so conjugate v and divide once."""
    d = dominant_representative(build_root_system("D4"), v)
    return InfChar("D4", tuple(_ratio(x, s) for x in d))


def infchar_lift(nu: TorusCharacterData) -> InfChar:
    """Transfer of a sum-zero triple to a Spin(8) infinitesimal character.

    Raw vector (a+2, -a+2, b+c, c-b)/2 for (a, b, c) = nu, then the dominant
    orbit representative.  The sign of the last coordinate is pinned by the
    graded decomposition: the level-n charge triple must land on the
    infinitesimal character of the level-n Spin(8) type.
    """
    s, (a, b, c) = nu.scaled
    raw = ((a + 2 * s) // 2, (-a + 2 * s) // 2, (b + c) // 2, (c - b) // 2)  # s * raw
    return _infchar_of_scaled(raw, s)


def infchar_symmetric_form(nu: TorusCharacterData) -> InfChar:
    """Same transfer written as beta + (a alpha_1 + b alpha_2 + c alpha_3)/2.

    beta = (1,1,0,0) is the highest root; alpha_1 = e1-e2, alpha_2 = e3-e4,
    alpha_3 = e3+e4 are the three outer simple roots permuted by the
    diagram symmetries.  Must agree with infchar_lift identically.
    """
    s, coeffs = nu.scaled
    v = (s, s, 0, 0)  # s * beta
    for coeff, alpha in zip(coeffs, _outer_roots(), strict=True):
        v = tuple(x + coeff // 2 * y for x, y in zip(v, alpha))
    return _infchar_of_scaled(v, s)


def lemma_infchar_consistency(max_level: int) -> Report:
    """Level-by-level agreement of the transfer with the graded model.

    For each term of level n of ``dualpair_graded("e62-spin8", max_level)``,
    a Spin(8) type (n/2, n/2, n/2, b/2) against a torus character, the lift
    of the torus character must equal the infinitesimal character of the
    type.
    """
    rs = build_root_system("D4")
    checks = []
    for n, level in dualpair_graded("e62-spin8", max_level).levels.items():
        for w, _ in level.terms:
            lifted = infchar_lift(torus_character(*w.charges))
            direct = infinitesimal_character(rs, w.parts[0])
            status = "PASS" if lifted == direct else "FAIL"
            checks.append(
                Check(
                    f"infchar n={n} b={2 * w.parts[0][3]}",
                    status,
                    spell(direct.rep),
                    spell(lifted.rep),
                )
            )
    return Report("infinitesimal-character consistency", tuple(checks))


# --------------------------------------------------------------------------
# Degenerate principal-series multiplicities.


def ps_multiplicity_split(a: int, b: int, c: int, d: int) -> int:
    """Split-case series multiplicity: diagonal-SU2 invariants of the type."""
    return so3_invariants(a, b, c, d)


def ps_multiplicity_quasisplit(x: int, y: int, z: int, m: int) -> int:
    """Series multiplicity of V_(x,y) (x) V_z at circle character m.

    Zero unless z = x-y = m (mod 2) and z > x-y >= m; otherwise the number
    of integers t with x+y-m >= 2t >= x-y-m and z >= 2t+2+m.  Negative m
    counts via charge negation.
    """
    if not (x >= y >= 0 and z >= 0):
        raise ValueError("invalid type")
    mm = abs(m)
    if not (z % 2 == (x - y) % 2 == mm % 2 and z > x - y >= mm):
        return 0
    low = (x - y - mm) // 2
    high = min(x + y - mm, z - mm - 2) // 2
    return max(0, high - low + 1)


def quasisplit_stabilized_count(x: int, y: int, z: int, m: int) -> int:
    """Stabilized graded multiplicity, the lowest-type ladder count: the sum
    of ``su2su2_coefficient(x, y, t, t+|m|)``, the certified Sp(2) ->
    SU2 x SU2 rule, over 2t+2+|m| <= z; zero unless z = m (mod 2)."""
    if not (x >= y >= 0 and z >= 0):
        raise ValueError("invalid type")
    mm = abs(m)
    if (z - mm) % 2:
        return 0
    return sum(su2su2_coefficient(x, y, t, t + mm) for t in range((z - mm) // 2))


def quasisplit_stabilization_onset(x: int, y: int, z: int, m: int) -> int:
    """Level from which the graded multiplicity equals its stabilized value."""
    mm = abs(m)
    if ps_multiplicity_quasisplit(x, y, z, m) == 0:
        return 0
    t_top = min(x + y - mm, z - mm - 2)  # = 2 * t_max
    onset2 = t_top + mm + max(x + y, z - 2)
    if onset2 % 2:
        raise InvariantError(f"odd doubled onset {onset2} for type ({x},{y},{z}) m={m}")
    return onset2 // 2


def minrep_multiplicity_quasisplit(
    x: int, y: int, z: int, m: int, n: int
) -> tuple[int, int]:
    """Level-n graded multiplicity and its stabilized value."""
    value = quasisplit_level_multiplicity(x, y, z, m, n)
    return value, quasisplit_stabilized_count(x, y, z, m)


def compare_ps_vs_stabilized(
    max_type_sum: int = 12, max_charge: int = 4
) -> Report:
    """Exact equality sweep of the three quasi-split counts.

    For every type x >= y >= 0, z >= 0 with x+y+z <= max_type_sum and
    0 <= m <= max_charge: the closed series count must equal the ladder
    count, and ``verify_series`` must find the graded series, up to two
    levels past the predicted onset, eventually constant at that count from
    exactly that onset.
    """
    gs = TYPE_GROUPS["hermJ-mixedE"]
    checks = []
    for x in range(max_type_sum + 1):
        for y in range(x + 1):
            for z in range(max_type_sum - x - y + 1):
                if (x + y + z) % 2:
                    continue
                ktype = make_weight(gs, ((x, y), (z,)))
                for m in range(max_charge + 1):
                    ps = ps_multiplicity_quasisplit(x, y, z, m)
                    stab = quasisplit_stabilized_count(x, y, z, m)
                    onset = quasisplit_stabilization_onset(x, y, z, m)
                    series = [
                        quasisplit_level_multiplicity(x, y, z, m, n)
                        for n in range(max(onset + 2, 2) + 1)
                    ]
                    verdict = verify_series(
                        MultiplicitySeries("hermJ-mixedE", ktype, m, tuple(series)), onset, stab
                    )
                    ok = ps == stab and verdict.accepted and verdict.kind == "value"
                    checks.append(
                        Check(
                            f"type ({x},{y},{z}) m={m}",
                            "PASS" if ok else "FAIL",
                            f"count {ps} from level {onset}",
                            f"count {stab}, series {series}",
                        )
                    )
    return Report("series vs stabilized graded multiplicities", tuple(checks))


# --------------------------------------------------------------------------
# Lowest-type table fixtures.

_TABLES = {
    "split": ("split_table.tsv", TYPE_GROUPS["splitJ-splitE"], 25),
    "quasisplit": ("quasisplit_table.tsv", TYPE_GROUPS["hermJ-mixedE"], 11),
}


def default_fixture_dir() -> Path:
    """The package's own ``fixtures/``, shipped as package data, whatever
    the current directory and wherever the package is installed."""
    from importlib.resources import files  # only the commands that read tables

    path = files(__package__) / "fixtures"
    if not path.is_dir():
        raise FixtureError(f"no fixtures directory at {path}")
    return path


def _parse_table(path: Path, gs: GroupSpec) -> list[tuple[int, Weight, int, int]]:
    """Each row's id, weight, printed dimension and computed dimension."""
    if not path.is_file():
        raise FixtureError(f"missing fixture {path}")
    rows = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise FixtureError(f"{path}:{lineno}: expected 3 tab-separated fields")
        try:
            row_id = int(fields[0])
            weight = read_flat_weight(gs, fields[1].split(","))
            dim = int(fields[2])
            computed = weight_dimension(gs, weight)
        except ValueError as exc:
            raise FixtureError(f"{path}:{lineno}: {exc}") from exc
        rows.append((row_id, weight, dim, computed))
    return rows


def verify_table(which: str, fixtures_dir: Path | None = None) -> Report:
    """Check every printed lowest-type row against the dimension formula."""
    if which not in _TABLES:
        raise KeyError(f"unknown table {which!r}")
    filename, gs, expected_rows = _TABLES[which]
    directory = fixtures_dir if fixtures_dir is not None else default_fixture_dir()
    entries = _parse_table(directory / filename, gs)
    # row id -> its printed and its computed "weight -> dim" entries
    expected: dict[int, list[str]] = {}
    actual: dict[int, list[str]] = {}
    for row_id, weight, dim, computed in entries:
        label = format_weight(weight)
        expected.setdefault(row_id, []).append(f"{label} -> {dim}")
        actual.setdefault(row_id, []).append(f"{label} -> {computed}")
    if sorted(expected) != list(range(expected_rows)):
        raise FixtureError(
            f"{filename}: row ids must be exactly 0..{expected_rows - 1}"
        )
    checks = tuple(
        Check(
            f"{which} row {row_id}",
            "PASS" if expected[row_id] == actual[row_id] else "FAIL",
            "; ".join(expected[row_id]),
            "; ".join(actual[row_id]),
        )
        for row_id in range(expected_rows)
    )
    return Report(f"{which} lowest-type table", checks)


def verify_tables(fixtures_dir: Path | None = None) -> Report:
    split = verify_table("split", fixtures_dir)
    quasi = verify_table("quasisplit", fixtures_dir)
    return Report("lowest-type tables", split.checks + quasi.checks)
