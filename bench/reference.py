"""Reference arithmetic for the benchmark's correctness checks.

Nothing here imports liedual.  Every expected value the benchmark compares
against is computed from plain integers: Weyl dimension products, the
closed-form branching expectations, the criterion formulas of the
acceptance gate, and the check counts of ``liedual verify all``.

Weights use the program's ambient coordinates (see ``lattice.py``): A1 is
one-dimensional with weight n for the (n+1)-dimensional irreducible, A5
lives in R^6, B/C/D use epsilon coordinates.  Coordinates may be ints,
``Fraction``s or strings such as ``"1/2"``.
"""

from __future__ import annotations

from fractions import Fraction

# Key of a weight: (parts, charges), each a tuple of tuples / a tuple of
# numbers.  Ints and Fractions hash and compare equal, so keys built here
# match keys read off liedual's Weight objects.
Key = tuple


def _doubled(coords) -> list[int]:
    out = []
    for c in coords:
        q = Fraction(c) * 2
        if q.denominator != 1:
            raise ValueError(f"coordinate {c} is not in (1/2)Z")
        out.append(int(q))
    return out


def _exact_ratio(num: int, den: int) -> int:
    value, rem = divmod(num, den)
    if rem or value <= 0:
        raise ArithmeticError(f"Weyl product {num}/{den} is not a positive integer")
    return value


def weyl_dim(label: str, coords) -> int:
    """Weyl dimension of the irreducible with highest weight ``coords``.

    Works in doubled coordinates so every factor is an integer; the same
    number of factors sits above and below the line, so doubling cancels.
    """
    series, rank = label[0], int(label[1:])
    twice = _doubled(coords)
    if label == "A1":
        if twice[0] % 2 or twice[0] < 0:
            raise ValueError(f"bad A1 weight {coords}")
        return twice[0] // 2 + 1
    if series == "A":
        rho = [2 * (rank - i) for i in range(rank + 1)]
    elif series == "B":
        rho = [2 * (rank - i) - 1 for i in range(rank)]
    elif series == "C":
        rho = [2 * (rank - i) for i in range(rank)]
    elif series == "D":
        rho = [2 * (rank - 1 - i) for i in range(rank)]
    else:
        raise ValueError(f"unknown series {label}")
    if len(twice) != len(rho):
        raise ValueError(f"{coords} has the wrong length for {label}")
    shifted = [a + r for a, r in zip(twice, rho)]

    def product(v: list[int]) -> int:
        value = 1
        for i in range(len(v)):
            for j in range(i + 1, len(v)):
                if series == "A":
                    value *= v[i] - v[j]
                else:
                    value *= (v[i] - v[j]) * (v[i] + v[j])
            if series in ("B", "C"):
                value *= v[i]
        return value

    return _exact_ratio(product(shifted), product(rho))


def group_dim(labels: tuple[str, ...], parts) -> int:
    """Dimension of an irreducible of a product group (circles add nothing)."""
    if len(labels) != len(parts):
        raise ValueError("one weight part per simple factor")
    value = 1
    for label, part in zip(labels, parts):
        value *= weyl_dim(label, part)
    return value


HAND_VALUES = (
    ("C4", (1, 1, 1, 1), 42),
    ("D5", ("1/2",) * 5, 16),
    ("C4", (5, 5, 5, 5), 111_384),
    ("C4", (6, 6, 6, 6), 395_352),
    ("A5", (1, 1, 1, 0, 0, 0), 20),
    ("A1", (4,), 5),
    ("C2", (1, 0), 4),
    ("C2", (1, 1), 5),
    ("B2", ("1/2", "1/2"), 4),
    ("B2", (1, 0), 5),
    ("D4", (1, 0, 0, 0), 8),
)


def self_check() -> None:
    """Raise unless the Weyl products reproduce the hand-computed values."""
    for label, coords, expected in HAND_VALUES:
        got = weyl_dim(label, coords)
        if got != expected:
            raise ArithmeticError(f"reference dim {label} {coords} = {got}, expected {expected}")


# --------------------------------------------------------------------------
# Sources of the ladder and of the graded levels.


def half(n: int) -> Fraction:
    return Fraction(n, 2)


SOURCES = {
    # embedding -> (big group labels, level -> source weight parts)
    "sp2xsp2_in_sp4": (("C4",), lambda n: ((n, n, n, n),)),
    "su2x4_in_sp4": (("C4",), lambda n: ((n, n, n, n),)),
    "spin8u1_in_spin10": (("D5",), lambda n: ((half(n),) * 5,)),
    "sp2su2u1_in_su6": (("A5",), lambda n: ((n, n, n, 0, 0, 0),)),
    "sp3_in_su6": (("A5",), lambda n: ((n, n, n, 0, 0, 0),)),
}

SMALL_GROUPS = {
    "sp2xsp2_in_sp4": ("C2", "C2"),
    "su2x4_in_sp4": ("A1", "A1", "A1", "A1"),
    "spin8u1_in_spin10": ("D4",),
    "sp2su2u1_in_su6": ("C2", "A1"),
    "sp3_in_su6": ("C3",),
}


def source_dim(embedding: str, n: int) -> int:
    labels, weight = SOURCES[embedding]
    return group_dim(labels, weight(n))


# --------------------------------------------------------------------------
# Closed-form expectations, written from the rules' defining inequalities.


def su2su2_pairs(x: int, y: int) -> list[tuple[int, int]]:
    """SU2 x SU2 types (a, b) of the Sp(2) irreducible (x, y)."""
    return [
        (a, b)
        for a in range(x + y + 1)
        for b in range(x + y + 1)
        if (a + b) % 2 == (x + y) % 2 and abs(a - b) <= x - y <= a + b <= x + y
    ]


def _add(out: dict, key: Key, mult: int = 1) -> None:
    out[key] = out.get(key, 0) + mult


def expected_restriction(embedding: str, n: int) -> dict[Key, int]:
    """Decomposition of the level-n source along ``embedding``."""
    out: dict[Key, int] = {}
    if embedding == "sp2xsp2_in_sp4":
        for x in range(n + 1):
            for y in range(x + 1):
                _add(out, (((x, y), (x, y)), ()))
    elif embedding == "su2x4_in_sp4":
        # Sp(4) -> Sp(2) x Sp(2), then Sp(2) -> SU2 x SU2 on each factor.
        for x in range(n + 1):
            for y in range(x + 1):
                pairs = su2su2_pairs(x, y)
                for a, b in pairs:
                    for c, d in pairs:
                        _add(out, (((a,), (b,), (c,), (d,)), ()))
    elif embedding == "spin8u1_in_spin10":
        for b in range(-n, n + 1, 2):
            _add(out, (((half(n), half(n), half(n), half(b)),), (b,)))
    elif embedding == "sp2su2u1_in_su6":
        for m in range(-n, n + 1):
            mm = abs(m)
            t = 0
            while n - mm - 2 * t >= 0:
                z = n - mm - 2 * t
                for s in range(2 * t + mm, 2 * n - 2 * t - mm + 1, 2):
                    for d in range(mm, min(mm + 2 * t, s) + 1, 2):
                        _add(out, ((((s + d) // 2, (s - d) // 2), (z,)), (m,)))
                t += 1
    elif embedding == "sp3_in_su6":
        for m in range(n + 1):
            _add(out, (((n, m, m),), ()))
    else:
        raise KeyError(embedding)
    return out


def character_dim(labels: tuple[str, ...], terms: dict[Key, int]) -> int:
    """Sum of multiplicity x dimension over the terms of a character."""
    return sum(m * group_dim(labels, parts) for (parts, _), m in terms.items())


# --------------------------------------------------------------------------
# Graded minimal-representation levels and the acceptance criteria.

GRADED_GROUPS = {
    "splitJ-splitE": ("A1", "A1", "A1", "A1"),
    "splitJ-mixedE": ("C2", "A1"),
    "hermJ-mixedE": ("C2", "A1"),
    "e62-spin8": ("D4",),
}


def minrep_level_dim(case: str, n: int) -> int:
    """Dimension of level n of the minimal representation a dual pair sees."""
    if case in ("splitJ-splitE", "splitJ-mixedE"):
        return weyl_dim("C4", (n, n, n, n))
    if case == "hermJ-mixedE":
        return (n + 3) * weyl_dim("A5", (n, n, n, 0, 0, 0))
    if case == "e62-spin8":
        return weyl_dim("D5", (half(n),) * 5)
    raise KeyError(case)


def triangle(a: int, b: int, c: int) -> bool:
    total = a + b + c
    return all(total - 2 * v >= 0 for v in (a, b, c))


def even_triples(limit: int):
    for a in range(0, limit + 1, 2):
        for b in range(0, limit + 1 - a, 2):
            for c in range(0, limit + 1 - a - b, 2):
                yield a, b, c


def split_multiplicity(a: int, b: int, c: int, n: int) -> int:
    """Criterion 3: multiplicity of V_a x V_b x V_c x V_0 in level n."""
    if not triangle(a, b, c):
        return 0
    return max(0, n + 1 - (a + b + c) // 2)


def quasisplit_stabilized(x: int, y: int, z: int, m: int) -> int:
    """Integers t with x+y-m >= 2t >= x-y-m >= 0 and z >= m+2t+2."""
    mm = abs(m)
    if z % 2 != mm % 2 or (x - y) % 2 != mm % 2 or x - y - mm < 0:
        return 0
    return sum(
        1
        for t in range((x - y - mm) // 2, (x + y - mm) // 2 + 1)
        if z >= mm + 2 * t + 2
    )


def quasisplit_onset(x: int, y: int, z: int, m: int) -> int:
    """First level at which the graded count reaches its stabilized value."""
    mm = abs(m)
    if quasisplit_stabilized(x, y, z, m) == 0:
        return 0
    return (min(x + y - mm, z - mm - 2) + mm + max(x + y, z - 2)) // 2


def quasisplit_types(max_type_sum: int):
    """Types x >= y >= 0, z >= 0 with x+y+z <= max_type_sum and even sum."""
    for x in range(max_type_sum + 1):
        for y in range(x + 1):
            for z in range(max_type_sum - x - y + 1):
                if (x + y + z) % 2 == 0:
                    yield x, y, z


def sign_expectation(case: str, params: tuple[int, ...]) -> tuple[int, str]:
    """Criterion 6: (witness level, side) of a covered first appearance."""
    if case == "splitJ-splitE":
        s = sum(params) // 2
        return s, "rho1" if s % 2 == 0 else "epsilon"
    if case == "splitJ-mixedE":
        (k,) = params
        return 2 * k, "rho1" if k % 2 == 0 else "epsilon"
    if case == "hermJ-mixedE":
        (k,) = params
        return k - 1, "epsilon" if k % 2 == 0 else "rho1"
    raise KeyError(case)


# --------------------------------------------------------------------------
# Check counts of `liedual verify all` at its shipped ranges.

SHIPPED_RULE_RANGES = {
    "sp4_to_sp2sp2": 4,
    "sp2_to_su2su2": 8,
    "so5_to_so3so2": 5,
    "spin10_halfspin": 4,
    "su6_omega3": 4,
    "su6_omega3_to_sp3": 4,
}
SHIPPED_INFCHAR_MAX_N = 10
SHIPPED_QUASISPLIT = (12, 4)  # max type sum, max charge


def rule_case_count(rule_id: str, top: int) -> int:
    if rule_id == "sp2_to_su2su2":
        return (top + 1) * (top + 2) // 2
    if rule_id == "so5_to_so3so2":
        count = 0
        for shift in (Fraction(0), Fraction(1, 2)):
            a = shift
            while a <= top:
                count += int(a - shift) + 1
                a += 1
        return count
    return top + 1


def verify_all_counts(
    table_rows: dict[str, int], max_level: int | None = None, max_n: int = SHIPPED_INFCHAR_MAX_N
) -> dict[str, int]:
    """Checks per suite of ``verify all [--max-level L] [--max-n N]``."""
    max_sum, max_charge = SHIPPED_QUASISPLIT
    return {
        "rules": sum(
            rule_case_count(r, t if max_level is None else max_level)
            for r, t in SHIPPED_RULE_RANGES.items()
        ),
        "infchar": sum(n + 1 for n in range(max_n + 1)) + 1,
        "quasisplit-mult": sum(1 for _ in quasisplit_types(max_sum)) * (max_charge + 1),
        "tables": sum(table_rows.values()),
    }


def parse_fraction_list(text: str) -> tuple[Fraction, ...]:
    return tuple(Fraction(t) for t in text.split(",") if t != "")
