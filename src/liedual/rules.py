"""Closed-form branching rules and their registry.

The closed forms build their terms as ``IntKey``s, the keys the oracle in
``branching`` folds to, and ``minrep`` reads the integer ``_core``s of
three of them.  ``RULES`` holds one ``Rule`` per closed form: its
embedding, source weight, parameter grid and default level.
``verify_rule`` replays a rule against ``branching.restrict_generic`` term
by term, and imports the oracle when it runs, so that ``minrep`` and
``theta`` never load it.  ``Check`` and ``Report`` are the one
check/report type of every sweep.  Check strings spell weights and
characters as the command line does (``lattice.format_weight``,
``lattice.format_terms``); a FAIL names the first term where closed form
and oracle differ.
"""

from __future__ import annotations

from fractions import Fraction as Q
from typing import Callable, Mapping, NamedTuple

from .charalg import FormalCharacter
from .lattice import (
    Weight,
    doubled,
    format_terms,
    format_weight,
    group,
    make_weight,
    qv,
)


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
    # For each a, the b of su2su2_coefficient's inequalities run from
    # |a - d| to min(a + d, x + y - a), d = x - y; both ends already have
    # the parity of x + y - a.
    d = x - y
    return tuple(
        (a, b) for a in range(x + y + 1) for b in range(abs(a - d), min(a + d, x + y - a) + 1, 2)
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
    from .branching import BudgetExceededError, embedding, restrict_generic

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
