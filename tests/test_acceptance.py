"""Acceptance criteria, one test per criterion, each printing a status line.

Every comparison here is exact integer or exact rational equality; the only
tolerances are the stated wall-clock budgets.
"""

import random
import time
from fractions import Fraction as Q

from liedual.rules import (
    RULE_IDS,
    branch_sp2_to_su2su2,
    branch_sp4_to_sp2sp2,
    branch_spin10_halfspin_to_spin8u1,
    branch_su6_omega3_to_sp2su2u1,
    branch_su6_omega3_to_sp3,
    verify_rule,
)
from liedual.charalg import dimension
from liedual.lattice import build_root_system, group, make_weight
from liedual.minrep import (
    MultiplicitySeries,
    ktype_multiplicity,
    multiplicity_series,
    sign_first_appearance,
    so3_cone_ok,
    verify_series,
)
from liedual.theta import (
    compare_ps_vs_stabilized,
    infchar_lift,
    infchar_symmetric_form,
    lemma_infchar_consistency,
    quasisplit_stabilization_onset,
    quasisplit_stabilized_count,
    torus_character,
    verify_tables,
)

G4 = group("A1", "A1", "A1", "A1")
GP = group("C2", "A1")


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, detail


def test_criterion_1_table_reproduction():
    start = time.perf_counter()
    report = verify_tables()
    elapsed = time.perf_counter() - start
    ok = report.ok and report.summary == "PASS 36/36" and elapsed < 1.0
    _report(
        "1 table reproduction",
        ok,
        f"{report.summary} in {elapsed:.3f}s (budget 1s)",
    )


def test_criterion_2_closed_forms_vs_oracle():
    start = time.perf_counter()
    ranges = {
        "sp4_to_sp2sp2": 4,
        "sp2_to_su2su2": 8,
        "so5_to_so3so2": 5,
        "spin10_halfspin": 4,
        "su6_omega3": 4,
        "su6_omega3_to_sp3": 4,
    }
    assert set(ranges) == set(RULE_IDS)
    failures = []
    cases = 0
    for rule_id, level in ranges.items():
        report = verify_rule(rule_id, level)
        cases += len(report.checks)
        failures.extend(
            (rule_id, c.name) for c in report.checks if c.status != "PASS"
        )
    # dimension conservation of the closed forms themselves
    for n in range(5):
        assert branch_sp4_to_sp2sp2(n).total_dimension() == dimension(
            build_root_system("C4"), tuple(Q(n) for _ in range(4))
        )
        assert branch_spin10_halfspin_to_spin8u1(n).total_dimension() == dimension(
            build_root_system("D5"), tuple(Q(n, 2) for _ in range(5))
        )
        a5_dim = dimension(
            build_root_system("A5"), tuple(Q(v) for v in (n, n, n, 0, 0, 0))
        )
        merged = sum(
            branch_su6_omega3_to_sp2su2u1(n, m).total_dimension()
            for m in range(-n, n + 1)
        )
        assert merged == a5_dim
        assert branch_su6_omega3_to_sp3(n).character.total_dimension() == a5_dim
    for x in range(9):
        for y in range(x + 1):
            assert branch_sp2_to_su2su2(x, y).total_dimension() == dimension(
                build_root_system("C2"), (Q(x), Q(y))
            )
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 300.0
    _report(
        "2 closed form vs oracle",
        ok,
        f"{cases} cases, failures={failures[:3]}, {elapsed:.1f}s (budget 300s)",
    )


def _even_triples(limit: int):
    for a in range(0, limit + 1, 2):
        for b in range(0, limit + 1 - a, 2):
            for c in range(0, limit + 1 - a - b, 2):
                yield a, b, c


def test_criterion_3_multiplicity_formula():
    checked = 0
    for a, b, c in _even_triples(12):
        w = make_weight(G4, ((a,), (b,), (c,), (0,)))
        triangle = so3_cone_ok(a, b, c, 0)
        for n in range(9):
            got = ktype_multiplicity("splitJ-splitE", w, n)
            expected = max(0, n + 1 - (a + b + c) // 2) if triangle else 0
            assert got == expected, ((a, b, c), n, got, expected)
            checked += 1
    _report("3 multiplicity formula", True, f"{checked} exact comparisons")


def test_criterion_4_infinitesimal_characters():
    report = lemma_infchar_consistency(10)
    assert report.ok, report.summary
    rng = random.Random(421)
    for _ in range(1000):
        a = Q(rng.randint(-50, 50), rng.choice((1, 2, 4)))
        b = Q(rng.randint(-50, 50), rng.choice((1, 2, 4)))
        nu = torus_character(a, b, -a - b)
        assert infchar_lift(nu) == infchar_symmetric_form(nu), nu
    origin = infchar_lift(torus_character(0, 0, 0))
    assert origin.rep == (Q(1), Q(1), Q(0), Q(0))
    _report(
        "4 infinitesimal characters",
        True,
        f"{report.summary}, 1000 random triples agree, origin -> (1,1,0,0)",
    )


def test_criterion_5_quasisplit_multiplicity_match():
    report = compare_ps_vs_stabilized(12, 4)
    ok = report.ok
    _report("5 quasi-split multiplicity match", ok, report.summary)


def test_criterion_6_sign_rules():
    checked = 0
    # even triangle types with a zero slot, first level <= 6
    for a, b, c in _even_triples(12):
        if not so3_cone_ok(a, b, c, 0) or (a + b + c) // 2 > 6:
            continue
        res = sign_first_appearance(
            "splitJ-splitE", make_weight(G4, ((a,), (b,), (c,), (0,)))
        )
        s = (a + b + c) // 2
        assert res.witness_level == s
        assert res.side == ("rho1" if s % 2 == 0 else "epsilon")
        checked += 1
    # V_(2k,0) (x) V_0, first level 2k <= 6
    for k in range(0, 4):
        res = sign_first_appearance(
            "splitJ-mixedE", make_weight(GP, ((2 * k, 0), (0,)))
        )
        assert res.witness_level == 2 * k
        assert res.side == ("rho1" if k % 2 == 0 else "epsilon")
        checked += 1
    minimal = sign_first_appearance("splitJ-mixedE", make_weight(GP, ((2, 0), (0,))))
    assert minimal.side == "epsilon"
    # V_(0,0) (x) V_(2k), first level k-1 <= 6
    for k in range(1, 8):
        res = sign_first_appearance(
            "hermJ-mixedE", make_weight(GP, ((0, 0), (2 * k,)))
        )
        assert res.witness_level == k - 1
        assert res.side == ("epsilon" if k % 2 == 0 else "rho1")
        checked += 1
    minimal = sign_first_appearance("hermJ-mixedE", make_weight(GP, ((0, 0), (4,))))
    assert minimal.side == "epsilon"
    _report("6 sign rules", True, f"{checked} witnesses at first level <= 6")


def test_criterion_7_growth_verifier():
    accepted = 0
    # series from criterion 3: linear growth, bound = eventual increment
    for a, b, c in _even_triples(12):
        if not so3_cone_ok(a, b, c, 0):
            continue
        series = multiplicity_series(
            "splitJ-splitE", make_weight(G4, ((a,), (b,), (c,), (0,))), 10
        )
        check = verify_series(
            series,
            expected_onset=(a + b + c) // 2,
            expected_bound=series.stabilized_value,
        )
        assert check.accepted, (a, b, c, check)
        assert check.bound == series.stabilized_value == 1
        accepted += 1
    # series from criterion 5: stabilizing multiplicities, bound = limit value
    for x in range(13):
        for y in range(x + 1):
            for z in range(13 - x - y):
                if (x + y + z) % 2:
                    continue
                for m in range(5):
                    stab = quasisplit_stabilized_count(x, y, z, m)
                    onset = quasisplit_stabilization_onset(x, y, z, m)
                    horizon = max(onset + 2, 2)
                    series = multiplicity_series(
                        "hermJ-mixedE", make_weight(GP, ((x, y), (z,))), horizon, m
                    )
                    check = verify_series(
                        series, expected_onset=onset, expected_bound=stab
                    )
                    assert check.accepted, ((x, y, z, m), check)
                    assert check.bound == stab == series.stabilized_value
                    accepted += 1
    # negative test: a decreasing step must be rejected
    good = multiplicity_series(
        "splitJ-splitE", make_weight(G4, ((0,), (0,), (0,), (0,))), 8
    )
    values = list(good.values)
    values[6] = values[5] - 1
    corrupted = MultiplicitySeries(good.case, good.ktype, None, tuple(values))
    rejected = verify_series(corrupted)
    assert not rejected.accepted and "decreasing" in rejected.reason
    _report(
        "7 growth verifier",
        True,
        f"{accepted} series accepted with matching bounds; corrupted series rejected",
    )
