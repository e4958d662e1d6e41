"""Infinitesimal-character transfer, multiplicity counts, table fixtures."""

import itertools
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liedual
from liedual import theta
from liedual.branching import embedding, restrict_generic
from liedual.charalg import infinitesimal_character
from liedual.cli import main
from liedual.lattice import (
    InvalidWeightError,
    build_root_system,
    dominant_representative,
    dominant_conjugate_by_reflections,
    make_weight,
    qv,
    vadd,
    vscale,
)
from liedual.minrep import sign_first_appearance, so3_cone_ok
from liedual.theta import (
    FixtureError,
    TorusCharacterData,
    compare_ps_vs_stabilized,
    default_fixture_dir,
    infchar_lift,
    infchar_symmetric_form,
    lemma_infchar_consistency,
    minrep_multiplicity_quasisplit,
    ps_multiplicity_quasisplit,
    ps_multiplicity_split,
    quasisplit_stabilization_onset,
    quasisplit_stabilized_count,
    torus_character,
    verify_table,
    verify_tables,
)

D4 = build_root_system("D4")


def test_torus_character_validation():
    torus_character(2, -1, -1)
    torus_character(1, 0, -1, case="R3-C")
    with pytest.raises(ValueError):
        torus_character(1, 0, 0)
    with pytest.raises(ValueError):
        torus_character(Q(1, 2), 0, Q(-1, 2), case="R3-C")
    TorusCharacterData((Q(0), Q(1, 2), Q(-1, 2)), case="RC-C")
    with pytest.raises(ValueError):
        TorusCharacterData((Q(1, 2), Q(0), Q(-1, 2)), case="RC-C")
    with pytest.raises(ValueError):
        TorusCharacterData((Q(0), Q(1, 4), Q(-1, 4)), case="RC-R2")
    torus_character(0, Q(1, 2), Q(-1, 2), case="R3-R2")


def test_rc_c_torus_character_needs_integral_difference():
    # RC-C needs an integral first entry and an integral b - c, as RC-R2
    # needs the latter: a triple RC-R2 rejects for its difference RC-C
    # rejects too.
    nu = (Q(0), Q(1, 4), Q(-1, 4))
    for case in ("RC-R2", "RC-C"):
        with pytest.raises(ValueError, match=f"{case} characters need"):
            TorusCharacterData(nu, case=case)
    TorusCharacterData((Q(1), Q(1, 2), Q(-3, 2)), case="RC-C")


def test_torus_character_data_reads_three_entries_through_qv():
    # An exported constructor: a pair, or a float, used to pass here and
    # fail later inside infchar_lift.
    with pytest.raises(ValueError, match="three parameters, not 2"):
        TorusCharacterData((Q(1), Q(-1)))
    with pytest.raises(InvalidWeightError, match="bad rational 0.5"):
        TorusCharacterData((0.5, -0.5, 0))
    nu = TorusCharacterData((1, "-1/2", Q(-1, 2)))
    assert nu == torus_character(1, Q(-1, 2), Q(-1, 2))
    assert all(type(x) is Q for x in nu.nu)


def test_infchar_lift_examples():
    assert infchar_lift(torus_character(0, 0, 0)).rep == qv(1, 1, 0, 0)
    assert infchar_lift(torus_character(2, -1, -1)).rep == qv(2, 1, 0, 0)
    # the level-0 torus character lands on the trivial-type infinitesimal char
    assert infchar_lift(torus_character(4, -2, -2)).rep == qv(3, 2, 1, 0)
    assert infchar_lift(torus_character(4, -2, -2)) == infinitesimal_character(
        D4, qv(0, 0, 0, 0)
    )


def test_symmetric_form_examples():
    assert infchar_symmetric_form(torus_character(0, 0, 0)).rep == qv(1, 1, 0, 0)
    nu = torus_character(2, -1, -1)
    assert infchar_symmetric_form(nu) == infchar_lift(nu)


@settings(max_examples=200, deadline=None)
@given(
    a_num=st.integers(-60, 60),
    b_num=st.integers(-60, 60),
    den=st.sampled_from((1, 2, 4)),
)
def test_lift_equals_symmetric_form(a_num, b_num, den):
    a, b = Q(a_num, den), Q(b_num, den)
    nu = torus_character(a, b, -a - b)
    assert infchar_lift(nu) == infchar_symmetric_form(nu)


def test_transfers_are_invariant_under_the_z2_of_the_torus():
    # The Z/2 of T x| Z/2 inverts T: nu and -nu give one infinitesimal
    # character, by both transfers, on seeded triples with denominators 1-6.
    rng = random.Random(2302)
    for _ in range(1000):
        a, b = (Q(rng.randint(-40, 40), rng.randint(1, 6)) for _ in range(2))
        nu, minus = torus_character(a, b, -a - b), torus_character(-a, -b, a + b)
        assert infchar_lift(nu) == infchar_lift(minus), nu.nu
        assert infchar_symmetric_form(nu) == infchar_symmetric_form(minus), nu.nu


_TRIPLE_ENTRIES = st.builds(Q, st.integers(-40, 40), st.sampled_from((1, 2, 4, 8)))


@settings(max_examples=120, deadline=None)
@given(a=_TRIPLE_ENTRIES, b=_TRIPLE_ENTRIES)
def test_scaled_int_infchars_match_reflection_walk(a, b):
    # Both transfers run on scaled ints; the oracle walks the Fraction raw
    # vectors to the dominant chamber by simple reflections.
    nu = torus_character(a, b, -a - b)
    c = -a - b
    lift_raw = ((a + 2) / 2, (-a + 2) / 2, (b + c) / 2, (c - b) / 2)
    outer = (D4.simple_roots[0], D4.simple_roots[2], D4.simple_roots[3])
    symmetric_raw = qv(1, 1, 0, 0)
    for coeff, alpha in zip((a, b, c), outer):
        symmetric_raw = vadd(symmetric_raw, vscale(coeff / 2, alpha))
    for got, raw in (
        (infchar_lift(nu), lift_raw),
        (infchar_symmetric_form(nu), symmetric_raw),
    ):
        want, _ = dominant_conjugate_by_reflections(D4, raw)
        assert got.label == "D4" and got.rep == want, (a, b)
        assert all(type(x) is Q for x in got.rep)


def test_transfers_equal_a_fraction_reference_on_a_grid():
    # Denominators 1-5, so s = 2 lcm(denominators) runs through 2..120; the
    # references compute the raw vectors in Fractions and conjugate them
    # with the closed form, which is exact on Fractions.
    entries = sorted({Q(p, q) for q in range(1, 6) for p in range(-2 * q, 2 * q + 1)})
    outer = (D4.simple_roots[0], D4.simple_roots[2], D4.simple_roots[3])
    for a, b in itertools.product(entries, repeat=2):
        c = -a - b
        nu = torus_character(a, b, c)
        symmetric_raw = qv(1, 1, 0, 0)
        for coeff, alpha in zip((a, b, c), outer):
            symmetric_raw = vadd(symmetric_raw, vscale(coeff / 2, alpha))
        lift_raw = ((a + 2) / 2, (-a + 2) / 2, (b + c) / 2, (c - b) / 2)
        lift, symmetric = infchar_lift(nu), infchar_symmetric_form(nu)
        assert lift.rep == dominant_representative(D4, lift_raw), (a, b)
        assert symmetric.rep == dominant_representative(D4, symmetric_raw), (a, b)
        assert all(type(x) is Q for x in lift.rep + symmetric.rep)
        # equal coordinates are one Fraction
        assert all(x is y for x, y in zip(lift.rep, symmetric.rep)), (a, b)


def test_lift_distinguishes_fourth_coordinate_sign():
    # the two chirality classes of regular parameters map to distinct orbits
    lift1 = infchar_lift(torus_character(4, -1, -3))
    lift2 = infchar_lift(torus_character(4, -3, -1))
    assert lift1 != lift2
    assert lift1.rep[:3] == lift2.rep[:3]
    assert lift1.rep[3] == -lift2.rep[3]


def test_lemma_infchar_consistency():
    report = lemma_infchar_consistency(6)
    assert report.ok
    assert len(report.checks) == sum(n + 1 for n in range(7))


def test_ps_multiplicity_split_delegates_to_invariants():
    assert ps_multiplicity_split(0, 0, 0, 0) == 1
    assert ps_multiplicity_split(1, 1, 1, 1) == 2
    assert ps_multiplicity_split(2, 2, 2, 0) == 1


def test_ps_multiplicity_split_is_the_diagonal_invariant_count():
    # The closed count against the restriction oracle: the multiplicity of
    # V_0 in V_a (x) V_b (x) V_c (x) V_d restricted to the diagonal SU2, for
    # every even-sum type with entries at most 4.
    e = embedding("diag_su2_in_su2x4")
    trivial = make_weight(e.small, ((0,),))
    types = [t for t in itertools.product(range(5), repeat=4) if sum(t) % 2 == 0]
    assert len(types) == 313
    for t in types:
        hw = make_weight(e.big, tuple((v,) for v in t))
        assert ps_multiplicity_split(*t) == restrict_generic(e, hw).decomposition.multiplicity(
            trivial
        ), t


def test_ps_multiplicity_quasisplit_examples():
    assert ps_multiplicity_quasisplit(0, 0, 2, 0) == 1
    assert ps_multiplicity_quasisplit(2, 0, 4, 0) == 1
    assert ps_multiplicity_quasisplit(2, 2, 4, 2) == 0  # gate z > x-y >= m fails
    assert ps_multiplicity_quasisplit(2, 1, 3, 1) == 1
    assert ps_multiplicity_quasisplit(2, 0, 4, -2) == ps_multiplicity_quasisplit(
        2, 0, 4, 2
    )


def test_minrep_multiplicity_quasisplit_examples():
    values = [minrep_multiplicity_quasisplit(1, 1, 2, 0, n) for n in range(4)]
    assert values == [(0, 1), (1, 1), (1, 1), (1, 1)]
    assert minrep_multiplicity_quasisplit(0, 0, 2, 0, 0) == (1, 1)
    # zero unless z > x - y >= m
    for n in range(6):
        assert minrep_multiplicity_quasisplit(2, 0, 2, 0, n)[0] == 0
        assert minrep_multiplicity_quasisplit(1, 1, 0, 0, n)[0] == 0


def test_stabilization_onset_prediction():
    for (x, y, z, m) in [(1, 1, 2, 0), (0, 0, 4, 0), (2, 0, 4, 2), (3, 1, 4, 0)]:
        onset = quasisplit_stabilization_onset(x, y, z, m)
        stab = quasisplit_stabilized_count(x, y, z, m)
        series = [
            minrep_multiplicity_quasisplit(x, y, z, m, n)[0]
            for n in range(onset + 3)
        ]
        assert series[onset] == stab
        if onset > 0 and stab > 0:
            assert series[onset - 1] < stab


def test_compare_ps_vs_stabilized_small():
    report = compare_ps_vs_stabilized(8, 2)
    assert report.ok
    assert report.summary.startswith("PASS")


_REAL_LEVEL = theta.quasisplit_level_multiplicity


def _growing(x, y, z, m, n):
    # keeps growing by the stabilized value after the onset
    onset = quasisplit_stabilization_onset(x, y, z, m)
    stab = quasisplit_stabilized_count(x, y, z, m)
    return _REAL_LEVEL(x, y, z, m, n) + max(0, n - onset) * stab


def _late(x, y, z, m, n):
    # reaches the stabilized value one level after the onset
    return _REAL_LEVEL(x, y, z, m, n - 1)


def _dip(x, y, z, m, n):
    # drops to zero one level after the onset, then recovers
    onset = quasisplit_stabilization_onset(x, y, z, m)
    stab = quasisplit_stabilized_count(x, y, z, m)
    return _REAL_LEVEL(x, y, z, m, n) - (n == onset + 1) * stab


@pytest.mark.parametrize(
    "bad", [_growing, _late, _dip], ids=["growing", "late", "dip"]
)
def test_quasisplit_report_rejects_bad_series(monkeypatch, bad):
    # Each corruption touches exactly the 23 types of non-zero stabilized
    # count; a growing series must fail too, not pass as an increment.
    monkeypatch.setattr(theta, "quasisplit_level_multiplicity", bad)
    assert compare_ps_vs_stabilized(8, 2).summary == "FAIL 142/165"


def test_quasisplit_report_reads_the_ladder_coefficient(monkeypatch):
    # Drop the t = 0 rung from the Sp(2) -> SU2 x SU2 coefficient that the
    # ladder count reads: every type whose ladder starts there must FAIL.
    real = theta.su2su2_coefficient
    monkeypatch.setattr(
        theta, "su2su2_coefficient", lambda x, y, a, b: 0 if a == 0 else real(x, y, a, b)
    )
    assert compare_ps_vs_stabilized(8, 2).summary == "FAIL 146/165"


def test_ps_quasisplit_against_ladder_counting_oracle():
    # The closed series count against the ladder count, which sums the
    # lowest-type rungs V_t (x) V_{t+|m|} [2t+2+|m|] inside V_(x,y) (x) V_z
    # through the pair restriction coefficients; negative m included.
    for x, z, m in itertools.product(range(16), range(20), range(-6, 7)):
        for y in range(x + 1):
            assert ps_multiplicity_quasisplit(x, y, z, m) == quasisplit_stabilized_count(
                x, y, z, m
            ), (x, y, z, m)


def test_verify_table_rows():
    split = verify_table("split")
    assert split.ok and len(split.checks) == 25
    quasi = verify_table("quasisplit")
    assert quasi.ok and len(quasi.checks) == 11
    combined = verify_tables()
    assert combined.summary == "PASS 36/36"
    by_name = {c.name: c for c in split.checks}
    assert "16" in by_name["split row 6"].expected
    assert "32" in by_name["split row 18"].expected
    qs = {c.name: c for c in quasi.checks}
    assert "(1,1)x(2) -> 15" in qs["quasisplit row 5"].expected
    assert "(2,0)x(0) -> 10" in qs["quasisplit row 5"].expected
    assert "(0,0)x(6) -> 7" in qs["quasisplit row 9"].expected


def test_verify_table_fixture_errors(tmp_path):
    with pytest.raises(FixtureError):
        verify_table("split", tmp_path)
    bad = tmp_path / "split_table.tsv"
    bad.write_text("0\t0,0,0,0\n", encoding="utf-8")
    with pytest.raises(FixtureError):
        verify_table("split", tmp_path)
    bad.write_text("0\t0,0,0,0\tx\n", encoding="utf-8")
    with pytest.raises(FixtureError):
        verify_table("split", tmp_path)
    # row coverage must be exact
    bad.write_text("0\t0,0,0,0\t1\n", encoding="utf-8")
    with pytest.raises(FixtureError):
        verify_table("split", tmp_path)


def test_shipped_fixtures_are_the_repository_copies_byte_for_byte():
    # The package reads its own fixtures/, shipped as package data; the
    # benchmark harness reads the repository's.  The two must not drift.
    shipped = default_fixture_dir()
    assert shipped == Path(liedual.__file__).parent / "fixtures"
    root = Path(__file__).resolve().parents[1] / "fixtures"
    names = ["quasisplit_table.tsv", "split_table.tsv"]
    assert sorted(p.name for p in shipped.iterdir()) == names
    assert sorted(p.name for p in root.iterdir()) == names
    for name in names:
        assert (shipped / name).read_bytes() == (root / name).read_bytes(), name


def test_verify_tables_runs_from_a_package_copied_outside_the_checkout(tmp_path):
    # What a non-editable install holds: the package directory alone, with
    # no repository around it.
    package = Path(liedual.__file__).parent
    shutil.copytree(package, tmp_path / "liedual", ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, PYTHONPATH=str(tmp_path), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "liedual", "verify", "tables"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.strip().endswith("PASS 36/36")


def test_fixture_weight_of_wrong_length_names_its_line(tmp_path):
    lines = (default_fixture_dir() / "split_table.tsv").read_text().splitlines()
    lines[2] = "1\t0,0,2\t3"  # an A1^4 type needs four coordinates
    (tmp_path / "split_table.tsv").write_text("\n".join(lines) + "\n")
    with pytest.raises(FixtureError, match=r"split_table\.tsv:3: expected 4 coordinates, got 3"):
        verify_table("split", tmp_path)


def test_fixture_coordinate_is_read_in_the_command_line_grammar(tmp_path):
    lines = (default_fixture_dir() / "split_table.tsv").read_text().splitlines()
    lines[2] = "1\t0,0,1e1,0\t3"  # Fraction alone would read ten
    (tmp_path / "split_table.tsv").write_text("\n".join(lines) + "\n")
    with pytest.raises(FixtureError, match=r"split_table\.tsv:3: bad rational '1e1'$"):
        verify_table("split", tmp_path)


def test_non_dominant_fixture_row_names_its_line(tmp_path, capsys):
    for name in ("split_table.tsv", "quasisplit_table.tsv"):
        (tmp_path / name).write_text((default_fixture_dir() / name).read_text())
    bad = tmp_path / "quasisplit_table.tsv"
    lines = bad.read_text().splitlines()
    lines[1] = "1\t0,1,0\t1"  # (0,1) is not dominant for C2
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(FixtureError, match=r"quasisplit_table\.tsv:2: \(0,1\) is not dominant for C2$"):
        verify_table("quasisplit", tmp_path)
    assert main(["verify", "tables", "--fixtures", str(tmp_path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {bad}:2: (0,1) is not dominant for C2\n"


def test_table_mismatch_reported_as_fail(tmp_path):
    lines = (default_fixture_dir() / "quasisplit_table.tsv").read_text().splitlines()
    lines[0] = "0\t0,0,2\t4"  # wrong dimension
    (tmp_path / "quasisplit_table.tsv").write_text("\n".join(lines) + "\n")
    report = verify_table("quasisplit", tmp_path)
    assert not report.ok
    assert report.checks[0].status == "FAIL"


def test_split_table_types_signs_consistent_with_first_appearance():
    # every all-even table weight with a zero coordinate and triangle triple
    # must receive a definite side, and the side tracks (-1)^(sum/2)
    from liedual.lattice import group, make_weight

    gs = group("A1", "A1", "A1", "A1")
    dirpath = default_fixture_dir() / "split_table.tsv"
    covered = 0
    for line in dirpath.read_text().splitlines():
        _, csv, _ = line.split("\t")
        coords = tuple(int(x) for x in csv.split(","))
        if 0 not in coords or any(v % 2 for v in coords):
            continue
        rest = list(coords)
        rest.remove(0)
        if not so3_cone_ok(*rest, 0):
            continue
        w = make_weight(gs, tuple((v,) for v in coords))
        res = sign_first_appearance("splitJ-splitE", w)
        expected = "rho1" if (sum(rest) // 2) % 2 == 0 else "epsilon"
        assert res.side == expected
        covered += 1
    assert covered >= 8


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: TorusCharacterData((Q(0),) * 3, "nope"), ValueError, "unknown torus case 'nope'"),
        (lambda: ps_multiplicity_quasisplit(0, 1, 0, 0), ValueError, "invalid type"),
        (lambda: quasisplit_stabilized_count(0, 1, 0, 0), ValueError, "invalid type"),
        (lambda: verify_table("nope"), KeyError, "unknown table 'nope'"),
    ],
    ids=["torus-case", "ps_multiplicity_quasisplit", "quasisplit_stabilized_count", "verify_table"],
)
def test_input_checks_raise_with_a_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and info.value.args == (message,)


def test_blank_fixture_lines_are_skipped(tmp_path):
    for name in ("split_table.tsv", "quasisplit_table.tsv"):
        lines = (default_fixture_dir() / name).read_text().splitlines()
        (tmp_path / name).write_text("\n".join(["", lines[0], " \t", *lines[1:], ""]) + "\n")
    assert verify_tables(tmp_path) == verify_tables()
