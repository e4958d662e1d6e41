"""Command-line surface: outputs, exit codes, determinism."""

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liedual import branching, rules
from liedual.charalg import FormalCharacter, NonDominantError
from liedual.cli import (
    MAX_MINREP_LEVEL,
    MAX_RULE_PARAM,
    MAX_VERIFY_LEVEL,
    MAX_VERIFY_N,
    build_parser,
    format_weight,
    main,
    parse_weight,
)
from liedual.lattice import (
    SUPPORTED_TYPES,
    InvalidWeightError,
    UnsupportedTypeError,
    Weight,
    group,
    key_weight,
    make_weight,
)
from liedual.minrep import (
    TYPE_GROUPS,
    InvalidTypeError,
    NotCoveredError,
    dualpair_graded,
    ktype_multiplicity,
)
from liedual.theta import FixtureError, default_fixture_dir


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_dim_examples(capsys):
    code, out, _ = run(capsys, "dim", "C4", "1,1,1,1")
    assert code == 0 and out.strip() == "42"
    code, out, _ = run(capsys, "dim", "A1", "5")
    assert code == 0 and out.strip() == "6"
    code, out, _ = run(capsys, "dim", "C2", "0,0")
    assert code == 0 and out.strip() == "1"


def test_dim_input_errors(capsys):
    code, _, err = run(capsys, "dim", "Z9", "1")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "dim", "C2", "0,1")
    assert code == 2 and "dominant" in err
    code, _, err = run(capsys, "dim", "C2", "1,x")
    assert code == 2


@pytest.mark.parametrize(
    "fmt, expected",
    [
        (
            "json",
            '{"checks":[],"command":"dim","inputs":{"group":"C2xA1","weight":"(1,0)x(1)"},'
            '"result":[["(1,0)x(1)",1,8]]}\n',
        ),
        ("tsv", "(1,0)x(1)\t1\t8\n"),
    ],
)
def test_dim_structured_formats(capsys, fmt, expected):
    assert run(capsys, "dim", "C2xA1", "(1,0)x(1)", "--format", fmt) == (0, expected, "")


def test_branch_rule_with_generic_match(capsys):
    code, out, _ = run(capsys, "branch", "sp4_to_sp2sp2", "1", "--generic")
    assert code == 0
    assert "MATCH" in out
    assert out.count("*") == 3


def test_branch_rule_with_generic_mismatch_exits_1(capsys, monkeypatch):
    # The rule's closed form is looked up at call time, so a wrong one is seen.
    trivial = rules.branch_sp2_to_su2su2(0, 0)
    monkeypatch.setattr(rules, "branch_sp2_to_su2su2", lambda x, y: trivial)
    code, out, err = run(capsys, "branch", "sp2_to_su2su2", "1", "0", "--generic")
    assert (code, out, err) == (1, "1 * (0)x(0)   dim 1\nMISMATCH\n", "")


def test_branch_charge_block(capsys):
    code, out, _ = run(capsys, "branch", "su6_omega3", "1", "--charge", "1")
    assert code == 0
    assert "(1,0)x(0)@1" in out


def test_branch_trivial_so5(capsys):
    code, out, _ = run(capsys, "branch", "so5_to_so3so2", "0", "0")
    assert code == 0 and "1 * (0)@0" in out


def test_branch_embedding_by_name(capsys):
    code, out, _ = run(capsys, "branch", "sp3_in_su6", "1,1,1,0,0,0")
    assert code == 0 and "dim 14" in out


def test_branch_budget_exit_code(capsys):
    code, _, err = run(capsys, "branch", "sp4_to_sp2sp2", "2", "--generic", "--budget", "10")
    assert code == 4 and "budget" in err


def test_branch_unknown_rule(capsys):
    code, _, err = run(capsys, "branch", "no_such_rule", "1")
    assert code == 2


def test_verify_tables(capsys):
    code, out, _ = run(capsys, "verify", "tables")
    assert code == 0
    assert out.strip().endswith("PASS 36/36")


def test_verify_pretty_output_shows_a_failing_check(capsys, tmp_path):
    for name in ("split_table.tsv", "quasisplit_table.tsv"):
        (tmp_path / name).write_text((default_fixture_dir() / name).read_text())
    bad = tmp_path / "quasisplit_table.tsv"
    lines = bad.read_text().splitlines()
    lines[0] = "0\t0,0,2\t4"  # the dimension is 3
    bad.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "verify", "tables", "--fixtures", str(tmp_path))
    assert code == 1
    assert (
        "FAIL  quasisplit row 0\n"
        "      expected (0,0)x(2) -> 4\n"
        "      actual   (0,0)x(2) -> 3\n"
    ) in out
    assert out.endswith("FAIL 35/36\n")


def test_verify_missing_fixtures(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "tables", "--fixtures", str(tmp_path))
    assert code == 2 and "fixture" in err


def test_input_errors_are_value_errors():
    # main() maps every input error to exit 2 through one except clause.
    for error in (
        InvalidWeightError,
        UnsupportedTypeError,
        NonDominantError,
        InvalidTypeError,
        NotCoveredError,
        FixtureError,
    ):
        assert issubclass(error, ValueError), error


def test_verify_infchar(capsys):
    code, out, _ = run(capsys, "verify", "infchar", "--max-n", "4")
    assert code == 0 and "PASS" in out.splitlines()[-1]


def test_verify_quasisplit_mult(capsys):
    code, out, _ = run(capsys, "verify", "quasisplit-mult")
    assert code == 0 and out.strip().endswith("PASS 700/700")


def test_branch_negative_charge_flags_convention(capsys):
    code, out, _ = run(
        capsys, "branch", "su6_omega3", "2", "--charge", "-1", "--format", "tsv"
    )
    assert code == 0
    assert "negative charge block\tNOTE" in out


def test_verify_rules_small(capsys):
    code, out, _ = run(capsys, "verify", "rules", "--max-level", "1")
    assert code == 0
    assert out.strip().splitlines()[-1].startswith("PASS")


def test_verify_tables_ignores_fixtures_in_cwd(capsys, monkeypatch, tmp_path):
    # An empty ./fixtures must not shadow the shipped tables.
    (tmp_path / "fixtures").mkdir()
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "verify", "tables")
    assert code == 0
    assert out.strip().endswith("PASS 36/36")


def test_verify_deterministic_across_jobs(capsys, monkeypatch):
    # The --jobs cap reads os.cpu_count() when main() builds its parser;
    # claim two CPUs so a 2-worker pool is compared on any machine.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code1, out1, _ = run(capsys, "verify", "rules", "--max-level", "1", "--jobs", "1", "--format", "json")
    code2, out2, _ = run(capsys, "verify", "rules", "--max-level", "1", "--jobs", "2", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2


def test_json_round_trip_is_canonical(capsys):
    _, out, _ = run(capsys, "branch", "sp2_to_su2su2", "2", "1", "--format", "json")
    text = out.strip()
    assert json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) == text
    payload = json.loads(text)
    assert payload["command"] == "branch"
    assert all(len(row) == 3 for row in payload["result"])


def test_minrep_series_split(capsys):
    code, out, _ = run(
        capsys, "minrep", "splitJ-splitE", "--type", "0,0,0,0", "--max-level", "4"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "0\t1" and lines[4] == "4\t5"
    assert any("rho1" in line for line in lines)


def test_minrep_series_mixed(capsys):
    code, out, _ = run(
        capsys,
        "minrep",
        "splitJ-mixedE",
        "--type",
        "(2,0)x0",
        "--charge",
        "0",
    )
    assert code == 0
    assert "first_level\t2" in out
    assert "epsilon" in out


def test_minrep_series_hermitian_json(capsys):
    code, out, _ = run(
        capsys,
        "minrep",
        "hermJ-mixedE",
        "--type",
        "(0,0)x4",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["first_level"] == 1
    assert payload["tag"] == "epsilon"


def test_minrep_uncovered_type_has_no_tag(capsys):
    # (2,2)x0 is outside the families the sign rules cover: the series is
    # printed, the tag is null (no pretty line) and the call succeeds.
    code, out, _ = run(capsys, "minrep", "splitJ-mixedE", "--type", "(2,2)x0", "--format", "json")
    assert code == 0 and json.loads(out)["tag"] is None
    code, out, _ = run(capsys, "minrep", "splitJ-mixedE", "--type", "(2,2)x0")
    assert code == 0 and "first_level" in out and "tag" not in out


def test_minrep_bad_type(capsys):
    code, _, err = run(capsys, "minrep", "splitJ-splitE", "--type", "1,1")
    assert code == 2


def exit_code(capsys, *argv):
    """Exit code and stderr of one call, argparse rejections included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("sp4_to_sp2sp2", "1"),
        ("sp2_to_su2su2", "1", "0"),
        ("so5_to_so3so2", "1/2", "1/2"),
        ("spin10_halfspin", "1"),
        ("su6_omega3", "1"),
        ("su6_omega3_to_sp3", "1"),
    ],
)
def test_branch_every_rule_matches_generic(capsys, argv):
    code, out, _ = run(capsys, "branch", *argv, "--generic", "--format", "json")
    assert code == 0
    assert [c["status"] for c in json.loads(out)["checks"]] == ["MATCH"]


def test_verify_rules_golden(capsys):
    # Pins check order (numeric, not by name string) and check naming.
    code, out, _ = run(capsys, "verify", "rules", "--max-level", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["summary"] == "PASS 27/27"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6e31311fe35ff2a36b289b3101deb6e03ccfb60bcd95fa80abe3906b21155798"
    )


def test_verify_all_golden(capsys):
    # The whole default sweep, byte for byte: a change to the oracle that
    # moves any term, check or summary shows up here.
    code, out, _ = run(capsys, "verify", "all", "--format", "json")
    assert code == 0
    assert json.loads(out)["summary"] == "PASS 904/904"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "cab8f3393181b65a02791156c20fa36608a08a660858bc0299a85a174b937004"
    )


def test_verify_rules_level_six_golden(capsys):
    # Oracle levels 5 and 6, and the one case over the default budget
    # (sp4_to_sp2sp2 6, dim 395,352), byte for byte.
    code, out, _ = run(capsys, "verify", "rules", "--max-level", "6", "--format", "tsv")
    assert code == 4
    assert "sp4_to_sp2sp2 6\tBUDGET" in out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "628158acd7695db8d1029774ce9ce3f0015f28a08524bb449f33872477dee372"
    )


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("splitJ-splitE", "--type", "0,0,0,0"),
            "420cd9b35f5f6579c9960dd9f934ebd2eef89f5b4783d0661e61da0a3f79b010",
        ),
        (
            ("splitJ-mixedE", "--type", "(2,0)x0", "--charge", "0"),
            "348ba364aa2f7b595c713dca60577e9086773b143766e7d9902e2ff26c18b4f4",
        ),
        (
            ("hermJ-mixedE", "--type", "(0,0)x4"),
            "48e6297f549510944333c5a7c10a02877efe8750ed4c2717040400ba68c2ec51",
        ),
    ],
)
def test_minrep_golden(capsys, argv, digest):
    # The three series the graded-series benchmark calls, byte for byte.
    code, out, _ = run(capsys, "minrep", *argv, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("max_level", ["0", "1"])
def test_minrep_before_first_appearance_is_not_stabilized(capsys, max_level):
    # V_2 x V_2 x V_0 x V_0 first appears at level 2.
    argv = ("minrep", "splitJ-splitE", "--type", "2,2,0,0", "--max-level", max_level)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert f"stabilized\tnot reached by level {max_level}\n" in out
    code, out, _ = run(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    assert payload["first_level"] is None
    assert payload["stabilized_value"] is None and payload["stabilized_kind"] is None


@pytest.mark.parametrize(
    "argv",
    [
        ("branch", "sp4_to_sp2sp2", "3/2"),
        ("branch", "sp4_to_sp2sp2", "-1"),
        ("branch", "sp4_to_sp2sp2", "1", "2"),
        ("branch", "sp2_to_su2su2", "1"),
        ("branch", "sp2_to_su2su2", "1", "2"),
        ("branch", "so5_to_so3so2", "1/3", "1/3"),
        ("branch", "spin10_halfspin", "2", "--charge", "5"),
        ("branch", "sp3_in_su6", "1,1,1,0,0,0", "--charge", "1"),
        ("branch", "sp4_to_sp2sp2", "1", "--generic", "--budget", "0"),
        ("verify", "rules", "--jobs", "0"),
        ("verify", "rules", "--jobs", "-3"),
        ("verify", "rules", "--jobs", str((os.cpu_count() or 1) + 1)),
        ("verify", "rules", "--max-level", "-1"),
        ("minrep", "splitJ-splitE", "--type", "0,0,0,0", "--max-level", "-1"),
        ("dim", "C4x", "1,1,1,1"),
        ("dim", "xC4", "1,1,1,1"),
        ("dim", "C2xxA1", "(1,0)x(1)"),
        ("dim", "C2", "1,0)"),
        ("dim", "C2", "((1,0))"),
        ("dim", "C2", "(1,0"),
        ("dim", "C2xA1", "(1,0),(1)"),
        ("dim", "C2xA1", "(1,0)x(1)x"),
    ],
)
def test_bad_input_exits_2(capsys, argv):
    code, err = exit_code(capsys, *argv)
    assert code == 2
    assert "error" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify", "rules", "--jobs", "x"), "argument --jobs: 'x' is not an integer"),
        (("verify", "rules", "--jobs", "1.5"), "argument --jobs: '1.5' is not an integer"),
    ],
)
def test_non_integer_option_exits_2_with_its_text(capsys, argv, message):
    code, err = exit_code(capsys, *argv)
    assert code == 2 and err.endswith(f"error: {message}\n")


def test_verify_max_level_is_bounded_before_any_grid(capsys, monkeypatch):
    # A level past the bound is refused while the arguments are read: no
    # sweep starts, so no parameter grid is built.  The bound itself parses.
    monkeypatch.setattr(rules, "verify_rule", lambda *a: pytest.fail("sweep started"))
    args = build_parser().parse_args(["verify", "rules", "--max-level", str(MAX_VERIFY_LEVEL)])
    assert args.max_level == MAX_VERIFY_LEVEL == 100
    code, err = exit_code(capsys, "verify", "rules", "--max-level", str(MAX_VERIFY_LEVEL + 1))
    assert code == 2 and err.endswith("error: argument --max-level: 101 is not in 0..100\n")


@pytest.mark.parametrize(
    "argv, option, dest, cap, default",
    [
        (("verify", "infchar"), "--max-n", "max_n", MAX_VERIFY_N, 10),
        (
            ("minrep", "hermJ-mixedE", "--type", "(2,0)x2"),
            "--max-level",
            "max_level",
            MAX_MINREP_LEVEL,
            12,
        ),
    ],
)
def test_sweep_sizes_are_bounded_while_arguments_are_read(capsys, argv, option, dest, cap, default):
    # The default and the cap parse; one past the cap exits 2 before the
    # command runs.
    assert getattr(build_parser().parse_args(list(argv)), dest) == default
    assert getattr(build_parser().parse_args([*argv, option, str(cap)]), dest) == cap
    code, err = exit_code(capsys, *argv, option, str(cap + 1))
    assert code == 2 and err.endswith(f"error: argument {option}: {cap + 1} is not in 0..{cap}\n")


@pytest.mark.parametrize(
    "rule_id, at_bound, over",
    [
        ("sp4_to_sp2sp2", ("40",), ("41",)),
        ("so5_to_so3so2", ("40", "0"), ("41", "0")),
        ("so5_to_so3so2", ("40", "40"), ("40", "81/2")),
    ],
)
def test_rule_parameters_are_bounded_before_the_closed_form(
    capsys, monkeypatch, rule_id, at_bound, over
):
    # The bound parses and runs; one step past it, a whole or a half, exits 2
    # naming the parameter and the bound before any closed form is built.
    assert MAX_RULE_PARAM == 40
    code, out, err = run(capsys, "branch", rule_id, *at_bound, "--format", "json")
    assert code == 0 and err == "" and json.loads(out)["result"]
    rule = rules.RULES[rule_id]
    monkeypatch.setitem(
        rules.RULES, rule_id, rule._replace(closed=lambda *a: pytest.fail("closed form built"))
    )
    name, text = next((n, t) for n, t, b in zip(rule.params, over, at_bound) if t != b)
    code, out, err = run(capsys, "branch", rule_id, *over)
    assert (code, out, err) == (2, "", f"error: {name}={text} is above 40\n")


@pytest.mark.parametrize(
    "argv, text",
    [
        (("dim", "A1", "1e3"), "1e3"),
        (("dim", "A1", "1E3"), "1E3"),
        (("dim", "C2", "2e-1,0"), "2e-1"),
        (("branch", "sp4_to_sp2sp2", "1e3"), "1e3"),
        (("branch", "sp4_to_sp2sp2", "1E3"), "1E3"),
        (("branch", "so5_to_so3so2", "2e-1", "0"), "2e-1"),
        (("dim", "A1", "1_0"), "1_0"),
        (("dim", "A1", "\u0661"), "\u0661"),
    ],
)
def test_exponent_notation_exits_2(capsys, argv, text):
    # Fraction reads exponents at a cost that grows with their value, so a
    # short argument such as 1e10000000000000 would never return.  It also
    # reads "1_0" as 10 and non-ASCII digits; the grammar has neither.
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: bad rational {text!r}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("branch", "sp3_in_su6", "1,1,1,0,0,0", "0,0,0,0,0,0"),
            "embeddings take one weight argument",
        ),
        (("minrep", "e62-spin8", "--type", "0"), "unsupported case 'e62-spin8' for series output"),
        (("dim", "", "1"), "empty group"),
    ],
)
def test_input_error_messages(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_third_integral_charge_exits_2(capsys):
    # The fundamental of SU(6) restricts to charge 1/3 along sp2su2u1_in_su6.
    code, out, err = run(capsys, "branch", "sp2su2u1_in_su6", "1,0,0,0,0,0")
    assert code == 2
    assert err == (
        "error: sp2su2u1_in_su6: projecting (1,0,0,0,0,0): "
        "circle charges must be integers or half-integers\n"
    )
    assert out == ""


def test_verify_rules_reports_budget_per_case(capsys):
    code, out, _ = run(
        capsys, "verify", "rules", "--max-level", "1", "--budget", "10", "--format", "json"
    )
    assert code == 4
    payload = json.loads(out)
    status = {c["name"]: c["status"] for c in payload["checks"]}
    assert status["sp4_to_sp2sp2 0"] == "PASS"
    assert status["sp4_to_sp2sp2 1"] == "BUDGET"
    assert status["so5_to_so3so2 1 1"] == "PASS"
    assert {status["spin10_halfspin 1"], status["su6_omega3 1"]} == {"BUDGET"}
    assert "FAIL" not in status.values()
    assert payload["summary"].startswith("BUDGET")


def _doubled_row(e):
    first = e.factor_rows[0]
    return (((tuple(2 * x for x in first[0]), first[1]), e.factor_rows[1]), e.charge_rows)


def _typo_charge_row(e):
    return (e.factor_rows, ((Q(1, 2), Q(1, 2)),))


@pytest.mark.parametrize(
    "name, wrong_rows, weight",
    [
        ("sp2xsp2_in_sp4", _doubled_row, "(1,1,1,1)"),
        ("sp2xsp2_in_sp4", _doubled_row, "(2,2,2,2)"),
        ("sp1so2_in_sp2", _typo_charge_row, "(1,0)"),
    ],
)
def test_wrong_embedding_exits_3(capsys, monkeypatch, name, wrong_rows, weight):
    e = branching.CATALOG[name]
    wrong = branching.EmbeddingMap(name, e.big, e.small, *wrong_rows(e))
    monkeypatch.setitem(branching.CATALOG, name, wrong)
    code, _, err = run(capsys, "branch", name, weight)
    assert code == 3
    assert "error" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("dim", "C2", "1/2,0"), "error: (1/2,0) is not a C2 weight\n"),
        (("dim", "C2", "0,1"), "error: (0,1) is not dominant for C2\n"),
        (
            ("dim", "C2xA1", "(1,0)x(1)x"),
            "error: expected 2 x-separated blocks or one flat list, got 3\n",
        ),
        (("branch", "sp3_in_su6", "1,1,1,0,0"), "error: (1,1,1,0,0) is not a A5 weight\n"),
        (("branch", "sp2xsp2_in_sp4", "0,1,0,0"), "error: (0,1,0,0) is not dominant for C4\n"),
        (("minrep", "splitJ-splitE", "--type", "1,1"), "error: expected 4 coordinates, got 2\n"),
        (
            ("minrep", "splitJ-mixedE", "--type", "(0,1)x0"),
            "error: (0,1) is not dominant for C2\n",
        ),
        (
            ("minrep", "splitJ-splitE", "--type=-1,0,0,0"),
            "error: (-1) is not dominant for A1\n",
        ),
    ],
)
def test_weight_errors_spell_coordinates_as_the_cli_does(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == message and "Fraction(" not in err


def _wrong_map(name, wrong_rows, weight):
    """A call restricting ``weight`` along a mistyped copy of ``name``."""
    e = branching.CATALOG[name]
    wrong = branching.EmbeddingMap(name, e.big, e.small, *wrong_rows(e))
    return lambda: branching.restrict_generic(wrong, parse_weight(e.big, weight))


_H = Q(1, 2)
_E62_CHARGES = (Q(4), Q(-2), Q(-2))  # the level-0 torus character

#: One faulty type per dual-pair case and fault.
_BAD_TYPES = {
    "splitJ-splitE": {
        "half-integral": Weight(((_H,), (_H,), (Q(0),), (Q(0),))),
        "charged": Weight(((Q(2),), (Q(2),), (Q(0),), (Q(0),)), (Q(1),)),
        "wrong-shape": Weight(((Q(1), Q(1)), (Q(0),), (Q(0),), (Q(0),))),
        "non-dominant": Weight(((Q(-1),), (Q(1),), (Q(0),), (Q(0),))),
    },
    **{
        case: {
            "half-integral": Weight(((Q(5, 2), _H), (_H,))),
            "charged": Weight(((Q(2), Q(0)), (Q(0),)), (Q(1),)),
            "wrong-shape": Weight(((Q(1), Q(0), Q(0)), (Q(0),))),
            "non-dominant": Weight(((Q(0), Q(1)), (Q(0),))),
        }
        for case in ("splitJ-mixedE", "hermJ-mixedE")
    },
    "e62-spin8": {
        "half-integral": Weight(((_H, Q(0), Q(0), Q(0)),), _E62_CHARGES),
        "charged": Weight(((Q(0),) * 4,), _E62_CHARGES + (Q(1),)),
        "wrong-shape": Weight(((Q(0),) * 3,), _E62_CHARGES),
        "non-dominant": Weight(((Q(0), Q(1), Q(0), Q(0)),), _E62_CHARGES),
    },
}
#: Each faulty call, with the error it raises.
_ERRORS = {
    "oracle-bogus-1": (
        branching.NegativeMultiplicityError,
        _wrong_map("sp2xsp2_in_sp4", _doubled_row, "(1,1,1,1)"),
    ),
    "oracle-bogus-2": (
        branching.NegativeMultiplicityError,
        _wrong_map("sp2xsp2_in_sp4", _doubled_row, "(2,2,2,2)"),
    ),
    "oracle-typo": (
        branching.NegativeMultiplicityError,
        _wrong_map("sp1so2_in_sp2", _typo_charge_row, "(1,0)"),
    ),
    "check-int-key-canonical": (
        InvalidWeightError,
        lambda: key_weight(group("A5"), (4, 4, 4, 2, 2, 2)),
    ),
    "sign-of-unsigned-term": (
        NotCoveredError,
        lambda: dualpair_graded("e62-spin8", 0).sign_of(0, Weight(((Q(0),) * 4,), _E62_CHARGES)),
    ),
    **{
        f"{case}-{fault}": (
            InvalidTypeError,
            lambda case=case, w=w: ktype_multiplicity(case, w, 3),
        )
        for case, faults in _BAD_TYPES.items()
        for fault, w in faults.items()
    },
}


@pytest.mark.parametrize("error, call", list(_ERRORS.values()), ids=list(_ERRORS))
def test_no_message_spells_a_fraction_or_weight_repr(error, call):
    with pytest.raises(error) as raised:
        call()
    message = str(raised.value)
    assert message and "Fraction(" not in message and "Weight(" not in message


def test_no_check_string_spells_a_fraction_or_weight_repr(capsys):
    code, out, _ = run(capsys, "verify", "all", "--format", "json")
    assert code == 0
    texts = [c[k] for c in json.loads(out)["checks"] for k in ("expected", "actual")]
    assert len(texts) == 2 * 904
    assert not [t for t in texts if "Fraction(" in t or "Weight(" in t]


def test_branch_spells_an_empty_charge_block_as_zero(capsys):
    # su6_omega3 at level 1 has charges -1..1 only: both blocks are empty.
    argv = ("branch", "su6_omega3", "1", "--charge", "5", "--generic", "--format", "json")
    code, out, _ = run(capsys, *argv)
    payload = json.loads(out)
    assert code == 0 and payload["result"] == []
    assert payload["checks"] == [
        {"name": "closed form vs generic", "status": "MATCH", "expected": "0", "actual": "0"}
    ]


def test_verify_rules_fail_names_the_first_differing_term(capsys, monkeypatch):
    # RULES look closed forms up at call time.  Drop (1,0)x(1,0) and double
    # (1,1)x(1,1) from level 1 on: the FAIL names the first of the two.
    right, gs = rules.branch_sp4_to_sp2sp2, group("C2", "C2")

    def corrupted(n):
        terms = dict(right(n).terms)
        if n >= 1:
            del terms[make_weight(gs, ((1, 0), (1, 0)))]
            terms[make_weight(gs, ((1, 1), (1, 1)))] = 2
        return FormalCharacter.from_dict(gs, terms)

    monkeypatch.setattr(rules, "branch_sp4_to_sp2sp2", corrupted)
    code, out, _ = run(capsys, "verify", "rules", "--max-level", "1", "--format", "json")
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["sp4_to_sp2sp2 0"]["status"] == "PASS"
    assert checks["sp4_to_sp2sp2 1"] == {
        "name": "sp4_to_sp2sp2 1",
        "status": "FAIL",
        "expected": "1*(0,0)x(0,0) + 2*(1,1)x(1,1)",
        "actual": "first difference at (1,0)x(1,0): expected 0, actual 1; "
        "1*(0,0)x(0,0) + 1*(1,0)x(1,0) + 1*(1,1)x(1,1)",
    }


@pytest.mark.parametrize(
    "labels, spellings, parts",
    [
        (("C2", "A1"), ["(1,0)x(1)", "1,0x1", "1,0,1", "(1,0,1)", " ( 1 , 0 ) x 1 "], ((1, 0), (1,))),
        (("C2",), [" 1 , 0 ", "(1,0)", "1.0,0"], ((1, 0),)),
        (("D5",), ["1/2,1/2,1/2,1/2,1/2", "0.5,0.5,0.5,0.5,0.5"], ((Q(1, 2),) * 5,)),
        (("A5",), ["2,2,2,1,1,1", "(1,1,1,0,0,0)"], ((1, 1, 1, 0, 0, 0),)),
    ],
)
def test_parse_weight_spellings(labels, spellings, parts):
    gs = group(*labels)
    for text in spellings:
        assert parse_weight(gs, text) == make_weight(gs, parts), text


#: Every uncharged group a weight argument is read for: both sides of the
#: catalogued embeddings and the minrep type groups.
_UNCHARGED = {
    repr(gs): gs
    for e in branching.CATALOG.values()
    for gs in (e.big, e.small)
    if not gs.circles
} | {repr(gs): gs for gs in TYPE_GROUPS.values()}


def _weights(gs):
    """Lattice weights of ``gs``: integral parts, B/D parts possibly all
    half-odd."""

    def vectors(rs):
        ints = st.tuples(*[st.integers(-5, 5)] * rs.ambient_dim)
        shift = st.sampled_from([Q(0), Q(1, 2)] if rs.series in ("B", "D") else [Q(0)])
        return st.builds(lambda v, s: tuple(x + s for x in v), ints, shift)

    return st.builds(lambda p: make_weight(gs, p), st.tuples(*map(vectors, gs.factors)))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(_UNCHARGED)))
def test_parse_weight_reads_what_format_weight_writes(data, name):
    gs = _UNCHARGED[name]
    w = data.draw(_weights(gs))
    assert parse_weight(gs, format_weight(w)) == w
    assert parse_weight(gs, ",".join(map(str, w.sort_key()))) == w


def test_closed_output_pipe_exits_quietly():
    # The reader takes one line and closes the pipe, as ``| head -1`` does.
    # The output is longer than a pipe holds, so the writer meets the closed
    # pipe: no traceback, and not the FAIL code 1.
    src = str(Path(branching.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "liedual", "verify", "all", "--format", "tsv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline().startswith(b"sp4_to_sp2sp2 0\tPASS")
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 141
    assert stderr == ""


_FUZZ_TARGETS = (*sorted(rules.RULES), *sorted(branching.CATALOG), "no_such_rule")
_FUZZ_GROUPS = (*SUPPORTED_TYPES, "C2xA1", "A1xA1xA1", "E6", "C2x", "")
_FUZZ_CASES = (*sorted(TYPE_GROUPS), "e62-spin8", "no_such_case")


def _fuzz_entry(rng):
    """One coordinate in [-3, 3]: an integer, a half or a third, or now and
    then a token the grammar refuses."""
    x = rng.randint(-3, 3)
    return rng.choice((str(x), str(x), f"{x}/2", f"{x}/3", "", "x", "1e2"))


def _fuzz_weight(rng, width=None):
    """A weight argument.  Half the time, when the group's width is known,
    a flat list of entries in 0..2 sorted down, which is dominant for every
    type, so the call gets past the parsers (dimensions 10,560 at most);
    otherwise one to three blocks of random entries, bare or in
    parentheses."""
    if width and rng.random() < 0.5:
        return ",".join(map(str, sorted((rng.randint(0, 2) for _ in range(width)), reverse=True)))
    wrap = "({})" if rng.random() < 0.5 else "{}"
    blocks = (
        wrap.format(",".join(_fuzz_entry(rng) for _ in range(rng.randint(0, 6))))
        for _ in range(rng.choice((1, 1, 1, 2, 3)))
    )
    return "x".join(blocks)


def _fuzz_argv(rng):
    command = rng.choice(("branch", "dim", "minrep"))
    if command == "dim":
        label = rng.choice(_FUZZ_GROUPS)
        width = label in SUPPORTED_TYPES and group(label).width
        argv = ["dim", label, _fuzz_weight(rng, width)]
    elif command == "branch":
        target = rng.choice(_FUZZ_TARGETS)
        argv = ["branch", target]
        if target in rules.RULES and rng.random() < 0.5:
            argv += [str(rng.randint(0, 3)) for _ in rules.RULES[target].params]
        else:
            width = target in branching.CATALOG and branching.embedding(target).big.width
            argv += [_fuzz_weight(rng, width) for _ in range(rng.choice((0, 1, 1, 1, 2)))]
        if rng.random() < 0.3:
            argv.append("--generic")
    else:
        case = rng.choice(_FUZZ_CASES)
        width = case in TYPE_GROUPS and TYPE_GROUPS[case].width
        argv = ["minrep", case, "--type", _fuzz_weight(rng, width)]
        if rng.random() < 0.3:
            argv += ["--max-level", str(rng.randint(-3, 3))]
        if rng.random() < 0.2:
            argv.append("--sign")
    if command != "dim" and rng.random() < 0.3:
        argv += ["--charge", rng.choice((str(rng.randint(-3, 3)), _fuzz_entry(rng)))]
    if rng.random() < 0.3:
        argv += ["--format", rng.choice(("pretty", "json", "tsv", "xml"))]
    if rng.random() < 0.1:
        del argv[rng.randrange(len(argv))]
    return argv


def test_argv_fuzz_ends_in_an_exit_code(capsys):
    # Seeded argvs over branch, dim and minrep, with coordinates in [-3, 3]
    # so that no call comes near the budget: each ends in an exit code of
    # 0-3 or in argparse's usage error, never in another exception.
    rng = random.Random(7)
    codes = []
    for _ in range(300):
        argv = _fuzz_argv(rng)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("usage", exc.code)
        capsys.readouterr()
        assert code in (0, 1, 2, 3, ("usage", 2)), argv
        codes.append(code)
    # The draws reach past the parsers: some calls succeed, most inputs
    # are refused with a message.
    assert codes.count(0) >= 20 and codes.count(2) >= 100, sorted(map(str, codes))
