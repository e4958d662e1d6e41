"""Cold start: what ``python -m liedual`` loads, and that it prints what
``main()`` prints.

The import checks run in subprocesses, because this process has already
imported every liedual module.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import liedual
from liedual.cli import main

SRC = str(Path(liedual.__file__).resolve().parents[1])


def run_python(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def imported_modules(*args) -> set[str]:
    """The modules a fresh ``python -X importtime ARGS`` imports."""
    proc = run_python("-X", "importtime", *args)
    assert proc.returncode == 0, proc.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


def test_import_liedual_loads_no_submodule():
    loaded = imported_modules("-c", "import liedual")
    assert "liedual" in loaded
    assert {m for m in loaded if m.startswith("liedual.")} == set()


def test_import_charalg_builds_no_root_classes():
    # The Freudenthal root classes and integral roots are built on first
    # use, per type and wall set, and the factor-part verdicts of the key
    # crossing per type and part: never at import.
    proc = run_python(
        "-c",
        "import liedual.charalg as c, liedual.lattice as l; "
        "print(c._root_classes.cache_info().currsize, c._integral_roots.cache_info().currsize, "
        "l._part.cache_info().currsize)",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0", "0"]


@pytest.mark.parametrize(
    "argv",
    [
        ("branch", "sp2xsp2_in_sp4", "1,1,1,1", "--format", "json"),
        ("dim", "C4", "1,1,1,1"),
    ],
)
def test_branch_and_dim_skip_series_modules_and_pool(argv):
    loaded = imported_modules("-m", "liedual", *argv)
    assert "liedual.cli" in loaded
    assert not loaded & {"liedual.minrep", "liedual.theta", "concurrent.futures"}


@pytest.mark.parametrize(
    "argv, adds",
    [
        (("branch", "sp2xsp2_in_sp4", "1,1,1,1", "--format", "json"), {"branching"}),
        (("minrep", "splitJ-splitE", "--type", "0,0,0,0"), {"rules", "minrep"}),
        (("dim", "C4", "1,1,1,1"), set()),
    ],
)
def test_commands_load_only_the_half_they_run(argv, adds):
    # The oracle (branching) and the closed forms (rules) are compiled only
    # by the commands that run them: minrep never loads the oracle, branch
    # along an embedding never loads the rules, and dim loads neither.
    loaded = {m for m in imported_modules("-m", "liedual", *argv) if m.startswith("liedual")}
    base = {"liedual", "liedual.lattice", "liedual.charalg", "liedual.cli"}
    assert loaded == base | {f"liedual.{m}" for m in adds}


@pytest.mark.parametrize(
    "argv",
    [
        ("branch", "sp2xsp2_in_sp4", "1,1,1,1", "--format", "json"),
        ("dim", "C4", "1,1,1,1"),
        ("minrep", "splitJ-splitE", "--type", "0,0,0,0"),
        ("verify", "tables"),
    ],
)
def test_commands_load_no_dataclasses_or_inspect(argv):
    # ``import dataclasses`` alone loads inspect, ast, dis and tokenize, and
    # each dataclass compiles its methods at import: together about a fifth
    # of a cold call.  The records are NamedTuples or slotted classes.
    loaded = imported_modules("-m", "liedual", *argv)
    assert not loaded & {"dataclasses", "inspect"}


def test_minrep_skips_theta():
    loaded = imported_modules("-m", "liedual", "minrep", "splitJ-splitE", "--type", "0,0,0,0")
    assert "liedual.minrep" in loaded
    assert "liedual.theta" not in loaded


def test_exports_are_their_modules_objects():
    assert liedual.__all__
    for name in liedual.__all__:
        module = importlib.import_module(f"liedual.{liedual._EXPORTS[name]}")
        assert getattr(liedual, name) is getattr(module, name), name


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        liedual.no_such_name
    with pytest.raises(ImportError):
        from liedual import no_such_name


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("branch", "sp2xsp2_in_sp4", "1,1,1,1", "--format", "json"), 0),
        (("branch", "sp4_to_sp2sp2", "2", "--generic"), 0),
        (("dim", "C4", "1,1,1,1"), 0),
        (("minrep", "splitJ-mixedE", "--type", "(2,0)x0", "--charge", "0"), 0),
        (("verify", "all", "--format", "json"), 0),
        (("branch", "sp4_to_sp2sp2", "3/2"), 2),
    ],
)
def test_module_entry_point_matches_main(capsys, argv, expected):
    assert main(list(argv)) == expected
    out = capsys.readouterr()
    proc = run_python("-m", "liedual", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (expected, out.out, out.err)
