"""The scripts under scripts/, run as subprocesses."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import liedual

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "graded_decompositions.py"


def run_script(*args):
    src = str(Path(liedual.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args], env=env, capture_output=True, text=True
    )


GOLDEN = {
    "splitJ-splitE": "835fb6ff607cb68a5740659249488605e03a533ffe160bc00380489d802ada75",
    "splitJ-mixedE": "20119b11725697e749330529497c7a65469cb7f6c332eacabb7cc790cf15cfad",
    "hermJ-mixedE": "f2af8f997a6ead36778d7cf4a102998ba0b74fcc327390a20e510fe7bcef8579",
    "e62-spin8": "5317a4bf044c5baec14f349eb52da9d84a17a3f36ce9b206a05990d5d9c401dc",
}


@pytest.mark.parametrize("case", GOLDEN)
def test_graded_decompositions_golden(case):
    proc = run_script(case, "6")
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == GOLDEN[case]


@pytest.mark.parametrize("level", ["x", "-1"])
def test_graded_decompositions_bad_level_exits_2(level):
    proc = run_script("splitJ-mixedE", level)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
