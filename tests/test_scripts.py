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
    "splitJ-splitE": "469c57d2f3929b2ee3735ac2fdf34c8213bb2deeae90f330f93f06384c80f40a",
    "splitJ-mixedE": "1d237828c75a42c16b7d73e4d59913b6d804ce293d0944511d4bb4d41fc008b9",
    "hermJ-mixedE": "19f178fd96cfd3dddb50157006fb22019e0fb3a1b5975928c729000222667c18",
    "e62-spin8": "4d8d03d7be214bb0a3cbf9d0dec8e19eab7ef55355aaad6e52afeec24f33784d",
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
