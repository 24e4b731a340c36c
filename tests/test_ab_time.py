"""tools/ab_time.py on a tiny grid: the lines it prints for two trees that
agree bit for bit, and its refusal to time two trees that do not.  The
timings themselves are not checked."""

import importlib.util
import re
import shutil
import sys
from pathlib import Path

import pytest

import nsac1d as ns

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab_time.py"
CASES = ("kernel", "guard", "step_limits", "increments-2", "increments-5", "step-5", "step-2",
         "run", "mms-run")
TINY = ["--n", "16", "--rounds", "2"]
NUMBER = r"\d+\.\d\d"
LINE = re.compile(rf"(\S+) +calls +\d+  parent +{NUMBER} \[{NUMBER}, {NUMBER}\]"
                  rf"  change +{NUMBER} \[{NUMBER}, {NUMBER}\]  ratio \d+\.\d{{3}}"
                  rf"  round ratio \d+\.\d{{3}}  lower [0-2]/2")

# appended to a copy's operators.py: dG moves by one ulp, so every case that
# reads the kernel differs
ONE_ULP_IN_DG = """
_kernel = semi_discrete_rhs


def semi_discrete_rhs(state, params):
    rhs = _kernel(state, params)
    rhs.dG *= 1.0 + 2.0**-52
    return rhs
"""


@pytest.fixture(scope="module")
def ab_time():
    spec = importlib.util.spec_from_file_location("ab_time", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for key in [key for key in sys.modules if key.startswith(("nsac1d_parent", "nsac1d_change"))]:
        del sys.modules[key]


@pytest.fixture(scope="module")
def src():
    return Path(ns.__file__).resolve().parents[1]


def test_one_line_per_case_after_the_header(ab_time, src, capsys):
    assert ab_time.main([str(src), str(src), *TINY]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header == ("ab_time: N = 16, 2 rounds, seed 0; per-call CPU time in "
                      "microseconds, median [first quartile, third quartile]")
    assert [LINE.fullmatch(line)[1] for line in lines] == list(CASES)


def test_trees_that_differ_are_not_timed(ab_time, src, tmp_path, capsys):
    shutil.copytree(src / "nsac1d", tmp_path / "nsac1d",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "nsac1d" / "operators.py", "a") as operators:
        operators.write(ONE_ULP_IN_DG)
    assert ab_time.main([str(src), str(tmp_path), *TINY]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"not bit-identical: {name}" for name in CASES if name not in ("guard", "step_limits")]
