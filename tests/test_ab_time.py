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
         "run", "mms-run", "mms-study", "record", "csv")
TINY = ["--n", "64", "--rounds", "2"]
NUMBER = r"\d+\.\d\d"
LINE = re.compile(rf"(\S+) +calls +\d+  parent +{NUMBER} \[{NUMBER}, {NUMBER}\]"
                  rf"  change +{NUMBER} \[{NUMBER}, {NUMBER}\]  ratio \d+\.\d{{3}}"
                  rf"  round ratio \d+\.\d{{3}}  lower [0-2]/2")

# appended to a copy's operators.py: dG, the interior of the result's row 4,
# moves by one ulp, so every case that reads the kernel differs but the
# study, whose errors read v, u, theta and phi and not G
ONE_ULP_IN_DG = """
_kernel = semi_discrete_rhs


def semi_discrete_rhs(state, params):
    rhs = _kernel(state, params)
    rhs[4, 2:-2] *= 1.0 + 2.0**-52
    return rhs
"""

UNMOVED = ("guard", "step_limits", "mms-study")


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
    assert header == ("ab_time: N = 64, 2 rounds, seed 0; per-call CPU time in "
                      "microseconds, median [first quartile, third quartile]")
    assert [LINE.fullmatch(line)[1] for line in lines] == list(CASES)


def test_trees_that_differ_are_not_timed(ab_time, src, tmp_path, capsys):
    shutil.copytree(src / "nsac1d", tmp_path / "nsac1d",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "nsac1d" / "operators.py", "a") as operators:
        operators.write(ONE_ULP_IN_DG)
    assert ab_time.main([str(src), str(tmp_path), *TINY]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"not bit-identical: {name}" for name in CASES if name not in UNMOVED]


def test_allow_differing_gives_each_difference_then_times_every_case(ab_time, src, tmp_path,
                                                                      capsys):
    shutil.copytree(src / "nsac1d", tmp_path / "nsac1d",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "nsac1d" / "operators.py", "a") as operators:
        operators.write(ONE_ULP_IN_DG)
    assert ab_time.main([str(src), str(tmp_path), *TINY, "--allow-differing"]) == 0
    lines = capsys.readouterr().out.splitlines()
    differing = [name for name in CASES if name not in UNMOVED]
    notes = [re.fullmatch(r"not bit-identical: (\S+), largest relative difference (\S+)", line)
             for line in lines[:len(differing)]]
    assert [note[1] for note in notes] == differing
    differences = {note[1]: float(note[2]) for note in notes}
    # x (1 + 2^-52) moves each value of the kernel's dG by one or two ulps,
    # 2^-53 to 2^-51 of it; the cases built on the kernel move at roundoff
    assert 2.0**-53 <= differences["kernel"] <= 2.0**-51
    assert all(0.0 < d < 1e-13 for d in differences.values()), differences
    assert lines[len(differing)].startswith("ab_time: N = 64, 2 rounds, seed 0;")
    assert [LINE.fullmatch(line)[1] for line in lines[len(differing) + 1:]] == list(CASES)


@pytest.mark.parametrize("n", ["7", "4", "16"])
def test_a_grid_the_tree_rejects_is_a_usage_error(ab_time, src, capsys, n):
    # the flagship grid (L = 32) must pass make_grid and, for the record and
    # csv cases, the monitor's rule that its cells tile the unit intervals
    message = ("N = 16 cells do not tile 64 unit intervals; pick N divisible by 2L"
               if n == "16" else f"n_cells must be even and >= 8, got {n}")
    with pytest.raises(SystemExit) as exc_info:
        ab_time.main([str(src), str(src), "--n", n, "--rounds", "1"])
    assert exc_info.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: --n: {message}\n")


def test_a_step_2_call_evaluates_no_sources(ab_time, src, tmp_path, monkeypatch):
    # the sources of the step's two stage times come from set-up, so the case
    # times the step and not the source expressions
    tree = ab_time.load(src, "nsac1d_change")
    times, sources = [], tree.ManufacturedCase.sources
    monkeypatch.setattr(tree.ManufacturedCase, "sources",
                        lambda case, x, t: times.append(t) or sources(case, x, t))
    call, _ = ab_time.cases(tree, 64, tmp_path / "diagnostics.csv")["step-2"]
    assert times  # set-up evaluates them
    times.clear()
    call()
    assert times == []
