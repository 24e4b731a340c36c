"""tools/compare_outputs.py: the lines `differences` reports for two trees'
outputs, given as in-memory ({command: (exit code, stdout, stderr)},
{path: bytes}) pairs, so no command is run."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"


@pytest.fixture(scope="module")
def differences():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.differences


def outputs(code=0, stdout=b"ok\n", stderr=b"", files=None):
    return {"run a": (code, stdout, stderr)}, dict(files or {})


def test_identical_outputs_differ_nowhere(differences):
    files = {"a/diagnostics.csv": b"t,e\n0,1\n"}
    assert differences(outputs(files=files), outputs(files=files)) == []


def test_an_exit_code_change(differences):
    assert differences(outputs(code=0), outputs(code=1)) == ["run a: exit code 0 -> 1"]


def test_the_first_differing_stdout_line_from_both_sides(differences):
    parent = outputs(stdout=b"steps = 4\nt = 1.0\ndone\n")
    change = outputs(stdout=b"steps = 4\nt = 0.5\ndone\n")
    assert differences(parent, change) == [
        "run a: standard output differs from line 2\n"
        "  parent: t = 1.0\\n\n"
        "  change: t = 0.5\\n"]
    # a line past the end of one side
    assert differences(outputs(stderr=b"x\n"), outputs(stderr=b"x\ny\n")) == [
        "run a: standard error differs from line 2\n"
        "  parent: (no such line)\n"
        "  change: y\\n"]


def test_a_file_written_by_one_side_only(differences):
    parent = outputs(files={"a/old.csv": b"t\n0\n"})
    change = outputs(files={"a/new.csv": b"t\n0\n"})
    assert differences(parent, change) == ["a/new.csv: written by the change only",
                                           "a/old.csv: written by the parent only"]


@pytest.mark.parametrize("parent_csv, change_csv, relative, scaled", [
    # |3 - 2| / |2| and |3 - 2| / max |parent| = 8
    (b"t,e\n0.0,2\n1.0,8\n", b"t,e\n0.0,3\n1.0,8\n", "0.5", "0.125"),
    # a change from 0: no relative size, but a finite one over the column
    (b"t,e\n0.0,0\n1.0,4\n", b"t,e\n0.0,1\n1.0,4\n", "inf", "0.25"),
    # a change from nan is inf on both sizes
    (b"t,e\n0.0,nan\n1.0,4\n", b"t,e\n0.0,1\n1.0,4\n", "inf", "inf"),
])
def test_the_two_csv_sizes(differences, parent_csv, change_csv, relative, scaled):
    path = "a/diagnostics.csv"
    found = differences(outputs(files={path: parent_csv}), outputs(files={path: change_csv}))
    line_p, line_c = (csv.splitlines()[1].decode() for csv in (parent_csv, change_csv))
    assert found == [
        f"{path}: differs from line 2; largest relative difference {relative} in e; "
        f"largest difference over the column's max |parent| {scaled} in e\n"
        f"  parent: {line_p}\\n\n"
        f"  change: {line_c}\\n"]
