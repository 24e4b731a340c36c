#!/usr/bin/env python3
"""Compare what two nsac1d source trees write, byte for byte.

    python tools/compare_outputs.py PARENT_SRC CHANGE_SRC

Each SRC is a directory that holds the `nsac1d` package (a checkout's
`src`). For each tree the same commands run as `python -m nsac1d` with
PYTHONPATH set to that tree alone, in a fresh temporary directory: ten
`run` configs and three `mms`, then `audit` of the first run's diagnostics
CSV. Exit codes, standard output, standard error and every file left in the
directory must be identical; only the `outdir` line of each config.txt is
exempt. Each difference is listed with the number of its first differing
line, followed by that line from both sides, and the script exits 1 if
there is any.  A differing CSV file is also listed with two sizes over its
numeric cells, each with the column that holds it: the largest relative
difference |change - parent| / |parent|, which is inf where the parent cell
is 0, and the largest |change - parent| over the column's max |parent|,
which stays finite there.  A line is shown as the repr of its text, its
line ending included.
"""

from __future__ import annotations

import argparse
import math
import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

# the flagship initial data as config text, from its one owner, the
# benchmark's bench/workloads.py (FLAGSHIP at FLAGSHIP_L), read by path
WORKLOADS = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "workloads.py"))
FLAGSHIP = f"L = {WORKLOADS['FLAGSHIP_L']}\n" + "".join(
    f"{key} = {value!r}\n" for key, value in WORKLOADS["FLAGSHIP"].items())

# (name, command, config); each writes to the output directory `name`
RUNS = (
    # the seed-0 config of the cli-diag-512 benchmark, with two weighted pairs
    ("cli-diag-512", "run", "N = 512\nt_final = 1.0\n" + FLAGSHIP
     + "diag_every_steps = 1\nsnapshot_every_steps = 100\n"
       "weighted_diss = 0.5:0,0.25:-3\n"),
    # README "Known limits": fails the Lyapunov checks and exits 1
    ("known-limits", "run", "L = 8\nN = 64\nt_final = 0.01\nphi_width = 0.5\n"
                            "theta_amp = 0.1\ntheta_width = 1\n"),
    ("flagship-128", "run", FLAGSHIP + "N = 128\nt_final = 0.6\n"
                            "diag_every_steps = 4\nsnapshot_every_steps = 3\n"),
    ("flagship-128-t0", "run", FLAGSHIP + "N = 128\nt_final = 0\n"
                               "diag_every_steps = 4\nsnapshot_every_steps = 3\n"),
    # records only the initial and the final state: 31 steps in blocks of 16,
    # so no full block holds a recorded state; fails lyapunov_* and exits 1
    ("flagship-256-diag0", "run", FLAGSHIP + "N = 256\nt_final = 1.0\n"
                                  "diag_every_steps = 0\n"),
    # beta = 2 and a small eps, so the reaction limit binds every step and
    # theta**beta and the eps-scaled terms of the kernel and limits are read
    ("reaction-beta2", "run", "L = 8\nN = 64\nt_final = 0.02\nbeta = 2\nepsilon = 0.05\n"
                              "phi_width = 0.25\ntheta_amp = 0.2\ntheta_width = 1.5\n"
                              "u_amp = 0.1\nu_width = 1.5\n"
                              "diag_every_steps = 5\nsnapshot_every_steps = 20\n"),
    # aborts inside the time loop and exits 1 with a dump
    ("aborted", "run", "L = 8\nN = 16\nt_final = 1\ncfl = 0.9\nphi_width = 0.5\n"
                       "v_amp = -0.999\nv_width = 1.4\nv_center = 0\n"
                       "u_amp = 30\nu_width = 1.2\nu_center = -1\n"
                       "theta_amp = -0.995\ntheta_width = 1.4\n"),
    # aborts at step 2 with one accepted state in the pending block, on no
    # diag_every_steps cadence, so the dump is folded and recorded at the abort
    ("aborted-block", "run", "L = 8\nN = 32\nt_final = 1\ncfl = 0.9\nphi_width = 0.5\n"
                             "v_amp = -0.99\nv_width = 1.4\nv_center = 0\n"
                             "u_amp = 12\nu_width = 1.2\nu_center = -1\n"
                             "theta_amp = -0.8\ntheta_width = 1.4\n"
                             "diag_every_steps = 7\n"),
    # diffusion binds the Heun step of every step, so each step is an RKL2
    # step: 13 steps of 4 stages at cfl 0.95
    ("rkl2-cfl095", "run", FLAGSHIP + "N = 512\nt_final = 0.5\ncfl = 0.95\n"
                           "diag_every_steps = 3\nsnapshot_every_steps = 5\n"),
    # beta = 1/2, the one non-integer beta of these configs: theta**beta
    # in the kernel and the limits, over 9 RKL2 steps of 10
    ("rkl2-beta05", "run", FLAGSHIP + "N = 256\nt_final = 0.3\nbeta = 0.5\n"
                           "diag_every_steps = 5\nsnapshot_every_steps = 10\n"),
    ("mms", "mms", ""),
    # beta = 2 exercises the theta**(beta - 1) term of the manufactured sources
    ("mms-beta2", "mms", "beta = 2\nepsilon = 0.5\nmms_amplitude = 0.2\nL = 8\n"
                         "mms_resolutions = 32,64,128\n"),
    # N = 16 aborts, so mms exits 1 with an ABORT line and writes no table
    ("mms-abort", "mms", "epsilon = 0.01\nmms_amplitude = 0.3\nL = 8\n"
                         "mms_resolutions = 16,32,64\n"),
)
AUDITED = "cli-diag-512/diagnostics.csv"


def _nsac1d(env, workdir, *argv):
    proc = subprocess.run([sys.executable, "-m", "nsac1d", *argv], cwd=workdir, env=env,
                          capture_output=True, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def outputs(src, workdir):
    """({command: (exit code, stdout, stderr)}, {relative path: bytes}) of one tree."""
    env = dict(os.environ, PYTHONPATH=str(src))
    commands = {}
    for name, command, text in RUNS:
        (workdir / f"{name}.cfg").write_text(text + f"outdir = {name}\n")
        commands[f"{command} {name}"] = _nsac1d(env, workdir, command, f"{name}.cfg")
    commands[f"audit {AUDITED}"] = _nsac1d(env, workdir, "audit", AUDITED)
    files = {}
    for path in sorted(workdir.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name == "config.txt":
                data = b"".join(line for line in data.splitlines(keepends=True)
                                if not line.startswith(b"outdir = "))
            files[path.relative_to(workdir).as_posix()] = data
    return commands, files


def _first_differing_line(a, b):
    """(k, shown): the number of the first line that differs, and that line
    of the parent and of the change, each on an indented line of its own
    ("(no such line)" past the end of one side)."""
    lines_a, lines_b = a.splitlines(keepends=True), b.splitlines(keepends=True)
    k = next((k for k, (x, y) in enumerate(zip(lines_a, lines_b)) if x != y),
             min(len(lines_a), len(lines_b)))
    parent, change = (repr(lines[k].decode(errors="replace"))[1:-1] if k < len(lines)
                      else "(no such line)" for lines in (lines_a, lines_b))
    return k + 1, f"\n  parent: {parent}\n  change: {change}"


def _size(x, y, scale):
    """|y - x| / |scale|: inf for a change against a zero scale, or to or from nan."""
    if math.isnan(x) or math.isnan(y):
        return math.inf
    return abs(y - x) / abs(scale) if scale else (math.inf if y != x else 0.0)


def _largest_differences(a, b):
    """The numeric cells that differ most between two CSV files, cell by cell
    under the header of a, as ((|b - a| / |a|, column), (|b - a| / max |a|
    of the column, column)); None if no numeric cell's text differs.  The
    relative difference is inf for a change from 0; the second, scaled by
    the column, stays finite there, so it says how far the column moved."""
    rows_a, rows_b = ([line.split(",") for line in data.decode().splitlines()
                       if not line.startswith("#")] for data in (a, b))
    top = {}      # column -> max |a| over its numeric cells, nan aside
    changed = []  # (column, a, b) of every differing numeric cell
    for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
        for column, x, y in zip(rows_a[0], row_a, row_b):
            try:
                x_value, y_value = float(x), float(y)
            except ValueError:
                continue
            if not math.isnan(x_value):
                top[column] = max(top.get(column, 0.0), abs(x_value))
            if x != y:
                changed.append((column, x_value, y_value))
    relative = scaled = None
    for column, x, y in changed:
        rel, size = _size(x, y, x), _size(x, y, top.get(column, 0.0))
        if relative is None or rel > relative[0]:
            relative = rel, column
        if scaled is None or size > scaled[0]:
            scaled = size, column
    return None if relative is None else (relative, scaled)


def differences(parent, change):
    """One line per command or file whose output differs."""
    (commands_p, files_p), (commands_c, files_c) = parent, change
    found = []
    for label, (code_p, *streams_p) in commands_p.items():
        code_c, *streams_c = commands_c[label]
        if code_p != code_c:
            found.append(f"{label}: exit code {code_p} -> {code_c}")
        for stream, out_p, out_c in zip(("output", "error"), streams_p, streams_c):
            if out_p != out_c:
                k, shown = _first_differing_line(out_p, out_c)
                found.append(f"{label}: standard {stream} differs from line {k}{shown}")
    for path in sorted(files_p.keys() | files_c.keys()):
        if path not in files_c:
            found.append(f"{path}: written by the parent only")
        elif path not in files_p:
            found.append(f"{path}: written by the change only")
        elif files_p[path] != files_c[path]:
            k, shown = _first_differing_line(files_p[path], files_c[path])
            line = f"{path}: differs from line {k}"
            largest = (_largest_differences(files_p[path], files_c[path])
                       if path.endswith(".csv") else None)
            if largest is not None:
                line += ("; largest relative difference {:.3g} in {}; largest "
                         "difference over the column's max |parent| {:.3g} in {}"
                         .format(*largest[0], *largest[1]))
            found.append(line + shown)
    return found


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Compare the outputs of two nsac1d source trees byte for byte.")
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    args = parser.parse_args(argv)
    results = []
    for label, src in (("parent", args.parent_src), ("change", args.change_src)):
        src = src.resolve()
        if not (src / "nsac1d" / "__init__.py").is_file():
            parser.error(f"{src} holds no nsac1d package")
        with tempfile.TemporaryDirectory(prefix=f"nsac1d-{label}-") as tmp:
            results.append(outputs(src, Path(tmp)))
    found = differences(*results)
    for line in found:
        print(line)
    n_files = len(results[0][1].keys() | results[1][1].keys())
    print(f"{len(found)} differences over {len(results[0][0])} commands and {n_files} files")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
