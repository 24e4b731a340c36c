#!/usr/bin/env python3
"""Compare what two nsac1d source trees write, byte for byte.

    python tools/compare_outputs.py PARENT_SRC CHANGE_SRC

Each SRC is a directory that holds the `nsac1d` package (a checkout's
`src`). For each tree the same commands run as `python -m nsac1d` with
PYTHONPATH set to that tree alone, in a fresh temporary directory: five
`run` configs and two `mms`, then `audit` of the first run's diagnostics
CSV. Exit codes, standard output and every file left in the directory must
be identical; only the `outdir` line of each config.txt is exempt. Each
difference is listed, and the script exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# the flagship initial data at L = 32 (tests/conftest.py::flagship_ic)
FLAGSHIP = ("L = 32\nphi_width = 1.0\n"
            "v_amp = 0.2\nv_width = 1.5\nv_center = -2.0\n"
            "u_amp = 0.25\nu_width = 1.5\nu_center = 2.0\n"
            "theta_amp = 0.25\ntheta_width = 1.5\ntheta_center = 0.0\n")

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
    # aborts inside the time loop and exits 1 with a dump
    ("aborted", "run", "L = 8\nN = 16\nt_final = 1\ncfl = 0.9\nphi_width = 0.5\n"
                       "v_amp = -0.999\nv_width = 1.4\nv_center = 0\n"
                       "u_amp = 30\nu_width = 1.2\nu_center = -1\n"
                       "theta_amp = -0.995\ntheta_width = 1.4\n"),
    ("mms", "mms", ""),
    # beta = 2 exercises the theta**(beta - 1) term of the manufactured sources
    ("mms-beta2", "mms", "beta = 2\nepsilon = 0.5\nmms_amplitude = 0.2\nL = 8\n"
                         "mms_resolutions = 32,64,128\n"),
)
AUDITED = "cli-diag-512/diagnostics.csv"


def _nsac1d(env, workdir, *argv):
    proc = subprocess.run([sys.executable, "-m", "nsac1d", *argv], cwd=workdir, env=env,
                          capture_output=True, timeout=600)
    return proc.returncode, proc.stdout


def outputs(src, workdir):
    """({command: (exit code, stdout)}, {relative path: bytes}) of one tree."""
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
    lines_a, lines_b = a.splitlines(keepends=True), b.splitlines(keepends=True)
    for k, (x, y) in enumerate(zip(lines_a, lines_b), start=1):
        if x != y:
            return k
    return min(len(lines_a), len(lines_b)) + 1


def differences(parent, change):
    """One line per command or file whose output differs."""
    (commands_p, files_p), (commands_c, files_c) = parent, change
    found = []
    for label, (code_p, out_p) in commands_p.items():
        code_c, out_c = commands_c[label]
        if code_p != code_c:
            found.append(f"{label}: exit code {code_p} -> {code_c}")
        if out_p != out_c:
            found.append(f"{label}: standard output differs from line "
                         f"{_first_differing_line(out_p, out_c)}")
    for path in sorted(files_p.keys() | files_c.keys()):
        if path not in files_c:
            found.append(f"{path}: written by the parent only")
        elif path not in files_p:
            found.append(f"{path}: written by the change only")
        elif files_p[path] != files_c[path]:
            found.append(f"{path}: differs from line "
                         f"{_first_differing_line(files_p[path], files_c[path])}")
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
