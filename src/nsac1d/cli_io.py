"""Run configuration, CSV serialization, offline audit, and the CLI.

Everything on disk is plain text: a line-based `key = value` config format
and CSV files with shortest-round-trip decimal floats, so every numerical
claim the solver makes can be re-checked by external tooling.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import math
import re
import sys
from dataclasses import dataclass, fields as dc_fields
from pathlib import Path

import numpy as np

from .core import (NUMBERS, BoundaryConfig, InitialData, PositivityError, SimParams,
                   interface_initial_state, is_number, make_grid)
from .diagnostics import (DiagnosticsRecord, bracket_roots, check_weighted_pairs,
                          make_context, record)
from .integrator import SimulationAbort, run
from .mms import ConvergenceRow, ManufacturedCase, convergence_study
from .operators import chemical_potential


class ConfigError(ValueError):
    pass


def _fmt(x):
    """The one cell format: a float (numpy floats too) as the shortest decimal
    that round-trips the double exactly, anything else as written."""
    return repr(float(x)) if isinstance(x, float) else str(x)


def _write_csv(path, header, rows, comment=None):
    """An optional `# comment` line, the header, then one line per row, each
    cell through _fmt; every line ends in a bare newline, and rows are streamed."""
    with open(path, "w", newline="") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_fmt, row)) + "\n")


def _read_csv(path):
    """The header and the rows of a CSV file, skipping `#` lines and empty rows;
    an empty file has an empty header, and a row of another width is an error."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(ln for ln in fh if not ln.startswith("#")) if row]
    header = rows.pop(0) if rows else []
    for row in rows:
        if len(row) != len(header):
            raise ValueError(f"{len(row)} cells for {len(header)} columns in {path}")
    return header, rows


# -- run configuration -------------------------------------------------------

@dataclass(frozen=True)
class RunConfig(InitialData, SimParams):
    """A run's config: the SimParams and InitialData fields, then the run,
    output and MMS-study settings; every field is validated on construction."""

    t_final: float = 1.0
    L: float = 16.0
    N: int = 512
    phi_left: float = -1.0
    phi_right: float = 1.0
    outdir: str = "out"
    snapshot_every_steps: int = 0
    diag_every_steps: int = 10
    weighted_diss: tuple = ((0.5, 0),)
    mms_resolutions: tuple = (128, 256, 512)
    mms_t_final: float = 0.25
    mms_amplitude: float = 0.1

    def __post_init__(self):
        for f in dc_fields(self):  # config.txt must read each value back
            kind, value = type(f.default), getattr(self, f.name)
            if kind in NUMBERS and not is_number(value, kind):
                raise ValueError(f"{f.name} must be {NUMBERS[kind][1]}, got {value!r}")
        if not all(is_number(n, int) for n in self.mms_resolutions):
            raise ValueError(f"mms_resolutions must be integers, got {self.mms_resolutions!r}")
        SimParams.__post_init__(self)
        InitialData.__post_init__(self)
        self.bc()  # each raises on a value it does not accept
        self.grid()
        if not 0 <= self.t_final < np.inf:  # also rejects nan
            raise ValueError(f"t_final must be finite and >= 0, got {self.t_final}")
        if not 0 < self.mms_t_final < np.inf:
            raise ValueError(f"mms_t_final must be finite and > 0, got {self.mms_t_final}")
        for key in ("snapshot_every_steps", "diag_every_steps"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be >= 0")
        check_weighted_pairs(self.weighted_diss)
        outdir = str(self.outdir)  # config.txt must read it back as written
        if "#" in outdir or outdir != outdir.strip() or len(outdir.splitlines()) > 1:
            raise ValueError("outdir must be one line with no '#' and no surrounding "
                             f"whitespace, got {outdir!r}")

    def _values(self, base):
        return {f.name: getattr(self, f.name) for f in dc_fields(base)}

    def params(self):
        return SimParams(**self._values(SimParams))

    def grid(self):
        return make_grid(self.L, self.N)

    def bc(self):
        return BoundaryConfig(self.phi_left, self.phi_right)

    def initial_state(self):
        return interface_initial_state(self.grid(), self.params(), self.bc(),
                                       **self._values(InitialData))

    def to_text(self):
        return "".join(f"{f.name} = {_FORMATS.get(f.name, _fmt)(getattr(self, f.name))}\n"
                       for f in dc_fields(self))


def _parse_weighted(text):
    pairs = []
    text = text.strip()
    if not text:
        return ()
    for chunk in text.split(","):
        alpha_str, _, n_str = chunk.partition(":")
        pairs.append((float(alpha_str), int(n_str)))
    return tuple(pairs)


def _parse_resolutions(text):
    return tuple(int(n) for n in text.split(",") if n.strip())


# every other key parses with the type of its default and is written by _fmt
_PARSERS = {"weighted_diss": _parse_weighted, "mms_resolutions": _parse_resolutions}
_FORMATS = {"weighted_diss": lambda pairs: ",".join(f"{_fmt(a)}:{_fmt(n)}" for a, n in pairs),
            "mms_resolutions": lambda resolutions: ",".join(map(_fmt, resolutions))}


def parse_config(text):
    """Parse the `key = value` format; an unknown or repeated key is a hard error."""
    defaults = {f.name: f.default for f in dc_fields(RunConfig)}
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"expected 'key = value' (line {lineno}): {raw.strip()!r}")
        key = key.strip()
        value = value.strip()
        if key not in defaults:
            raise ConfigError(f"unknown key '{key}' (line {lineno})")
        if key in values:
            raise ConfigError(f"duplicate key '{key}' (line {lineno})")
        parser = _PARSERS.get(key, type(defaults[key]))
        try:
            values[key] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"bad value for '{key}' (line {lineno}): {exc}") from None
    try:
        return RunConfig(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


# -- snapshots ----------------------------------------------------------------

SNAPSHOT_COLUMNS = ("x", "v", "u", "theta", "phi", "mu", "G")


def write_snapshot(state, params, path):
    """Interior cells as CSV rows x,v,u,theta,phi,mu,G in ascending x."""
    s = state.grid.interior
    mu = chemical_potential(state, params)
    _write_csv(path, SNAPSHOT_COLUMNS, zip(state.grid.x, state.v[s], state.u[s],
                                           state.theta[s], state.phi[s], mu, state.G[s]))


def read_snapshot(path):
    """Snapshot columns as a dict of float arrays."""
    header, rows = _read_csv(path)
    if tuple(header) != SNAPSHOT_COLUMNS:
        raise ValueError(f"unexpected snapshot header in {path}: {header}")
    data = np.array([[float(cell) for cell in row] for row in rows]).reshape(
        len(rows), len(SNAPSHOT_COLUMNS))
    return {name: data[:, k] for k, name in enumerate(SNAPSHOT_COLUMNS)}


# -- diagnostics time series ---------------------------------------------------

_RECORD_SCALARS = tuple(f.name for f in dc_fields(DiagnosticsRecord)
                        if f.name != "weighted")


def _weighted_column(alpha, n):
    return f"wdiss_a{_fmt(alpha)}_n{n}"


def write_diagnostics(records, path):
    """One CSV row per record; a schema comment line sits on top."""
    pairs = sorted(records[0].weighted) if records else ()
    header = list(_RECORD_SCALARS) + [_weighted_column(a, n) for a, n in pairs]
    rows = ([getattr(rec, name) for name in _RECORD_SCALARS]
            + [rec.weighted[pair] for pair in pairs] for rec in records)
    _write_csv(path, header, rows, comment="nsac1d diagnostics v1; one row per recorded state")


_WEIGHTED_COLUMN = re.compile(r"wdiss_a(\d+(?:\.\d+)?(?:e[-+]?\d+)?)_n(-?\d+)")


def read_diagnostics(path):
    """The records of a diagnostics CSV, whose header must be the record
    scalars followed by wdiss_a<alpha>_n<n> columns."""
    header, rows = _read_csv(path)
    matches = [_WEIGHTED_COLUMN.fullmatch(name) for name in header[len(_RECORD_SCALARS):]]
    if tuple(header[:len(_RECORD_SCALARS)]) != _RECORD_SCALARS or not all(matches):
        raise ValueError(f"unexpected diagnostics header in {path}: {header}")
    pairs = [(float(m[1]), int(m[2])) for m in matches]
    try:
        check_weighted_pairs(pairs)
    except ValueError as exc:
        raise ValueError(f"unexpected diagnostics header in {path}: {exc}") from None
    records = []
    for row in rows:
        kwargs = {}
        for name, cell in zip(_RECORD_SCALARS, row):
            kwargs[name] = int(cell) if name == "bracket_violations" else float(cell)
        weighted = {pair: float(cell)
                    for pair, cell in zip(pairs, row[len(_RECORD_SCALARS):])}
        records.append(DiagnosticsRecord(weighted=weighted, **kwargs))
    return records


# -- offline audit --------------------------------------------------------------

LYAP_SLACK = 1e-3
PHI_TOL = 1e-8
MASS_TOL = 1e-12
# read by the asserted checks, whose comparisons a NaN would pass vacuously
ASSERTED_COLUMNS = ("t", "mass_excess", "e_lyap", "diss_cum", "e0", "phi_min",
                    "phi_max", "v_min", "theta_min")


def audit_records(records):
    """Re-assert the quantitative invariants on a diagnostics time series.

    Returns (failures, report_lines); monitored quantities are reported but
    never failed, since their continuum bounds carry non-constructive
    constants or are resolution-dependent.
    """
    failures = []
    lines = []

    def check(name, ok, detail):
        status = "PASS" if ok else "FAIL"
        lines.append(f"{status}  {name}: {detail}")
        if not ok:
            failures.append(name)

    if not records:
        return ["empty diagnostics"], ["FAIL  empty diagnostics: no records"]
    bad = [(name, r.t) for r in records for name in ASSERTED_COLUMNS
           if not math.isfinite(getattr(r, name))]
    check("finite_values", not bad,
          f"{len(bad)} non-finite values in the asserted columns"
          + (f", first {bad[0][0]} at t = {bad[0][1]}" if bad else ""))
    records = sorted(records, key=lambda r: r.t)
    e0 = records[0].e0
    tiny = 1e-14 * (1.0 + e0)

    m0 = records[0].mass_excess
    scale = max(abs(m0), 1.0)
    worst_mass = max(abs(r.mass_excess - m0) for r in records)
    check("mass_conservation", worst_mass <= MASS_TOL * scale,
          f"max relative variation {worst_mass / scale:.3e} (limit {MASS_TOL:.0e})")

    worst = max(r.e_lyap + r.diss_cum - e0 * (1.0 + LYAP_SLACK) for r in records)
    check("lyapunov_global", worst <= tiny,
          f"max excess over E0*(1+{LYAP_SLACK}) is {worst:.3e}")

    worst_step = -np.inf
    for prev, cur in zip(records, records[1:]):
        excess = (cur.e_lyap + (cur.diss_cum - prev.diss_cum)
                  - prev.e_lyap - LYAP_SLACK * e0)
        worst_step = max(worst_step, excess)
    check("lyapunov_step", worst_step <= tiny,
          f"max per-interval excess {worst_step:.3e}" if len(records) > 1
          else "no interval: a single record")

    phi_lo = min(r.phi_min for r in records)
    phi_hi = max(r.phi_max for r in records)
    check("phi_max_principle",
          phi_lo >= -1.0 - PHI_TOL and phi_hi <= 1.0 + PHI_TOL,
          f"phi in [{phi_lo:.12f}, {phi_hi:.12f}] (tolerance {PHI_TOL:.0e})")

    total_viol = sum(r.bracket_violations for r in records)
    check("cell_average_brackets", total_viol == 0,
          f"{total_viol} unit-interval averages outside [alpha1, alpha2]")

    v_lo = min(r.v_min for r in records)
    th_lo = min(r.theta_min for r in records)
    check("positivity", v_lo > 0.0 and th_lo > 0.0,
          f"min v = {v_lo:.6e}, min theta = {th_lo:.6e}")

    drift = max(abs(r.energy_total - records[0].energy_total) for r in records)
    rel = drift / max(abs(records[0].energy_total), 1.0)
    lines.append(f"MONITORED  energy_drift: relative {rel:.3e} (second-order small)")
    lines.append(f"MONITORED  lemma24_residual: final {records[-1].lemma24_residual:.3e}")
    for pair in sorted(records[0].weighted):
        final = records[-1].weighted[pair]
        lines.append(f"MONITORED  wdiss(alpha={pair[0]}, n={pair[1]}): final {final:.3e}")
    return failures, lines


# -- run orchestration ------------------------------------------------------------

PLOT_SCRIPT = """\
#!/usr/bin/env python3
# Plot the diagnostics time series and the final snapshot written next to
# this script.  Requires matplotlib; the solver itself never imports it.
import csv
from pathlib import Path

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

here = Path(__file__).parent
with open(here / "diagnostics.csv") as fh:
    rows = [r for r in csv.DictReader(ln for ln in fh if not ln.startswith("#"))]
t = [float(r["t"]) for r in rows]

fig, axes = plt.subplots(2, 2, figsize=(10, 7))
axes[0, 0].plot(t, [float(r["e_lyap"]) for r in rows], label="e_lyap")
axes[0, 0].plot(t, [float(r["e_lyap"]) + float(r["diss_cum"]) for r in rows],
                label="e_lyap + cumulative dissipation")
axes[0, 0].axhline(float(rows[0]["e0"]), ls=":", c="k", label="E0")
axes[0, 0].legend()
axes[0, 1].plot(t, [float(r["mass_excess"]) for r in rows])
axes[0, 1].set_title("mass excess")
axes[1, 0].plot(t, [float(r["phi_min"]) for r in rows], label="phi_min")
axes[1, 0].plot(t, [float(r["phi_max"]) for r in rows], label="phi_max")
axes[1, 0].legend()
snap = here / "snapshot_final.csv"
if snap.exists():
    with open(snap) as fh:
        srows = list(csv.DictReader(fh))
    x = [float(r["x"]) for r in srows]
    for name in ("v", "u", "theta", "phi"):
        axes[1, 1].plot(x, [float(r[name]) for r in srows], label=name)
    axes[1, 1].legend()
fig.tight_layout()
fig.savefig(here / "diagnostics.png", dpi=150)
print(here / "diagnostics.png")
"""


# interior cells of the accepted states `nsac1d run` folds as one block: a
# block amortizes numpy's per-call cost, and its stacked copy costs memory
BLOCK_CELLS = 4096


def _cmd_run(cfg, out=sys.stdout):
    params = cfg.params()
    bc = cfg.bc()
    initial = cfg.initial_state()
    ctx = make_context(initial, params, cfg.weighted_diss)
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "config.txt").write_text(cfg.to_text(), newline="")

    records = record(ctx)  # make_context has folded the initial state
    steps = itertools.count(1)  # run() observes the accepted steps
    block, kept = [], []  # the states of the next fold, the positions it records
    block_length = max(1, BLOCK_CELLS // cfg.N)

    def fold():
        records.extend(record(ctx, block, kept))
        block.clear()
        kept.clear()

    def observer(state):
        n = next(steps)
        diag, snap = cfg.diag_every_steps, cfg.snapshot_every_steps
        if state.t == cfg.t_final or (diag and n % diag == 0):
            kept.append(len(block))
        block.append(state)
        if snap and n % snap == 0:
            write_snapshot(state, params, outdir / f"snapshot_step{n:07d}.csv")
        if len(block) == block_length:
            fold()

    try:
        result = run(initial, params, bc, cfg.t_final, observer=observer)
    except SimulationAbort as exc:
        print(f"ABORT: {exc}", file=out)
        fold()
        [dump] = record(ctx)  # exc.state, the last state folded
        for name in _RECORD_SCALARS:
            print(f"  {name} = {getattr(dump, name)}", file=out)
        if dump.t > records[-1].t:  # the observer may have recorded it already
            records.append(dump)
        write_diagnostics(records, outdir / "diagnostics.csv")
        return 1

    fold()
    final = result.state
    write_diagnostics(records, outdir / "diagnostics.csv")
    write_snapshot(final, params, outdir / "snapshot_final.csv")
    (outdir / "plot_diagnostics.py").write_text(PLOT_SCRIPT, newline="")

    failures, lines = audit_records(records)
    control = result.control
    last = (f", last step {control.regime} in {control.stages} stages, "
            f"dt limited by {control.limit_kind}" if control.step_count else "")
    print(f"run finished: t = {final.t}, steps = {control.step_count}, "
          f"rhs_evals = {control.rhs_evals}, rkl2_steps = {control.rkl2_steps}{last}",
          file=out)
    for line in lines:
        print(line, file=out)
    return 1 if failures else 0


def _cmd_audit(path, out=sys.stdout):
    failures, lines = audit_records(read_diagnostics(path))
    for line in lines:
        print(line, file=out)
    if failures:
        print(f"AUDIT FAILED: {', '.join(failures)}", file=out)
        return 1
    print("AUDIT PASSED", file=out)
    return 0


def _cmd_mms(cfg, out=sys.stdout):
    case = ManufacturedCase(cfg.params(), cfg.L, amplitude=cfg.mms_amplitude,
                            t_star=cfg.mms_t_final)
    try:
        rows = convergence_study(case, cfg.mms_resolutions)
    except SimulationAbort as exc:
        print(f"ABORT: {exc}", file=out)
        return 1
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    names = [f.name for f in dc_fields(ConvergenceRow)]
    path = outdir / "mms_convergence.csv"
    _write_csv(path, ["N", *names[1:]],  # the table calls n_cells N
               ([getattr(r, name) for name in names] for r in rows))
    print(path.read_text(), end="", file=out)
    return 0


def _cmd_brackets(e0, out=sys.stdout):
    alpha1, alpha2 = bracket_roots(e0)
    print(f"{alpha1:.17g} {alpha2:.17g}", file=out)
    return 0


def main(argv=None, out=sys.stdout):
    """Entry point; returns 0 on success, 1 on assertion failure, 2 on usage."""
    parser = argparse.ArgumentParser(
        prog="nsac1d",
        description="1-D two-phase compressible flow solver and diagnostics auditor")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="simulate and emit snapshots/diagnostics")
    p_run.add_argument("config", help="path to a key = value config file")
    p_audit = sub.add_parser("audit", help="re-assert invariants on a diagnostics CSV")
    p_audit.add_argument("diagnostics", help="path to diagnostics.csv")
    p_mms = sub.add_parser("mms", help="manufactured-solution convergence study")
    p_mms.add_argument("config", help="path to a key = value config file")
    p_brackets = sub.add_parser("brackets", help="print the roots of y - ln y - 1 = e0")
    p_brackets.add_argument("e0", type=float)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        if args.command == "run":
            cfg = parse_config(Path(args.config).read_text())
            return _cmd_run(cfg, out=out)
        if args.command == "audit":
            return _cmd_audit(args.diagnostics, out=out)
        if args.command == "mms":
            cfg = parse_config(Path(args.config).read_text())
            return _cmd_mms(cfg, out=out)
        if args.command == "brackets":
            return _cmd_brackets(args.e0, out=out)
    except (ConfigError, OSError, PositivityError, ValueError) as exc:
        # a PositivityError here means bad initial data; run() raises SimulationAbort
        print(f"error: {exc}", file=out)
        return 2
    return 2


def main_cli():
    sys.exit(main())
