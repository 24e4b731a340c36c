import copy
import dataclasses
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nsac1d as ns
from conftest import nan_sources_after
from nsac1d import cli_io
from nsac1d.cli_io import (ASSERTED_COLUMNS, _fmt, read_diagnostics,
                           read_snapshot, write_diagnostics, write_snapshot)


EQ_CONFIG = """\
# equilibrium sanity run
ic = equilibrium
phi_left = 1
phi_right = 1
L = 8
N = 64
t_final = 0.05
diag_every_steps = 5
"""

INTERFACE_CONFIG = """\
L = 8
N = 256
t_final = 0.01
phi_width = 0.5
theta_amp = 0.1   # mild hot spot
theta_width = 1.0
diag_every_steps = 5
snapshot_every_steps = 20
"""


class TestParseConfig:
    def test_empty_gives_defaults(self):
        cfg = ns.parse_config("")
        assert cfg.L == 16.0 and cfg.N == 512
        assert cfg.epsilon == 1.0 and cfg.beta == 1.0
        assert cfg.cfl == 0.4 and cfg.t_final == 1.0

    def test_simple_override(self):
        cfg = ns.parse_config("beta = 2.5")
        assert cfg.beta == 2.5

    def test_unknown_key_names_line(self):
        with pytest.raises(ns.ConfigError, match=r"unknown key 'betta' \(line 1\)"):
            ns.parse_config("betta = 2.5")
        # seed was never read, so it is no longer a key
        with pytest.raises(ns.ConfigError, match=r"unknown key 'seed' \(line 1\)"):
            ns.parse_config("seed = 0")
        # the time cadence of snapshots is gone; snapshot_every_steps remains
        with pytest.raises(ns.ConfigError,
                           match=r"unknown key 'snapshot_every_time' \(line 1\)"):
            ns.parse_config("snapshot_every_time = 0.05")

    def test_bad_value_names_line_and_key(self):
        with pytest.raises(ns.ConfigError, match=r"'N' \(line 2\)"):
            ns.parse_config("beta = 2\nN = lots")

    def test_comments_and_blanks(self):
        cfg = ns.parse_config("\n# full line comment\n beta = 2.0  # trailing\n\n")
        assert cfg.beta == 2.0

    def test_missing_equals_rejected(self):
        with pytest.raises(ns.ConfigError, match="line 1"):
            ns.parse_config("beta 2.0")

    @pytest.mark.parametrize("text", [
        "phi_left = 0.5", "N = 511", "L = 8.5", "cfl = 1.5",
        "ic = shock", "weighted_diss = 1.5:0", "epsilon = -1",
    ])
    def test_semantic_validation(self, text):
        with pytest.raises(ns.ConfigError):
            ns.parse_config(text)

    def test_weighted_pairs_parse(self):
        cfg = ns.parse_config("weighted_diss = 0.25:-1, 0.75:2")
        assert cfg.weighted_diss == ((0.25, -1), (0.75, 2))

    def test_round_trip_lossless(self):
        cfg = ns.parse_config("""\
epsilon = 0.5
beta = 2.5
nu = 1.5
gas_R = 0.75
c_v = 2.0
kappa_tilde = 0.125
cfl = 0.3
positivity_floor = 1e-9
t_final = 0.5
L = 8
N = 128
phi_left = 1
phi_right = -1
ic = equilibrium
phi_width = 0.5
v_amp = 0.1
v_width = 1.25
v_center = -1.5
u_amp = -0.2
u_width = 1.75
u_center = 2.5
theta_amp = -0.125
theta_width = 3.0
theta_center = 0.25
outdir = results/a
snapshot_every_steps = 7
diag_every_steps = 3
weighted_diss = 0.3:1
mms_resolutions = 64,128,256
mms_t_final = 0.125
mms_amplitude = 0.2
""")
        for f in dataclasses.fields(ns.RunConfig):
            assert getattr(cfg, f.name) != f.default, f.name
        again = ns.parse_config(cfg.to_text())
        assert again == cfg


class TestSnapshotIO:
    def test_equilibrium_rows(self, params, tmp_path):
        grid = ns.make_grid(1, 8)
        eq = ns.equilibrium_state(grid, ns.BoundaryConfig(1.0, 1.0))
        path = tmp_path / "snap.csv"
        write_snapshot(eq, params, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,v,u,theta,phi,mu,G"
        assert len(lines) == 9
        data = read_snapshot(path)
        assert np.all(data["v"] == 1.0) and np.all(data["u"] == 0.0)
        assert np.all(data["mu"] == 0.0)

    def test_round_trip_bit_identical(self, params, tmp_path):
        grid = ns.make_grid(8, 64)
        bc = ns.BoundaryConfig(-1.0, 1.0)
        state = ns.interface_initial_state(
            grid, params, bc, phi_width=0.5,
            v_amp=0.123456789123, v_width=1.0, u_amp=-0.05, u_width=1.0)
        state = ns.step(state, params, bc, ns.stable_dt(state, params))
        path = tmp_path / "snap.csv"
        write_snapshot(state, params, path)
        data = read_snapshot(path)
        s = grid.interior
        assert np.array_equal(data["x"], grid.x)
        for name in ("v", "u", "theta", "phi", "G"):
            assert np.array_equal(data[name], getattr(state, name)[s])

    def test_mu_column_consistent_on_reload(self, params, tmp_path):
        grid = ns.make_grid(8, 64)
        bc = ns.BoundaryConfig(-1.0, 1.0)
        state = ns.interface_initial_state(grid, params, bc, phi_width=0.5)
        path = tmp_path / "snap.csv"
        write_snapshot(state, params, path)
        data = read_snapshot(path)
        rebuilt = ns.state_from_fields(grid, bc, data["v"], data["u"],
                                       data["theta"], data["phi"], params)
        mu = ns.chemical_potential(rebuilt, params)[grid.interior]
        assert np.max(np.abs(mu - data["mu"])) <= 1e-15


class TestDiagnosticsIO:
    def test_round_trip_identical(self, params, tmp_path):
        grid = ns.make_grid(16, 128)
        bc = ns.BoundaryConfig(-1.0, 1.0)
        state = ns.interface_initial_state(grid, params, bc,
                                           theta_amp=-0.2, theta_width=1.5)
        ctx = ns.make_context(state, params, weighted_pairs=((0.5, 0), (0.25, -2)))
        recs = [ns.record(state, params, ctx, ns.dissipation_rate(state, params))]
        result = ns.run(state, params, bc, 0.01)
        ctx.diss_cum = 1.2345e-3
        recs.append(ns.record(result.state, params, ctx,
                              ns.dissipation_rate(result.state, params)))
        path = tmp_path / "diag.csv"
        write_diagnostics(recs, path)
        assert path.read_text().startswith("#")
        again = read_diagnostics(path)
        assert again == recs


class TestAudit:
    @pytest.fixture()
    def run_dir(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(INTERFACE_CONFIG + f"outdir = {tmp_path / 'out'}\n")
        out = io.StringIO()
        assert ns.main(["run", str(cfg)], out=out) == 0
        return tmp_path / "out"

    def test_audit_accepts_run_output(self, run_dir):
        out = io.StringIO()
        assert ns.main(["audit", str(run_dir / "diagnostics.csv")], out=out) == 0
        assert "AUDIT PASSED" in out.getvalue()

    def test_audit_rejects_doctored_lyapunov(self, run_dir, tmp_path):
        path = run_dir / "diagnostics.csv"
        records = read_diagnostics(path)
        for rec in records[1:]:
            rec.e_lyap = rec.e_lyap + 0.5 * records[0].e0  # fake energy growth
        doctored = tmp_path / "doctored.csv"
        write_diagnostics(records, doctored)
        out = io.StringIO()
        assert ns.main(["audit", str(doctored)], out=out) == 1
        assert "lyapunov" in out.getvalue()

    def test_audit_rejects_mass_jump(self, run_dir, tmp_path):
        path = run_dir / "diagnostics.csv"
        records = read_diagnostics(path)
        records[-1].mass_excess += 1e-6
        doctored = tmp_path / "doctored.csv"
        write_diagnostics(records, doctored)
        out = io.StringIO()
        assert ns.main(["audit", str(doctored)], out=out) == 1
        assert "mass_conservation" in out.getvalue()


@pytest.fixture(scope="module")
def healthy_records(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("healthy")
    cfg = tmp / "run.cfg"
    cfg.write_text(INTERFACE_CONFIG + f"outdir = {tmp / 'out'}\n")
    assert ns.main(["run", str(cfg)], out=io.StringIO()) == 0
    return read_diagnostics(tmp / "out" / "diagnostics.csv")


class TestAuditNonFinite:
    def test_healthy_series_is_finite(self, healthy_records):
        failures, lines = ns.audit_records(healthy_records)
        assert failures == []
        assert any(line.startswith("PASS  finite_values") for line in lines)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_nan_in_any_asserted_cell_fails(self, healthy_records, data):
        records = copy.deepcopy(healthy_records)
        row = data.draw(st.integers(0, len(records) - 1), label="row")
        column = data.draw(st.sampled_from(ASSERTED_COLUMNS), label="column")
        setattr(records[row], column, math.nan)
        failures, lines = ns.audit_records(records)
        assert "finite_values" in failures
        assert any(line.startswith("FAIL  finite_values") for line in lines)

    def test_nan_last_row_fails_from_csv(self, healthy_records, tmp_path):
        records = copy.deepcopy(healthy_records)
        for name in ASSERTED_COLUMNS:
            if name != "t":
                setattr(records[-1], name, math.nan)
        path = tmp_path / "nan.csv"
        write_diagnostics(records, path)
        out = io.StringIO()
        assert ns.main(["audit", str(path)], out=out) == 1
        assert "FAIL  finite_values" in out.getvalue()
        assert "AUDIT FAILED" in out.getvalue()


class TestMainCommands:
    def test_brackets_zero_prints_ones(self):
        out = io.StringIO()
        assert ns.main(["brackets", "0"], out=out) == 0
        assert out.getvalue().strip() == "1 1"

    def test_brackets_value_matches_library(self):
        out = io.StringIO()
        assert ns.main(["brackets", "0.5"], out=out) == 0
        a1, a2 = map(float, out.getvalue().split())
        assert (a1, a2) == ns.bracket_roots(0.5)

    def test_brackets_negative_is_usage_error(self):
        for e0 in ("-1", "nan"):
            out = io.StringIO()
            assert ns.main(["brackets", e0], out=out) == 2
            assert "e0 must be >= 0" in out.getvalue()

    def test_equilibrium_run_all_zero(self, tmp_path):
        cfg = tmp_path / "eq.cfg"
        cfg.write_text(EQ_CONFIG + f"outdir = {tmp_path / 'out'}\n")
        out = io.StringIO()
        assert ns.main(["run", str(cfg)], out=out) == 0
        records = read_diagnostics(tmp_path / "out" / "diagnostics.csv")
        assert all(r.e_lyap == 0.0 and r.v_diss == 0.0 for r in records)
        assert all(r.mass_excess == 0.0 for r in records)
        assert (tmp_path / "out" / "snapshot_final.csv").exists()
        assert (tmp_path / "out" / "plot_diagnostics.py").exists()

    def test_run_writes_cadenced_snapshots(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(INTERFACE_CONFIG + f"outdir = {tmp_path / 'out'}\n")
        assert ns.main(["run", str(cfg)], out=io.StringIO()) == 0
        snaps = sorted((tmp_path / "out").glob("snapshot_step*.csv"))
        assert snaps, "expected cadenced snapshots"

    def test_deterministic_outputs(self, tmp_path):
        blobs = []
        for sub in ("a", "b"):
            cfg = tmp_path / f"{sub}.cfg"
            cfg.write_text(INTERFACE_CONFIG + f"outdir = {tmp_path / sub}\n")
            assert ns.main(["run", str(cfg)], out=io.StringIO()) == 0
            blobs.append(((tmp_path / sub / "diagnostics.csv").read_bytes(),
                          (tmp_path / sub / "snapshot_final.csv").read_bytes()))
        assert blobs[0] == blobs[1]

    def test_mms_emits_table(self, tmp_path):
        cfg = tmp_path / "mms.cfg"
        cfg.write_text(f"outdir = {tmp_path / 'out'}\n"
                       "mms_resolutions = 64,128,256\nmms_t_final = 0.05\n")
        out = io.StringIO()
        assert ns.main(["mms", str(cfg)], out=out) == 0
        table = (tmp_path / "out" / "mms_convergence.csv").read_text().splitlines()
        assert table[0].startswith("N,err_v,err_u,err_theta,err_phi,order_v")
        assert len(table) == 4

    def test_usage_errors_exit_2(self, tmp_path):
        assert ns.main(["run", str(tmp_path / "missing.cfg")], out=io.StringIO()) == 2
        assert ns.main(["audit", str(tmp_path / "missing.csv")], out=io.StringIO()) == 2
        assert ns.main(["frobnicate"], out=io.StringIO()) == 2
        bad = tmp_path / "bad.cfg"
        bad.write_text("betta = 1\n")
        assert ns.main(["run", str(bad)], out=io.StringIO()) == 2

    @pytest.mark.parametrize("line, name", [("epsilon = nan", "epsilon"),
                                            ("L = inf", "half_width")])
    def test_non_finite_config_value_exits_2(self, tmp_path, line, name):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{line}\noutdir = {tmp_path / 'out'}\n")
        out = io.StringIO()
        assert ns.main(["run", str(cfg)], out=out) == 2
        assert f"error: {name} must be finite" in out.getvalue()

    def test_aborted_run_exits_1_with_dump(self, tmp_path):
        cfg = tmp_path / "violent.cfg"
        cfg.write_text(
            "L = 8\nN = 16\nt_final = 1\ncfl = 0.9\nphi_width = 0.5\n"
            "v_amp = -0.999\nv_width = 1.4\nv_center = 0\n"
            "u_amp = 30\nu_width = 1.2\nu_center = -1\n"
            "theta_amp = -0.995\ntheta_width = 1.4\n"
            f"outdir = {tmp_path / 'out'}\n")
        out = io.StringIO()
        assert ns.main(["run", str(cfg)], out=out) == 1
        text = out.getvalue()
        assert "ABORT" in text and "cell" in text
        # the partial diagnostics time series is still written for post-mortems
        assert (tmp_path / "out" / "diagnostics.csv").exists()

    def test_nan_on_final_step_exits_1_with_diagnostics(self, tmp_path, monkeypatch):
        run = cli_io.run

        def run_with_nan_at_the_end(initial, params, bc, t_final, **kwargs):
            return run(initial, params, bc, t_final,
                       sources=nan_sources_after(t_final - 1e-9), **kwargs)

        monkeypatch.setattr(cli_io, "run", run_with_nan_at_the_end)
        cfg = tmp_path / "eq.cfg"
        cfg.write_text(EQ_CONFIG + f"outdir = {tmp_path / 'out'}\n")
        out = io.StringIO()
        assert ns.main(["run", str(cfg)], out=out) == 1
        assert "ABORT" in out.getvalue() and "not finite" in out.getvalue()
        records = read_diagnostics(tmp_path / "out" / "diagnostics.csv")
        # the dump is the last accepted state, one step short of t_final
        assert 0.0 < records[-1].t < 0.05
        assert all(math.isfinite(getattr(r, name))
                   for r in records for name in ASSERTED_COLUMNS)


class TestModuleEntryPoint:
    @pytest.mark.parametrize("argv, code", [(["brackets", "0.5"], 0),
                                            (["no-such-command"], 2)])
    def test_python_m_nsac1d_exit_codes(self, argv, code):
        src = str(Path(ns.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-m", "nsac1d", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == code, proc.stderr
        if code == 0:
            assert proc.stdout.split() == [f"{r:.17g}" for r in ns.bracket_roots(0.5)]


class TestFloatFormatting:
    def test_round_trip_formatting(self):
        for value in (1.0, 0.1, 1e-300, math.pi, -2.5e17, 0.0):
            assert float(_fmt(value)) == value
