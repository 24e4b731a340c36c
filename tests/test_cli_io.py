import copy
import dataclasses
import io
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nsac1d as ns
from conftest import nan_sources_after, recorded_run
from nsac1d import cli_io
from nsac1d.cli_io import (_RECORD_SCALARS, _fmt, _record_columns,
                           read_diagnostics, read_snapshot, write_diagnostics,
                           write_snapshot)


EQ_CONFIG = """\
# equilibrium sanity run: equal far-field phases and no bumps
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
snapshot_every_steps = 1
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
        # the coefficients of the normalized system are fixed at 1
        for key in ("nu", "gas_R", "c_v", "kappa_tilde"):
            with pytest.raises(ns.ConfigError, match=rf"unknown key '{key}' \(line 2\)"):
                ns.parse_config(f"beta = 2\n{key} = 1.0")
        # equal phases and no bumps give the equilibrium, so there is no ic switch
        for value in ("equilibrium", "interface", "shock"):
            with pytest.raises(ns.ConfigError, match=r"unknown key 'ic' \(line 1\)"):
                ns.parse_config(f"ic = {value}")

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
        "phi_left = 0.5", "N = 511", "cfl = 1.5",
        # ic is no longer a key, so this now fails as an unknown key
        "ic = shock", "weighted_diss = 1.5:0", "epsilon = -1",
    ])
    def test_semantic_validation(self, text):
        with pytest.raises(ns.ConfigError):
            ns.parse_config(text)

    @pytest.mark.parametrize("key", ["t_final", "mms_t_final"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_horizon_rejected(self, key, value):
        with pytest.raises(ns.ConfigError, match=f"{key} must be finite"):
            ns.parse_config(f"{key} = {value}")

    def test_weighted_pairs_parse(self):
        cfg = ns.parse_config("weighted_diss = 0.25:-1, 0.75:2")
        assert cfg.weighted_diss == ((0.25, -1), (0.75, 2))

    def test_round_trip_lossless(self):
        cfg = ns.parse_config("""\
epsilon = 0.5
beta = 2.5
cfl = 0.3
positivity_floor = 1e-9
t_final = 0.5
L = 8
N = 128
phi_left = 1
phi_right = -1
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


# values RunConfig rejects on construction, with the message it raises and
# the config line that sets them
INVALID_FIELDS = [
    ("phi_left", 0.5, "0.5", "phi_left must be +1 or -1, got 0.5"),
    ("N", 511, "511", "n_cells must be even and >= 8, got 511"),
    ("L", math.nan, "nan", "half_width must be finite and > 0, got nan"),
    ("t_final", math.nan, "nan", "t_final must be finite and >= 0, got nan"),
    ("t_final", math.inf, "inf", "t_final must be finite and >= 0, got inf"),
    ("t_final", -1.0, "-1", "t_final must be finite and >= 0, got -1.0"),
    ("mms_t_final", 0.0, "0", "mms_t_final must be finite and > 0, got 0.0"),
    ("mms_t_final", math.nan, "nan", "mms_t_final must be finite and > 0, got nan"),
    ("snapshot_every_steps", -1, "-1", "snapshot_every_steps must be >= 0"),
    ("diag_every_steps", -1, "-1", "diag_every_steps must be >= 0"),
    ("weighted_diss", ((1.5, 0),), "1.5:0", "weighted_diss alpha must be in (0, 1), got 1.5"),
    ("weighted_diss", ((0.5, 0), (0.0, 1)), "0.5:0, 0:1",
     "weighted_diss alpha must be in (0, 1), got 0.0"),
    # the initial data, with the messages interface_initial_state gives
    ("phi_width", math.nan, "nan", "phi_width must be finite and > 0, got nan"),
    ("phi_width", 0.0, "0", "phi_width must be finite and > 0, got 0.0"),
    ("v_amp", math.inf, "inf", "v_amp must be finite, got inf"),
    ("v_width", -1.0, "-1", "v_width must be finite and > 0, got -1.0"),
    ("v_center", math.nan, "nan", "v_center must be finite, got nan"),
    ("u_amp", math.nan, "nan", "u_amp must be finite, got nan"),
    ("u_width", math.inf, "inf", "u_width must be finite and > 0, got inf"),
    ("u_center", -math.inf, "-inf", "u_center must be finite, got -inf"),
    ("theta_amp", math.inf, "inf", "theta_amp must be finite, got inf"),
    ("theta_width", 0.0, "0", "theta_width must be finite and > 0, got 0.0"),
    ("theta_center", math.inf, "inf", "theta_center must be finite, got inf"),
]

# values a RunConfig built in code could hold but config.txt could not read
# back, with the name and the value the message gives
MISTYPED_FIELDS = [
    ("N", 64.0, "an integer"),
    ("diag_every_steps", 2.0, "an integer"),
    ("snapshot_every_steps", True, "an integer"),
    ("t_final", True, "an int or a float"),
    ("epsilon", False, "an int or a float"),
    ("epsilon", np.float32(0.3), "an int or a float"),  # config.txt would record 0.3
    ("v_amp", "0.1", "an int or a float"),
    ("mms_resolutions", (32.0, 64.0, 128.0), "integers"),
    ("mms_resolutions", (True, 2, 4), "integers"),
    # it would run with alpha = 0.30000001192092896 and record 0.3
    ("weighted_diss", ((np.float32(0.3), 0),), "an int or a float"),
]
# a weighted pair's message names its alpha
MISTYPED_SUBJECT = {"weighted_diss": ("weighted_diss alpha", lambda pairs: pairs[0][0])}


class TestRunConfig:
    """A RunConfig built in code is checked like a parsed one."""

    @pytest.mark.parametrize("key, value, text, message", INVALID_FIELDS,
                             ids=[f"{key} = {text}" for key, _, text, _ in INVALID_FIELDS])
    def test_invalid_field_raises_on_construction(self, key, value, text, message):
        exact = f"^{re.escape(message)}$"
        with pytest.raises(ValueError, match=exact):
            ns.RunConfig(**{key: value})
        with pytest.raises(ns.ConfigError, match=exact):
            ns.parse_config(f"{key} = {text}\n")

    @pytest.mark.parametrize("key, value, kind", MISTYPED_FIELDS,
                             ids=[f"{key} = {value!r}" for key, value, _ in MISTYPED_FIELDS])
    def test_value_of_another_type_raises_on_construction(self, key, value, kind):
        name, shown = MISTYPED_SUBJECT.get(key, (key, lambda value: value))
        message = f"{name} must be {kind}, got {shown(value)!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ns.RunConfig(**{"L": 16, "N": 64, key: value})

    def test_numpy_numbers_read_back(self):
        cfg = ns.RunConfig(L=np.float64(8), N=np.int64(64), diag_every_steps=np.int32(2),
                           mms_resolutions=tuple(np.array([16, 32, 64])))
        assert ns.parse_config(cfg.to_text()) == cfg

    def test_initial_state_forwards_the_initial_data(self):
        # RunConfig inherits the one declaration of the initial-data keys
        data = {"phi_width": 0.5, "v_amp": 0.1, "u_center": 1.5, "theta_width": 1.25}
        cfg = ns.RunConfig(L=16, N=64, **data)
        state = ns.interface_initial_state(cfg.grid(), cfg.params(), cfg.bc(), **data)
        assert cfg.initial_state().data.tobytes() == state.data.tobytes()
        assert len(dataclasses.fields(ns.InitialData)) == 10

    def test_non_integer_n_raises_on_construction(self):
        # n names the unit interval [n, n+1]; n = 0.5 would run and write a
        # config.txt and a diagnostics column that do not read back
        with pytest.raises(ValueError, match=r"^weighted_diss n must be an integer, got 0\.5$"):
            ns.RunConfig(L=16, N=64, weighted_diss=((0.5, 0.5),))

    def test_ic_is_not_a_field(self):
        with pytest.raises(TypeError, match="unexpected keyword argument 'ic'"):
            ns.RunConfig(ic="equilibrium")

    @pytest.mark.parametrize("outdir", ["runs#1", "a\nN = 64", "a\rb", " out", "out\t"],
                             ids=["comment", "newline", "carriage-return", "leading",
                                  "trailing"])
    def test_outdir_that_config_txt_cannot_read_back(self, outdir):
        # only a RunConfig built in code can hold these: parse_config strips
        # comments and surrounding spaces and reads one line per key
        message = ("outdir must be one line with no '#' and no surrounding "
                   f"whitespace, got {outdir!r}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ns.RunConfig(outdir=outdir)

    @pytest.mark.parametrize("line, outdir", [("outdir = runs/a b  # note", "runs/a b"),
                                              ("outdir =", "")])
    def test_every_parsed_outdir_is_accepted(self, line, outdir):
        cfg = ns.parse_config(line + "\n")
        assert cfg.outdir == outdir
        assert ns.parse_config(cfg.to_text()) == cfg

    @pytest.mark.parametrize("pairs", [((0.5, 0), (0.25, -3)), ()], ids=["two", "none"])
    def test_to_text_reads_back(self, pairs):
        cfg = ns.RunConfig(L=8, N=64, outdir="runs/a", weighted_diss=pairs)
        assert ns.parse_config(cfg.to_text()) == cfg


class TestSnapshotIO:
    def test_equilibrium_rows(self, params, tmp_path):
        grid = ns.make_grid(1, 8)
        eq = ns.interface_initial_state(grid, params, ns.BoundaryConfig(1.0, 1.0))
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
        state = ns.step(state, params, params.cfl * min(ns.step_limits(state, params)))
        path = tmp_path / "snap.csv"
        write_snapshot(state, params, path)
        data = read_snapshot(path)
        s = grid.interior
        assert np.array_equal(data["x"], grid.x)
        for name in ("v", "u", "theta", "phi", "G"):
            assert np.array_equal(data[name], getattr(state, name)[s])

    @pytest.mark.parametrize("text, message", [
        ("", "unexpected snapshot header in {path}: []"),
        ("x,v,u,theta,phi,mu,G\n0.5,1.0,0.0\n", "3 cells for 7 columns in {path}"),
    ], ids=["empty", "short-row"])
    def test_malformed_file_is_a_value_error(self, tmp_path, text, message):
        path = tmp_path / "snap.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(message.format(path=path))}$"):
            read_snapshot(path)

    def test_header_only_file_has_empty_columns(self, tmp_path):
        path = tmp_path / "snap.csv"
        path.write_text("# a comment\nx,v,u,theta,phi,mu,G\n")
        data = read_snapshot(path)
        assert list(data) == list(ns.cli_io.SNAPSHOT_COLUMNS)
        assert all(column.shape == (0,) for column in data.values())

    def test_mu_column_consistent_on_reload(self, params, tmp_path):
        grid = ns.make_grid(8, 64)
        bc = ns.BoundaryConfig(-1.0, 1.0)
        state = ns.interface_initial_state(grid, params, bc, phi_width=0.5)
        path = tmp_path / "snap.csv"
        write_snapshot(state, params, path)
        data = read_snapshot(path)
        rebuilt = ns.state_from_fields(grid, bc, [data[name] for name in ns.core.FIELDS[:4]],
                                       params)
        mu = ns.chemical_potential(rebuilt, params)
        assert np.max(np.abs(mu - data["mu"])) <= 1e-15


class TestDiagnosticsIO:
    def test_round_trip_identical(self, params, tmp_path):
        grid = ns.make_grid(16, 128)
        bc = ns.BoundaryConfig(-1.0, 1.0)
        state = ns.interface_initial_state(grid, params, bc,
                                           theta_amp=-0.2, theta_width=1.5)
        ctx = ns.make_context(state, params, weighted_pairs=((0.5, 0), (0.25, -2)))
        recs = ns.record(ctx)
        result = ns.run(state, params, bc, 0.01)
        ns.record(ctx, [result.state])
        ctx.diss_cum = 1.2345e-3
        recs += ns.record(ctx)
        path = tmp_path / "diag.csv"
        write_diagnostics(recs, path)
        assert path.read_text().startswith("#")
        again = read_diagnostics(path)
        assert again == recs

    @pytest.mark.parametrize("text", [
        "",
        "x,v,u\n1,2,3\n",
        ",".join(_RECORD_SCALARS) + ",wdiss_ahalf_n0\n",
        ",".join(_RECORD_SCALARS) + "\n0.0,1.0,2.0\n",
        ",".join(_RECORD_SCALARS) + ",wdiss_a0.5_n0,wdiss_a0.5_n0\n",
        ",".join(_RECORD_SCALARS) + ",wdiss_a2.0_n0\n",
    ], ids=["empty", "snapshot-like", "bad-weighted-column", "short-row",
            "repeated-weighted-pair", "weighted-alpha-above-1"])
    def test_malformed_file_is_usage_error(self, tmp_path, text):
        path = tmp_path / "diag.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="diag.csv"):
            read_diagnostics(path)
        out = io.StringIO()
        assert ns.main(["audit", str(path)], out=out) == 2
        assert out.getvalue().startswith("error: ")


class TestOutputsReadBack:
    """What `nsac1d` writes, it reads back to the same bytes."""

    def test_run_outputs_rewrite_to_the_same_bytes(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(INTERFACE_CONFIG + "weighted_diss = 0.5:0, 0.25:-3\n"
                       f"outdir = {tmp_path / 'out'}\n")
        assert ns.main(["run", str(cfg)], out=io.StringIO()) == 0
        diag = tmp_path / "out" / "diagnostics.csv"
        write_diagnostics(read_diagnostics(diag), tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == diag.read_bytes()
        text = (tmp_path / "out" / "config.txt").read_text()
        assert ns.parse_config(text).to_text() == text

    def test_no_weighted_pairs(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(INTERFACE_CONFIG + f"weighted_diss =\noutdir = {tmp_path / 'out'}\n")
        assert ns.parse_config(cfg.read_text()).weighted_diss == ()
        assert ns.main(["run", str(cfg)], out=io.StringIO()) == 0
        diag = tmp_path / "out" / "diagnostics.csv"
        assert "wdiss_" not in diag.read_text()
        out = io.StringIO()
        assert ns.main(["audit", str(diag)], out=out) == 0
        assert out.getvalue().endswith("AUDIT PASSED\n")
        text = (tmp_path / "out" / "config.txt").read_text()
        assert "weighted_diss = \n" in text
        assert ns.parse_config(text) == ns.parse_config(cfg.read_text())


class TestRecordCadence:
    """`nsac1d run` records the states the library's every-step record series
    holds, at its own cadence; a second CLI recording path would break this."""

    @pytest.mark.parametrize("every", [0, 1, 3])
    def test_cli_records_are_the_library_records(self, tmp_path, every):
        cfg = ns.parse_config(
            "L = 8\nN = 512\nt_final = 0.05\nphi_width = 0.5\ntheta_amp = 0.1\n"
            f"theta_width = 1\ndiag_every_steps = {every}\nsnapshot_every_steps = 4\n"
            f"outdir = {tmp_path}\n")
        assert cli_io._cmd_run(cfg, out=io.StringIO()) == 0
        result, records = recorded_run(cfg.params(), cfg.bc(), cfg.initial_state(),
                                       cfg.t_final)
        steps = result.control.step_count
        assert steps > 4 and steps % 3 != 0  # the final state falls off the cadence
        kept = sorted(set(range(0, steps + 1, every or steps)) | {steps})
        written = read_diagnostics(tmp_path / "diagnostics.csv")
        for name in _RECORD_SCALARS:
            assert [getattr(r, name) for r in written] == \
                   [getattr(records[n], name) for n in kept], name
        assert sorted(p.name for p in tmp_path.glob("snapshot_step*.csv")) == \
               [f"snapshot_step{n:07d}.csv" for n in range(4, steps + 1, 4)]

    @pytest.mark.parametrize("every", [1, 3, 0])
    def test_blocks_record_what_one_state_at_a_time_records(self, tmp_path, every):
        # the run folds its states in blocks; the library folds and records
        # them one at a time, with the same weighted pairs
        cfg = ns.parse_config(
            "L = 8\nN = 256\nt_final = 0.3\nphi_width = 0.5\ntheta_amp = 0.1\n"
            f"theta_width = 1\nweighted_diss = 0.5:0,0.25:-3\ndiag_every_steps = {every}\n"
            f"outdir = {tmp_path}\n")
        cli_io._cmd_run(cfg, out=io.StringIO())
        ctx = ns.make_context(cfg.initial_state(), cfg.params(), cfg.weighted_diss)
        records = ns.record(ctx)

        def observer(state):
            records.extend(ns.record(ctx, [state]))

        result = ns.run(cfg.initial_state(), cfg.params(), cfg.bc(), cfg.t_final,
                        observer=observer)
        steps, block_length = result.control.step_count, cli_io.BLOCK_CELLS // cfg.N
        assert steps > 2 * block_length and steps % block_length != 0
        kept = sorted(set(range(0, steps + 1, every or steps)) | {steps})
        assert read_diagnostics(tmp_path / "diagnostics.csv") == [records[n] for n in kept]

    @pytest.mark.parametrize("accepted", [39, 41], ids=["dump-on-cadence", "dump-off-cadence"])
    def test_an_abort_records_what_one_state_at_a_time_records(self, tmp_path, monkeypatch,
                                                              accepted):
        # step `accepted + 1` fails with a partial block pending; the CSV holds
        # the records at the cadence, then the dump unless it is one of them
        calls, step = [], ns.integrator.step

        def failing_step(*args, **kwargs):
            calls.append(args)
            if len(calls) > accepted:
                raise RuntimeError("injected step failure")
            return step(*args, **kwargs)

        monkeypatch.setattr(ns.integrator, "step", failing_step)
        cfg = ns.parse_config(
            "L = 8\nN = 256\nt_final = 0.4\nphi_width = 0.5\ntheta_amp = 0.1\n"
            "theta_width = 1\nweighted_diss = 0.5:0,0.25:-3\ndiag_every_steps = 3\n"
            f"outdir = {tmp_path}\n")
        out = io.StringIO()
        assert cli_io._cmd_run(cfg, out=out) == 1
        assert out.getvalue().startswith(f"ABORT: step {accepted + 1} failed at t = ")
        calls.clear()
        ctx = ns.make_context(cfg.initial_state(), cfg.params(), cfg.weighted_diss)
        records = ns.record(ctx)
        with pytest.raises(ns.SimulationAbort) as exc_info:
            ns.run(cfg.initial_state(), cfg.params(), cfg.bc(), cfg.t_final,
                   observer=lambda state: records.extend(ns.record(ctx, [state])))
        assert exc_info.value.step_count == accepted == len(records) - 1
        block_length = cli_io.BLOCK_CELLS // cfg.N
        assert accepted > 2 * block_length and accepted % block_length != 0
        kept = sorted(set(range(0, accepted + 1, 3)) | {accepted})
        assert read_diagnostics(tmp_path / "diagnostics.csv") == [records[n] for n in kept]

    @pytest.mark.parametrize("n_cells, t_final", [(64, 1.0), (512, 0.003), (2048, 1e-4)])
    def test_no_block_holds_more_than_the_cell_budget(self, tmp_path, monkeypatch,
                                                     n_cells, t_final):
        sizes = []
        record = cli_io.record
        monkeypatch.setattr(cli_io, "record",
                            lambda ctx, states=(), kept=None: sizes.append(len(states))
                            or record(ctx, states, kept))
        cfg = tmp_path / "run.cfg"
        # cfl = 0.01 keeps tau short enough for more steps than a block holds
        cfg.write_text(f"phi_left = 1\nphi_right = 1\nL = 8\nN = {n_cells}\ncfl = 0.01\n"
                       f"t_final = {t_final}\noutdir = {tmp_path / 'out'}\n")
        out = io.StringIO()
        assert ns.main(["run", str(cfg)], out=out) == 0
        steps = int(re.search(r"steps = (\d+)", out.getvalue()).group(1))
        assert sum(sizes) == steps
        # the blocks fill up to the budget and no further
        assert steps > max(sizes) == cli_io.BLOCK_CELLS // n_cells


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

    def test_a_single_record_has_no_interval(self, healthy_records):
        failures, lines = ns.audit_records(healthy_records[:1])
        assert failures == []
        assert "PASS  lyapunov_step: no interval: a single record" in lines

    def test_audit_rejects_a_header_only_csv(self, tmp_path):
        path = tmp_path / "diagnostics.csv"
        write_diagnostics([], path)
        out = io.StringIO()
        assert ns.main(["audit", str(path)], out=out) == 1
        assert out.getvalue().splitlines() == ["FAIL  empty diagnostics: no records",
                                               "AUDIT FAILED: empty diagnostics"]


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

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_a_non_finite_value_in_any_column_fails(self, healthy_records, data):
        records = copy.deepcopy(healthy_records)
        row = data.draw(st.integers(0, len(records) - 1), label="row")
        columns = [name for name, _ in _record_columns(records[row])]
        assert columns[len(_RECORD_SCALARS):] == ["wdiss_a0.5_n0"]
        column = data.draw(st.sampled_from(columns), label="column")
        value = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]), label="value")
        if column in _RECORD_SCALARS:
            setattr(records[row], column, value)
        else:
            records[row].weighted[(0.5, 0)] = value
        failures, lines = ns.audit_records(records)
        assert "finite_values" in failures
        assert (f"FAIL  finite_values: 1 non-finite values in the record columns, "
                f"first {column} at t = {records[row].t}") in lines

    def test_nan_last_row_fails_from_csv(self, healthy_records, tmp_path):
        records = copy.deepcopy(healthy_records)
        for name in _RECORD_SCALARS:
            if name not in ("t", "bracket_violations"):  # the CSV reads an integer there
                setattr(records[-1], name, math.nan)
        records[-1].weighted[(0.5, 0)] = math.inf
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
        for e0 in (0.5, 600.0):  # alpha1 is about 1e-261 at e0 = 600
            out = io.StringIO()
            assert ns.main(["brackets", str(e0)], out=out) == 0
            a1, a2 = map(float, out.getvalue().split())
            assert (a1, a2) == ns.bracket_roots(e0)
            for root in (a1, a2):
                assert abs(root - math.log(root) - 1.0 - e0) <= 1e-12 * max(1.0, e0)

    def test_brackets_negative_is_usage_error(self):
        for e0 in ("-1", "nan", "inf"):
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

    def test_run_guards_each_observed_state_once(self, tmp_path, monkeypatch):
        # make_context guards the initial state and each fold the state of an
        # accepted step; a record reads its fold and guards nothing
        calls = []
        guard = ns.diagnostics.check_positive
        monkeypatch.setattr(ns.diagnostics, "check_positive",
                            lambda *args: calls.append(args) or guard(*args))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(EQ_CONFIG.replace("diag_every_steps = 5", "diag_every_steps = 1")
                       + f"outdir = {tmp_path / 'out'}\n")
        out = io.StringIO()
        assert ns.main(["run", str(cfg)], out=out) == 0
        steps = int(re.search(r"steps = (\d+)", out.getvalue()).group(1))
        assert steps > 1
        assert len(read_diagnostics(tmp_path / "out" / "diagnostics.csv")) == steps + 1
        assert len(calls) == steps + 1

    def test_a_zero_step_run_reports_no_last_step(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(EQ_CONFIG.replace("t_final = 0.05", "t_final = 0")
                       + f"outdir = {tmp_path / 'out'}\n")
        out = io.StringIO()
        assert ns.main(["run", str(cfg)], out=out) == 0
        lines = out.getvalue().splitlines()
        assert lines[0] == "run finished: t = 0.0, steps = 0, rhs_evals = 0, rkl2_steps = 0"
        assert re.search(r"steps = (\d+)", lines[0]).group(1) == "0"
        assert "PASS  lyapunov_step: no interval: a single record" in lines

    @pytest.mark.parametrize("n_cells, regime", [(64, "rkl2"), (16, "heun")])
    def test_run_finished_line_reports_the_step_control(self, tmp_path, n_cells, regime):
        # at N = 64 the last step, t_final - 14 tau = 0.035, is still longer
        # than the Heun step; at N = 16 (dx = 1) the reaction limit binds
        cfg = tmp_path / "run.cfg"
        cfg.write_text(EQ_CONFIG.replace("N = 64", f"N = {n_cells}")
                       .replace("t_final = 0.05", "t_final = 0.53")
                       + f"outdir = {tmp_path / 'out'}\n")
        out = io.StringIO()
        assert ns.main(["run", str(cfg)], out=out) == 0
        parsed = ns.parse_config(cfg.read_text())
        control = ns.run(parsed.initial_state(), parsed.params(), parsed.bc(), 0.53).control
        assert control.regime == regime
        assert (control.rkl2_steps > 0) == (regime == "rkl2")
        assert out.getvalue().splitlines()[0] == (
            f"run finished: t = 0.53, steps = {control.step_count}, "
            f"rhs_evals = {control.rhs_evals}, rkl2_steps = {control.rkl2_steps}, "
            f"last step {regime} in {control.stages} stages, "
            f"dt limited by {control.limit_kind}")

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
        data = (tmp_path / "out" / "mms_convergence.csv").read_bytes()
        assert b"\r" not in data
        assert out.getvalue() == data.decode()  # it prints exactly what it writes
        table = data.decode().splitlines()
        assert table[0] == ("N,err_v,err_u,err_theta,err_phi,"
                            "order_v,order_u,order_theta,order_phi")
        assert len(table) == 4

    @pytest.mark.parametrize("L", ["10", "10.5"])
    def test_mms_ignores_the_run_grid(self, tmp_path, L):
        # the unit-interval tiling binds `run` only; L = 10 does not divide N = 512
        cfg = tmp_path / "mms.cfg"
        cfg.write_text(f"L = {L}\noutdir = {tmp_path / 'out'}\n"
                       "mms_resolutions = 64,128,256\nmms_t_final = 0.05\n")
        out = io.StringIO()
        assert ns.main(["mms", str(cfg)], out=out) == 0, out.getvalue()
        assert (tmp_path / "out" / "mms_convergence.csv").exists()

    @pytest.mark.parametrize("lines, message", [
        ("phi_left = 1\nL = 8.5",
         "unit-interval averages need integer L, got 8.5"),
        ("L = 16.5", "unit-interval averages need integer L, got 16.5"),
        ("L = 16\nN = 40", "N = 40 cells do not tile 32 unit intervals; pick N divisible by 2L"),
    ], ids=["L = 8.5", "L = 16.5", "N = 40"])
    def test_untiled_run_grid_exits_2_without_output(self, tmp_path, lines, message):
        text = f"{lines}\nt_final = 0.01\noutdir = {tmp_path / 'out'}\n"
        ns.parse_config(text)  # a valid config: only `run` needs unit intervals
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        out = io.StringIO()
        assert ns.main(["run", str(cfg)], out=out) == 2
        assert out.getvalue() == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("lines, message", [
        ("N = 64\nN = 128\nL = 8", "duplicate key 'N' (line 2)"),
        ("weighted_diss = 0.5:0,0.5:0", "weighted_diss lists the pair 0.5:0 twice"),
    ], ids=["key", "pair"])
    def test_repeated_key_or_pair_exits_2_without_output(self, tmp_path, lines, message):
        # config.txt could record only one of the values, and the
        # diagnostics CSV only one column per pair
        text = f"{lines}\nt_final = 0.01\noutdir = {tmp_path / 'out'}\n"
        with pytest.raises(ns.ConfigError) as exc_info:
            ns.parse_config(text)
        assert str(exc_info.value) == message
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        out = io.StringIO()
        assert ns.main(["run", str(cfg)], out=out) == 2
        assert out.getvalue() == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_an_n_beyond_a_double_exits_2_without_output(self, tmp_path):
        n = "1" + "0" * 400
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"weighted_diss = 0.5:{n}\nt_final = 0.01\noutdir = {tmp_path / 'out'}\n")
        out = io.StringIO()
        assert ns.main(["run", str(cfg)], out=out) == 2
        assert out.getvalue() == ("error: weighted_diss n must be at most "
                                  f"1.7976931348623157e+308 in magnitude, got {n}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, line", [
        ("run", "N = 100000000000000000"),
        ("mms", "mms_resolutions = 100000000000000000, 200000000000000000, 400000000000000000"),
    ], ids=["run", "mms"])
    def test_a_grid_the_machine_cannot_allocate_exits_2(self, tmp_path, command, line):
        # numpy refuses the 711 PiB of the first grid's cell centres without
        # touching memory
        cfg = tmp_path / "big.cfg"
        cfg.write_text(f"{line}\noutdir = {tmp_path / 'out'}\n")
        out = io.StringIO()
        assert ns.main([command, str(cfg)], out=out) == 2
        assert out.getvalue().startswith("error: Unable to allocate 711. PiB")
        assert not (tmp_path / "out").exists()

    def test_inadmissible_initial_data_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"L = 16\nN = 64\nv_amp = -1.5\noutdir = {tmp_path / 'out'}\n")
        out = io.StringIO()
        assert ns.main(["run", str(cfg)], out=out) == 2
        assert out.getvalue().startswith("error: v = -")
        assert "at cell 29" in out.getvalue() and "positivity floor" in out.getvalue()
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("lines, message", [
        ("phi_width = nan", "phi_width must be finite and > 0, got nan"),
        ("theta_width = nan", "theta_width must be finite and > 0, got nan"),
        ("v_amp = 0.1\nv_center = inf", "v_center must be finite, got inf"),
        # finite, but the bump's ((x - c) / w)**2 overflows on [-L, L]
        ("L = 32\ntheta_amp = 0.1\ntheta_center = 1e200",
         "(L + |theta_center|) / theta_width = 5.000e+199 exceeds 1.341e+154, so the "
         "theta bump cannot be squared in a double; move theta_center nearer or widen "
         "theta_width"),
        ("L = 32\nu_amp = 0.1\nu_width = 1e-200",
         "(L + |u_center|) / u_width = 3.200e+201 exceeds 1.341e+154, so the u bump "
         "cannot be squared in a double; move u_center nearer or widen u_width"),
        # finite, but x / phi_width overflows on [-L, L]
        ("L = 32\nN = 64\nphi_width = 5e-324",
         "L / phi_width = 32.0 / 5e-324 overflows a double, so the phi profile cannot "
         "be built; widen phi_width"),
    ], ids=["phi_width", "theta_width", "v_center", "theta_center-far", "u_width-narrow",
            "phi_width-narrow"])
    def test_non_finite_initial_data_keyword_exits_2(self, tmp_path, lines, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{lines}\nt_final = 0.01\noutdir = {tmp_path / 'out'}\n")
        out = io.StringIO()
        assert ns.main(["run", str(cfg)], out=out) == 2  # a warning fails it too
        assert out.getvalue() == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_usage_errors_exit_2(self, tmp_path):
        assert ns.main(["run", str(tmp_path / "missing.cfg")], out=io.StringIO()) == 2
        assert ns.main(["audit", str(tmp_path / "missing.csv")], out=io.StringIO()) == 2
        assert ns.main(["frobnicate"], out=io.StringIO()) == 2
        bad = tmp_path / "bad.cfg"
        bad.write_text("betta = 1\n")
        assert ns.main(["run", str(bad)], out=io.StringIO()) == 2
        # convergence_study rejects the empty ladder before any grid is built
        bad.write_text(f"mms_resolutions =\noutdir = {tmp_path / 'out'}\n")
        out = io.StringIO()
        assert ns.main(["mms", str(bad)], out=out) == 2
        assert "need at least 3 resolutions" in out.getvalue()

    @pytest.mark.parametrize("line, name", [("epsilon = nan", "epsilon"),
                                            ("L = inf", "half_width"),
                                            ("t_final = nan", "t_final")])
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
        # the partial diagnostics time series is still written for post-mortems,
        # each state once
        records = read_diagnostics(tmp_path / "out" / "diagnostics.csv")
        times = [r.t for r in records]
        assert times and all(a < b for a, b in zip(times, times[1:])), times

    def test_aborted_mms_exits_1_without_table(self, tmp_path, monkeypatch):
        nan = nan_sources_after(0.005)
        monkeypatch.setattr(ns.mms.ManufacturedCase, "sources",
                            lambda self, x, t, step=None: nan(x, t))
        cfg = tmp_path / "mms.cfg"
        cfg.write_text("L = 8\nmms_resolutions = 8,16,32\nmms_t_final = 0.01\n"
                       f"outdir = {tmp_path / 'out'}\n")
        out = io.StringIO()
        assert ns.main(["mms", str(cfg)], out=out) == 1
        assert out.getvalue().startswith("ABORT: step ")
        assert "not finite" in out.getvalue()
        assert out.getvalue().endswith("(N = 8)\n")  # the first resolution aborts
        assert not (tmp_path / "out").exists()

    def test_non_finite_initial_data_keyword_makes_mms_exit_2(self, tmp_path):
        # mms never builds the interface state, but the config checks every key
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"phi_width = nan\noutdir = {tmp_path / 'out'}\n")
        out = io.StringIO()
        assert ns.main(["mms", str(cfg)], out=out) == 2
        assert out.getvalue() == "error: phi_width must be finite and > 0, got nan\n"
        assert not (tmp_path / "out").exists()

    def test_nan_on_final_step_exits_1_with_diagnostics(self, tmp_path, monkeypatch):
        run = cli_io.run

        def run_with_nan_at_the_end(initial, params, bc, t_final, **kwargs):
            # NaN past the start of the final step: an RKL2 step evaluates
            # no stage at its end time, so t_final itself is not enough
            starts = [initial.t]
            run(initial, params, bc, t_final, observer=lambda s: starts.append(s.t))
            return run(initial, params, bc, t_final,
                       sources=nan_sources_after(starts[-2]), **kwargs)

        monkeypatch.setattr(cli_io, "run", run_with_nan_at_the_end)
        cfg = tmp_path / "eq.cfg"
        cfg.write_text(EQ_CONFIG + f"outdir = {tmp_path / 'out'}\n")
        out = io.StringIO()
        assert ns.main(["run", str(cfg)], out=out) == 1
        assert "ABORT" in out.getvalue() and "not finite" in out.getvalue()
        records = read_diagnostics(tmp_path / "out" / "diagnostics.csv")
        # the dump is the last accepted state, one step short of t_final
        assert 0.0 < records[-1].t < 0.05
        assert all(math.isfinite(value) for r in records for _, value in _record_columns(r))


class TestReadme:
    def test_config_table_lists_every_key(self):
        """The first column of README's config table names each RunConfig
        field once, and nothing else."""
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = text.split("| key | default | meaning |\n| --- | --- | --- |\n", 1)[1]
        keys = []
        for line in table.splitlines():
            if not line.startswith("|"):
                break
            keys += re.findall(r"`([^`]+)`", line.split("|")[1])
        assert sorted(keys) == sorted(f.name for f in dataclasses.fields(ns.RunConfig))


def _python_m_nsac1d(argv, cwd=None, stdout=subprocess.PIPE, environ=os.environ):
    """`python -m nsac1d *argv` on this package, as a finished process, in
    the environment `environ`; standard error is captured, and so is
    standard output unless `stdout` says where it goes."""
    src = str(Path(ns.__file__).resolve().parents[1])
    env = dict(environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-m", "nsac1d", *argv], env=env, cwd=cwd,
                          stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60)


class TestModuleEntryPoint:
    @pytest.mark.parametrize("argv, code", [(["brackets", "0.5"], 0),
                                            (["no-such-command"], 2)])
    def test_python_m_nsac1d_exit_codes(self, argv, code):
        proc = _python_m_nsac1d(argv)
        assert proc.returncode == code, proc.stderr
        if code == 0:
            assert proc.stdout.split() == [f"{r:.17g}" for r in ns.bracket_roots(0.5)]

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_a_standard_output_closed_early_ends_quietly(self, tmp_path, unbuffered):
        # README's "Known limits" run, whose audit lines go to a pipe that no
        # one reads: a write fails at once unbuffered, at the flush on exit
        # buffered; once each ended in tracebacks
        (tmp_path / "run.cfg").write_text("L = 8\nN = 64\nt_final = 0.01\nphi_width = 0.5\n"
                                          "theta_amp = 0.1\ntheta_width = 1\noutdir = out\n")
        environ = {key: value for key, value in os.environ.items()
                   if key != "PYTHONUNBUFFERED"}
        if unbuffered:
            environ["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = _python_m_nsac1d(["run", "run.cfg"], cwd=tmp_path, stdout=write_end,
                                    environ=environ)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (cli_io.EXIT_BROKEN_PIPE, "")
        assert cli_io.EXIT_BROKEN_PIPE not in (0, 1, 2)
        assert (tmp_path / "out" / "diagnostics.csv").is_file()

    def test_an_overflowing_diffusion_limit_aborts_at_step_1(self, tmp_path):
        # theta^beta overflows, so the diffusion limit is 0: valid data on
        # which a run once never returned
        (tmp_path / "run.cfg").write_text(
            "L = 32\nN = 64\nt_final = 0.01\nbeta = 2\nphi_width = 1\n"
            "theta_amp = 1e200\ntheta_width = 1\noutdir = out\n")
        proc = _python_m_nsac1d(["run", "run.cfg"], cwd=tmp_path)
        assert (proc.returncode, proc.stderr) == (1, "")
        assert proc.stdout.startswith(
            "ABORT: step 1 failed at t = 0.000000e+00: step limits (diffusion, acoustic, "
            "reaction) = (0.000000e+00, ")

    def test_the_audit_of_the_overflowing_run_fails(self, tmp_path):
        # the run's one record holds v_diss = nan and wdiss_a0.5_n0 = inf,
        # which no asserted check reads
        (tmp_path / "run.cfg").write_text(
            "L = 32\nN = 64\nt_final = 0.01\nbeta = 2\nphi_width = 1\n"
            "theta_amp = 1e200\ntheta_width = 1\noutdir = out\n")
        proc = _python_m_nsac1d(["run", "run.cfg"], cwd=tmp_path)
        assert (proc.returncode, proc.stderr) == (1, "")
        assert "  v_diss = nan\n" in proc.stdout
        proc = _python_m_nsac1d(["audit", "out/diagnostics.csv"], cwd=tmp_path)
        assert (proc.returncode, proc.stderr) == (1, "")
        lines = proc.stdout.splitlines()
        assert lines[0] == ("FAIL  finite_values: 2 non-finite values in the record "
                            "columns, first v_diss at t = 0.0")
        assert lines[-1] == "AUDIT FAILED: finite_values"

    def test_a_step_of_too_many_rkl2_stages_aborts_at_step_1(self, tmp_path):
        # at beta = 1 nothing overflows, but the diffusion limit is about
        # 1e-200 against a step of about 1e-101: a run that once never returned
        (tmp_path / "run.cfg").write_text(
            "L = 32\nN = 64\nt_final = 0.01\nbeta = 1\nphi_width = 1\n"
            "theta_amp = 1e200\ntheta_width = 1\noutdir = out\n")
        proc = _python_m_nsac1d(["run", "run.cfg"], cwd=tmp_path)
        assert (proc.returncode, proc.stderr) == (1, "")
        assert proc.stdout.startswith(
            "ABORT: step 1 failed at t = 0.000000e+00: dt = 1.602514e-101 needs more than "
            "1000 RKL2 stages of the stage base 6.552539e-201\n")


class TestFloatFormatting:
    def test_round_trip_formatting(self):
        for value in (1.0, 0.1, 1e-300, math.pi, -2.5e17, 0.0):
            assert float(_fmt(value)) == value
