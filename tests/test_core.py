import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nsac1d as ns


class TestMakeGrid:
    def test_small_grid(self):
        grid = ns.make_grid(1, 8)
        assert grid.dx == 0.25
        assert grid.dx * grid.n_cells == 2.0
        assert grid.x[0] == -0.875
        assert grid.x[-1] == 0.875

    def test_default_scale(self):
        grid = ns.make_grid(16, 512)
        assert grid.dx == 0.0625
        assert grid.dx * grid.n_cells == 2 * grid.half_width

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            ns.make_grid(1, 7)

    def test_rejects_small_and_nonpositive(self):
        with pytest.raises(ValueError):
            ns.make_grid(1, 6)
        with pytest.raises(ValueError):
            ns.make_grid(0, 64)
        with pytest.raises(ValueError):
            ns.make_grid(-2, 64)

    @pytest.mark.parametrize("half_width", [math.inf, math.nan])
    def test_rejects_non_finite_half_width(self, half_width):
        with pytest.raises(ValueError, match="half_width must be finite"):
            ns.make_grid(half_width, 64)

    @pytest.mark.parametrize("half_width, n_cells, message", [
        (16, 7, "n_cells must be even and >= 8, got 7"),
        (16, 0, "n_cells must be even and >= 8, got 0"),
        (16, True, "n_cells must be an integer, got True"),
        (16, 64.5, "n_cells must be an integer, got 64.5"),
        (-1.0, 64, "half_width must be finite and > 0, got -1.0"),
        (math.nan, 64, "half_width must be finite and > 0, got nan"),
    ], ids=["odd", "zero", "bool", "float", "negative-width", "nan-width"])
    def test_direct_construction_checks_its_fields(self, half_width, n_cells, message):
        # make_grid applies the same rule and truncates nothing
        for build in (ns.MassGrid, ns.make_grid):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                build(half_width, n_cells)

    def test_numpy_integer_cells(self):
        grid = ns.MassGrid(16.0, np.int64(64))
        assert grid.dx == 0.5

    def test_spacing_and_ghosts_are_not_settable(self):
        # dx follows from L and N, and the kernel is written for two ghosts
        grid = ns.MassGrid(half_width=16.0, n_cells=64)
        assert grid.dx == ns.make_grid(16, 64).dx == 0.5
        assert grid.x[0] == -15.75
        with pytest.raises(TypeError):
            ns.MassGrid(half_width=16.0, n_cells=64, dx=1.0)
        with pytest.raises(TypeError):
            ns.MassGrid(half_width=16.0, n_cells=64, n_ghost=3)
        assert [f.name for f in dataclasses.fields(grid)] == ["half_width", "n_cells"]

    def test_ghost_layout(self):
        grid = ns.make_grid(2, 8)
        assert grid.n_ghost == 2
        assert grid.n_total == 12


class TestEquilibrium:
    def test_constant_state(self, params):
        grid = ns.make_grid(4, 16)
        bc = ns.BoundaryConfig(1.0, 1.0)
        eq = ns.interface_initial_state(grid, params, bc)
        assert eq.t == 0.0
        assert np.all(eq.v == 1.0) and np.all(eq.u == 0.0)
        assert np.all(eq.theta == 1.0) and np.all(eq.phi == 1.0)
        assert np.all(eq.G == 0.0)
        assert ns.lyapunov_energy(eq, params) == 0.0

    def test_negative_phase(self, params):
        grid = ns.make_grid(4, 16)
        eq = ns.interface_initial_state(grid, params, ns.BoundaryConfig(-1.0, -1.0))
        assert np.all(eq.phi == -1.0)
        assert ns.lyapunov_energy(eq, params) == 0.0

    def test_rhs_fixed_point(self, params):
        grid = ns.make_grid(8, 64)
        bc = ns.BoundaryConfig(-1.0, -1.0)
        eq = ns.interface_initial_state(grid, params, bc)
        du, dphi, dtheta, dv, dG = ns.semi_discrete_rhs(eq, params)[:, grid.interior]
        for arr in (dv, du, dtheta, dphi):
            assert np.all(arr == 0.0)
        # the G accumulator grows at the far-field rate 1, by design
        assert np.all(dG == 1.0)


class TestInterfaceInitialState:
    def test_zero_amplitude_is_equilibrium(self, params):
        # bit for bit the far-field constants, ghosts included, so no separate
        # equilibrium initial condition is needed
        for half_width, n_cells in ((16, 128), (8, 16), (16, 512), (4, 64)):
            grid = ns.make_grid(half_width, n_cells)
            for phi in (1.0, -1.0):
                state = ns.interface_initial_state(grid, params, ns.BoundaryConfig(phi, phi))
                rows = {"v": 1.0, "u": 0.0, "theta": 1.0, "phi": phi, "G": 0.0}
                expected = np.array([np.full(grid.n_total, rows[name]) for name in ns.core.FIELDS])
                assert state.data.tobytes() == expected.tobytes()

    def test_tanh_reaches_far_field(self, params):
        # L / w = 16 >= 15 keeps the profile within 1e-12 of +-1 at |x| = L
        grid = ns.make_grid(16, 256)
        bc = ns.BoundaryConfig(-1.0, 1.0)
        state = ns.interface_initial_state(grid, params, bc, phi_width=1.0)
        assert abs(state.interior("phi")[0] + 1.0) < 1e-12
        assert abs(state.interior("phi")[-1] - 1.0) < 1e-12

    def test_rejects_wide_tanh(self, params):
        grid = ns.make_grid(16, 256)
        bc = ns.BoundaryConfig(-1.0, 1.0)
        with pytest.raises(ValueError, match="phi"):
            ns.interface_initial_state(grid, params, bc, phi_width=1.2)

    def test_theta_bump_minimum(self, params):
        # independent evaluation of the documented closed form at the centers
        grid = ns.make_grid(16, 512)
        bc = ns.BoundaryConfig(1.0, 1.0)
        state = ns.interface_initial_state(grid, params, bc,
                                           theta_amp=-0.5, theta_width=2.0)
        x = -16 + (np.arange(512) + 0.5) * (32 / 512)
        expected = 1.0 - 0.5 * np.exp(-((x / 2.0) ** 2))
        assert state.interior("theta") == pytest.approx(expected, abs=0)
        assert state.interior("theta").min() == expected.min()
        # centers straddle the bump peak, so the minimum sits just above 0.5
        assert expected.min() == pytest.approx(0.5, abs=5e-4)

    def test_rejects_nonpositive_fields(self, params):
        grid = ns.make_grid(16, 256)
        bc = ns.BoundaryConfig(1.0, 1.0)
        with pytest.raises(ns.PositivityError):
            ns.interface_initial_state(grid, params, bc, theta_amp=-1.1)
        with pytest.raises(ns.PositivityError):
            ns.interface_initial_state(grid, params, bc, v_amp=-1.1)

    def test_rejects_bump_reaching_boundary(self, params):
        grid = ns.make_grid(16, 256)
        bc = ns.BoundaryConfig(1.0, 1.0)
        with pytest.raises(ValueError, match="far-field"):
            ns.interface_initial_state(grid, params, bc, v_amp=0.5, v_width=8.0)

    def test_state_from_fields_rejects_a_wrong_shape(self, params):
        grid = ns.make_grid(8, 64)
        for shape in ((4, 63), (3, 64), (5, 64), (64,), (4, 1, 64)):
            with pytest.raises(ValueError, match=rf"^rows must have shape \(4, 64\), "
                                                 rf"got {re.escape(str(shape))}$"):
                ns.state_from_fields(grid, ns.BoundaryConfig(1.0, 1.0), np.ones(shape), params)

    @pytest.mark.parametrize("keyword", [
        "phi_width", "v_amp", "v_width", "v_center", "u_amp", "u_width", "u_center",
        "theta_amp", "theta_width", "theta_center"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_keyword_is_named(self, params, keyword, value):
        grid = ns.make_grid(16, 256)
        bc = ns.BoundaryConfig(-1.0, 1.0)
        with pytest.raises(ValueError, match=f"^{keyword} must be finite"):
            ns.interface_initial_state(grid, params, bc, **{keyword: value})

    @settings(max_examples=25, deadline=None)
    @given(v_amp=st.floats(-0.5, 2.0), u_amp=st.floats(-1.0, 1.0),
           theta_amp=st.floats(-0.5, 2.0), width=st.floats(0.5, 2.5),
           center=st.floats(-3.0, 3.0))
    def test_constructed_states_satisfy_invariants(self, v_amp, u_amp, theta_amp,
                                                   width, center):
        params = ns.SimParams()
        grid = ns.make_grid(16, 64)
        bc = ns.BoundaryConfig(-1.0, 1.0)

        def build():
            return ns.interface_initial_state(
                grid, params, bc, phi_width=1.0,
                v_amp=v_amp, v_width=width, v_center=center,
                u_amp=u_amp, u_width=width, u_center=center,
                theta_amp=theta_amp, theta_width=width, theta_center=center)

        # wide bumps near the edge of the drawn range miss the far field at
        # |x| = L by more than 1e-12 and must be rejected
        gap = max(abs(v_amp), abs(u_amp), abs(theta_amp)) * math.exp(
            -(((grid.half_width - abs(center)) / width) ** 2))
        if gap > 1e-12:
            with pytest.raises(ValueError, match="far-field"):
                build()
            return
        state = build()
        assert state.t == 0.0
        assert np.all(state.interior("v") > params.positivity_floor)
        assert np.all(state.interior("theta") > params.positivity_floor)
        assert np.all(np.abs(state.interior("phi")) <= 1.0)
        assert np.all(state.G == 0.0)
        g = grid.n_ghost
        for arr, val in ((state.v, 1.0), (state.u, 0.0), (state.theta, 1.0)):
            assert np.all(arr[:g] == val) and np.all(arr[-g:] == val)
        assert np.all(state.phi[:g] == -1.0) and np.all(state.phi[-g:] == 1.0)


class TestApplyBc:
    def test_ghost_G_tracks_time(self, params):
        grid = ns.make_grid(4, 16)
        bc = ns.BoundaryConfig(1.0, 1.0)
        state = ns.interface_initial_state(grid, params, bc)
        state.t = 0.75
        ns.apply_bc(state, bc)
        assert np.all(state.G[:2] == 0.75) and np.all(state.G[-2:] == 0.75)


class TestPhaseNegationSymmetry:
    def test_step_commutes_with_negation(self, params):
        # the system is odd in phi: negate, step, negate == step
        grid = ns.make_grid(16, 64)
        bc = ns.BoundaryConfig(-1.0, 1.0)
        state = ns.interface_initial_state(
            grid, params, bc, phi_width=1.0,
            v_amp=0.1, v_width=2.0, v_center=-2.0,
            u_amp=0.1, u_width=2.0, u_center=2.0,
            theta_amp=0.1, theta_width=2.0, theta_center=0.0)
        neg = state.copy()
        neg.phi = -neg.phi
        dt = 0.5 * params.cfl * min(ns.step_limits(state, params))
        fwd = ns.step(state, params, dt=dt)
        swapped = ns.step(neg, params, dt=dt)
        assert np.array_equal(swapped.phi, -fwd.phi)
        for name in ("v", "u", "theta", "G"):
            assert np.array_equal(getattr(swapped, name), getattr(fwd, name))


class TestSimParams:
    def test_defaults_are_normalized(self):
        # the system is the normalized one: viscosity, gas constant, heat
        # capacity and conductivity prefactor are 1 and not parameters
        removed = {"nu", "gas_R", "c_v", "kappa_tilde"}
        assert [f.name for f in dataclasses.fields(ns.SimParams)] == [
            "epsilon", "beta", "cfl", "positivity_floor"]
        assert not removed & {f.name for f in dataclasses.fields(ns.RunConfig)}

    @pytest.mark.parametrize("kwargs", [
        dict(epsilon=0.0), dict(beta=-1.0), dict(cfl=0.0), dict(cfl=1.0),
        dict(positivity_floor=0.0),
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ns.SimParams(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["epsilon", "beta", "positivity_floor"])
    def test_rejects_non_finite_values(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ns.SimParams(**{name: value})


class TestBoundaryConfig:
    def test_rejects_non_unit_phases(self):
        with pytest.raises(ValueError):
            ns.BoundaryConfig(0.5, 1.0)
        with pytest.raises(ValueError):
            ns.BoundaryConfig(1.0, 0.0)
