import itertools
import math

import numpy as np
import pytest

import nsac1d as ns
from conftest import nan_sources_after, tracked_run


class TestStableDt:
    def test_equilibrium_formula(self, params):
        grid = ns.make_grid(16, 512)
        eq = ns.equilibrium_state(grid, ns.BoundaryConfig(1.0, 1.0))
        expected = 0.4 * min(grid.dx**2 / 6.0, grid.dx / math.sqrt(2.0), 1.0 / 3.0)
        assert ns.stable_dt(eq, params) == pytest.approx(expected, rel=1e-15)

    def test_limit_kinds(self, params):
        grid = ns.make_grid(16, 512)
        eq = ns.equilibrium_state(grid, ns.BoundaryConfig(1.0, 1.0))
        diffusion, acoustic, reaction = ns.step_limits(eq, params)
        assert diffusion == pytest.approx(grid.dx**2 / 6.0, rel=1e-15)
        assert acoustic == pytest.approx(grid.dx / math.sqrt(2.0), rel=1e-15)
        assert reaction == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_halving_dx_quarters_diffusion_limit(self, params):
        bc = ns.BoundaryConfig(1.0, 1.0)
        d1 = ns.step_limits(ns.equilibrium_state(ns.make_grid(16, 256), bc), params)[0]
        d2 = ns.step_limits(ns.equilibrium_state(ns.make_grid(16, 512), bc), params)[0]
        assert d1 / d2 == pytest.approx(4.0, rel=1e-14)

    def test_hot_state_halves_diffusion_limit(self, params):
        # theta x4 with beta = 1: diffusivity sum goes 3 -> 6 exactly
        grid = ns.make_grid(16, 512)
        bc = ns.BoundaryConfig(1.0, 1.0)
        base = ns.equilibrium_state(grid, bc)
        hot = ns.equilibrium_state(grid, bc)
        hot.theta[:] = 4.0
        assert (ns.step_limits(base, params)[0] / ns.step_limits(hot, params)[0]
                == pytest.approx(2.0, rel=1e-14))

    def test_rejects_non_finite(self, params):
        grid = ns.make_grid(4, 16)
        eq = ns.equilibrium_state(grid, ns.BoundaryConfig(1.0, 1.0))
        eq.u[grid.n_ghost + 3] = np.nan
        with pytest.raises(ns.PositivityError, match="not finite") as exc_info:
            ns.stable_dt(eq, params)
        assert (exc_info.value.field, exc_info.value.cell) == ("u", 3)


class TestStep:
    def test_equilibrium_fixed_point(self, params):
        grid = ns.make_grid(8, 64)
        bc = ns.BoundaryConfig(-1.0, -1.0)
        eq = ns.equilibrium_state(grid, bc)
        out = ns.step(eq, params, bc, ns.stable_dt(eq, params))
        dt = out.t
        for name in ("v", "u", "theta", "phi"):
            assert np.array_equal(getattr(out, name), getattr(eq, name))
        assert out.G[grid.interior] == pytest.approx(dt, abs=0)

    def test_temporal_order(self, params):
        # Richardson ratio over a fixed horizon with dt, dt/2, dt/4
        grid = ns.make_grid(16, 64)
        bc = ns.BoundaryConfig(-1.0, 1.0)

        def make():
            return ns.interface_initial_state(
                grid, params, bc, phi_width=1.0,
                v_amp=0.1, v_width=2.0, v_center=-2.0,
                u_amp=0.1, u_width=2.0, u_center=2.0,
                theta_amp=0.1, theta_width=2.0, theta_center=0.0)

        horizon = 0.04
        solutions = []
        for n_steps in (8, 16, 32):
            s = make()
            for _ in range(n_steps):
                s = ns.step(s, params, bc, dt=horizon / n_steps)
            solutions.append(np.concatenate([s.interior(k)
                                             for k in ("v", "u", "theta", "phi")]))
        d1 = np.linalg.norm(solutions[0] - solutions[1])
        d2 = np.linalg.norm(solutions[1] - solutions[2])
        assert math.log2(d1 / d2) >= 1.9

    def test_rejects_nonpositive_dt(self, params):
        grid = ns.make_grid(4, 16)
        bc = ns.BoundaryConfig(1.0, 1.0)
        with pytest.raises(ValueError):
            ns.step(ns.equilibrium_state(grid, bc), params, bc, dt=0.0)

    def test_phase_stays_in_range(self, params):
        grid = ns.make_grid(16, 256)
        bc = ns.BoundaryConfig(-1.0, 1.0)
        state = ns.interface_initial_state(
            grid, params, bc, phi_width=1.0,
            u_amp=0.3, u_width=1.5, u_center=2.0)
        for _ in range(50):
            state = ns.step(state, params, bc, ns.stable_dt(state, params))
            phi = state.interior("phi")
            assert phi.min() >= -1.0 - 1e-8 and phi.max() <= 1.0 + 1e-8


class TestRun:
    def test_zero_steps(self, params):
        grid = ns.make_grid(4, 16)
        bc = ns.BoundaryConfig(1.0, 1.0)
        eq = ns.equilibrium_state(grid, bc)
        result = ns.run(eq, params, bc, 0.0)
        assert result.control.step_count == 0
        assert result.state is eq

    def test_rejects_past_t_final(self, params):
        grid = ns.make_grid(4, 16)
        bc = ns.BoundaryConfig(1.0, 1.0)
        eq = ns.equilibrium_state(grid, bc)
        eq.t = 1.0
        with pytest.raises(ValueError):
            ns.run(eq, params, bc, 0.5)

    def test_equilibrium_step_count(self, params):
        grid = ns.make_grid(16, 128)
        bc = ns.BoundaryConfig(1.0, 1.0)
        eq = ns.equilibrium_state(grid, bc)
        dt = ns.stable_dt(eq, params)
        result = ns.run(eq, params, bc, 1.0)
        assert result.control.step_count == math.ceil(1.0 / dt)
        assert result.state.t == 1.0  # exact landing
        for name in ("v", "u", "theta", "phi"):
            assert np.array_equal(getattr(result.state, name), getattr(eq, name))

    def test_final_step_truncates_exactly(self, params):
        grid = ns.make_grid(8, 64)
        bc = ns.BoundaryConfig(-1.0, 1.0)
        state = ns.interface_initial_state(grid, params, bc, phi_width=0.5)
        result = ns.run(state, params, bc, 0.0123)
        assert result.state.t == 0.0123

    def test_dt_cap_binds(self, params):
        grid = ns.make_grid(8, 64)
        bc = ns.BoundaryConfig(1.0, 1.0)
        eq = ns.equilibrium_state(grid, bc)
        cap = 0.25 * ns.stable_dt(eq, params)
        result = ns.run(eq, params, bc, 20 * cap, dt_cap=cap)
        assert result.control.step_count == 20

    def test_observer_cadence(self, params):
        grid = ns.make_grid(8, 64)
        bc = ns.BoundaryConfig(1.0, 1.0)
        eq = ns.equilibrium_state(grid, bc)
        seen = []
        result = ns.run(eq, params, bc, 0.01, observer=lambda s: seen.append(s.t))
        # the initial state, then every accepted step; the last lands on t_final
        assert len(seen) == result.control.step_count + 1
        assert seen[0] == 0.0
        assert all(a < b for a, b in zip(seen, seen[1:]))
        assert seen[-1] == 0.01

    def test_lyapunov_and_mass_per_step(self, params, flagship_ic):
        p, grid, bc, state = flagship_ic(512, half_width=32)
        tr = tracked_run(p, grid, bc, state, 0.25)
        assert tr.max_mass_rel <= 1e-12
        assert tr.max_lyap_excess <= 1e-3 * tr.e0

    def test_G_strictly_increasing(self, params):
        grid = ns.make_grid(16, 64)
        bc = ns.BoundaryConfig(-1.0, 1.0)
        state = ns.interface_initial_state(
            grid, params, bc, phi_width=1.0, theta_amp=-0.3, theta_width=2.0)
        prev = state.interior("G").copy()
        for _ in range(20):
            state = ns.step(state, params, bc, ns.stable_dt(state, params))
            cur = state.interior("G")
            assert np.all(cur > prev)
            prev = cur.copy()

    def test_abort_names_cell_and_field(self, params):
        # deliberately under-resolved, large-amplitude data must abort loudly
        grid = ns.make_grid(16, 16)
        bc = ns.BoundaryConfig(-1.0, 1.0)
        state = ns.interface_initial_state(
            grid, params, bc, phi_width=1.0,
            v_amp=-0.99, v_width=2.0, v_center=0.0,
            u_amp=12.0, u_width=2.0, u_center=-3.0,
            theta_amp=-0.95, theta_width=2.0, theta_center=0.0)
        with pytest.raises(ns.SimulationAbort) as exc_info:
            ns.run(state, params, bc, 1.0)
        abort = exc_info.value
        cause = abort.__cause__
        assert isinstance(cause, ns.PositivityError)
        assert cause.field in ("v", "theta")
        assert isinstance(cause.cell, int)
        # the attached state is the last accepted one, still valid
        assert abort.state.interior("v").min() > params.positivity_floor
        assert abort.state.interior("theta").min() > params.positivity_floor


class TestNonFiniteAbort:
    def test_nan_on_final_step_aborts(self, params):
        grid = ns.make_grid(8, 32)
        bc = ns.BoundaryConfig(1.0, 1.0)
        eq = ns.equilibrium_state(grid, bc)
        cap = 0.25 * ns.stable_dt(eq, params)
        seen = []
        with pytest.raises(ns.SimulationAbort) as exc_info:
            ns.run(eq, params, bc, 10 * cap, dt_cap=cap, observer=seen.append,
                   sources=nan_sources_after(9.5 * cap))
        abort = exc_info.value
        assert isinstance(abort.__cause__, ns.PositivityError)
        assert "not finite" in str(abort)
        assert abort.step_count == 9
        assert abort.state is seen[-1]
        assert abort.state.t == pytest.approx(9 * cap, rel=1e-12)
        assert np.all(np.isfinite(abort.state.data))


class TestAliasing:
    def test_copy_shares_no_memory(self, flagship_ic):
        _, _, _, state = flagship_ic(64)
        dup = state.copy()
        assert not np.shares_memory(dup.data, state.data)
        dup.v[:] = 7.0
        dup.t = 3.0
        assert np.all(state.v != 7.0) and state.t == 0.0

    def test_later_steps_change_no_earlier_state(self, flagship_ic):
        params, grid, bc, initial = flagship_ic(64)
        t_final = 0.3
        seen = []

        def observer(state):
            seen.append((state, state.t, state.data.copy()))

        def unchanged(state, t, data):
            return state.t == t and np.array_equal(state.data, data)

        pristine = (initial, initial.t, initial.data.copy())
        result = ns.run(initial, params, bc, t_final, observer=observer)
        final = (result.state, result.state.t, result.state.data.copy())
        # continuing from the result and aborting on its final step
        with pytest.raises(ns.SimulationAbort) as exc_info:
            ns.run(result.state, params, bc, 2 * t_final, observer=observer,
                   sources=nan_sources_after(2 * t_final - 1e-9))
        abort = exc_info.value
        assert abort.state is seen[-1][0]
        assert len(seen) > 5
        for entry in [pristine, final] + seen:
            assert unchanged(*entry)
        # every step wrote a fresh array: no buffer is reused
        states = {id(state): state for state, _, _ in seen}.values()
        for a, b in itertools.combinations(states, 2):
            assert not np.shares_memory(a.data, b.data)
