import dataclasses
import itertools
import math

import numpy as np
import pytest

import nsac1d as ns
from conftest import nan_sources_after, recorded_run


def _loop_diffusion_limit(state, params):
    """dx^2 / (2 max row bound), one cell and one stencil row at a time."""
    g, n, dx = state.grid.n_ghost, state.grid.n_cells, state.grid.dx
    v, theta = state.v, state.theta
    eps, beta = params.epsilon, params.beta

    def row(coef, i):
        left = 0.5 * (coef[i - 1] + coef[i])
        right = 0.5 * (coef[i] + coef[i + 1])
        return 0.5 * (left + right)

    rows = {"u": [], "theta": [], "phi": []}
    inv_v = [1.0 / x for x in v]
    cond = [t**beta / x for t, x in zip(theta, v)]
    for i in range(g, g + n):
        rows["u"].append(row(inv_v, i))
        rows["theta"].append(row(cond, i))
        rows["phi"].append(eps * v[i] * row(inv_v, i))
    largest = {name: max(values) for name, values in rows.items()}
    binding = max(largest, key=largest.get)
    return dx**2 / (2.0 * largest[binding]), binding


class TestStableDt:
    def test_equilibrium_formula(self, params):
        grid = ns.make_grid(16, 512)
        eq = ns.equilibrium_state(grid, ns.BoundaryConfig(1.0, 1.0))
        expected = 0.4 * min(grid.dx**2 / 2.0, grid.dx / math.sqrt(2.0), 1.0 / 3.0)
        assert ns.stable_dt(eq, params) == pytest.approx(expected, rel=1e-15)

    def test_limit_kinds(self, params):
        grid = ns.make_grid(16, 512)
        eq = ns.equilibrium_state(grid, ns.BoundaryConfig(1.0, 1.0))
        diffusion, acoustic, reaction = ns.step_limits(eq, params)
        assert diffusion == pytest.approx(grid.dx**2 / 2.0, rel=1e-15)
        assert acoustic == pytest.approx(grid.dx / math.sqrt(2.0), rel=1e-15)
        assert reaction == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_large_epsilon_phase_row_binds(self):
        # at equilibrium the rows are 1 (u), 1 (theta) and eps (phi)
        params = ns.SimParams(epsilon=2.0)
        grid = ns.make_grid(16, 512)
        eq = ns.equilibrium_state(grid, ns.BoundaryConfig(1.0, 1.0))
        diffusion, _, reaction = ns.step_limits(eq, params)
        assert diffusion == pytest.approx(grid.dx**2 / 4.0, rel=1e-15)
        assert reaction == pytest.approx(1.0, rel=1e-15)

    def test_halving_dx_quarters_diffusion_limit(self, params):
        bc = ns.BoundaryConfig(1.0, 1.0)
        d1 = ns.step_limits(ns.equilibrium_state(ns.make_grid(16, 256), bc), params)[0]
        d2 = ns.step_limits(ns.equilibrium_state(ns.make_grid(16, 512), bc), params)[0]
        assert d1 / d2 == pytest.approx(4.0, rel=1e-14)

    def test_hot_state_quarters_diffusion_limit(self, params):
        # theta x4 with beta = 1: the theta row goes 1 -> 4 and binds
        grid = ns.make_grid(16, 512)
        bc = ns.BoundaryConfig(1.0, 1.0)
        base = ns.equilibrium_state(grid, bc)
        hot = ns.equilibrium_state(grid, bc)
        hot.theta[:] = 4.0
        assert (ns.step_limits(base, params)[0] / ns.step_limits(hot, params)[0]
                == pytest.approx(4.0, rel=1e-14))

    @pytest.mark.parametrize("epsilon, beta, theta_amp, binding", [
        (1.0, 1.0, -0.1, "u"),
        (2.0, 1.0, 0.1, "phi"),
        (1.0, 3.0, 0.25, "theta"),
    ])
    def test_non_uniform_state_matches_a_loop(self, epsilon, beta, theta_amp, binding):
        params = ns.SimParams(epsilon=epsilon, beta=beta)
        grid = ns.make_grid(16, 128)
        bc = ns.BoundaryConfig(-1.0, 1.0)
        state = ns.interface_initial_state(
            grid, params, bc, phi_width=1.0,
            v_amp=-0.2, v_width=1.5, v_center=-2.0,
            u_amp=0.25, u_width=1.5, u_center=2.0,
            theta_amp=theta_amp, theta_width=1.5, theta_center=0.0)
        expected, row = _loop_diffusion_limit(state, params)
        assert row == binding
        assert ns.step_limits(state, params)[0] == pytest.approx(expected, rel=1e-14)

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

    def test_rejects_nan_t_final(self, params):
        eq = ns.equilibrium_state(ns.make_grid(4, 16), ns.BoundaryConfig(1.0, 1.0))
        with pytest.raises(ValueError, match="must be finite"):
            ns.run(eq, params, ns.BoundaryConfig(1.0, 1.0), math.nan)

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
        assert result.control.limit_kind == "cap"

    def test_observer_cadence(self, params):
        grid = ns.make_grid(8, 64)
        bc = ns.BoundaryConfig(1.0, 1.0)
        eq = ns.equilibrium_state(grid, bc)
        seen = []
        result = ns.run(eq, params, bc, 0.01, observer=lambda s: seen.append(s.t))
        # every accepted step, not the initial state; the last lands on t_final
        assert len(seen) == result.control.step_count
        assert seen[0] > 0.0
        assert all(a < b for a, b in zip(seen, seen[1:]))
        assert seen[-1] == 0.01

    def test_lyapunov_and_mass_per_step(self, params, flagship_ic):
        p, grid, bc, state = flagship_ic(512, half_width=32)
        _, records = recorded_run(p, bc, state, 0.25)
        assert ns.audit_records(records)[0] == []  # mass_conservation among them
        # stricter than lyapunov_global, which adds a roundoff allowance
        assert max(r.e_lyap + r.diss_cum - r.e0 for r in records) <= 1e-3 * records[0].e0

    def test_cfl_095_keeps_the_audit(self, flagship_ic):
        # the default cfl of 0.4 keeps more than twice this margin
        p, grid, bc, state = flagship_ic(512, half_width=32)
        p = dataclasses.replace(p, cfl=0.95)
        result, records = recorded_run(p, bc, state, 1.0)
        assert result.control.limit_kind == "diffusion"
        assert ns.audit_records(records)[0] == []

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


class TestSourcesOncePerStageTime:
    """run evaluates a sources hook once per distinct stage time: the second
    Heun stage of one step is at the first stage time of the next."""

    def test_one_call_per_step_plus_the_first(self, params):
        grid = ns.make_grid(8, 32)
        bc = ns.BoundaryConfig(1.0, 1.0)
        eq = ns.equilibrium_state(grid, bc)
        cap = 0.25 * ns.stable_dt(eq, params)
        times, seen = [], []

        def counting(x, t):
            times.append(t)
            return (np.zeros_like(x),) * 4

        result = ns.run(eq, params, bc, 7.5 * cap, dt_cap=cap, observer=seen.append,
                        sources=counting)
        steps = result.control.step_count
        assert steps == 8
        assert len(times) == steps + 1
        assert times[0] == eq.t
        assert all(a < b for a, b in zip(times, times[1:])), times
        # each step after the first starts where the last one's second stage was
        assert times[1:steps] == [s.t for s in seen[:steps - 1]]

    def test_same_fields_as_steps_that_evaluate_both_stages(self, params, monkeypatch):
        case = ns.ManufacturedCase(params, 8, amplitude=0.2)
        grid = ns.make_grid(8, 32)
        initial = ns.state_from_fields(grid, case.bc, *case.fields(grid.x, 0.0), params)
        step, dts = ns.integrator.step, []

        def recording_step(state, params, bc, dt, sources=None):
            dts.append(dt)
            return step(state, params, bc, dt, sources=sources)

        monkeypatch.setattr(ns.integrator, "step", recording_step)
        result = ns.run(initial, params, case.bc, 0.05,
                        dt_cap=ns.mms.DT_CAP_FACTOR * grid.dx**2, sources=case.sources)
        monkeypatch.undo()

        calls = []

        def raw(x, t):
            calls.append(t)
            return case.sources(x, t)

        state = initial
        for dt in dts:
            state = ns.step(state, params, case.bc, dt, sources=raw)
        assert len(dts) == result.control.step_count > 1
        assert len(calls) == 2 * len(dts)  # step alone evaluates both stages
        assert np.array_equal(result.state.data, state.data)


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
        assert len(seen) == result.control.step_count + abort.step_count
        for entry in [pristine, final] + seen:
            assert unchanged(*entry)
        # every step wrote a fresh array: no buffer is reused
        states = {id(state): state for state, _, _ in seen}.values()
        for a, b in itertools.combinations(states, 2):
            assert not np.shares_memory(a.data, b.data)
