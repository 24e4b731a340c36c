import dataclasses
import itertools
import math
import re
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nsac1d as ns
from conftest import amplification, nan_sources_after, recorded_run, temporal_orders


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


def _limits_by_expression(state, params):
    """step_limits as one numpy expression per limit, each reduced on its own,
    /v a product with the 1/v row: the reference for the one (5, N)
    reduction."""
    grid = state.grid
    s = grid.interior
    phi, theta, v = state.data[1:4, s]
    eps = params.epsilon
    coef = np.empty((2, grid.n_total))
    coef[0] = 1.0 / state.v
    coef[1] = state.theta**params.beta * coef[0]
    a = ns.face_average(coef)
    rows = 0.5 * (a[:, s.start - 1:s.stop - 1] + a[:, s])
    largest = max(np.max(rows), eps * np.max(v * rows[0]))
    diffusion = grid.dx**2 / (2.0 * largest)
    acoustic = grid.dx / np.max(np.sqrt(2.0 * theta) * coef[0, s])
    reaction = eps / (1.0 + np.max(np.abs(3.0 * phi**2 - 1.0) * v) / eps)
    return float(diffusion), float(acoustic), float(reaction)


def _within(seconds, call, *args):
    """call(*args), or TimeoutError once `seconds` have passed: a loop that
    never ends fails the test instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return call(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _increments_by_expression(y0, t0, dt, rate, stages):
    """integrator.increments with every sum a new array and nothing written in
    place: the bit-for-bit reference."""
    first, *rest = (ns.integrator.HEUN if stages == 2
                    else ns.integrator.rkl2_coefficients(stages))
    f0 = rate(y0, t0)
    older, last = 0.0, (dt * first[2]) * f0
    for mu, nu, mu_t, gamma_t, c in rest:
        inc = mu * last
        if nu:
            inc = inc + nu * older
        inc = inc + (dt * mu_t) * rate(y0 + last, t0 + c * dt)
        if gamma_t:
            inc = inc + (dt * gamma_t) * f0
        older, last = last, inc
    return last


class TestStableDt:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([8, 16, 64]),
           epsilon=st.floats(0.01, 4.0), beta=st.floats(0.1, 4.0))
    def test_equals_the_expressions_bit_for_bit(self, seed, n, epsilon, beta):
        rng = np.random.default_rng(seed)
        params = ns.SimParams(epsilon=epsilon, beta=beta)
        state = ns.state_from_fields(
            ns.make_grid(4, n), ns.BoundaryConfig(-1.0, 1.0),
            [rng.normal(0.0, 2.0, n), rng.uniform(-1.5, 1.5, n), rng.uniform(0.05, 5.0, n),
             rng.uniform(0.05, 5.0, n)], params)
        limits = ns.step_limits(state, params)
        assert all(type(limit) is float for limit in limits)
        assert limits == _limits_by_expression(state, params)

    @pytest.mark.parametrize("limits", itertools.product((0.1, 0.2), repeat=3))
    def test_limit_kind_on_a_tie_is_the_first(self, monkeypatch, params, limits):
        grid = ns.make_grid(4, 16)
        bc = ns.BoundaryConfig(1.0, 1.0)
        eq = ns.interface_initial_state(grid, params, bc)
        monkeypatch.setattr(ns.integrator, "step_limits", lambda state, p: limits)
        result = ns.run(eq, params, bc, 1e-3)
        assert result.control.limit_kind == ns.integrator.LIMIT_KINDS[int(np.argmin(limits))]

    def test_equilibrium_formula(self, params):
        grid = ns.make_grid(16, 512)
        eq = ns.interface_initial_state(grid, params, ns.BoundaryConfig(1.0, 1.0))
        expected = 0.4 * min(grid.dx**2 / 2.0, grid.dx / math.sqrt(2.0), 1.0 / 3.0)
        assert params.cfl * min(ns.step_limits(eq, params)) == pytest.approx(expected, rel=1e-15)

    def test_limit_kinds(self, params):
        grid = ns.make_grid(16, 512)
        eq = ns.interface_initial_state(grid, params, ns.BoundaryConfig(1.0, 1.0))
        diffusion, acoustic, reaction = ns.step_limits(eq, params)
        assert diffusion == pytest.approx(grid.dx**2 / 2.0, rel=1e-15)
        assert acoustic == pytest.approx(grid.dx / math.sqrt(2.0), rel=1e-15)
        assert reaction == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_large_epsilon_phase_row_binds(self):
        # at equilibrium the rows are 1 (u), 1 (theta) and eps (phi)
        params = ns.SimParams(epsilon=2.0)
        grid = ns.make_grid(16, 512)
        eq = ns.interface_initial_state(grid, params, ns.BoundaryConfig(1.0, 1.0))
        diffusion, _, reaction = ns.step_limits(eq, params)
        assert diffusion == pytest.approx(grid.dx**2 / 4.0, rel=1e-15)
        assert reaction == pytest.approx(1.0, rel=1e-15)

    def test_halving_dx_quarters_diffusion_limit(self, params):
        bc = ns.BoundaryConfig(1.0, 1.0)
        d1, d2 = (ns.step_limits(ns.interface_initial_state(ns.make_grid(16, n), params, bc),
                                 params)[0] for n in (256, 512))
        assert d1 / d2 == pytest.approx(4.0, rel=1e-14)

    def test_hot_state_quarters_diffusion_limit(self, params):
        # theta x4 with beta = 1: the theta row goes 1 -> 4 and binds
        grid = ns.make_grid(16, 512)
        bc = ns.BoundaryConfig(1.0, 1.0)
        base = ns.interface_initial_state(grid, params, bc)
        hot = ns.interface_initial_state(grid, params, bc)
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

    def test_writes_nothing_to_its_input_and_keeps_nothing(self, params):
        # ghosts off the far field, G's too; B on the grid of A, computed in
        # between, leaves A's limits as they were
        grid = ns.make_grid(4, 16)
        bc = ns.BoundaryConfig(-1.0, 1.0)
        a = ns.interface_initial_state(grid, params, bc, phi_width=0.25, u_amp=0.2,
                                       u_width=0.5)
        b = a.copy()
        b.data[2:4] *= [[1.5], [0.8]]
        g = grid.n_ghost
        a.data[:, :g] += 0.05
        a.data[:, -g:] += 0.1
        before = a.data.tobytes()
        limits = ns.step_limits(a, params)
        assert a.data.tobytes() == before
        assert ns.step_limits(b, params) == _limits_by_expression(b, params) != limits
        assert ns.step_limits(a, params) == limits == _limits_by_expression(a, params)

    def test_rejects_non_finite(self, params):
        grid = ns.make_grid(4, 16)
        eq = ns.interface_initial_state(grid, params, ns.BoundaryConfig(1.0, 1.0))
        eq.u[grid.n_ghost + 3] = np.nan
        with pytest.raises(ns.PositivityError, match="not finite") as exc_info:
            params.cfl * min(ns.step_limits(eq, params))
        assert (exc_info.value.field, exc_info.value.cell) == ("u", 3)


class TestStep:
    def test_equilibrium_fixed_point(self, params):
        grid = ns.make_grid(8, 64)
        bc = ns.BoundaryConfig(-1.0, -1.0)
        eq = ns.interface_initial_state(grid, params, bc)
        out = ns.step(eq, params, params.cfl * min(ns.step_limits(eq, params)))
        dt = out.t
        for name in ("v", "u", "theta", "phi"):
            assert np.array_equal(getattr(out, name), getattr(eq, name))
        assert out.G[grid.interior] == pytest.approx(dt, abs=0)

    @pytest.mark.parametrize("stages", [3, 4, 9])
    def test_equilibrium_fixed_point_rkl2(self, params, stages):
        # the longest step the stages keep stable; the increments from the
        # state are zero in every field but G, so the fields stay bit for bit
        grid = ns.make_grid(8, 64)
        bc = ns.BoundaryConfig(-1.0, -1.0)
        eq = ns.interface_initial_state(grid, params, bc)
        heun = params.cfl * min(ns.step_limits(eq, params))
        dt = heun * (stages * stages + stages - 2) / 4
        assert ns.integrator.rkl2_stages(dt, heun) == stages
        out = ns.step(eq, params, dt, stages=stages)
        assert out.t == dt
        for name in ("v", "u", "theta", "phi"):
            assert np.array_equal(getattr(out, name), getattr(eq, name))
        # G grows at the rate p_eff = 1, which the stage times integrate exactly
        assert out.G[grid.interior] == pytest.approx(dt, rel=1e-14)

    @pytest.mark.parametrize("hooked", [False, True])
    @pytest.mark.parametrize("stages", [2, 5])
    def test_writes_nothing_to_its_input_and_carries_its_ghosts(self, flagship_ic, stages,
                                                                hooked):
        # ghosts off the far field are read as they stand and carried through
        # the stages (with sources too, whose ghost columns are zero); only G's
        # are written, with the output's t.  An input on the far field gives
        # an output on it
        params, grid, bc, state = flagship_ic(64)
        dt = params.cfl * min(ns.step_limits(state, params))
        sources = ns.ManufacturedCase(params, grid.half_width).sources if hooked else None
        g = grid.n_ghost
        off = state.copy()
        off.data[:, :g] += 0.05
        off.data[:, -g:] += 0.1
        given = off.data.tobytes()
        out = ns.step(off, params, dt, sources, stages)
        assert off.data.tobytes() == given
        for ghosts in (slice(None, g), slice(-g, None)):
            assert np.array_equal(out.data[:4, ghosts], off.data[:4, ghosts])
            assert np.all(out.G[ghosts] == out.t)
        out = ns.step(state, params, dt, sources, stages)
        assert np.array_equal(out.data, ns.apply_bc(out.copy(), bc).data)

    def test_two_stages_are_the_textbook_heun_step(self, flagship_ic):
        # Y0 + (D1 / 2 + (dt / 2) F(Y1)) rounds otherwise than
        # (Y0 + Y1 + dt F(Y1)) / 2, by at most an ulp of each row's max
        params, grid, bc, state = flagship_ic(128)
        dt = params.cfl * min(ns.step_limits(state, params))
        out = ns.step(state.copy(), params, dt, stages=2)
        first = ns.FlowState(grid, state.t + dt,
                             state.data + dt * ns.semi_discrete_rhs(state, params))
        heun = 0.5 * (state.data + first.data
                      + dt * ns.semi_discrete_rhs(first, params))
        s = grid.interior
        for row, textbook in zip(out.data[:, s], heun[:, s]):
            assert np.abs(row - textbook).max() <= 2 * np.spacing(np.abs(textbook).max())

    def test_heun_amplification_is_the_taylor_polynomial(self):
        z = np.linspace(-2.5, 0.5, 31)[:, None] + 1j * np.linspace(-2.0, 2.0, 21)
        assert np.abs(amplification(2, z) - (1.0 + z + 0.5 * z * z)).max() <= 1e-15

    def test_rejects_fewer_than_two_stages(self, params):
        grid = ns.make_grid(4, 16)
        bc = ns.BoundaryConfig(1.0, 1.0)
        with pytest.raises(ValueError, match="stages"):
            ns.step(ns.interface_initial_state(grid, params, bc), params, 1e-3, stages=1)

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
                s = ns.step(s, params, dt=horizon / n_steps)
            solutions.append(np.concatenate([s.interior(k)
                                             for k in ("v", "u", "theta", "phi")]))
        d1 = np.linalg.norm(solutions[0] - solutions[1])
        d2 = np.linalg.norm(solutions[1] - solutions[2])
        assert math.log2(d1 / d2) >= 1.9

    def test_rejects_nonpositive_dt(self, params):
        grid = ns.make_grid(4, 16)
        bc = ns.BoundaryConfig(1.0, 1.0)
        with pytest.raises(ValueError):
            ns.step(ns.interface_initial_state(grid, params, bc), params, dt=0.0)

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_rejects_a_dt_that_is_not_finite(self, params, dt):
        # a usage error before the first stage, not an abort at a ghost cell
        grid = ns.make_grid(4, 16)
        bc = ns.BoundaryConfig(1.0, 1.0)
        with pytest.raises(ValueError, match=f"dt must be finite and > 0, got {dt}"):
            ns.step(ns.interface_initial_state(grid, params, bc), params, dt=dt)

    @pytest.mark.parametrize("stages", [2.5, 3.0])
    def test_rejects_stages_that_are_not_an_integer(self, params, stages):
        grid = ns.make_grid(4, 16)
        bc = ns.BoundaryConfig(1.0, 1.0)
        with pytest.raises(ValueError, match=f"stages must be an integer >= 2, got {stages}"):
            ns.step(ns.interface_initial_state(grid, params, bc), params, 1e-3,
                    stages=stages)

    def test_the_hook_rows_are_added_to_u_phi_theta_v(self, params, monkeypatch):
        # with a zero kernel, a Heun step of constant hook rows c_k moves
        # u, phi, theta and v by exactly dt c_k; G and the ghost columns are
        # those of the same step with no hook
        grid = ns.make_grid(16, 64)
        bc = ns.BoundaryConfig(-1.0, 1.0)
        state = ns.interface_initial_state(grid, params, bc, phi_width=1.0,
                                           theta_amp=0.1, theta_width=2.0)
        monkeypatch.setattr(ns.integrator, "semi_discrete_rhs",
                            lambda state, params: np.zeros(state.data.shape))
        rows, times, dt = (0.5, -0.25, 3.0, -1.5), [], 1e-3

        def hook(x, t):
            times.append(t)
            added = np.zeros((4, grid.n_total))
            added[:, grid.interior] = np.array(rows)[:, None]
            return added

        out = ns.step(state.copy(), params, dt, sources=hook)
        bare = ns.step(state.copy(), params, dt)
        assert times == [state.t, state.t + dt]
        for name, c in zip(("u", "phi", "theta", "v"), rows):
            assert np.array_equal(out.interior(name), state.interior(name) + dt * c)
        g = grid.n_ghost
        assert np.array_equal(out.G, bare.G)
        assert np.array_equal(out.data[:, :g], bare.data[:, :g])
        assert np.array_equal(out.data[:, -g:], bare.data[:, -g:])

    @pytest.mark.parametrize("shape", ["interior", "one column", "one row"])
    def test_a_hook_of_another_shape_is_an_error(self, params, shape):
        # the (4, N) interior layout, or one that would broadcast into the
        # ghost columns, is refused, not added silently
        grid = ns.make_grid(16, 64)
        bc = ns.BoundaryConfig(-1.0, 1.0)
        state = ns.interface_initial_state(grid, params, bc, phi_width=1.0)
        added = {"interior": np.zeros((4, grid.n_cells)), "one column": np.zeros((4, 1)),
                 "one row": np.zeros(grid.n_total)}[shape]
        with pytest.raises(ValueError, match=rf"sources must have the shape "
                                             rf"\(4, 68\) .*, got {re.escape(str(added.shape))}"):
            ns.step(state, params, 1e-3, sources=lambda x, t: added)

    def test_phase_stays_in_range(self, params):
        grid = ns.make_grid(16, 256)
        bc = ns.BoundaryConfig(-1.0, 1.0)
        state = ns.interface_initial_state(
            grid, params, bc, phi_width=1.0,
            u_amp=0.3, u_width=1.5, u_center=2.0)
        for _ in range(50):
            state = ns.step(state, params, params.cfl * min(ns.step_limits(state, params)))
            phi = state.interior("phi")
            assert phi.min() >= -1.0 - 1e-8 and phi.max() <= 1.0 + 1e-8


class TestRun:
    def test_zero_steps(self, params):
        grid = ns.make_grid(4, 16)
        bc = ns.BoundaryConfig(1.0, 1.0)
        eq = ns.interface_initial_state(grid, params, bc)
        on = eq.copy()
        eq.data[:, :grid.n_ghost] += 0.05  # bc is written all the same
        result = ns.run(eq, params, bc, 0.0)
        assert result.control.step_count == 0
        assert result.control.limit_kind is None  # no step took a limit
        assert result.state is eq
        assert np.array_equal(eq.data, on.data)

    @pytest.mark.parametrize("capped", [False, True])
    def test_applies_bc_to_its_input_once(self, flagship_ic, capped):
        # ghosts off the far field are overwritten in place before the first
        # step, so the run is the run from the state on it, byte for byte;
        # with a cap below the Heun step, every step after the first is certified
        params, grid, bc, state = flagship_ic(64)
        heun = params.cfl * min(ns.step_limits(state, params))
        dt_cap = 0.5 * heun if capped else None
        g = grid.n_ghost
        off = state.copy()
        off.data[:, :g] += 0.05
        off.data[:, -g:] += 0.1
        expected = ns.run(ns.apply_bc(off.copy(), bc), params, bc, 5 * heun, dt_cap=dt_cap)
        result = ns.run(off, params, bc, 5 * heun, dt_cap=dt_cap)
        assert np.array_equal(off.data, state.data)
        assert result.state.data.tobytes() == expected.state.data.tobytes()
        assert result.control == expected.control
        assert result.control.step_count > 3
        assert (result.control.limit_kind == "cap") == capped

    def test_rejects_past_t_final(self, params):
        grid = ns.make_grid(4, 16)
        bc = ns.BoundaryConfig(1.0, 1.0)
        eq = ns.interface_initial_state(grid, params, bc)
        eq.t = 1.0
        with pytest.raises(ValueError):
            ns.run(eq, params, bc, 0.5)

    def test_rejects_nan_t_final(self, params):
        eq = ns.interface_initial_state(ns.make_grid(4, 16), params, ns.BoundaryConfig(1.0, 1.0))
        with pytest.raises(ValueError, match="must be finite"):
            ns.run(eq, params, ns.BoundaryConfig(1.0, 1.0), math.nan)

    @pytest.mark.parametrize("dt_cap", [math.nan, 0.0, -1e-3])
    def test_rejects_a_bad_dt_cap_before_the_first_step(self, params, dt_cap):
        # a usage error, not a SimulationAbort of step 1, and nan is not ignored
        eq = ns.interface_initial_state(ns.make_grid(4, 16), params, ns.BoundaryConfig(1.0, 1.0))
        seen = []
        with pytest.raises(ValueError, match=f"dt_cap = {dt_cap} must be > 0"):
            ns.run(eq, params, ns.BoundaryConfig(1.0, 1.0), 0.1, observer=seen.append,
                   dt_cap=dt_cap)
        assert seen == []

    def test_equilibrium_step_count(self, params):
        # dx = 0.8: diffusion binds, and RKL2's tau, half the CFL step of the
        # reaction limit, is no longer than the Heun step, so every step is Heun
        grid = ns.make_grid(16, 40)
        bc = ns.BoundaryConfig(1.0, 1.0)
        eq = ns.interface_initial_state(grid, params, bc)
        dt = params.cfl * min(ns.step_limits(eq, params))
        result = ns.run(eq, params, bc, 1.0)
        assert result.control.limit_kind == "diffusion"
        assert result.control.rkl2_steps == 0
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
        eq = ns.interface_initial_state(grid, params, bc)
        cap = 0.25 * params.cfl * min(ns.step_limits(eq, params))
        result = ns.run(eq, params, bc, 20 * cap, dt_cap=cap)
        assert result.control.step_count == 20
        assert result.control.limit_kind == "cap"

    def test_observer_cadence(self, params):
        grid = ns.make_grid(8, 64)
        bc = ns.BoundaryConfig(1.0, 1.0)
        eq = ns.interface_initial_state(grid, params, bc)
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
        # diffusion binds the Heun step of every step, which RKL2 stretches
        assert result.control.rkl2_steps == result.control.step_count
        assert ns.audit_records(records)[0] == []

    def test_G_strictly_increasing(self, params):
        grid = ns.make_grid(16, 64)
        bc = ns.BoundaryConfig(-1.0, 1.0)
        state = ns.interface_initial_state(
            grid, params, bc, phi_width=1.0, theta_amp=-0.3, theta_width=2.0)
        prev = state.interior("G").copy()
        for _ in range(20):
            state = ns.step(state, params, params.cfl * min(ns.step_limits(state, params)))
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


class TestIncrements:
    @pytest.mark.parametrize("stages", [2, 5])
    @pytest.mark.parametrize("kind", ["float", "complex", "plain y0"])
    def test_writes_nothing_it_was_given_or_handed_out(self, kind, stages):
        # y0, and each stage state and F from the moment rate returned it,
        # keep their bytes; F(Y_0) is the first F
        rng = np.random.default_rng(stages)
        z = rng.normal(size=(5, 12))
        if kind != "float":
            z = z + 1j * rng.normal(size=z.shape)
        y0 = 1.0 if kind == "plain y0" else rng.normal(size=z.shape) * z
        kept = [(y0, y0.tobytes())] if kind != "plain y0" else []

        def rate(y, t):
            f = z * y + t
            kept.extend((a, a.tobytes()) for a in (y, f) if isinstance(a, np.ndarray))
            return f

        inc = ns.integrator.increments(y0, 0.25, 0.1, rate, stages)
        # y0 itself, if it is an array, then each Y and each F
        assert len(kept) == 2 * stages + (1 if kind != "plain y0" else -1)
        assert all(a.tobytes() == before for a, before in kept)
        assert not any(np.shares_memory(inc, a) for a, _ in kept)
        expected = _increments_by_expression(y0, 0.25, 0.1, lambda y, t: z * y + t, stages)
        assert inc.dtype == expected.dtype and inc.tobytes() == expected.tobytes()


class TestRkl2:
    """Where diffusion binds the Heun step, run takes the longer step tau in
    the fewest RKL2 stages that keep it stable."""

    def test_stages_cover_the_step(self):
        heun = 0.01
        rkl2_stages = ns.integrator.rkl2_stages
        assert rkl2_stages(0.5 * heun, heun) == rkl2_stages(heun, heun) == 2
        for s in range(3, 40):
            reach = heun * (s * s + s - 2) / 4
            assert rkl2_stages(reach, heun) == s
            assert rkl2_stages(math.nextafter(reach, math.inf), heun) == s + 1

    @pytest.mark.parametrize("stages", [3, 4, 7, 20])
    def test_second_order_and_stable_on_the_interval(self, stages):
        # stage times end at 1; the amplification matches exp(z) to O(z^3)
        # and stays in [-1, 1] on the real interval (s^2 + s - 2) / 4 Heun
        # steps long, whose Heun stability interval is [-2, 0]
        rows = ns.integrator.rkl2_coefficients(stages)
        mu, nu, mu_t, gamma_t, c_last = rows[-1]
        c_before = rows[-2][4]
        assert mu * c_last + nu * c_before + mu_t + gamma_t == pytest.approx(1.0, abs=1e-14)
        assert all(0.0 <= row[4] < 1.0 for row in rows)
        errors = [abs(amplification(stages, -z) - math.exp(-z)) for z in (1e-2, 5e-3)]
        assert math.log2(errors[0] / errors[1]) == pytest.approx(3.0, abs=0.05)
        reach = (stages * stages + stages - 2) / 2
        assert all(abs(amplification(stages, -z)) <= 1.0
                   for z in np.linspace(0.0, reach, 2001))

    def test_equilibrium_step_count(self, params):
        # dx = 0.25: tau, half the CFL step of the acoustic limit, is longer
        # than the diffusion-bound Heun step
        grid = ns.make_grid(16, 128)
        bc = ns.BoundaryConfig(1.0, 1.0)
        eq = ns.interface_initial_state(grid, params, bc)
        diffusion, acoustic, reaction = ns.step_limits(eq, params)
        tau = ns.integrator.RKL2_STEP * params.cfl * min(acoustic, reaction)
        assert tau > params.cfl * diffusion
        result = ns.run(eq, params, bc, 1.0)
        control = result.control
        assert control.step_count == math.ceil(1.0 / tau)
        # the last step, 1 - 28 tau, is shorter than the Heun step: Heun
        assert control.rkl2_steps == control.step_count - 1
        assert control.limit_kind == "acoustic" and control.regime == "heun"
        assert control.rhs_evals > 2 * control.step_count
        assert result.state.t == 1.0  # exact landing
        for name in ("v", "u", "theta", "phi"):
            assert np.array_equal(getattr(result.state, name), getattr(eq, name))

    def test_temporal_order(self, params):
        # caps of 4, 2 and 1 times tau0 = 0.06 / 32, each above the stage
        # base (RKL2_STAGE_LIMIT times the diffusion limit, 1.5e-3 here) and
        # under RKL2's own tau (8.6e-3), so every step is an RKL2 step of the
        # cap; measured 1.92 to 1.95.  (At 0.06 / 48 the finest cap falls
        # under the stage base and that rung is Heun.)
        grid = ns.make_grid(16, 512)
        bc = ns.BoundaryConfig(-1.0, 1.0)
        initial = ns.interface_initial_state(
            grid, params, bc, phi_width=1.0,
            v_amp=0.1, v_width=2.0, v_center=-2.0,
            u_amp=0.1, u_width=2.0, u_center=2.0,
            theta_amp=0.1, theta_width=2.0, theta_center=0.0)
        horizon, tau0 = 0.06, 0.06 / 32
        diffusion = ns.step_limits(initial, params)[0]
        assert tau0 > ns.integrator.RKL2_STAGE_LIMIT * diffusion
        orders, controls = temporal_orders(initial, params, bc, horizon,
                                           [4 * tau0, 2 * tau0, tau0])
        assert all(c.rkl2_steps == c.step_count for c in controls)
        assert [c.step_count for c in controls] == [8, 16, 32]
        assert min(orders.values()) >= 1.8, orders

    def test_flagship_mass_and_energy_drift_match_heun(self, flagship_ic):
        # N = 512 to t = 1: the default run is RKL2 throughout; a dt cap at
        # half the first Heun step keeps every step of the other run Heun.
        # Measured: energy_drift_rel 3.06e-4 against 3.35e-4 (-8.7 %)
        p, grid, bc, state = flagship_ic(512, half_width=32)
        result, records = recorded_run(p, bc, state, 1.0)
        assert result.control.rkl2_steps == result.control.step_count
        m0 = records[0].mass_excess
        assert (max(abs(r.mass_excess - m0) for r in records)
                <= ns.cli_io.MASS_TOL * max(abs(m0), 1.0))
        cap = 0.5 * p.cfl * min(ns.step_limits(state, p))
        heun = ns.run(state, p, bc, 1.0, dt_cap=cap)
        assert heun.control.rkl2_steps == 0
        e0 = ns.total_energy(state, p)
        drift, heun_drift = (abs(ns.total_energy(r.state, p) - e0) / e0
                             for r in (result, heun))
        assert abs(drift / heun_drift - 1.0) <= 0.10


def _mirrored(state, bc):
    """The mirror x -> -x: every row reversed, u negated, the far-field phases
    swapped."""
    data = state.data[:, ::-1].copy()
    data[0] *= -1.0
    return ns.FlowState(state.grid, state.t, data), ns.BoundaryConfig(bc.phi_right, bc.phi_left)


def _phase_flipped(state, bc):
    """The phase flip phi -> -phi, both far-field phases negated."""
    data = state.data.copy()
    data[1] *= -1.0
    return ns.FlowState(state.grid, state.t, data), ns.BoundaryConfig(-bc.phi_left, -bc.phi_right)


class TestSymmetries:
    """The system maps solutions onto solutions under the mirror and the phase
    flip, and so does the scheme, bit for bit: every stencil is symmetric
    and the limits reduce by max."""

    @pytest.mark.parametrize("n_cells, dt_cap, rkl2", [(256, None, True), (128, 1e-3, False)])
    def test_the_run_commutes_with_both_maps(self, flagship_ic, n_cells, dt_cap, rkl2):
        # to t = 1: N = 256 takes 31 RKL2 steps, and the cap makes N = 128
        # take 1,000 Heun steps
        params, _, bc, state = flagship_ic(n_cells)
        result = ns.run(state, params, bc, 1.0, dt_cap=dt_cap)
        control = result.control
        assert control.rkl2_steps == (control.step_count if rkl2 else 0)
        for symmetry in (_mirrored, _phase_flipped):
            mapped, mapped_bc = symmetry(state, bc)
            other = ns.run(mapped, params, mapped_bc, 1.0, dt_cap=dt_cap)
            assert other.control == control
            assert np.array_equal(other.state.data, symmetry(result.state, bc)[0].data)


class TestSourcesOncePerStageTime:
    """run calls a sources hook at every stage, at one distinct stage time per
    step plus the first: the second Heun stage of one step is, bit for bit,
    at the first stage time of the next, which is what lets a hook that keeps
    its last t evaluate once per stage time."""

    def test_one_call_per_step_plus_the_first(self, params):
        grid = ns.make_grid(8, 32)
        bc = ns.BoundaryConfig(1.0, 1.0)
        eq = ns.interface_initial_state(grid, params, bc)
        cap = 0.25 * params.cfl * min(ns.step_limits(eq, params))
        times, seen = [], []

        def counting(x, t):
            times.append(t)
            return np.zeros((4, grid.n_total))

        result = ns.run(eq, params, bc, 7.5 * cap, dt_cap=cap, observer=seen.append,
                        sources=counting)
        steps = result.control.step_count
        assert steps == 8
        assert len(times) == 2 * steps
        distinct = sorted(set(times))
        assert len(distinct) == steps + 1
        assert distinct[0] == times[0] == eq.t
        assert times[::2] == distinct[:-1] and times[1::2] == distinct[1:], times
        # each step after the first starts where the last one's second stage was
        assert times[2::2] == times[1:-1:2] == [s.t for s in seen[:steps - 1]]
        # and, but for the last, ends one cap later in floats: the stage times
        # a block of sources steps through
        assert times[1:-2:2] == [t + cap for t in times[:-2:2]]

    def test_same_fields_as_steps_that_evaluate_both_stages(self, params, monkeypatch):
        case = ns.ManufacturedCase(params, 8, amplitude=0.2)
        grid = ns.make_grid(8, 32)
        initial = ns.state_from_fields(grid, case.bc, case.fields(grid.x, 0.0), params)
        step, dts = ns.integrator.step, []

        def recording_step(state, params, dt, sources=None, stages=2):
            dts.append(dt)
            assert stages == 2  # the dt cap binds: Heun
            return step(state, params, dt, sources=sources, stages=stages)

        monkeypatch.setattr(ns.integrator, "step", recording_step)
        result = ns.run(initial, params, case.bc, 0.05,
                        dt_cap=ns.mms.DT_CAP_FACTOR * grid.dx**2, sources=case.sources)
        monkeypatch.undo()

        calls = []

        def raw(x, t):
            # a case built fresh for every call keeps no last sources
            calls.append(t)
            return ns.ManufacturedCase(params, 8, amplitude=0.2).sources(x, t)

        state = initial
        for dt in dts:
            state = ns.step(state, params, dt, sources=raw)
        assert len(dts) == result.control.step_count > 1
        assert len(calls) == 2 * len(dts)  # step alone evaluates both stages
        assert np.array_equal(result.state.data, state.data)


class TestNonFiniteAbort:
    def test_nan_on_final_step_aborts(self, params):
        grid = ns.make_grid(8, 32)
        bc = ns.BoundaryConfig(1.0, 1.0)
        eq = ns.interface_initial_state(grid, params, bc)
        cap = 0.25 * params.cfl * min(ns.step_limits(eq, params))
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


# theta = 1 + 1e200 exp(-x^2) with beta = 2 on L = 32, N = 64: theta^beta
# overflows, so the diffusion limit dx^2 / (2 inf) is 0, and with a stage
# base of 0 no stage count covers a step
OVERFLOWING = {"phi_width": 1.0, "theta_amp": 1e200, "theta_width": 1.0}


class TestLimitsThatAreNotPositive:
    @pytest.fixture
    def hot(self):
        params = ns.SimParams(beta=2.0)
        bc = ns.BoundaryConfig(-1.0, 1.0)
        return params, bc, ns.interface_initial_state(ns.make_grid(32, 64), params, bc,
                                                      **OVERFLOWING)

    def test_step_limits_rejects_an_overflowing_diffusion_limit(self, hot):
        params, _, state = hot
        # theta^beta overflows without a warning (warnings are errors here)
        with pytest.raises(ValueError,
                           match=r"= \(0.000000e\+00, .*\) are not all finite and > 0"):
            ns.step_limits(state, params)

    def test_run_aborts_at_the_first_step(self, hot):
        params, bc, state = hot
        with pytest.raises(ns.SimulationAbort) as exc_info:
            _within(5.0, ns.run, state, params, bc, 0.01)
        assert exc_info.value.step_count == 0
        assert type(exc_info.value.__cause__) is ValueError

    @pytest.mark.parametrize("base", [0.0, -1e-3, math.nan, math.inf])
    def test_rkl2_stages_rejects_a_base_that_is_not_finite_and_positive(self, base):
        with pytest.raises(ValueError, match="stage base must be finite and > 0"):
            _within(1.0, ns.integrator.rkl2_stages, 1e-3, base)

    def test_rkl2_stages_counts_no_further_than_its_bound(self):
        # at beta = 1 the same data do not overflow: the limits are finite
        # and the step asks for about 1e50 stages of the stage base
        rkl2_stages, most = ns.integrator.rkl2_stages, ns.integrator.RKL2_MAX_STAGES
        reach = (most * most + most - 2) / 4
        assert _within(1.0, rkl2_stages, reach, 1.0) == most
        for dt, base in ((math.nextafter(reach, math.inf), 1.0), (1.6e-101, 6.6e-201)):
            with pytest.raises(ValueError, match=rf"needs more than {most} RKL2 stages"):
                _within(1.0, rkl2_stages, dt, base)

    def test_run_aborts_at_the_first_step_beyond_the_stage_bound(self):
        params, bc = ns.SimParams(beta=1.0), ns.BoundaryConfig(-1.0, 1.0)
        state = ns.interface_initial_state(ns.make_grid(32, 64), params, bc, **OVERFLOWING)
        with pytest.raises(ns.SimulationAbort, match="RKL2 stages") as exc_info:
            _within(5.0, ns.run, state, params, bc, 0.01)
        assert exc_info.value.step_count == 0
        assert type(exc_info.value.__cause__) is ValueError


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


def _mms_state(params, half_width=16, n_cells=64):
    """(state, case, cap): the default manufactured case's initial state on
    n_cells, the case, and the study's dt cap."""
    case = ns.ManufacturedCase(params, half_width)
    grid = ns.make_grid(half_width, n_cells)
    state = ns.state_from_fields(grid, case.bc, case.fields(grid.x, 0.0), params)
    return state, case, ns.mms.DT_CAP_FACTOR * grid.dx**2


@st.composite
def _drawn_states(draw):
    """(state, params): beta in {0.5, 1, 2, 4}, epsilon in {0.05, 1}, N = 8,
    every column drawn, ghosts included, each row from a band drawn for it,
    so that each bound of limit_floor binds on some states: theta and v near
    the positivity floor (at it included), below 1, around 1, mixed, and v
    also near the largest double; phi within 0.5 or 1.5 of 0, or in
    [-1.5, 0.2], where its minimum sets |phi|."""
    params = ns.SimParams(epsilon=draw(st.sampled_from([0.05, 1.0])),
                          beta=draw(st.sampled_from([0.5, 1.0, 2.0, 4.0])))
    grid = ns.make_grid(draw(st.sampled_from([0.5, 4.0, 64.0])), 8)
    floor = params.positivity_floor
    near_floor, unit = st.floats(floor, 4.0 * floor), st.floats(0.01, 100.0)
    positive = [near_floor, st.floats(0.01, 1.0), unit, st.one_of(near_floor, unit)]

    def row(bands):
        values = draw(st.sampled_from(bands))
        return draw(st.lists(values, min_size=grid.n_total, max_size=grid.n_total))

    data = np.array([row([st.floats(-10.0, 10.0)]),
                     row([st.floats(-0.5, 0.5), st.floats(-1.5, 1.5), st.floats(-1.5, 0.2)]),
                     row(positive), row(positive + [st.floats(1e306, 1e308)]),
                     [0.0] * grid.n_total])
    return ns.FlowState(grid, 0.0, data), params


class TestLimitFloor:
    """integrator.limit_floor bounds step_limits below from the row extrema,
    and a step that integrator.cap_step certifies is the exact path's step."""

    @settings(max_examples=300, deadline=None)
    @given(drawn=_drawn_states())
    def test_the_floor_is_below_step_limits(self, drawn):
        state, params = drawn
        floor = ns.integrator.limit_floor(state, params)
        if floor is not None:
            limits = ns.step_limits(state, params)  # does not raise
            assert all(0.0 < low <= limit for low, limit in zip(floor, limits)), (floor, limits)

    @settings(max_examples=300, deadline=None)
    @given(drawn=_drawn_states(), fraction=st.floats(0.05, 2.0),
           steps=st.sampled_from([0.5, 1.0, 1.0 + 1e-13, 3.0]))
    def test_a_certified_step_is_the_cap_in_two_stages(self, drawn, fraction, steps):
        state, params = drawn
        floor = ns.integrator.limit_floor(state, params)
        if floor is None:
            return
        cap = fraction * params.cfl * min(floor)
        t_final = steps * cap
        certified = ns.integrator.cap_step(state, params, cap, t_final)
        if certified is not None:
            dt, kind, base, last = ns.integrator.step_choice(
                ns.step_limits(state, params), params, cap, state.t, t_final)
            assert kind == "cap" and ns.integrator.rkl2_stages(dt, base) == 2
            assert (dt, last) == (certified[0], certified[3])

    def test_the_manufactured_step_is_certified(self, params):
        state, _, cap = _mms_state(params)
        for t_final, landing in [(1.0, (cap, False)), (0.5 * cap, (0.5 * cap, True))]:
            dt, _, _, last = ns.integrator.cap_step(state, params, cap, t_final)
            assert (dt, last) == landing
        # the exact limits set a step of 0.0667 (RKL2_STEP times the CFL step
        # of the reaction limit) and their floor one of 0.0657: a cap above
        # the one is not certified, nor one between the two, which the exact
        # path takes
        limits = ns.step_limits(state, params)
        dt = ns.integrator.step_choice(limits, params, math.inf, 0.0, 1.0)[0]
        assert dt == ns.integrator.RKL2_STEP * params.cfl * limits[2]
        assert ns.integrator.cap_step(state, params, 1.01 * dt, 1.0) is None
        assert ns.integrator.cap_step(state, params, 0.999 * dt, 1.0) is None
        assert ns.integrator.step_choice(limits, params, 0.999 * dt, 0.0, 1.0)[1] == "cap"

    @pytest.mark.parametrize("row, column, value", [
        (3, 0, math.nan), (0, -1, math.inf), (1, 5, -math.inf), (0, 4, math.nan),
        (1, 5, math.nan), (2, -2, math.nan), (2, 5, 1e-10), (3, -1, 1e-10), (2, 5, 1e200)])
    def test_the_floor_declines(self, row, column, value):
        # a non-finite value, ghosts included; theta or v at the floor; theta^beta
        # overflowing at beta = 2.  Then cap_step certifies nothing, for any cap
        params = ns.SimParams(beta=2.0)
        state, _, _ = _mms_state(params)
        state.data[row, column] = value
        assert ns.integrator.limit_floor(state, params) is None
        assert ns.integrator.cap_step(state, params, 1e-12, 1.0) is None

    @pytest.mark.parametrize("run_case", ["mms-L16", "mms-beta2", "flagship-capped",
                                          "flagship-near-base-0.98", "flagship-near-base-1.01",
                                          "equilibrium"])
    def test_cap_bound_runs_are_the_exact_path_byte_for_byte(self, monkeypatch, flagship_ic,
                                                              run_case):
        if run_case.startswith("mms"):
            params = (ns.SimParams() if run_case == "mms-L16"
                      else ns.SimParams(epsilon=0.5, beta=2.0))
            state, case, cap = _mms_state(params, 16 if run_case == "mms-L16" else 8)
            args, kwargs = (state, params, case.bc, 0.05), {"dt_cap": cap,
                                                           "sources": case.sources}
        elif run_case == "equilibrium":
            params, bc = ns.SimParams(), ns.BoundaryConfig(1.0, 1.0)
            state = ns.interface_initial_state(ns.make_grid(8, 64), params, bc)
            cap = 0.25 * params.cfl * min(ns.step_limits(state, params))
            args, kwargs = (state, params, bc, 20 * cap), {"dt_cap": cap}
        elif run_case == "flagship-capped":  # 1e-3 binds every step
            params, _, bc, state = flagship_ic(128)
            args, kwargs = (state, params, bc, 0.2), {"dt_cap": 1e-3}
        else:
            # a cap near the first stage base at N = 256: the floor certifies
            # 5 of the 9 steps after the first at 0.98 of it, and 1 at 1.01,
            # where 2 steps are RKL2 steps
            params, _, bc, state = flagship_ic(256)
            base = ns.integrator.RKL2_STAGE_LIMIT * ns.step_limits(state, params)[0]
            args, kwargs = (state, params, bc, 0.2), {"dt_cap": float(run_case[-4:]) * base}

        def outcome(result):
            return result.state.data.tobytes(), result.state.t, result.control

        certify, certified = ns.integrator.cap_step, []

        def counted(*step_args):
            step = certify(*step_args)
            certified.append(step is not None)
            return step

        monkeypatch.setattr(ns.integrator, "cap_step", counted)
        fast = outcome(ns.run(*args, **kwargs))
        monkeypatch.setattr(ns.integrator, "cap_step", lambda *step_args: None)
        exact = outcome(ns.run(*args, **kwargs))
        assert fast == exact
        assert any(certified)
        if run_case.startswith("flagship-near-base"):
            assert not all(certified)

    def test_step_limits_is_called_once_per_cap_bound_run(self, params, monkeypatch):
        step_limits, calls = ns.integrator.step_limits, []

        def counted(state, p):
            calls.append(state.t)
            return step_limits(state, p)

        monkeypatch.setattr(ns.integrator, "step_limits", counted)
        case = ns.ManufacturedCase(params, 8, amplitude=0.2)
        ns.convergence_study(case, [16, 32, 64])
        assert calls == [0.0] * 3

    def test_a_run_without_a_cap_never_computes_the_floor(self, flagship_ic, monkeypatch):
        def refused(state, params):
            raise AssertionError("limit_floor called")

        monkeypatch.setattr(ns.integrator, "limit_floor", refused)
        params, _, bc, state = flagship_ic(64)
        assert ns.run(state, params, bc, 0.2).control.step_count > 1
