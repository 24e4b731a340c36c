import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nsac1d as ns
from conftest import x_with_ghosts

# independently computed with a 50-digit Lambert-W evaluation of
# y - ln y - 1 = e0 (branches 0 and -1), frozen before implementation
PINNED_BRACKET_ROOTS = {
    0.1: (0.61681683179170517, 1.5162211614250221),
    0.5: (0.30170956268433601, 2.3576766739458991),
    1.0: (0.15859433956303936, 3.1461932206205826),
}


def smooth_state(grid):
    """Closed-form state with analytic derivatives, used as quadrature oracle."""
    x = grid.x
    v = 1.0 + 0.1 * np.exp(-(((x + 2.0) / 2.0) ** 2))
    u = 0.2 * np.exp(-(((x - 2.0) / 2.0) ** 2))
    theta = 1.0 + 0.15 * np.exp(-((x / 2.0) ** 2))
    phi = np.tanh(x / 2.0)
    return ns.state_from_fields(grid, ns.BoundaryConfig(-1.0, 1.0), [u, phi, theta, v],
                                ns.SimParams())


def smooth_state_derivatives(x):
    v = 1.0 + 0.1 * np.exp(-(((x + 2.0) / 2.0) ** 2))
    u = 0.2 * np.exp(-(((x - 2.0) / 2.0) ** 2))
    theta = 1.0 + 0.15 * np.exp(-((x / 2.0) ** 2))
    th = np.tanh(x / 2.0)
    v_x = 0.1 * np.exp(-(((x + 2.0) / 2.0) ** 2)) * (-(x + 2.0) / 2.0)
    u_x = 0.2 * np.exp(-(((x - 2.0) / 2.0) ** 2)) * (-(x - 2.0) / 2.0)
    theta_x = 0.15 * np.exp(-((x / 2.0) ** 2)) * (-x / 2.0)
    phi_x = 0.5 * (1.0 - th**2)
    phi_xx = -0.5 * th * (1.0 - th**2)
    return v, u, theta, th, v_x, u_x, theta_x, phi_x, phi_xx


class TestLyapunovEnergy:
    def test_equilibrium_zero(self, params):
        eq = ns.interface_initial_state(ns.make_grid(8, 64), params, ns.BoundaryConfig(1.0, 1.0))
        assert ns.lyapunov_energy(eq, params) == 0.0

    def test_uniform_dilation_closed_form(self, params):
        grid = ns.make_grid(16, 512)
        bc = ns.BoundaryConfig(1.0, 1.0)
        state = ns.interface_initial_state(grid, params, bc)
        state.v[grid.interior] = 2.0
        expected = (2.0 - math.log(2.0) - 1.0) * 32.0
        assert ns.lyapunov_energy(state, params) == pytest.approx(expected, rel=1e-13)

    def test_refined_quadrature_oracle(self, params):
        grid = ns.make_grid(16, 1024)
        got = ns.lyapunov_energy(smooth_state(grid), params)
        fine = ns.make_grid(16, 10240)
        v, u, theta, phi, _, _, _, phi_x, _ = smooth_state_derivatives(fine.x)
        ref = np.sum(0.5 * u**2 + (phi**2 - 1.0) ** 2 / 4.0 + 0.5 * phi_x**2 / v
                     + (v - np.log(v) - 1.0) + (theta - np.log(theta) - 1.0)) * fine.dx
        assert got == pytest.approx(ref, rel=1e-4)

    def test_rejects_nonpositive(self, params):
        grid = ns.make_grid(4, 16)
        state = ns.interface_initial_state(grid, params, ns.BoundaryConfig(1.0, 1.0))
        state.v[grid.n_ghost] = -0.5
        with pytest.raises(ns.PositivityError, match="v = -5.000000e-01 at cell 0"):
            ns.lyapunov_energy(state, params)


class TestDissipationRate:
    def test_equilibrium_zero(self, params):
        eq = ns.interface_initial_state(ns.make_grid(8, 64), params, ns.BoundaryConfig(1.0, 1.0))
        assert ns.dissipation_rate(eq, params) == 0.0

    def test_pure_shear_reduces_to_velocity_term(self, params):
        # v = theta = 1, phi = 1: V collapses to sum u_x^2 dx
        grid = ns.make_grid(16, 256)
        bc = ns.BoundaryConfig(1.0, 1.0)
        state = ns.interface_initial_state(grid, params, bc)
        state.u[:] = np.sin(np.pi * x_with_ghosts(grid) / 16.0)
        ns.apply_bc(state, bc)
        u = state.u
        u_x = (u[2:] - u[:-2]) / (2 * grid.dx)
        expected = np.sum(u_x[1:-1] ** 2) * grid.dx
        assert ns.dissipation_rate(state, params) == pytest.approx(expected, rel=1e-14)

    def test_refined_quadrature_oracle(self, params):
        grid = ns.make_grid(16, 1024)
        got = ns.dissipation_rate(smooth_state(grid), params)
        fine = ns.make_grid(16, 10240)
        v, u, theta, phi, v_x, u_x, theta_x, phi_x, phi_xx = smooth_state_derivatives(fine.x)
        mu = (phi**3 - phi) - (phi_xx / v - phi_x * v_x / v**2)
        ref = np.sum(theta * theta_x**2 / (v * theta**2) + u_x**2 / (v * theta)
                     + v * mu**2 / theta) * fine.dx
        assert got == pytest.approx(ref, rel=1e-4)

    def test_zero_iff_flat(self, params):
        grid = ns.make_grid(8, 64)
        bc = ns.BoundaryConfig(1.0, 1.0)
        state = ns.interface_initial_state(grid, params, bc)
        assert ns.dissipation_rate(state, params) == 0.0
        bump = ns.interface_initial_state(grid, params, bc, u_amp=0.1, u_width=1.0)
        assert ns.dissipation_rate(bump, params) > 0.0
        bump = ns.interface_initial_state(grid, params, bc, theta_amp=0.1, theta_width=1.0)
        assert ns.dissipation_rate(bump, params) > 0.0

    def test_an_overflowing_theta_power_is_not_finite_and_quiet(self):
        # theta = 1 + 1e200 exp(-x^2) at beta = 2 passes the guard, but
        # theta^beta overflows: V is nan and the weighted dissipation inf,
        # which the audit's finite_values check fails, and nothing warns
        # (warnings are errors in this suite)
        params = ns.SimParams(beta=2.0)
        state = ns.interface_initial_state(ns.make_grid(32, 64), params,
                                           ns.BoundaryConfig(-1.0, 1.0), phi_width=1.0,
                                           theta_amp=1e200, theta_width=1.0)
        assert math.isnan(ns.dissipation_rate(state, params))
        assert ns.weighted_dissipation(state, params, 0.5, 0) == math.inf
        [rec] = ns.record(ns.make_context(state, params, [(0.5, 0)]))
        assert math.isnan(rec.v_diss) and rec.weighted == {(0.5, 0): math.inf}
        failures, _ = ns.audit_records([rec])
        assert "finite_values" in failures


class TestBracketRoots:
    def test_zero_energy(self):
        assert ns.bracket_roots(0.0) == (1.0, 1.0)

    def test_euler_point(self):
        # y = e satisfies y - ln y - 1 = e - 2
        _, alpha2 = ns.bracket_roots(math.e - 2.0)
        assert alpha2 == pytest.approx(math.e, abs=1e-10)

    @pytest.mark.parametrize("e0", sorted(PINNED_BRACKET_ROOTS))
    def test_pinned_regression_values(self, e0):
        a1, a2 = ns.bracket_roots(e0)
        want1, want2 = PINNED_BRACKET_ROOTS[e0]
        assert a1 == pytest.approx(want1, abs=1e-10)
        assert a2 == pytest.approx(want2, abs=1e-10)

    # from e0 = 111 on, alpha1 (1e-49 down to 1e-305) lies far below 2^-200
    @pytest.mark.parametrize("e0", [0.01, 0.1, 0.5, 1.0, 5.0, 30.0,
                                    111.0, 130.0, 140.0, 166.668, 600.0, 700.0])
    def test_defining_equation_residual(self, e0):
        for root in ns.bracket_roots(e0):
            assert abs(root - math.log(root) - 1.0 - e0) <= 1e-12

    @pytest.mark.parametrize("e0", [1e308, sys.float_info.max])
    def test_upper_root_near_the_largest_double(self, e0):
        # the doubling bracket and the bisection midpoint must not overflow
        _, alpha2 = ns.bracket_roots(e0)
        assert alpha2 > 1.0
        assert abs(alpha2 - math.log(alpha2) - 1.0 - e0) <= 1e-15 * e0

    @pytest.mark.parametrize("e0", [745.0, 1e5, 1e308])
    def test_lower_root_below_every_double(self, e0):
        # the root lies below the smallest positive double, which stands in for it
        assert ns.bracket_roots(e0)[0] == math.ulp(0.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ns.bracket_roots(-0.1)

    @settings(max_examples=50, deadline=None)
    @given(e0=st.floats(1e-6, 50.0))
    def test_roots_bracket_one(self, e0):
        a1, a2 = ns.bracket_roots(e0)
        assert 0.0 < a1 < 1.0 < a2

    @settings(max_examples=50, deadline=None)
    @given(lo=st.floats(1e-4, 10.0), gap=st.floats(1e-3, 10.0))
    def test_monotone_in_e0(self, lo, gap):
        a1_lo, a2_lo = ns.bracket_roots(lo)
        a1_hi, a2_hi = ns.bracket_roots(lo + gap)
        assert a1_hi < a1_lo
        assert a2_hi > a2_lo


class TestCellAverageBrackets:
    def test_equilibrium_no_violations(self, params):
        grid = ns.make_grid(16, 512)
        eq = ns.interface_initial_state(grid, params, ns.BoundaryConfig(1.0, 1.0))
        assert ns.bracket_roots(0.0) == (1.0, 1.0)
        assert ns.cell_average_brackets(eq, 1.0, 1.0) == []

    def test_constructed_breach_is_flagged(self, params):
        grid = ns.make_grid(16, 512)
        eq = ns.interface_initial_state(grid, params, ns.BoundaryConfig(1.0, 1.0))
        alpha1, alpha2 = ns.bracket_roots(0.5)
        assert ns.cell_average_brackets(eq, alpha1, alpha2) == []
        eq.v[grid.interior] = 2.0 * alpha2
        violations = ns.cell_average_brackets(eq, alpha1, alpha2)
        assert len(violations) == 32  # every unit interval, v only
        assert all(kind == "v" for kind, _, _ in violations)

    def test_violations_match_a_loop_over_the_averages(self, params):
        grid = ns.make_grid(16, 512)
        state = ns.interface_initial_state(grid, params, ns.BoundaryConfig(1.0, 1.0))
        rng = np.random.default_rng(3)
        for name in ("v", "theta"):  # one constant per unit interval
            getattr(state, name)[grid.interior] = np.repeat(rng.uniform(0.2, 3.0, 32), 16)
        roots = ns.bracket_roots(0.5)
        tol = 1e-6 + grid.dx**2
        want = []
        for name in ("v", "theta"):
            averages = state.interior(name).reshape(32, 16).mean(axis=1)
            for j, avg in enumerate(averages):
                if avg < roots[0] - tol or avg > roots[1] + tol:
                    want.append((name, j - 16, float(avg)))
        assert 0 < len(want) < 64
        violations = ns.cell_average_brackets(state, *roots)
        assert violations == want
        assert all(type(n) is int for _, n, _ in violations)

    def test_rejects_non_integer_half_width(self, params):
        grid = ns.make_grid(8.5, 64)
        eq = ns.interface_initial_state(grid, params, ns.BoundaryConfig(1.0, 1.0))
        with pytest.raises(ValueError, match="integer"):
            ns.cell_average_brackets(eq, 1.0, 1.0)

    def test_rejects_non_tiling_cells(self, params):
        grid = ns.make_grid(24, 512)  # 512 cells over 48 unit intervals
        eq = ns.interface_initial_state(grid, params, ns.BoundaryConfig(1.0, 1.0))
        with pytest.raises(ValueError, match="tile"):
            ns.cell_average_brackets(eq, 1.0, 1.0)

    @pytest.mark.parametrize("half_width, n_cells, match", [(8.5, 64, "integer"),
                                                            (24, 512, "tile")])
    def test_run_context_rejects_the_grid_before_a_step(self, params, half_width,
                                                        n_cells, match):
        eq = ns.interface_initial_state(ns.make_grid(half_width, n_cells), params,
                                        ns.BoundaryConfig(1.0, 1.0))
        with pytest.raises(ValueError, match=match):
            ns.make_context(eq, params)


class TestCutoffWeight:
    def test_piecewise_values(self):
        assert ns.cutoff_weight(0, 0.0) == 1.0
        assert ns.cutoff_weight(0, 0.5) == 1.0
        assert ns.cutoff_weight(0, 1.0) == 1.0
        assert float(ns.cutoff_weight(0, -2.0)) == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert float(ns.cutoff_weight(0, 3.0)) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_shifted_interval(self):
        n = -3
        assert ns.cutoff_weight(n, -3.0) == 1.0
        assert float(ns.cutoff_weight(n, n - 2.0)) == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert float(ns.cutoff_weight(n, n + 3.0)) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_vectorized(self):
        x = np.array([-4.0, 0.25, 5.0])
        w = ns.cutoff_weight(0, x)
        assert w.shape == (3,)
        assert np.all((w > 0) & (w <= 1.0))

    @pytest.mark.parametrize("n", [-2000, 2000])
    @pytest.mark.parametrize("half_width, cells", [(16, 64), (1500, 3000)])
    def test_an_interval_far_from_the_grid_does_not_overflow(self, n, half_width, cells):
        # warnings are errors here; the weights keep the bytes of the
        # two-exponential form, whose larger exponential overflows to inf
        x = ns.make_grid(half_width, cells).x
        with np.errstate(over="ignore"):
            two_sided = np.minimum(1.0, np.minimum(np.exp(0.5 * (x - n)),
                                                   np.exp(0.5 * (n + 1.0 - x))))
        assert ns.cutoff_weight(n, x).tobytes() == two_sided.tobytes()


class TestWeightedDissipation:
    def test_equilibrium_zero(self, params):
        grid = ns.make_grid(8, 64)
        eq = ns.interface_initial_state(grid, params, ns.BoundaryConfig(1.0, 1.0))
        assert ns.weighted_dissipation(eq, params, 0.5, 0) == 0.0

    def test_sine_temperature_oracle(self, params):
        grid = ns.make_grid(16, 1024)
        ones = np.ones(grid.n_cells)
        theta = 1.0 + 0.1 * np.sin(np.pi * grid.x / 16.0)
        state = ns.state_from_fields(grid, ns.BoundaryConfig(1.0, 1.0),
                                     [0 * ones, ones, theta, ones], params)
        got = ns.weighted_dissipation(state, params, 0.5, 0)
        fine = ns.make_grid(16, 10240)
        x = fine.x
        th = 1.0 + 0.1 * np.sin(np.pi * x / 16.0)
        th_x = 0.1 * np.pi / 16.0 * np.cos(np.pi * x / 16.0)
        ref = np.sum(th * th_x**2 / th**1.5 * ns.cutoff_weight(0, x)) * fine.dx
        assert got == pytest.approx(ref, rel=1e-4)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.2])
    def test_rejects_alpha_outside_unit_interval(self, params, alpha):
        grid = ns.make_grid(8, 64)
        eq = ns.interface_initial_state(grid, params, ns.BoundaryConfig(1.0, 1.0))
        with pytest.raises(ValueError):
            ns.weighted_dissipation(eq, params, alpha, 0)

    @pytest.mark.parametrize("n", [0.5, True, "0"])
    def test_rejects_an_n_that_is_not_an_integer(self, params, n):
        # the pair checked is the one whose weight is built, n included
        eq = ns.interface_initial_state(ns.make_grid(8, 64), params, ns.BoundaryConfig(1.0, 1.0))
        with pytest.raises(ValueError, match=f"n must be an integer, got {n!r}"):
            ns.weighted_dissipation(eq, params, 0.5, n)

    @pytest.mark.parametrize("n", [2**1024, -(2**1024), int(sys.float_info.max) + 1, 10**400],
                             ids=["2^1024", "-2^1024", "max+1", "10^400"])
    def test_rejects_an_n_beyond_the_largest_double(self, params, n):
        # cutoff_weight takes n as a double, which no such n converts to
        eq = ns.interface_initial_state(ns.make_grid(8, 64), params, ns.BoundaryConfig(1.0, 1.0))
        with pytest.raises(ValueError, match="n must be at most 1.7976931348623157e[+]308 in "
                                             "magnitude, got"):
            ns.make_context(eq, params, [(0.5, n)])

    @pytest.mark.parametrize("n", [10**308, -(10**308), int(sys.float_info.max),
                                   -int(sys.float_info.max)],
                             ids=["10^308", "-10^308", "max", "-max"])
    def test_an_n_within_a_double_weighs_nothing_on_the_grid(self, params, n):
        # warnings are errors here
        eq = ns.interface_initial_state(ns.make_grid(8, 64), params, ns.BoundaryConfig(1.0, 1.0))
        ctx = ns.make_context(eq, params, [(0.5, n)])
        assert not ns.cutoff_weight(n, eq.grid.x).any()
        assert ns.record(ctx)[0].weighted[(0.5, n)] == 0.0

    @pytest.mark.parametrize("pair, match", [((2.0, 0), r"alpha must be in \(0, 1\), got 2\.0"),
                                             ((0.5, 0.5), "n must be an integer, got 0.5"),
                                             ((0.5, True), "n must be an integer, got True"),
                                             ((0.5, 0), "lists the pair 0.5:0 twice"),
                                             ((np.float32(0.3), 0), r"alpha must be an int "
                                              r"or a float, got np\.float32\(0\.3\)")])
    def test_run_context_rejects_the_pair_before_a_step(self, params, pair, match):
        # the rule holds before the first step, not only when record() runs
        eq = ns.interface_initial_state(ns.make_grid(8, 64), params, ns.BoundaryConfig(1.0, 1.0))
        with pytest.raises(ValueError, match=match):
            ns.make_context(eq, params, [(0.5, 0), pair])


class TestLemma24Residual:
    def test_zero_at_start(self, params):
        grid = ns.make_grid(16, 128)
        bc = ns.BoundaryConfig(-1.0, 1.0)
        state = ns.interface_initial_state(grid, params, bc, v_amp=0.2, v_width=2.0)
        assert ns.lemma24_residual(state, state.copy()) == 0.0

    def test_equilibrium_run_roundoff(self, params):
        grid = ns.make_grid(8, 64)
        bc = ns.BoundaryConfig(1.0, 1.0)
        eq = ns.interface_initial_state(grid, params, bc)
        initial = eq.copy()
        result = ns.run(eq, params, bc, 0.3)
        assert ns.lemma24_residual(result.state, initial) <= 1e-12

    def test_rejects_grid_mismatch(self, params):
        bc = ns.BoundaryConfig(1.0, 1.0)
        a = ns.interface_initial_state(ns.make_grid(8, 64), params, bc)
        b = ns.interface_initial_state(ns.make_grid(8, 128), params, bc)
        with pytest.raises(ValueError, match="grid"):
            ns.lemma24_residual(a, b)


class TestFunctionalGuard:
    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(["v", "theta", "u", "phi"]), cell=st.integers(0, 63),
           data=st.data())
    def test_bad_value_raises_naming_field_and_cell(self, params, name, cell, data):
        bad = st.sampled_from([math.nan, math.inf, -math.inf])
        if name in ("v", "theta"):  # or at or below the positivity floor
            bad = bad | st.floats(max_value=params.positivity_floor)
        value = data.draw(bad)
        grid = ns.make_grid(8, 64)
        state = ns.interface_initial_state(grid, params, ns.BoundaryConfig(1.0, 1.0))
        getattr(state, name)[grid.n_ghost + cell] = value
        for functional in (lambda s: ns.total_energy(s, params),
                           lambda s: ns.lyapunov_energy(s, params),
                           lambda s: ns.dissipation_rate(s, params),
                           lambda s: ns.weighted_dissipation(s, params, 0.5, 0)):
            with pytest.raises(ns.PositivityError) as exc_info:
                functional(state)
            assert (exc_info.value.field, exc_info.value.cell) == (name, cell)


class TestRecord:
    def test_equilibrium_all_zeros(self, params):
        grid = ns.make_grid(16, 128)
        bc = ns.BoundaryConfig(1.0, 1.0)
        eq = ns.interface_initial_state(grid, params, bc)
        ctx = ns.make_context(eq, params, weighted_pairs=((0.5, 0),))
        [rec] = ns.record(ctx)
        assert rec.mass_excess == 0.0 and rec.energy_total == 0.0
        assert rec.e_lyap == 0.0 and rec.v_diss == 0.0
        assert rec.phi_min == rec.phi_max == 1.0
        assert rec.v_min == rec.v_max == 1.0
        assert rec.theta_min == rec.theta_max == 1.0
        assert rec.bracket_violations == 0
        assert rec.lemma24_residual == 0.0
        assert rec.weighted[(0.5, 0)] == 0.0

    def test_lyapunov_chain_between_records(self, params, flagship_ic):
        p, grid, bc, state = flagship_ic(256, half_width=32)
        ctx = ns.make_context(state, p)
        recs = ns.record(ctx)

        def observer(s):
            recs.extend(ns.record(ctx, [s]))

        ns.run(state, p, bc, 0.05, observer=observer)
        for a, b in zip(recs, recs[1:]):
            assert (b.e_lyap + (b.diss_cum - a.diss_cum)
                    <= a.e_lyap + 1e-3 * ctx.e0 + 1e-14)

    def test_reused_values_equal_a_record_from_scratch(self, flagship_ic):
        # record() reuses the roots, the cutoff weights, the V of the last
        # fold and one set of differences; each field must equal the
        # functional itself
        p, grid, bc, state = flagship_ic(256, half_width=32)
        pairs = ((0.5, 0), (0.25, -3), (0.75, 0))
        ctx = ns.make_context(state, p, weighted_pairs=pairs)
        e0 = ns.lyapunov_energy(state, p)
        alpha1, alpha2 = ns.bracket_roots(e0)
        got = ns.record(ctx)
        # the trapezoid rule over the observed states
        prev_t, prev_v, diss_cum = state.t, ns.dissipation_rate(state, p), 0.0

        def scratch(s):
            violations = ns.cell_average_brackets(s, alpha1, alpha2)
            phi, v, theta = s.interior("phi"), s.interior("v"), s.interior("theta")
            return ns.DiagnosticsRecord(
                t=s.t, mass_excess=ns.mass_excess(s), energy_total=ns.total_energy(s, p),
                e_lyap=ns.lyapunov_energy(s, p), v_diss=ns.dissipation_rate(s, p),
                diss_cum=diss_cum, e0=e0, alpha1=alpha1, alpha2=alpha2,
                phi_min=float(phi.min()), phi_max=float(phi.max()),
                v_min=float(v.min()), v_max=float(v.max()),
                theta_min=float(theta.min()), theta_max=float(theta.max()),
                bracket_violations=len(violations),
                lemma24_residual=ns.lemma24_residual(s, state),
                weighted={(a, n): ns.weighted_dissipation(s, p, a, n)
                          for a, n in pairs})

        want = [scratch(state)]

        def observer(s):
            nonlocal prev_t, prev_v, diss_cum
            got.extend(ns.record(ctx, [s]))
            v_diss = ns.dissipation_rate(s, p)
            diss_cum += 0.5 * (s.t - prev_t) * (prev_v + v_diss)
            prev_t, prev_v = s.t, v_diss
            want.append(scratch(s))

        ns.run(state, p, bc, 0.1, observer=observer)
        assert len(got) == len(want) > 2
        for a, b in zip(got, want):
            assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_make_context_folds_the_initial_state(self, flagship_ic):
        # folding the initial state again adds a zero-width trapezoid
        p, grid, bc, state = flagship_ic(128, half_width=32)
        every, later = ns.make_context(state, p), ns.make_context(state, p)
        assert every.v_last == ns.dissipation_rate(state, p) > 0.0
        ns.record(every, [state])
        assert every.diss_cum == 0.0

        def observer(s):
            ns.record(every, [s])
            ns.record(later, [s])

        ns.run(state, p, bc, 0.05, observer=observer)
        assert every.state.t == later.state.t == 0.05
        assert later.diss_cum == every.diss_cum > 0.0

    def test_record_reads_the_last_fold(self, flagship_ic):
        p, grid, bc, state = flagship_ic(128, half_width=32)
        ctx = ns.make_context(state, p)
        later = ns.run(state, p, bc, 0.01).state
        assert [r.t for r in ns.record(ctx)] == [0.0]
        [rec] = ns.record(ctx, [later])
        assert rec.t == later.t == 0.01
        assert rec.e_lyap == ns.lyapunov_energy(later, p)
        assert rec.v_diss == ns.dissipation_rate(later, p)
        assert ns.record(ctx) == [rec]

    @pytest.mark.parametrize("name, value", [("u", math.nan), ("theta", 1e-10)],  # the floor
                             ids=["nan-u", "theta-at-floor"])
    def test_a_failing_state_leaves_the_context_as_it_was(self, flagship_ic, name, value):
        p, grid, bc, state = flagship_ic(128, half_width=32)
        states = []
        ns.run(state, p, bc, 0.25, observer=states.append)
        bad = states[3].copy()
        getattr(bad, name)[grid.n_ghost + 5] = value
        with pytest.raises(ns.PositivityError) as want:
            ns.core.check_positive(bad, p)
        block = ns.make_context(state, p, weighted_pairs=((0.5, 0),))
        ns.record(block, states[:2], [])
        v_last, diss_cum = block.v_last, block.diss_cum
        assert diss_cum > 0.0
        with pytest.raises(ns.PositivityError) as got:
            ns.record(block, [states[2], bad, states[4]], [0, 1, 2])
        assert ((got.value.field, got.value.cell, got.value.t)
                == (want.value.field, want.value.cell, want.value.t) == (name, 5, bad.t))
        assert block.state is states[1]
        assert (block.v_last, block.diss_cum) == (v_last, diss_cum)
        # the states after the last one folded fold on as if the bad one never came
        single = ns.make_context(state, p, weighted_pairs=((0.5, 0),))
        records = [rec for s in states[:5] for rec in ns.record(single, [s])]
        assert ns.record(block, states[2:5], [0, 1, 2]) == records[2:]
        assert (block.v_last, block.diss_cum) == (single.v_last, single.diss_cum)

    def test_one_guard_per_observed_state(self, flagship_ic, monkeypatch):
        # make_context() guards the initial state once, and record() guards
        # a state it folds once, however many functionals and weighted pairs
        # it evaluates; with no states it guards nothing
        p, grid, bc, state = flagship_ic(128, half_width=32)
        later = ns.step(state, p, p.cfl * min(ns.step_limits(state, p)))
        calls = []
        guard = ns.diagnostics.check_positive
        monkeypatch.setattr(ns.diagnostics, "check_positive",
                            lambda *args: calls.append(args) or guard(*args))
        ctx = ns.make_context(state, p, weighted_pairs=((0.5, 0), (0.25, -3)))
        assert len(calls) == 1
        [rec] = ns.record(ctx, [later])
        assert len(calls) == 2
        assert ns.record(ctx) == [rec]
        assert len(calls) == 2
        assert set(rec.weighted) == {(0.5, 0), (0.25, -3)}


class TestTranslationInvariance:
    def test_functionals_follow_cell_shifts(self, params):
        grid = ns.make_grid(16, 512)
        bc = ns.BoundaryConfig(1.0, 1.0)
        state = ns.interface_initial_state(
            grid, params, bc, v_amp=0.3, v_width=1.0, v_center=0.0,
            u_amp=0.2, u_width=1.0, u_center=0.0,
            theta_amp=0.2, theta_width=1.0, theta_center=0.0)
        shifted = state.copy()
        cells_per_unit = grid.n_cells // 32
        shift = 3 * cells_per_unit  # three unit intervals
        s = grid.interior
        for name in ("v", "u", "theta", "phi"):
            getattr(shifted, name)[s] = np.roll(getattr(state, name)[s], shift)
        ns.apply_bc(shifted, bc)
        for fn in (ns.mass_excess,
                   lambda st: ns.total_energy(st, params),
                   lambda st: ns.lyapunov_energy(st, params),
                   lambda st: ns.dissipation_rate(st, params)):
            a, b = fn(state), fn(shifted)
            assert b == pytest.approx(a, rel=1e-12, abs=1e-12)
        w0 = ns.weighted_dissipation(state, params, 0.5, 0)
        w3 = ns.weighted_dissipation(shifted, params, 0.5, 3)
        assert w3 == pytest.approx(w0, rel=1e-12, abs=1e-12)
