import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nsac1d as ns
from conftest import x_with_ghosts
from nsac1d import operators
from nsac1d.core import FlowState
from nsac1d.operators import check_positive


def manual_state(grid, v, u, theta, phi, t=0.0, G=None):
    """Build a state from full ghost-padded arrays, bypassing apply_bc."""
    if G is None:
        G = np.zeros(grid.n_total)
    fields = dict(v=v, u=u, theta=theta, phi=phi, G=G)
    data = np.array([np.asarray(fields[name], float) for name in ns.core.FIELDS])
    return FlowState(grid, t, data)


# the stencil owners: name -> (the shape of its scratch from its arguments,
# or None where it takes none; the entries of its result that hold values)
OWNERS = {
    "centered": (None, ...),
    "face_average": (None, ...),
    "cell_coefficients": (None, ...),
    "diffusion_flux": (lambda a_face, f, dx: a_face.shape, np.s_[1:-1]),
    "potential_from": (lambda phi, phi_lap, eps: phi.shape, ...),
}


@pytest.fixture
def out_form_checked(monkeypatch):
    """Each stencil owner, in nsac1d and nsac1d.operators, called in both
    forms on every call: the new array, and the out= form on the caller's
    out, or on a NaN-filled out (and scratch) where the caller gave none.
    The out= call must return out and hold the new array's bits wherever
    the result holds values; the caller gets it."""
    for name, (scratch_shape, filled) in OWNERS.items():
        def checked(*args, _owner=getattr(operators, name), _scratch_shape=scratch_shape,
                    _filled=filled, **given):
            new = _owner(*args)
            if "out" not in given:
                given = {"out": np.full(new.shape, np.nan)}
                if _scratch_shape is not None:
                    given["scratch"] = np.full(_scratch_shape(*args), np.nan)
            got = _owner(*args, **given)
            assert got is given["out"]
            assert got[_filled].tobytes() == new[_filled].tobytes()
            return got

        for module in (ns, operators):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, checked)


@pytest.mark.usefixtures("out_form_checked")
class TestD1Center:
    """The central first derivative `centered`: one value per cell with both
    neighbours."""

    def test_constant(self):
        grid = ns.make_grid(1, 8)
        out = ns.centered(np.full(grid.n_total, 3.7), grid.dx)
        assert out.shape == (grid.n_total - 2,)
        assert np.all(out == 0.0)

    def test_linear_exact(self):
        grid = ns.make_grid(1, 8)
        out = ns.centered(x_with_ghosts(grid).copy(), grid.dx)
        assert np.all(out == 1.0)

    def test_quadratic_exact(self):
        grid = ns.make_grid(1, 8)
        x = x_with_ghosts(grid)
        out = ns.centered(x**2, grid.dx)
        assert np.array_equal(out, 2.0 * x[1:-1])


@pytest.mark.usefixtures("out_form_checked")
class TestDiffusionFlux:
    def test_constant_field(self):
        grid = ns.make_grid(1, 8)
        a = ns.face_average(1.0 + 0.3 * x_with_ghosts(grid)**2)
        out = ns.diffusion_flux(a, np.full(grid.n_total, 2.5), grid.dx)
        assert np.all(out[1:-1] == 0.0)

    def test_unit_coefficient_quadratic(self):
        # dyadic grid: the second difference of x^2 is exact in floats
        grid = ns.make_grid(1, 8)
        x = x_with_ghosts(grid)
        out = ns.diffusion_flux(np.ones(grid.n_total - 1), x**2, grid.dx)
        assert np.all(out[1:-1] == 2.0)

    def test_convergence_against_analytic_target(self):
        # a = 1.5 + 0.5 sin x, f = cos 2x; (a f')' = a'f' + a f'' by hand
        errs = []
        for n in (64, 128, 256):
            grid = ns.make_grid(4, n)
            x = x_with_ghosts(grid)
            a = 1.5 + 0.5 * np.sin(x)
            f = np.cos(2 * x)
            got = ns.diffusion_flux(ns.face_average(a), f, grid.dx)
            target = (0.5 * np.cos(x)) * (-2 * np.sin(2 * x)) + a * (-4 * np.cos(2 * x))
            errs.append(np.max(np.abs(got[1:-1] - target[1:-1])))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.9

    def test_interior_sum_telescopes(self):
        rng = np.random.default_rng(7)
        grid = ns.make_grid(4, 32)
        a_cell = 1.0 + rng.random(grid.n_total)
        f = rng.standard_normal(grid.n_total)
        a = ns.face_average(a_cell)
        out = ns.diffusion_flux(a, f, grid.dx)
        s = grid.interior
        total = np.sum(out[s]) * grid.dx**2
        lo, hi = grid.n_ghost, grid.n_ghost + grid.n_cells
        expected = (a[hi - 1] * (f[hi] - f[hi - 1]) - a[lo - 1] * (f[lo] - f[lo - 1]))
        assert total == pytest.approx(expected, rel=1e-12, abs=1e-13)


@pytest.mark.usefixtures("out_form_checked")
class TestChemicalPotential:
    def test_pure_phase_vanishes(self, params):
        grid = ns.make_grid(4, 16)
        bc = ns.BoundaryConfig(1.0, 1.0)
        eq = ns.interface_initial_state(grid, params, bc)
        assert np.all(ns.chemical_potential(eq, params) == 0.0)

    def test_linear_phase_gives_cubic(self, params):
        grid = ns.make_grid(1, 8)
        x = x_with_ghosts(grid)
        state = manual_state(grid, np.ones_like(x), np.zeros_like(x),
                             np.ones_like(x), x.copy())
        mu = ns.chemical_potential(state, params)
        s = grid.interior
        assert mu == pytest.approx(x[s] ** 3 - x[s], abs=1e-14)

    def test_tanh_profile_matches_analytic(self, params):
        # eps = 1, v = 1: mu = (phi^3 - phi) - phi_xx in the continuum;
        # the discrete value converges to the dense direct evaluation
        errs = []
        for n in (512, 1024):
            grid = ns.make_grid(16, n)
            x = x_with_ghosts(grid)
            state = manual_state(grid, np.ones_like(x), np.zeros_like(x),
                                 np.ones_like(x), np.tanh(x / 2.0))
            mu = ns.chemical_potential(state, params)
            th = np.tanh(grid.x / 2.0)
            exact = (th**3 - th) - (-0.5 * th * (1.0 - th**2))
            errs.append(np.max(np.abs(mu - exact)))
        assert errs[0] < 2e-4
        assert errs[0] / errs[1] > 3.0  # second-order stencil

    def test_odd_symmetry(self, params):
        rng = np.random.default_rng(3)
        grid = ns.make_grid(4, 32)
        v = 1.0 + 0.4 * rng.random(grid.n_total)
        phi = rng.uniform(-1, 1, grid.n_total)
        base = manual_state(grid, v, np.zeros_like(v), np.ones_like(v), phi)
        flipped = manual_state(grid, v, np.zeros_like(v), np.ones_like(v), -phi)
        assert np.array_equal(ns.chemical_potential(flipped, params),
                              -ns.chemical_potential(base, params))


class TestReciprocalForms:
    """The owners multiply by 0.5/dx, 1/dx^2 and 1/eps; where dx and eps are
    powers of two those reciprocals are exact, and each product has the
    bytes of the division it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dx_exp=st.integers(-20, 20),
           eps_exp=st.integers(-20, 20))
    def test_power_of_two_steps_give_the_division_forms(self, seed, dx_exp, eps_exp):
        rng = np.random.default_rng(seed)
        dx, eps = 2.0**dx_exp, 2.0**eps_exp

        def draw(n):
            return rng.standard_normal(n) * 10.0 ** rng.uniform(-5.0, 5.0, n)

        f, phi, phi_lap = draw(40), draw(38), draw(38)
        a_face = np.abs(draw(39))
        assert operators.centered(f, dx).tobytes() == ((f[2:] - f[:-2]) / (2.0 * dx)).tobytes()
        flux = a_face * (f[1:] - f[:-1])
        assert (operators.diffusion_flux(a_face, f, dx)[1:-1].tobytes()
                == ((flux[1:] - flux[:-1]) / dx**2).tobytes())
        assert (operators.potential_from(phi, phi_lap, eps).tobytes()
                == ((phi * phi * phi - phi) / eps - eps * phi_lap).tobytes())


@pytest.mark.usefixtures("out_form_checked")
class TestDerivedFields:
    """Quantities derived inside the kernel, seen through its outputs."""

    def test_positive_face_coefficients(self, params):
        # positive face coefficients make sum f (a f_x)_x <= 0 when f vanishes
        # in the ghosts; p_eff = theta/v = 1 isolates the viscous term in du,
        # and u = 0 with a constant phase isolates conduction in dtheta
        rng = np.random.default_rng(11)
        grid = ns.make_grid(4, 32)
        bc = ns.BoundaryConfig(1.0, 1.0)
        ones = np.ones(grid.n_total)
        v = 0.5 + rng.random(grid.n_total)
        theta = 0.5 + rng.random(grid.n_total)
        viscous = manual_state(grid, v, rng.standard_normal(grid.n_total), v, ones)
        conductive = manual_state(grid, v, 0 * ones, theta, ones)
        ns.apply_bc(viscous, bc)
        ns.apply_bc(conductive, bc)
        s = grid.interior
        rhs_u = ns.semi_discrete_rhs(viscous, params)
        dtheta = ns.semi_discrete_rhs(conductive, params)[2, s]
        assert rhs_u.shape == (5, grid.n_total)
        assert np.sum(viscous.interior("u") * rhs_u[0, s]) < 0.0
        assert np.sum((conductive.interior("theta") - 1.0) * dtheta) < 0.0

    @pytest.mark.parametrize("value", [-1.0, 0.0, 1.0])
    def test_mu_vanishes_on_constant_phase(self, params, value):
        # the ghosts hold +-1, so for phi = 0 only the cells clear of the
        # boundary stencil see a constant phase
        grid = ns.make_grid(4, 16)
        bc = ns.BoundaryConfig(value or 1.0, value or 1.0)
        ones = np.ones(grid.n_total)
        state = manual_state(grid, ones, 0 * ones, ones, np.full(grid.n_total, value))
        ns.apply_bc(state, bc)
        dphi = ns.semi_discrete_rhs(state, params)[1, grid.interior]  # -v mu
        assert np.all(dphi[slice(None) if value else slice(1, -1)] == 0.0)


def _rhs_by_expression(state, params):
    """The kernel as plain numpy expressions, with the stencils written out
    and each term in the order the kernel takes it, /v, /dx and /eps as
    products with 1/v, 0.5/dx, 1/dx^2 and 1/eps: the bit-for-bit reference
    for its in-place rows.  A (5, N + 4) array."""
    grid = state.grid
    dx, s = grid.dx, grid.interior
    n, g, m = grid.n_cells, grid.n_ghost, grid.n_total
    eps = params.epsilon
    data = state.data
    v, theta = data[3], data[2]
    v_i = v[s]
    coef = np.empty((3, m))
    inv_v = 1.0 / v
    coef[0] = inv_v
    coef[1] = inv_v
    coef[2] = theta**params.beta * inv_v
    c, f = coef.reshape(-1), data[:3].reshape(-1)
    flux = 0.5 * (c[:-1] + c[1:]) * (f[1:] - f[:-1])
    lap = np.zeros(f.shape)
    lap[1:-1] = (flux[1:] - flux[:-1]) * (1.0 / dx**2)
    visc, phi_lap, conduct = lap.reshape(3, m)[:, s]
    e = slice(g - 1, g + n + 1)
    u_phi = data[:2, g - 2:g + n + 2]
    u_x, phi_x = (u_phi[:, 2:] - u_phi[:, :-2]) * (0.5 / dx)
    u_x = u_x[1:-1]
    phi = data[1, s]
    mu = (phi * phi * phi - phi) * (1.0 / eps) - eps * phi_lap
    p_thermal = theta[e] * inv_v[e]
    p_eff = p_thermal + 0.5 * eps * (phi_x * inv_v[e]) ** 2
    out = np.zeros(data.shape)
    out[0, s] = visc - (p_eff[2:] - p_eff[:-2]) * (0.5 / dx)
    out[1, s] = -v_i * mu
    out[2, s] = conduct - p_thermal[1:-1] * u_x + u_x**2 * inv_v[s] + v_i * mu**2
    out[3, s] = u_x
    out[4, s] = p_eff[1:-1]
    return out


class TestSemiDiscreteRhs:
    def test_sine_velocity_closed_forms(self, params):
        # u = sin(pi x / L), everything else at equilibrium, phi = 1:
        # dv = u_x, du = diffusion of u, dtheta = -u_x + u_x^2 pointwise
        grid = ns.make_grid(16, 128)
        bc = ns.BoundaryConfig(1.0, 1.0)
        state = ns.interface_initial_state(grid, params, bc)
        state.u[:] = np.sin(np.pi * x_with_ghosts(grid) / 16.0)
        ns.apply_bc(state, bc)

        u = state.u
        s = grid.interior
        du, dphi, dtheta, dv, _ = ns.semi_discrete_rhs(state, params)[:, s]
        u_x = (u[2:] - u[:-2]) / (2 * grid.dx)
        u_x = np.concatenate([[0.0], u_x, [0.0]])[s]
        diff = (u[2:] - 2 * u[1:-1] + u[:-2]) / grid.dx**2
        diff = np.concatenate([[0.0], diff, [0.0]])[s]
        assert dv == pytest.approx(u_x, abs=1e-12)
        assert du == pytest.approx(diff, abs=1e-12)
        assert dtheta == pytest.approx(-u_x + u_x**2, abs=1e-12)
        assert dphi == pytest.approx(np.zeros(grid.n_cells), abs=0)

    def test_mass_rate_telescopes(self, params):
        grid = ns.make_grid(16, 128)
        bc = ns.BoundaryConfig(-1.0, 1.0)
        state = ns.interface_initial_state(
            grid, params, bc, phi_width=1.0,
            v_amp=0.3, v_width=2.0, v_center=-3.0,
            u_amp=0.4, u_width=2.0, u_center=3.0,
            theta_amp=0.2, theta_width=2.0, theta_center=0.0)
        dv = ns.semi_discrete_rhs(state, params)[3, grid.interior]
        g = grid.n_ghost
        u = state.u
        face = 0.5 * (u[g + grid.n_cells - 1] + u[g + grid.n_cells]) - 0.5 * (u[g - 1] + u[g])
        assert np.sum(dv) * grid.dx == pytest.approx(face, abs=1e-15)

    def test_momentum_rate_telescopes(self, params):
        grid = ns.make_grid(16, 128)
        bc = ns.BoundaryConfig(-1.0, 1.0)
        state = ns.interface_initial_state(
            grid, params, bc, phi_width=1.0,
            v_amp=0.2, v_width=2.0, v_center=-3.0,
            u_amp=0.3, u_width=2.0, u_center=3.0)
        du, _, _, _, dG = ns.semi_discrete_rhs(state, params)[:, grid.interior]
        lo, hi = grid.n_ghost, grid.n_ghost + grid.n_cells
        u, v = state.u, state.v
        # p_eff at every cell with both neighbours; the outermost stay 0
        c = slice(1, -1)
        phi_x = ns.centered(state.phi, grid.dx)
        inv_v = 1.0 / v
        p_eff = np.zeros(grid.n_total)
        p_eff[c] = state.theta[c] * inv_v[c] + 0.5 * params.epsilon * (phi_x * inv_v[c]) ** 2
        # G integrates the same effective pressure that du differences
        assert np.array_equal(dG, p_eff[grid.interior])
        a = ns.face_average(1.0 / v)
        right = a[hi - 1] * (u[hi] - u[hi - 1]) / grid.dx - 0.5 * (p_eff[hi - 1] + p_eff[hi])
        left = a[lo - 1] * (u[lo] - u[lo - 1]) / grid.dx - 0.5 * (p_eff[lo - 1] + p_eff[lo])
        assert np.sum(du) * grid.dx == pytest.approx(right - left, abs=1e-13)
        # far-field data: both faces carry the same constant state
        assert np.sum(du) * grid.dx == pytest.approx(0.0, abs=1e-12)

    def test_viscous_heating_nonnegative(self, params):
        rng = np.random.default_rng(5)
        grid = ns.make_grid(16, 64)
        bc = ns.BoundaryConfig(-1.0, 1.0)
        for _ in range(5):
            state = ns.interface_initial_state(
                grid, params, bc, phi_width=1.0,
                v_amp=float(rng.uniform(-0.5, 1.0)), v_width=1.5, v_center=-2.0,
                u_amp=float(rng.uniform(-1, 1)), u_width=1.5, u_center=2.0,
                theta_amp=float(rng.uniform(-0.5, 1.0)), theta_width=1.5)
            _, dphi, _, u_x, _ = ns.semi_discrete_rhs(state, params)[:, grid.interior]
            vi = state.interior("v")
            mu = -dphi / vi
            heating = u_x**2 / vi + vi * mu**2
            assert np.all(heating >= 0.0)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([8, 16, 64]),
           beta=st.sampled_from([0.5, 1.0, 2.0]), epsilon=st.sampled_from([0.05, 1.0]))
    def test_equals_the_expressions_bit_for_bit(self, seed, n, beta, epsilon):
        # every row drawn, ghosts and G included, so no ghost is the far field
        rng = np.random.default_rng(seed)
        params = ns.SimParams(epsilon=epsilon, beta=beta)
        m = n + 2 * ns.core.N_GHOST
        data = np.array([rng.normal(0.0, 2.0, m), rng.uniform(-1.5, 1.5, m),
                         rng.uniform(0.05, 5.0, m), rng.uniform(0.05, 5.0, m),
                         rng.normal(0.0, 1.0, m)])
        state = FlowState(ns.make_grid(4, n), 0.0, data)
        out = ns.semi_discrete_rhs(state, params)
        expected = _rhs_by_expression(state, params)
        assert type(out) is np.ndarray
        assert np.array_equal(out, expected)
        assert out.tobytes() == expected.tobytes()  # the sign of a zero too

    def test_writes_nothing_to_its_input(self, params):
        # ghosts off the far field, G's too: the kernel reads them as they stand
        grid = ns.make_grid(4, 16)
        state = ns.interface_initial_state(grid, params, ns.BoundaryConfig(-1.0, 1.0),
                                           phi_width=0.25, u_amp=0.2, u_width=0.5)
        g = grid.n_ghost
        state.data[:, :g] += 0.05
        state.data[:, -g:] += 0.1
        before = state.data.tobytes()
        ns.semi_discrete_rhs(state, params)
        assert state.data.tobytes() == before

    @pytest.mark.parametrize("grids", [(16,), (16, 32)])
    def test_a_workspace_carries_nothing_from_call_to_call(self, params, grids):
        # states A and B on each grid, ghosts and G drawn, called A, B, A on
        # one grid, and interleaved on two: each result is the one a fresh
        # workspace gives, and no call writes to a state or an earlier result
        rng = np.random.default_rng(29)

        def drawn(n):
            m = n + 2 * ns.core.N_GHOST
            data = np.array([rng.normal(0.0, 2.0, m), rng.uniform(-1.5, 1.5, m),
                             rng.uniform(0.05, 5.0, m), rng.uniform(0.05, 5.0, m),
                             rng.normal(0.0, 1.0, m)])
            return FlowState(ns.make_grid(4, n), 0.0, data)

        states = [drawn(n) for n in grids for _ in "AB"]
        inputs = [state.data.tobytes() for state in states]
        fresh = []
        for state in states:
            operators._kernel_workspace.cache_clear()
            fresh.append(ns.semi_discrete_rhs(state, params).tobytes())
        operators._kernel_workspace.cache_clear()
        order = [0, 1, 0] if len(grids) == 1 else [0, 2, 1, 3, 0, 2]
        results = [ns.semi_discrete_rhs(states[k], params) for k in order]
        assert [rhs.tobytes() for rhs in results] == [fresh[k] for k in order]
        assert [state.data.tobytes() for state in states] == inputs
        assert operators._kernel_workspace.cache_info().misses == len(grids)

    def test_an_mms_ladder_builds_each_workspace_once(self, params):
        case = ns.ManufacturedCase(params, 8.0, t_star=0.002)
        assert operators.WORKSPACE_GRIDS >= 3
        operators._kernel_workspace.cache_clear()
        for _ in range(2):
            ns.convergence_study(case, (32, 64, 128))
        assert operators._kernel_workspace.cache_info().misses == 3

    def test_positivity_guard_names_cell_and_field(self, params):
        grid = ns.make_grid(4, 16)
        bc = ns.BoundaryConfig(1.0, 1.0)
        state = ns.interface_initial_state(grid, params, bc)
        state.theta[grid.n_ghost + 5] = 1e-12
        with pytest.raises(ns.PositivityError) as exc_info:
            ns.semi_discrete_rhs(state, params)
        err = exc_info.value
        assert err.field == "theta"
        assert err.cell == 5
        assert "cell 5" in str(err)


class TestCheckPositive:
    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(["v", "u", "theta", "phi"]),
           cell=st.integers(0, 31), value=st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_non_finite_names_field_and_cell(self, name, cell, value):
        params = ns.SimParams()
        grid = ns.make_grid(4, 32)
        bc = ns.BoundaryConfig(-1.0, 1.0)
        state = ns.interface_initial_state(grid, params, bc, phi_width=0.25,
                                           u_amp=0.2, u_width=0.5)
        state.interior(name)[cell] = value
        for guarded in (lambda: check_positive(state, params),
                        lambda: ns.semi_discrete_rhs(state, params)):
            with pytest.raises(ns.PositivityError) as exc_info:
                guarded()
            err = exc_info.value
            assert (err.field, err.cell) == (name, cell)
            assert f"cell {cell}" in str(err)
        with pytest.raises(ns.PositivityError) as exc_info:
            ns.state_from_fields(grid, bc, state.data[:4, grid.interior], params)
        assert (exc_info.value.field, exc_info.value.cell) == (name, cell)

    @pytest.mark.parametrize("name", ["v", "u", "theta", "phi"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_ghost_names_its_offset(self, params, name, value):
        grid = ns.make_grid(4, 16)
        n = grid.n_cells
        for column, cell in ((0, -2), (1, -1), (n + 2, n), (n + 3, n + 1)):
            state = ns.interface_initial_state(grid, params, ns.BoundaryConfig(1.0, 1.0))
            getattr(state, name)[column] = value
            with pytest.raises(ns.PositivityError) as exc_info:
                check_positive(state, params)
            err = exc_info.value
            assert (err.field, err.cell) == (name, cell)
            assert f"{name} = {value} at cell {cell} " in str(err)

    def test_nan_message_says_not_finite(self, params):
        grid = ns.make_grid(4, 16)
        state = ns.interface_initial_state(grid, params, ns.BoundaryConfig(1.0, 1.0))
        state.interior("theta")[3] = np.nan
        with pytest.raises(ns.PositivityError, match="theta = nan at cell 3 .* not finite"):
            check_positive(state, params)

    def test_reports_first_cell_below_floor(self, params):
        grid = ns.make_grid(4, 16)
        state = ns.interface_initial_state(grid, params, ns.BoundaryConfig(1.0, 1.0))
        state.interior("v")[[2, 9]] = (1e-12, -0.5)
        with pytest.raises(ns.PositivityError) as exc_info:
            check_positive(state, params)
        assert (exc_info.value.field, exc_info.value.cell) == ("v", 2)


def _exact_scan(state, params):
    """check_positive without its fast path: the per-field scan, as the
    reference for every verdict, field, cell and message."""
    s = state.grid.interior
    floor = params.positivity_floor
    for name in ("v", "theta", "u", "phi"):
        vals = getattr(state, name)
        ok = np.isfinite(vals)
        if name in ("v", "theta"):
            ok[s] &= vals[s] > floor
        if not ok.all():
            j = int(np.argmin(ok))
            raise ns.PositivityError(name, j - s.start, vals[j], state.t, floor)


def _verdict(guard, state, params):
    """None if the guard passes the state, else (field, cell, message)."""
    try:
        guard(state, params)
    except ns.PositivityError as err:
        return err.field, err.cell, str(err)
    return None


class TestGuardFastPath:
    """The three-reduction fast path of check_positive gives the verdict of
    the exact scan: a drawn cell of any row, ghosts included."""

    GRID = ns.make_grid(4, 16)
    cells = st.integers(0, GRID.n_total - 1)

    def _state(self, params, edits):
        state = ns.interface_initial_state(self.GRID, params, ns.BoundaryConfig(-1.0, 1.0),
                                           phi_width=0.25, u_amp=0.2, u_width=0.5)
        for name, column, value in edits:
            getattr(state, name)[column] = value
        return state

    @settings(max_examples=60, deadline=None)
    @given(edits=st.lists(st.tuples(st.sampled_from(["u", "phi", "theta", "v"]), cells,
                                    st.sampled_from([np.nan, np.inf, -np.inf])),
                          min_size=1, max_size=3))
    def test_non_finite_is_rejected_as_by_the_scan(self, params, edits):
        state = self._state(params, edits)
        verdict = _verdict(check_positive, state, params)
        assert verdict is not None
        assert verdict == _verdict(_exact_scan, state, params)

    @settings(max_examples=60, deadline=None)
    @given(huge=st.lists(st.tuples(st.sampled_from(["u", "phi", "theta", "v"]), cells,
                                   st.floats(1e308, 1.7976931348623157e308)),
                         min_size=2, max_size=4, unique_by=lambda edit: edit[:2]),
           sign=st.sampled_from([1.0, -1.0]))
    def test_overflowing_sum_is_accepted(self, params, huge, sign):
        # theta and v stay positive, u and phi take the drawn sign
        edits = [(name, column, value if name in ("theta", "v") else sign * value)
                 for name, column, value in huge]
        state = self._state(params, edits)
        with np.errstate(over="ignore", invalid="ignore"):
            assume(not math.isfinite(state.data[:4].sum()))
        assert _verdict(check_positive, state, params) is None
        assert _verdict(_exact_scan, state, params) is None

    def test_huge_values_pass_without_a_warning(self, params):
        # a sum of the rows would overflow here, and the warning numpy gives
        # would be raised out of the guard by the suite's filterwarnings
        state = self._state(params, [("theta", 5, 1e308), ("phi", 6, 1e308)])
        assert check_positive(state, params) is None

    @settings(max_examples=30, deadline=None)
    @given(low=st.lists(st.tuples(st.sampled_from(["theta", "v"]),
                                  st.sampled_from([0, 1, GRID.n_total - 2, GRID.n_total - 1]),
                                  st.sampled_from([0.0, -1.0, 1e-12, 1e-10])),
                        min_size=1, max_size=3))
    def test_ghost_below_the_floor_is_accepted(self, params, low):
        state = self._state(params, low)
        assert state.data[2:4].min() <= params.positivity_floor
        assert _verdict(check_positive, state, params) is None
        assert _verdict(_exact_scan, state, params) is None
