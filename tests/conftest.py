"""Shared fixtures: default parameters, the flagship initial data, a runner
that takes the CLI's diagnostics record on every step (the acceptance suite
asserts through these records and audit_records), a NaN-injecting sources
hook, and the linear stability certificate of a step (the kernel's Jacobian,
its spectrum and the step's amplification on it)."""

import math

import numpy as np
import pytest

import nsac1d as ns


@pytest.fixture(scope="session")
def params():
    return ns.SimParams()


def x_with_ghosts(grid):
    """Cell centres of a ghost-padded array: x_i = -L + (i + 1/2) dx for
    i = -n_ghost ... N + n_ghost - 1."""
    i = np.arange(-grid.n_ghost, grid.n_cells + grid.n_ghost)
    return -grid.half_width + (i + 0.5) * grid.dx


def recorded_run(params, bc, state, t_final):
    """run() with record() taken on the initial state and after every
    accepted step, as `nsac1d run` records them at diag_every_steps = 1;
    returns (result, records)."""
    ctx = ns.make_context(state, params)
    records = ns.record(ctx)

    def observer(s):
        records.extend(ns.record(ctx, [s]))

    result = ns.run(state, params, bc, t_final, observer=observer)
    return result, records


# Lemma 2.4 on the flagship data: from N = 256 to N = 512 the
# integrated-momentum residual at t = 0.05 falls by at least 2, an order of
# at least 1 (Heun: 2.96, an order of 1.56)
LEMMA24_T = 0.05
LEMMA24_RESOLUTIONS = (256, 512)
MIN_LEMMA24_ORDER = 1.0


def lemma24_order(flagship_ic):
    """log2 of lemma24_residual of the flagship data at LEMMA24_T on the
    coarser of LEMMA24_RESOLUTIONS over that on the finer."""
    residuals = []
    for n in LEMMA24_RESOLUTIONS:
        p, _, bc, state = flagship_ic(n)
        initial = state.copy()
        residuals.append(ns.lemma24_residual(ns.run(state, p, bc, LEMMA24_T).state, initial))
    coarse, fine = residuals
    return math.log2(coarse / fine)


def temporal_orders(initial, params, bc, t_final, caps, sources=None):
    """log2 of the ratio of successive differences between the final v, u,
    theta and phi of runs from `initial` to t_final under each dt cap of
    `caps` (coarse, mid, fine); returns (orders by field, the runs' StepControls)."""
    results = [ns.run(initial, params, bc, t_final, dt_cap=cap, sources=sources)
               for cap in caps]
    orders = {}
    for name in ("v", "u", "theta", "phi"):
        coarse, mid, fine = (result.state.interior(name) for result in results)
        orders[name] = math.log2(np.linalg.norm(coarse - mid) / np.linalg.norm(mid - fine))
    return orders, [result.control for result in results]


def amplification(stages, z):
    """R(z): a step of `stages` stages on the scalar y' = lambda y from y = 1,
    with z = lambda dt, by step()'s own recurrence: Heun for 2, the RKL2
    increments of rkl2_coefficients for more."""
    if stages == 2:
        stage = 1.0 + z
        return 0.5 * (1.0 + stage + z * stage)
    first, *rest = ns.integrator.rkl2_coefficients(stages)
    older, last = 0.0, first[2] * z
    for mu, nu, mu_t, gamma_t, _ in rest:
        older, last = last, mu * last + nu * older + z * (mu_t * (1.0 + last) + gamma_t)
    return 1.0 + last


# semi_discrete_rhs at cell i reads u, phi, theta and v at cells i - 2 ... i + 2
# (it differences p_eff, which holds phi_x), and the ghosts are constants
KERNEL_REACH = 2


def kernel_jacobian(state, params, bc, period=2 * KERNEL_REACH + 1):
    """The Jacobian of semi_discrete_rhs in u, phi, theta and v at the interior
    cells, a (4N, 4N) array in FIELDS order, by central differences.  Each
    pair of kernel calls perturbs every period-th cell of one field at once
    (column colouring), and each row takes its entry from the perturbed cell
    within KERNEL_REACH of it; a period of N or more perturbs one cell per
    pair and keeps every entry (the dense Jacobian)."""
    grid = state.grid
    n, s = grid.n_cells, grid.interior
    period = min(period, n)
    cell = np.arange(n)
    jacobian = np.zeros((4, n, 4, n))

    def rhs(data):
        return ns.semi_discrete_rhs(ns.FlowState(grid, state.t, data), params, bc).data[:4, s]

    for field in range(4):
        h = 1e-6 * max(1.0, np.abs(state.data[field, s]).max())
        for first in range(period):
            plus, minus = state.data.copy(), state.data.copy()
            plus[field, s][first::period] += h
            minus[field, s][first::period] -= h
            column = (rhs(plus) - rhs(minus)) / (2.0 * h)
            if period == n:
                jacobian[:, :, field, first] = column
                continue
            back = (cell - first) % period  # cells since the last perturbed one
            source = np.where(back <= KERNEL_REACH, cell - back, cell + period - back)
            rows = ((np.minimum(back, period - back) <= KERNEL_REACH)
                    & (source >= 0) & (source < n))
            jacobian[:, cell[rows], field, source[rows]] = column[:, rows]
    return jacobian.reshape(4 * n, 4 * n)


def linear_amplification(state, params, bc, dt, stages):
    """The step's excess amplification on the linearized kernel at state:
    the max over the eigenvalues lambda of kernel_jacobian of
    |R(dt lambda)| / max(1, |exp(dt lambda)|) - 1, with R = amplification.
    At most 0 up to roundoff certifies the step: no mode grows faster than
    the exact linear flow lets it, which for a decaying mode is not at all
    (the linearization has modes of physical growth, so |R| <= 1 is wrong)."""
    z = dt * np.linalg.eigvals(kernel_jacobian(state, params, bc))
    ratio = np.abs(amplification(stages, z)) / np.maximum(1.0, np.abs(np.exp(z)))
    return float(ratio.max()) - 1.0


def nan_sources_after(t_bad):
    """A sources(x, t) hook for run() that is NaN at stage times past t_bad."""

    def sources(x, t):
        value = np.nan if t > t_bad else 0.0
        return (np.full_like(x, value),) * 4

    return sources


@pytest.fixture(scope="session")
def flagship_ic():
    """Interface run with hydrodynamic bumps, kept well away from the far field;
    keyword arguments of interface_initial_state replace the flagship's."""

    def make(n_cells, half_width=32, epsilon=1.0, beta=1.0, **data):
        p = ns.SimParams(epsilon=epsilon, beta=beta)
        grid = ns.make_grid(half_width, n_cells)
        bc = ns.BoundaryConfig(-1.0, 1.0)
        keys = dict(phi_width=1.0,
                    v_amp=0.2, v_width=1.5, v_center=-2.0,
                    u_amp=0.25, u_width=1.5, u_center=2.0,
                    theta_amp=0.25, theta_width=1.5, theta_center=0.0)
        state = ns.interface_initial_state(grid, p, bc, **{**keys, **data})
        return p, grid, bc, state

    return make
