"""Shared fixtures: default parameters, the flagship initial data, a runner
that takes the CLI's diagnostics record on every step (the acceptance suite
asserts through these records and audit_records), a NaN-injecting sources
hook, and the linear stability certificate of a step (the kernel's Jacobian,
its spectrum and the step's amplification on it)."""

import math
import runpy
from pathlib import Path

import numpy as np
import pytest

import nsac1d as ns


# the flagship data's one owner, the benchmark's bench/workloads.py, read by path
WORKLOADS = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "workloads.py"))


@pytest.fixture(scope="session")
def params():
    return ns.SimParams()


@pytest.fixture(autouse=True)
def certified_steps_are_the_exact_choice(monkeypatch):
    """In every test, each step that run takes on the certificate of
    integrator.cap_step is checked against the exact path: the certified
    choice is the kind "cap" in 2 stages of its own base, and step_choice of
    step_limits on the same state gives the same dt, kind and landing in 2
    stages, so every cap-bound run of the suite is the exact path's run,
    byte for byte.  The functions are the unpatched ones, so a test that
    counts or replaces step_limits sees no extra call."""
    integrator = ns.integrator
    certify, limits_of = integrator.cap_step, integrator.step_limits
    choose, stages_of = integrator.step_choice, integrator.rkl2_stages

    def checked(state, params, cap, t_final):
        certified = certify(state, params, cap, t_final)
        if certified is not None:
            assert certified[1] == "cap" and stages_of(certified[0], certified[2]) == 2
            dt, kind, base, last = choose(limits_of(state, params), params, cap, state.t, t_final)
            assert (dt, kind, stages_of(dt, base), last) == (certified[0], "cap", 2, certified[3])
        return certified

    monkeypatch.setattr(integrator, "cap_step", checked)


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


def field_orders(states):
    """log2 of the ratio of successive differences between the v, u, theta
    and phi of three states (coarse, mid, fine), by field."""
    orders = {}
    for name in ("v", "u", "theta", "phi"):
        coarse, mid, fine = (state.interior(name) for state in states)
        orders[name] = math.log2(np.linalg.norm(coarse - mid) / np.linalg.norm(mid - fine))
    return orders


def temporal_orders(initial, params, bc, t_final, caps, sources=None):
    """field_orders of the final states of runs from `initial` to t_final
    under each dt cap of `caps` (coarse, mid, fine); returns (orders by
    field, the runs' StepControls)."""
    results = [ns.run(initial, params, bc, t_final, dt_cap=cap, sources=sources)
               for cap in caps]
    return (field_orders([result.state for result in results]),
            [result.control for result in results])


def amplification(stages, z):
    """R(z): a step of `stages` stages on the scalar y' = lambda y from y = 1,
    with z = lambda dt, by the recurrence step() runs, integrator.increments."""
    return 1.0 + ns.integrator.increments(1.0, 0.0, 1.0, lambda y, t: z * y, stages)


# semi_discrete_rhs at cell i reads u, phi, theta and v at cells i - 2 ... i + 2
# (it differences p_eff, which holds phi_x), and the ghosts are constants
KERNEL_REACH = 2


def kernel_jacobian(state, params, period=2 * KERNEL_REACH + 1):
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
        return ns.semi_discrete_rhs(ns.FlowState(grid, state.t, data), params)[:4, s]

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


def linear_amplification(state, params, dt, stages):
    """The step's excess amplification on the linearized kernel at state:
    the max over the eigenvalues lambda of kernel_jacobian of
    |R(dt lambda)| / max(1, |exp(dt lambda)|) - 1, with R = amplification.
    At most 0 up to roundoff certifies the step: no mode grows faster than
    the exact linear flow lets it, which for a decaying mode is not at all
    (the linearization has modes of physical growth, so |R| <= 1 is wrong)."""
    z = dt * np.linalg.eigvals(kernel_jacobian(state, params))
    ratio = np.abs(amplification(stages, z)) / np.maximum(1.0, np.abs(np.exp(z)))
    return float(ratio.max()) - 1.0


def nan_sources_after(t_bad):
    """A sources(x, t) hook for run() in the layout of the kernel's rows: zero in
    the ghost columns, and in the interior NaN at stage times past t_bad."""

    def sources(x, t):
        rows = np.zeros((4, len(x) + 2 * ns.core.N_GHOST))
        rows[:, ns.core.N_GHOST:-ns.core.N_GHOST] = np.nan if t > t_bad else 0.0
        return rows

    return sources


@pytest.fixture(scope="session")
def flagship_ic():
    """Interface run with hydrodynamic bumps, kept well away from the far field:
    the benchmark's FLAGSHIP data at FLAGSHIP_L; keyword arguments of
    interface_initial_state replace the flagship's."""

    def make(n_cells, half_width=WORKLOADS["FLAGSHIP_L"], epsilon=1.0, beta=1.0, **data):
        p = ns.SimParams(epsilon=epsilon, beta=beta)
        grid = ns.make_grid(half_width, n_cells)
        bc = ns.BoundaryConfig(-1.0, 1.0)
        state = ns.interface_initial_state(grid, p, bc, **{**WORKLOADS["FLAGSHIP"], **data})
        return p, grid, bc, state

    return make
