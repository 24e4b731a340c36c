"""Shared fixtures: default parameters, the flagship initial data, a runner
that takes the CLI's diagnostics record on every step (the acceptance suite
asserts through these records and audit_records), and a NaN-injecting
sources hook."""

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


def nan_sources_after(t_bad):
    """A sources(x, t) hook for run() that is NaN at stage times past t_bad."""

    def sources(x, t):
        value = np.nan if t > t_bad else 0.0
        return (np.full_like(x, value),) * 4

    return sources


@pytest.fixture(scope="session")
def flagship_ic():
    """Interface run with hydrodynamic bumps, kept well away from the far field."""

    def make(n_cells, half_width=32, epsilon=1.0, beta=1.0):
        p = ns.SimParams(epsilon=epsilon, beta=beta)
        grid = ns.make_grid(half_width, n_cells)
        bc = ns.BoundaryConfig(-1.0, 1.0)
        state = ns.interface_initial_state(
            grid, p, bc, phi_width=1.0,
            v_amp=0.2, v_width=1.5, v_center=-2.0,
            u_amp=0.25, u_width=1.5, u_center=2.0,
            theta_amp=0.25, theta_width=1.5, theta_center=0.0)
        return p, grid, bc, state

    return make
