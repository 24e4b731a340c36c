"""Shared fixtures: default parameters, the flagship initial data, a runner
that takes the CLI's diagnostics record on every step (the acceptance suite
asserts through these records and audit_records), and a NaN-injecting
sources hook."""

import numpy as np
import pytest

import nsac1d as ns


@pytest.fixture(scope="session")
def params():
    return ns.SimParams()


def recorded_run(params, bc, state, t_final):
    """run() with record() taken on every observed state, as `nsac1d run`
    records them at diag_every_steps = 1; returns (result, records)."""
    ctx = ns.make_context(state, params)
    records = []
    result = ns.run(state, params, bc, t_final, observer=lambda s: records.append(
        ns.record(s, params, ctx, ctx.accumulate(s, params))))
    return result, records


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
