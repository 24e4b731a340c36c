"""Shared fixtures: default parameters, a per-step tracking runner used by
the integrator tests and the acceptance suite, and a NaN-injecting sources
hook."""

from dataclasses import dataclass, field

import numpy as np
import pytest

import nsac1d as ns


@pytest.fixture(scope="session")
def params():
    return ns.SimParams()


@dataclass
class TrackedRun:
    """Per-step time series of every asserted functional."""

    e0: float
    mass0: float
    energy0: float
    t: list = field(default_factory=list)
    mass_dev: list = field(default_factory=list)
    lyap_excess: list = field(default_factory=list)   # e_lyap + diss_cum - e0
    energy_dev: list = field(default_factory=list)
    phi_min: float = 0.0
    phi_max: float = 0.0
    theta_min: float = np.inf
    v_min: float = np.inf
    bracket_violations: int = 0
    result: object = None
    initial: object = None

    @property
    def max_mass_rel(self):
        return max(self.mass_dev) / max(abs(self.mass0), 1.0)

    @property
    def max_energy_rel(self):
        return max(self.energy_dev) / abs(self.energy0)

    @property
    def max_lyap_excess(self):
        return max(self.lyap_excess)

    @property
    def phi_overshoot(self):
        return max(self.phi_max - 1.0, -1.0 - self.phi_min, 0.0)


def tracked_run(params, grid, bc, state, t_final, brackets=True):
    ctx = ns.make_context(state, params)
    tr = TrackedRun(e0=ctx.e0, mass0=ns.mass_excess(state),
                    energy0=ns.total_energy(state, params), initial=state.copy())

    def observer(s):
        if s.t > ctx.t_last:
            ctx.accumulate(s, params)
        elif tr.t:
            return
        tr.t.append(s.t)
        tr.mass_dev.append(abs(ns.mass_excess(s) - tr.mass0))
        tr.lyap_excess.append(ns.lyapunov_energy(s, params) + ctx.diss_cum - ctx.e0)
        tr.energy_dev.append(abs(ns.total_energy(s, params) - tr.energy0))
        phi = s.interior("phi")
        tr.phi_min = min(tr.phi_min, float(phi.min()))
        tr.phi_max = max(tr.phi_max, float(phi.max()))
        tr.theta_min = min(tr.theta_min, float(s.interior("theta").min()))
        tr.v_min = min(tr.v_min, float(s.interior("v").min()))
        if brackets:
            tr.bracket_violations += ns.cell_average_brackets(s, params, ctx.e0).count

    tr.result = ns.run(state, params, bc, t_final, observer=observer)
    return tr


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
