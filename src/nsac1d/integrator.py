"""Explicit SSP-RK2 (Heun) time advancement with an adaptive stable step.

The step size is the CFL fraction of the tightest of three per-cell limits:
diffusion, acoustic, and phase reaction.  The diffusion limit bounds the
largest of the viscous, conductive and capillary stencils, not their sum:
phi_xx feeds the u and theta equations but no second derivative feeds back
into phi, so the second-order part is triangular and each equation keeps
its own eigenvalues.  A dt_cap below the stability step sets dt instead.
Positivity failures abort the run; fields are never clamped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FlowState, apply_bc
from .operators import check_positive, semi_discrete_rhs

LIMIT_KINDS = ("diffusion", "acoustic", "reaction")


@dataclass
class StepControl:
    limit_kind: str = "diffusion"  # a LIMIT_KINDS entry, or "cap"
    step_count: int = 0


class SimulationAbort(RuntimeError):
    """A step failed; carries the last accepted state for post-mortems."""

    def __init__(self, state, step_count, message):
        self.state = state
        self.step_count = step_count
        super().__init__(message)


def step_limits(state, params):
    """Per-state (diffusion, acoustic, reaction) stability limits, pre-CFL;
    the state is run through check_positive first.

    diffusion = dx^2 / (2 max_i r_i) over the rows of the kernel's three
    stencils (a f_x)_x, their ghost neighbours included: r = (a[i-1/2] +
    a[i+1/2]) / 2 with a the face average of 1/v for u and of theta^beta/v
    for theta, and eps v_i times the u row for phi, whose dphi = -v mu holds
    -eps (a phi_x)_x.
    """
    check_positive(state, params)
    grid = state.grid
    s = grid.interior
    phi, theta, v = state.data[1:4, s]

    eps = params.epsilon
    coef = np.empty((2, grid.n_total))  # the kernel's 1/v and theta^beta/v
    np.divide(1.0, state.v, out=coef[0])
    np.multiply(state.theta**params.beta, coef[0], out=coef[1])
    a = coef[:, :-1] + coef[:, 1:]  # face k lies between cells k and k + 1
    a *= 0.5
    # one reduction of five rows: the u and theta stencil rows, v times the
    # u row, the sound speed (gamma = 2) and the reaction factor
    rows = np.empty((5, grid.n_cells))
    np.add(a[:, s.start - 1:s.stop - 1], a[:, s], out=rows[:2])
    rows[:2] *= 0.5
    np.multiply(v, rows[0], out=rows[2])
    np.divide(np.sqrt(2.0 * theta), v, out=rows[3])
    np.multiply(np.abs(3.0 * phi**2 - 1.0), v, out=rows[4])
    u_row, theta_row, phi_row, sound, react = rows.max(axis=1).tolist()

    diffusion = grid.dx**2 / (2.0 * max(u_row, theta_row, eps * phi_row))
    acoustic = grid.dx / sound
    reaction = eps / (1.0 + react / eps)
    return diffusion, acoustic, reaction


def _add_sources(rhs, sources, x, t):
    # into the row views: `rhs.dv += s_v` would also copy the row onto itself
    for row, source in zip((rhs.dv, rhs.du, rhs.dtheta, rhs.dphi), sources(x, t)):
        row += source


def _once_per_time(sources):
    """sources(x, t) called once per distinct t: the last (t, arrays) is kept.

    Heun's second stage of one step and the first stage of the next are at
    the same float t, and a run has one grid, so x needs no key.
    """
    last_t, last = None, None

    def memo(x, t):
        nonlocal last_t, last
        if t != last_t:
            last_t, last = t, sources(x, t)
        return last

    return memo


def step(state, params, bc, dt, sources=None):
    """One Heun step: s* = s + dt F(s); s_new = (s + s* + dt F(s*)) / 2.

    Ghosts are refreshed by each F evaluation; G advances with the same
    RK2 weights as the physical fields.  An optional sources(x, t) callable
    (verification harness) returns (s_v, s_u, s_theta, s_phi) and is
    evaluated at both stage times.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    grid = state.grid

    f1 = semi_discrete_rhs(state, params, bc)
    if sources is not None:
        _add_sources(f1, sources, grid.x, state.t)
    stage = FlowState(grid, state.t + dt, state.data + dt * f1.data)

    f2 = semi_discrete_rhs(stage, params, bc)
    if sources is not None:
        _add_sources(f2, sources, grid.x, stage.t)
    out = FlowState(grid, state.t + dt,
                    0.5 * (state.data + stage.data + dt * f2.data))
    apply_bc(out, bc)
    check_positive(out, params)
    return out


@dataclass
class RunResult:
    state: FlowState
    control: StepControl


def run(initial, params, bc, t_final, observer=None, dt_cap=None, sources=None):
    """Advance from initial.t to t_final; the last step lands on it exactly.

    observer(state) is called after every accepted step, not on the initial
    state.  Any step error aborts with the last accepted state attached.
    A sources hook must be a function of (x, t) alone whose arrays are read,
    never written: run evaluates it once per distinct stage time.
    """
    if not initial.t <= t_final < np.inf:  # also rejects nan
        raise ValueError(f"t_final = {t_final} must be finite and >= initial t = {initial.t}")
    control = StepControl()
    state = initial
    if sources is not None:
        sources = _once_per_time(sources)
    while state.t < t_final:
        try:
            limits = step_limits(state, params)
            dt = params.cfl * min(limits)
            control.limit_kind = LIMIT_KINDS[limits.index(min(limits))]
            if dt_cap is not None and dt_cap < dt:
                dt, control.limit_kind = dt_cap, "cap"
            # absorb float-accumulation slivers into the final step
            last = state.t + dt >= t_final - 1e-12 * max(1.0, abs(t_final))
            if last:
                dt = t_final - state.t
            state = step(state, params, bc, dt, sources=sources)
        except Exception as exc:
            raise SimulationAbort(
                state, control.step_count,
                f"step {control.step_count + 1} failed at t = {state.t:.6e}: {exc}",
            ) from exc
        if last:
            state.t = t_final  # reproducible final stamp
            apply_bc(state, bc)
        control.step_count += 1
        if observer is not None:
            observer(state)
    return RunResult(state=state, control=control)
