"""Explicit SSP-RK2 (Heun) time advancement with an adaptive stable step.

The step size is the CFL fraction of the tightest of three per-cell limits:
diffusion (viscous + conductive + capillary), acoustic, and phase reaction.
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
    limit_kind: str = "diffusion"
    step_count: int = 0


class SimulationAbort(RuntimeError):
    """A step failed; carries the last accepted state for post-mortems."""

    def __init__(self, state, step_count, message):
        self.state = state
        self.step_count = step_count
        super().__init__(message)


def step_limits(state, params):
    """Per-state (diffusion, acoustic, reaction) stability limits, pre-CFL,
    of a state that first passes check_positive."""
    check_positive(state, params)
    grid = state.grid
    phi, theta, v = state.data[1:4, grid.interior]

    eps = params.epsilon
    diffusivity = (params.nu / v
                   + params.kappa_tilde * theta**params.beta / (params.c_v * v)
                   + eps / v)
    diffusion = grid.dx**2 / (2.0 * np.max(diffusivity))

    gamma = 1.0 + params.gas_R / params.c_v
    sound = np.sqrt(gamma * theta) / v
    acoustic = grid.dx / np.max(sound)

    reaction = eps / (1.0 + np.max(np.abs(3.0 * phi**2 - 1.0) * v) / eps)
    return float(diffusion), float(acoustic), float(reaction)


def stable_dt(state, params):
    """CFL-scaled minimum of the diffusion, acoustic, and reaction limits."""
    return params.cfl * min(step_limits(state, params))


def _add_sources(rhs, sources, x, t):
    sv, su, stheta, sphi = sources(x, t)
    rhs.dv += sv
    rhs.du += su
    rhs.dtheta += stheta
    rhs.dphi += sphi


def step(state, params, bc, dt, sources=None):
    """One Heun step: s* = s + dt F(s); s_new = (s + s* + dt F(s*)) / 2.

    Ghosts are refreshed before each F evaluation; G advances with the same
    RK2 weights as the physical fields.  An optional sources(x, t) callable
    (verification harness) is evaluated at both stage times.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    grid = state.grid

    f1 = semi_discrete_rhs(state, params, bc)
    if sources is not None:
        _add_sources(f1, sources, grid.x, state.t)
    stage = FlowState(grid, state.t + dt, state.data + dt * f1.data)
    apply_bc(stage, bc)

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

    observer(state) is called on the initial state and after every accepted
    step.  Any step error aborts with the last accepted state attached.
    """
    if t_final < initial.t:
        raise ValueError(f"t_final = {t_final} is before initial t = {initial.t}")
    control = StepControl()
    state = initial
    if observer is not None:
        observer(state)
    while state.t < t_final:
        try:
            limits = step_limits(state, params)
            dt = params.cfl * min(limits)
            control.limit_kind = LIMIT_KINDS[int(np.argmin(limits))]
            if dt_cap is not None:
                dt = min(dt, dt_cap)
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
