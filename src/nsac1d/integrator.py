"""Explicit time advancement with an adaptive stable step: SSP-RK2 (Heun),
or RKL2 super-time-stepping where diffusion binds.

The Heun step is the CFL fraction of the tightest of three per-cell limits:
diffusion, acoustic, and phase reaction.  The diffusion limit bounds the
largest of the viscous, conductive and capillary stencils, not their sum:
phi_xx feeds the u and theta equations but no second derivative feeds back
into phi, so the second-order part is triangular and each equation keeps
its own eigenvalues.  A dt_cap below the stability step sets dt instead.

Where diffusion binds, run takes the longer step tau = RKL2_STEP times the
CFL fraction of the acoustic and reaction limits (dt_cap still caps it) in
the fewest stages s of the second-order Runge-Kutta-Legendre scheme (RKL2;
Meyer, Balsara & Aslam, J. Comput. Phys. 257, 2014) whose real stability
interval, (s^2 + s - 2) / 4 stage bases, covers tau.  The stage base is
RKL2_STAGE_LIMIT times the uncut diffusion limit, or the Heun step if that
is longer: cfl cuts the step, not the stage count a second time.  The step
count grows as N, not N^2, and the stage count as sqrt(N).  An s = 2 step
is the Heun step, so cap-, acoustic- and reaction-bound runs are unchanged.
Positivity failures abort the run; fields are never clamped.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import FlowState, apply_bc
from .operators import check_positive, semi_discrete_rhs

LIMIT_KINDS = ("diffusion", "acoustic", "reaction")

# tau as a fraction of the CFL step of the acoustic and reaction limits.  The
# time error of RKL2 grows with tau: on the flagship data at t = 1 a fraction
# of 1.0 moves energy_drift_rel by -29 % at every N (a third of the spatial
# error), and 0.5 by -6.7 % to -8.1 % for N = 256 ... 2048 with the stages
# sized from the Heun step (-8.7 % at N = 512 from the stage base below).
RKL2_STEP = 0.5

# the stage base as a fraction of the uncut diffusion limit.  On the kernel's
# spectrum Heun is stable up to 1.03 to 1.11 times that limit on the states
# tests/test_spectrum.py certifies at dx <= 0.5 (0.78 at dx = 1, where the
# flagship run takes Heun steps only); those tests certify the steps run
# takes, and fail one stage fewer.
RKL2_STAGE_LIMIT = 0.8


@dataclass
class StepControl:
    # what limited the last dt before a cut to t_final: a LIMIT_KINDS entry, or "cap"
    limit_kind: str = "diffusion"
    step_count: int = 0
    rhs_evals: int = 0   # semi_discrete_rhs calls: the stages of every step
    rkl2_steps: int = 0  # steps of more than two stages
    stages: int = 2      # of the last step: 2 is Heun, more is RKL2

    @property
    def regime(self):
        """The scheme of the last step: "heun" or "rkl2"."""
        return "heun" if self.stages == 2 else "rkl2"


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


def rkl2_stages(dt, base):
    """The fewest stages s >= 2 whose stability interval, (s^2 + s - 2) / 4
    times a stable Heun step `base`, covers dt: 2 for dt <= base."""
    s = 2
    while base * (s * s + s - 2) / 4 < dt:
        s += 1
    return s


@lru_cache(maxsize=None)
def rkl2_coefficients(s):
    """(mu_j, nu_j, mu~_j, gamma~_j, c_{j-1}) for j = 1 ... s of the s-stage
    RKL2 scheme, with c_j the stage times as fractions of the step.

    b_0 = b_1 = b_2 = 1/3, b_j = (j^2 + j - 2) / (2 j (j + 1)), a_j = 1 - b_j
    and w1 = 4 / (s^2 + s - 2); mu_j = (2j - 1) b_j / (j b_{j-1}),
    nu_j = -(j - 1) b_j / (j b_{j-2}), mu~_1 = b_1 w1, mu~_j = mu_j w1 and
    gamma~_j = -a_{j-1} mu~_j.  The stage times follow from the recurrence
    applied to y' = 1.
    """
    w1 = 4.0 / (s * s + s - 2)
    b = [1.0 / 3.0] * 3 + [(j * j + j - 2) / (2.0 * j * (j + 1)) for j in range(3, s + 1)]
    rows = [(0.0, 0.0, b[1] * w1, 0.0, 0.0)]
    c = [0.0, b[1] * w1]
    for j in range(2, s + 1):
        mu = (2 * j - 1) * b[j] / (j * b[j - 1])
        nu = -(j - 1) * b[j] / (j * b[j - 2])
        mu_t = mu * w1
        gamma_t = -(1.0 - b[j - 1]) * mu_t
        rows.append((mu, nu, mu_t, gamma_t, c[j - 1]))
        c.append(mu * c[j - 1] + nu * c[j - 2] + mu_t + gamma_t)
    return tuple(rows)


def step(state, params, bc, dt, sources=None, stages=2):
    """One step of dt in `stages` RHS evaluations: Heun for 2, RKL2 for more.

    Heun: s* = s + dt F(s); s_new = (s + s* + dt F(s*)) / 2.  RKL2 advances
    the increments D_j = Y_j - Y_0 from D_0 = 0:
    D_j = mu_j D_{j-1} + nu_j D_{j-2} + dt (mu~_j F(Y_{j-1}) + gamma~_j F(Y_0)),
    so a state whose F is zero stays bit for bit (see rkl2_coefficients).

    Ghosts are refreshed by each F evaluation; G advances with the same
    weights as the physical fields.  An optional sources(x, t) callable
    (verification harness) returns (s_v, s_u, s_theta, s_phi) and is
    evaluated at every stage time.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if stages < 2:
        raise ValueError(f"stages must be >= 2, got {stages}")
    grid = state.grid

    f1 = semi_discrete_rhs(state, params, bc)
    if sources is not None:
        _add_sources(f1, sources, grid.x, state.t)
    if stages == 2:
        stage = FlowState(grid, state.t + dt, state.data + dt * f1.data)

        f2 = semi_discrete_rhs(stage, params, bc)
        if sources is not None:
            _add_sources(f2, sources, grid.x, stage.t)
        out = FlowState(grid, state.t + dt,
                        0.5 * (state.data + stage.data + dt * f2.data))
    else:
        first, *rest = rkl2_coefficients(stages)
        older, last = 0.0, (dt * first[2]) * f1.data
        for mu, nu, mu_t, gamma_t, c in rest:
            stage = FlowState(grid, state.t + c * dt, state.data + last)
            f = semi_discrete_rhs(stage, params, bc)
            if sources is not None:
                _add_sources(f, sources, grid.x, stage.t)
            inc = mu * last
            inc += nu * older
            inc += (dt * mu_t) * f.data
            inc += (dt * gamma_t) * f1.data
            older, last = last, inc
        out = FlowState(grid, state.t + dt, state.data + last)
    apply_bc(out, bc)
    check_positive(out, params)
    return out


@dataclass
class RunResult:
    state: FlowState
    control: StepControl


def run(initial, params, bc, t_final, observer=None, dt_cap=None, sources=None):
    """Advance from initial.t to t_final; the last step lands on it exactly.

    Each step is the Heun step cfl min(limits), or, where diffusion binds it,
    tau = RKL2_STEP cfl min(acoustic, reaction) if that is longer; dt_cap
    caps either, and the step takes rkl2_stages(dt, base) stages, with base
    the longer of the Heun step and RKL2_STAGE_LIMIT times the diffusion
    limit (so a step no longer than the Heun step is a Heun step).
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
            heun_dt = dt = params.cfl * min(limits)
            kind = LIMIT_KINDS[limits.index(min(limits))]
            if kind == "diffusion":  # RKL2 takes tau where it is longer
                _, acoustic, reaction = limits
                tau = RKL2_STEP * params.cfl * min(acoustic, reaction)
                if tau > dt:
                    dt, kind = tau, "reaction" if reaction < acoustic else "acoustic"
            if dt_cap is not None and dt_cap < dt:
                dt, kind = dt_cap, "cap"
            # absorb float-accumulation slivers into the final step
            last = state.t + dt >= t_final - 1e-12 * max(1.0, abs(t_final))
            if last:
                dt = t_final - state.t
            stages = rkl2_stages(dt, max(heun_dt, RKL2_STAGE_LIMIT * limits[0]))
            state = step(state, params, bc, dt, sources=sources, stages=stages)
        except Exception as exc:
            raise SimulationAbort(
                state, control.step_count,
                f"step {control.step_count + 1} failed at t = {state.t:.6e}: {exc}",
            ) from exc
        if last:
            state.t = t_final  # reproducible final stamp
            apply_bc(state, bc)
        control.limit_kind, control.stages = kind, stages
        control.step_count += 1
        control.rhs_evals += stages
        control.rkl2_steps += stages > 2
        if observer is not None:
            observer(state)
    return RunResult(state=state, control=control)
