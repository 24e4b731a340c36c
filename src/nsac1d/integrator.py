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
count grows as N, not N^2, and the stage count as sqrt(N).  Both run one
recurrence, increments: an s = 2 step is the Heun step, the table HEUN, so
cap-, acoustic- and reaction-bound runs are unchanged.
Positivity failures abort the run; fields are never clamped.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import FlowState, apply_bc, is_number
from .operators import cell_coefficients, check_positive, face_average, semi_discrete_rhs

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
    # what limited the last dt before a cut to t_final: a LIMIT_KINDS entry,
    # "cap", or None before the first step
    limit_kind: str | None = None
    step_count: int = 0
    rhs_evals: int = 0   # semi_discrete_rhs calls: the stages of every step
    rkl2_steps: int = 0  # steps of more than two stages
    stages: int = 2      # of the last step: 2 is Heun, more is RKL2

    @property
    def regime(self):
        """The scheme of the last step: "heun" or "rkl2"."""
        return "rkl2" if self.stages > 2 else "heun"


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
    data = state.data
    phi, theta, v = data[1, s], data[2, s], data[3, s]

    eps = params.epsilon
    # one reduction of five rows over the interior: the u and theta stencil
    # rows (the mean of the two faces of a cell, by face_average along the
    # flattened rows, as in the kernel), v times the u row, the sound speed
    # (gamma = 2) and the reaction factor
    rows = np.empty((5, grid.n_total))
    phi_row, sound, react = rows[2, s], rows[3, s], rows[4, s]
    a = face_average(cell_coefficients(data[3], data[2], params.beta)[1:].reshape(-1))
    rows[:2].reshape(-1)[1:-1] = face_average(a)  # entry k is at flat cell k + 1
    np.multiply(v, rows[0, s], out=phi_row)
    np.multiply(theta, 2.0, out=sound)
    np.sqrt(sound, out=sound)
    sound /= v
    np.square(phi, out=react)
    react *= 3.0
    react -= 1.0
    np.abs(react, out=react)
    react *= v
    u_row, theta_row, phi_row, sound, react = np.maximum.reduce(rows[:, s], axis=1).tolist()

    diffusion = grid.dx**2 / (2.0 * max(u_row, theta_row, eps * phi_row))
    acoustic = grid.dx / sound
    reaction = eps / (1.0 + react / eps)
    if not (0.0 < diffusion < np.inf and 0.0 < acoustic < np.inf
            and 0.0 < reaction < np.inf):  # also rejects nan
        raise ValueError(f"step limits (diffusion, acoustic, reaction) = ({diffusion:.6e}, "
                         f"{acoustic:.6e}, {reaction:.6e}) are not all finite and > 0")
    return diffusion, acoustic, reaction


def rkl2_stages(dt, base):
    """The fewest stages s >= 2 whose stability interval, (s^2 + s - 2) / 4
    times a stable Heun step `base`, covers dt: 2 for dt <= base.  base must
    be finite and > 0, or no stage count would do."""
    if not 0.0 < base < np.inf:  # also rejects nan
        raise ValueError(f"the stage base must be finite and > 0, got {base}")
    s = 2
    while base * (s * s + s - 2) / 4 < dt:
        s += 1
    return s


# Heun (SSP-RK2) as rows of rkl2_coefficients: D_2 = D_1 / 2 + (dt / 2) F(Y_1)
HEUN = ((0.0, 0.0, 1.0, 0.0, 0.0), (0.5, 0.0, 0.5, 0.0, 1.0))


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


def increments(y0, t0, dt, rate, stages):
    """Y - y0 after one step of dt from y0 at t0 in `stages` calls of
    F = rate(y, t), over the rows of HEUN (2 stages) or rkl2_coefficients:
    D_j = mu_j D_{j-1} + nu_j D_{j-2} + dt (mu~_j F(Y_{j-1}) + gamma~_j F(Y_0))
    from D_0 = 0, with Y_j = y0 + D_j at t0 + c_j dt; HEUN's zero nu and
    gamma~ are skipped (no RKL2 row has one)."""
    first, *rest = HEUN if stages == 2 else rkl2_coefficients(stages)
    f0 = rate(y0, t0)
    older, last = 0.0, (dt * first[2]) * f0
    for mu, nu, mu_t, gamma_t, c in rest:
        inc = mu * last
        if nu:
            inc += nu * older
        inc += (dt * mu_t) * rate(y0 + last, t0 + c * dt)
        if gamma_t:
            inc += (dt * gamma_t) * f0
        older, last = last, inc
    return last


def step(state, params, bc, dt, sources=None, stages=2):
    """One step of dt in `stages` evaluations of F: Heun for 2, RKL2 for more,
    as Y_0 + increments, so a state whose F is zero stays bit for bit.

    F is the kernel plus, at every stage time, the optional sources(x, t) of
    the verification harness: a (4, N) array-like whose rows are added to
    the interior of u, phi, theta and v.  Ghosts are refreshed from bc on
    entry, in place, and on the result: F is zero in the ghost columns and
    reads no G, so every stage keeps the far field it needs.  G advances with
    the same weights as the physical fields.
    """
    if not 0.0 < dt < np.inf:  # also rejects nan
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    if not is_number(stages, int) or stages < 2:
        raise ValueError(f"stages must be an integer >= 2, got {stages!r}")
    grid = state.grid
    apply_bc(state, bc)

    def rate(data, t):
        rhs = semi_discrete_rhs(FlowState(grid, t, data), params)
        if sources is not None:
            rows = rhs.data[:4, grid.interior]
            rows += sources(grid.x, t)
        return rhs.data

    out = FlowState(grid, state.t + dt,
                    state.data + increments(state.data, state.t, dt, rate, stages))
    apply_bc(out, bc)
    check_positive(out, params)
    return out


@dataclass
class RunResult:
    state: FlowState
    control: StepControl


def run(initial, params, bc, t_final, observer=None, dt_cap=None, sources=None):
    """Advance from initial.t to t_final; the last step lands on it exactly.

    Each step is dt = max(cfl min(limits), RKL2_STEP cfl min(acoustic,
    reaction)), capped by dt_cap; RKL2_STEP = 0.5 is exact, so the RKL2 step
    is the longer only where diffusion binds the Heun step.  limit_kind names
    the limit that set dt, or "cap".  The step takes rkl2_stages(dt, base)
    stages, base the longer of the Heun step and RKL2_STAGE_LIMIT times the
    diffusion limit, so a step no longer than the Heun step is a Heun step.
    observer(state) is called after every accepted step, not on the initial
    state, and sources(x, t) at every stage.  Any step error aborts with the
    last accepted state attached.
    """
    if not initial.t <= t_final < np.inf:  # also rejects nan
        raise ValueError(f"t_final = {t_final} must be finite and >= initial t = {initial.t}")
    if dt_cap is not None and not dt_cap > 0.0:  # also rejects nan
        raise ValueError(f"dt_cap = {dt_cap} must be > 0")
    control = StepControl()
    state = initial
    cfl, rkl2_cfl = params.cfl, RKL2_STEP * params.cfl
    cap = np.inf if dt_cap is None else dt_cap
    # a step that ends within this of t_final absorbs the float-accumulation
    # sliver and lands on it
    landing = t_final - 1e-12 * max(1.0, abs(t_final))
    while state.t < t_final:
        try:
            diffusion, acoustic, reaction = limits = step_limits(state, params)
            heun_dt = cfl * min(limits)
            dt = max(heun_dt, rkl2_cfl * min(acoustic, reaction))
            # the first of equal limits of the candidate that set dt
            kind = LIMIT_KINDS[limits.index(min(limits if dt == heun_dt else limits[1:]))]
            if cap < dt:
                dt, kind = cap, "cap"
            last = state.t + dt >= landing
            if last:
                dt = t_final - state.t
            stages = rkl2_stages(dt, max(heun_dt, RKL2_STAGE_LIMIT * diffusion))
            state = step(state, params, bc, dt, sources, stages)
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
