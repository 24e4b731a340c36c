"""Manufactured-solution harness: closed-form fields with matching injection
sources, and a refinement study measuring the observed order of the full
scheme.  Sources are hard-coded analytic expressions (no symbolic-math
dependency); the test suite pins them against an independently generated
oracle table, and at other beta, epsilon and amplitudes against their
term-by-term closed forms.  The study's runs step at a fixed cap, so their
stage times are known ahead: the sources of a block of them are evaluated
in one pass, each time's bit for bit as it would be alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import FIELDS, N_GHOST, BoundaryConfig, make_grid, state_from_fields
from .integrator import SimulationAbort, run

# dt cap of the refinement study, in units of dx^2: small enough that the
# temporal error does not pollute the observed spatial order (doubling it
# from 0.05 moved each error of the default ladder by at most 1.7e-4
# relative, 8.3e-6 at N = 512, and each order by at most 2.1e-4), and under
# the Heun step (at least 0.160 dx^2 on the measured ladders), so every step
# is a Heun step of the cap
DT_CAP_FACTOR = 0.1

# cells of space-time (times x cells of x) in one block of sources: at
# N = 128, 256 and 512, 2,048 beat 1,024 and 4,096, whose ~25 temporaries of
# the block no longer fit in L1
BLOCK_CELLS = 2048


def _sigmoid(y):
    out = np.empty_like(y)
    pos = y >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-y[pos]))
    ey = np.exp(y[~pos])
    out[~pos] = ey / (1.0 + ey)
    return out


class ManufacturedCase:
    """Smooth space-time fields meeting the far-field data at |x| = L.

    v = 1 + A(x) e^-t and u = A(x) e^-t with A = amp sin(pi x / L) env(x);
    theta = 1 + B(x)(1 - e^-t) with B = amp cos(pi x / L) env(x); the phase
    profile is a tanh blended to +-1 near the boundary by logistic steps.
    On the ghost region u, v and theta are within 1e-19 of their far-field
    values at every L, and the phase within about 2 e^(-2.2 L) of +-1: under
    1e-12 for L >= 13 (1e-15 at L = 16), but 4.5e-8 at the smallest L = 8
    and 6.8e-12 at L = 12.  |A|, |B| <= amplitude <= 0.3 keeps v and theta in
    [0.7, 1.3] at every t >= 0, and the two logistic weights sum to less
    than 1, so |phi| <= 1.  amplitude = 0 collapses everything to the equilibrium
    constants (phi = +1) and all sources vanish identically.
    """

    def __init__(self, params, half_width, amplitude=0.1, t_star=0.25):
        if not 8 <= half_width < math.inf:  # also rejects nan
            raise ValueError(f"manufactured case needs a finite L >= 8, got {half_width}")
        if not 0.0 <= amplitude <= 0.3:
            raise ValueError(f"amplitude must be in [0, 0.3], got {amplitude}")
        if not 0 < t_star < math.inf:  # also rejects nan
            raise ValueError(f"t_star must be finite and > 0, got {t_star}")
        self.params = params
        self.half_width = float(half_width)
        self.amplitude = float(amplitude)
        self.t_star = float(t_star)
        self.wavenumber = math.pi / self.half_width
        self.env_width = self.half_width / 6.0
        self.blend_center = 0.7 * self.half_width
        self.blend_scale = 0.25
        self.bc = (BoundaryConfig(-1.0, 1.0) if amplitude > 0.0
                   else BoundaryConfig(1.0, 1.0))
        self._x_key = self._rows = None
        self._block = {}  # the last block of sources, {t: array}; see _rows_of

    # -- closed forms ------------------------------------------------------

    def _spatial(self, x):
        """A, B and their first two derivatives (spatial factors of v,u,theta)."""
        amp, p, we = self.amplitude, self.wavenumber, self.env_width
        env = np.exp(-((x / we) ** 2))
        env1 = -(2.0 * x / we**2) * env
        env2 = (4.0 * x**2 / we**4 - 2.0 / we**2) * env
        sn, cs = np.sin(p * x), np.cos(p * x)
        a = amp * sn * env
        a1 = amp * (p * cs * env + sn * env1)
        a2 = amp * (-(p**2) * sn * env + 2.0 * p * cs * env1 + sn * env2)
        b = amp * cs * env
        b1 = amp * (-p * sn * env + cs * env1)
        b2 = amp * (-(p**2) * cs * env - 2.0 * p * sn * env1 + cs * env2)
        return a, a1, a2, b, b1, b2

    def _phase(self, x):
        """phi, phi_x, phi_xx: tanh(x/2) blended to exactly +-1 at the far field."""
        if self.amplitude == 0.0:
            one = np.ones_like(x)
            zero = np.zeros_like(x)
            return one, zero, zero
        s = self.blend_scale
        th = np.tanh(0.5 * x)
        th1 = 0.5 * (1.0 - th**2)
        th2 = -0.5 * th * (1.0 - th**2)
        yp = (x - self.blend_center) / s
        ym = (-x - self.blend_center) / s
        sp, sm = _sigmoid(yp), _sigmoid(ym)
        sp1, sm1 = sp * (1.0 - sp), sm * (1.0 - sm)
        sp2, sm2 = sp1 * (1.0 - 2.0 * sp), sm1 * (1.0 - 2.0 * sm)
        phi = th + (1.0 - th) * sp - (1.0 + th) * sm
        phi_x = th1 * (1.0 - sp - sm) + (1.0 - th) * sp1 / s + (1.0 + th) * sm1 / s
        phi_xx = (th2 * (1.0 - sp - sm) + 2.0 * th1 * (sm1 - sp1) / s
                  + (1.0 - th) * sp2 / s**2 - (1.0 + th) * sm2 / s**2)
        return phi, phi_x, phi_xx

    def _rows_of(self, x):
        """The t-independent rows of x (scaled by e^-t, by 1 - e^-t, phase),
        kept under the key x.tobytes(); a new key rebuilds them and drops the
        last block of sources.  params is fixed at construction."""
        if (key := x.tobytes()) != self._x_key:
            a, a1, a2, b, b1, b2 = self._spatial(x)
            phi, phi_x, phi_xx = self._phase(x)
            eps = self.params.epsilon
            # u, u_x, u_xx, theta_t and S_v = v_t - u_x per unit e^-t;
            # theta - 1, theta_x and theta_xx per unit 1 - e^-t
            decaying = np.stack((a, a1, a2, b, -(a + a1)))
            rising = np.stack((b, b1, b2))
            phase = (phi, phi_x, phi_xx, (phi * phi * phi - phi) / eps, eps * phi_x)
            self._x_key, self._rows, self._block = key, (decaying, rising, phase), {}
        return self._rows

    def fields(self, x, t):
        """u, phi, theta, v: one new (4, N) array of the interior in FIELDS
        order, as state_from_fields takes."""
        decaying, rising, phase = self._rows_of(np.asarray(x, dtype=float))
        decay = math.exp(-t)
        u = decaying[0] * decay
        return np.stack((u, phase[0], 1.0 + rising[0] * (1.0 - decay), 1.0 + u))

    def sources(self, x, t, step=None):
        """Residuals of the governing equations on the manufactured fields:
        one read-only (4, N + 4) array in the layout of the kernel's rows u,
        phi, theta and v (FIELDS order), the N cells of x between N_GHOST ghost
        columns each side that are +0.0, so step adds it to the kernel's rows
        in one operation.

        The case keeps its last block of sources, for one x: a t the block
        holds returns its array again.  Any other t starts a block of t and,
        given a step, the stage times t + step, (t + step) + step, ... that
        steps of that dt form, at most max(1, BLOCK_CELLS // N) times and
        none past t_star, evaluated in one pass over a leading time axis by
        the operations of a lone t, so each time's array is bit for bit the
        one a block of that time alone holds.

        v - 1 = u, so v_t = u_t = -u and v_x = u_x; w = v_x / v.
        """
        decaying, rising, (_, phi_x, phi_xx, cube, eps_phi_x) = self._rows_of(
            np.asarray(x, dtype=float))
        if t in self._block:
            return self._block[t]
        n = decaying.shape[1]
        times = [t]  # a nan or non-positive step stops at t
        while (step is not None and len(times) < BLOCK_CELLS // n
               and times[-1] < times[-1] + step <= self.t_star):
            times.append(times[-1] + step)
        beta, eps = self.params.beta, self.params.epsilon
        decay = np.array([math.exp(-s) for s in times])[:, None]
        rows = np.zeros((len(times), 4, n + 2 * N_GHOST))
        # each (K, N): K times of the N cells
        s_u, s_phi, s_theta, s_v = rows[:, :, N_GHOST:-N_GHOST].transpose(1, 0, 2)
        u, u_x, u_xx, theta_t = decaying[:4, None] * decay
        np.multiply(decaying[4], decay, out=s_v)
        theta, theta_x, theta_xx = rising[:, None] * (1.0 - decay)
        theta += 1.0
        v = 1.0 + u
        inv_v = 1.0 / v
        w = u_x * inv_v
        ratio_x = (phi_xx - phi_x * w) * inv_v  # (phi_x / v)_x
        mu = cube - eps * ratio_x  # potential_from(phi, ratio_x, eps)
        np.multiply(v, mu, out=s_phi)
        theta_w, u_x_w = theta * w, u_x * w
        np.subtract((theta_x - theta_w + eps_phi_x * ratio_x - u_xx + u_x_w) * inv_v, u,
                    out=s_u)
        # v times the conduction (theta^beta theta_x / v)_x, with
        # theta^(beta - 1) = theta^beta / theta
        cond_v = theta**beta * (theta_x * (beta * theta_x / theta - w) + theta_xx)
        np.subtract(theta_t + theta_w - cond_v * inv_v - u_x_w, s_phi * mu, out=s_theta)
        rows.flags.writeable = False
        self._block = dict(zip(times, rows))
        return self._block[t]


def default_case(params, grid, **keywords):
    return ManufacturedCase(params, grid.half_width, **keywords)


@dataclass
class ConvergenceRow:
    n_cells: int
    err_v: float
    err_u: float
    err_theta: float
    err_phi: float
    order_v: float
    order_u: float
    order_theta: float
    order_phi: float


def convergence_study(case, resolutions):
    """Run the integrator with injected sources at each resolution, with the
    parameters the sources were built from, and measure L2 errors against
    the manufactured fields at t_star.

    dt is capped at DT_CAP_FACTOR * dx^2 = 0.1 dx^2, under the Heun step
    (0.172 dx^2 or more at amplitude 0.3 with beta = 1 and 2, L = 16;
    0.160 dx^2 at beta = 2, epsilon = 0.5, amplitude 0.2, L = 8), so every
    step is a Heun step of the cap, whose second stage time is the next
    step's first; the run's sources hook is case.sources with step = the
    cap, so one block of sources serves up to max(1, BLOCK_CELLS // N)
    stage times.  Halving the cap moves each error by at most 1.8e-3
    relative and each order by at most 2.1e-3 on L = 16, N = 64/128/256
    (tests/test_mms.py bounds both).  Resolutions must be at
    least three, each double the previous.  A SimulationAbort is raised
    again with " (N = n)" appended, naming the resolution that aborted.
    """
    resolutions = [int(n) for n in resolutions]
    if len(resolutions) < 3:
        raise ValueError("need at least 3 resolutions")
    for a, b in zip(resolutions, resolutions[1:]):
        if b != 2 * a:
            raise ValueError(f"resolutions must double: {a} -> {b}")

    errors = []
    for n in resolutions:
        grid = make_grid(case.half_width, n)
        state = state_from_fields(grid, case.bc, case.fields(grid.x, 0.0), case.params)
        cap = DT_CAP_FACTOR * grid.dx**2
        try:
            result = run(state, case.params, case.bc, case.t_star, dt_cap=cap,
                         sources=partial(case.sources, step=cap))
        except SimulationAbort as exc:
            raise SimulationAbort(exc.state, exc.step_count, f"{exc} (N = {n})") from exc
        final = result.state.data[:4, grid.interior]
        exact = case.fields(grid.x, case.t_star)
        errors.append([math.sqrt(((final[k] - exact[k]) ** 2).sum() * grid.dx)
                       for k in map(FIELDS.index, ("v", "u", "theta", "phi"))])

    rows = []
    for i, n in enumerate(resolutions):
        if i == 0:
            orders = [math.nan] * 4
        else:
            orders = [math.log2(errors[i - 1][k] / errors[i][k]) if errors[i][k] > 0
                      else math.inf for k in range(4)]
        rows.append(ConvergenceRow(n, *errors[i], *orders))
    return rows
