"""Manufactured-solution harness: closed-form fields with matching injection
sources, and a refinement study measuring the observed order of the full
scheme.  Sources are hard-coded analytic expressions (no symbolic-math
dependency); the test suite pins them against an independently generated
oracle table, and at other beta, epsilon and amplitudes against their
term-by-term closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BoundaryConfig, make_grid, state_from_fields
from .integrator import SimulationAbort, run

# dt cap of the refinement study, in units of dx^2: small enough that the
# temporal error does not pollute the observed spatial order (doubling it
# from 0.05 moved each error of the default ladder by at most 1.7e-4
# relative, 8.3e-6 at N = 512, and each order by at most 2.1e-4), and under
# the Heun step (at least 0.160 dx^2 on the measured ladders), so every step
# is a Heun step of the cap
DT_CAP_FACTOR = 0.1


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
    profile is a tanh blended to exactly +-1 near the boundary by logistic
    steps, so every field is within 1e-12 of its far-field value on the
    ghost region.  |A|, |B| <= amplitude <= 0.3 keeps v and theta in
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
        self._x_key = self._rows = self._last = None  # see _rows_of

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
        last sources (t, array).  params is fixed at construction."""
        if (key := x.tobytes()) != self._x_key:
            a, a1, a2, b, b1, b2 = self._spatial(x)
            phi, phi_x, phi_xx = self._phase(x)
            eps = self.params.epsilon
            # u, u_x, u_xx, theta_t and S_v = v_t - u_x per unit e^-t;
            # theta - 1, theta_x and theta_xx per unit 1 - e^-t
            decaying = np.stack((a, a1, a2, b, -(a + a1)))
            rising = np.stack((b, b1, b2))
            phase = (phi, phi_x, phi_xx, (phi * phi * phi - phi) / eps, eps * phi_x)
            self._x_key, self._rows, self._last = key, (decaying, rising, phase), None
        return self._rows

    def fields(self, x, t):
        """v, u, theta, phi: the paper's order, which state_from_fields takes."""
        decaying, rising, phase = self._rows_of(np.asarray(x, dtype=float))
        decay = math.exp(-t)
        u = decaying[0] * decay
        return 1.0 + u, u, 1.0 + rising[0] * (1.0 - decay), phase[0].copy()

    def sources(self, x, t):
        """Residuals of the governing equations on the manufactured fields:
        one read-only (4, N) array whose rows are those of u, phi, theta and
        v (FIELDS order); a repeated (grid, t) returns the last one again.

        v - 1 = u, so v_t = u_t = -u and v_x = u_x; w = v_x / v.
        """
        decaying, rising, (_, phi_x, phi_xx, cube, eps_phi_x) = self._rows_of(
            np.asarray(x, dtype=float))
        if self._last is not None and self._last[0] == t:
            return self._last[1]
        beta, eps = self.params.beta, self.params.epsilon
        decay = math.exp(-t)
        rows = np.empty_like(decaying[:4])  # S_u, S_phi, S_theta, S_v
        s_u, s_phi, s_theta, s_v = rows
        u, u_x, u_xx, theta_t = decaying[:4] * decay
        np.multiply(decaying[4], decay, out=s_v)
        theta, theta_x, theta_xx = rising * (1.0 - decay)
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
        self._last = t, rows
        return rows


def default_case(params, grid, amplitude=0.1, t_star=0.25):
    return ManufacturedCase(params, grid.half_width, amplitude=amplitude,
                            t_star=t_star)


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
    step is a Heun step of the cap.  Halving the cap moves each error by at
    most 1.8e-3 relative and each order by at most 2.1e-3 on L = 16,
    N = 64/128/256 (tests/test_mms.py bounds both).  Resolutions must be at
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
        v, u, theta, phi = case.fields(grid.x, 0.0)
        state = state_from_fields(grid, case.bc, v, u, theta, phi, case.params)
        try:
            result = run(state, case.params, case.bc, case.t_star,
                         dt_cap=DT_CAP_FACTOR * grid.dx**2, sources=case.sources)
        except SimulationAbort as exc:
            raise SimulationAbort(exc.state, exc.step_count, f"{exc} (N = {n})") from exc
        final = result.state
        exact = case.fields(grid.x, case.t_star)
        errs = [math.sqrt(((final.interior(name) - ex) ** 2).sum() * grid.dx)
                for name, ex in zip(("v", "u", "theta", "phi"), exact)]
        errors.append(errs)

    rows = []
    for i, n in enumerate(resolutions):
        if i == 0:
            orders = [math.nan] * 4
        else:
            orders = [math.log2(errors[i - 1][k] / errors[i][k]) if errors[i][k] > 0
                      else math.inf for k in range(4)]
        rows.append(ConvergenceRow(n, *errors[i], *orders))
    return rows
