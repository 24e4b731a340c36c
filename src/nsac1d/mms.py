"""Manufactured-solution harness: closed-form fields with matching injection
sources, and a refinement study measuring the observed order of the full
scheme.  Sources are hard-coded analytic expressions (no symbolic-math
dependency); the test suite pins them against an independently generated
oracle table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BoundaryConfig, make_grid, state_from_fields
from .integrator import run
from .operators import potential_from

# dt cap of the refinement study, in units of dx^2: small enough that the
# temporal error does not pollute the observed spatial order
DT_CAP_FACTOR = 0.05


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
    ghost region.  amplitude = 0 collapses everything to the equilibrium
    constants (phi = +1) and all sources vanish identically.
    """

    def __init__(self, params, half_width, amplitude=0.1, t_star=0.25):
        if half_width < 8:
            raise ValueError(f"manufactured case needs L >= 8, got {half_width}")
        if not 0.0 <= amplitude <= 0.3:
            raise ValueError(f"amplitude must be in [0, 0.3], got {amplitude}")
        if t_star <= 0:
            raise ValueError(f"t_star must be > 0, got {t_star}")
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
        self._grid_factors = None  # (copy of x, _spatial(x), _phase(x))
        self._check_window()

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

    def _factors(self, x):
        """_spatial(x) and _phase(x), recomputed only when the values of x change."""
        cached = self._grid_factors
        if cached is None or not np.array_equal(cached[0], x):
            cached = self._grid_factors = (x.copy(), self._spatial(x), self._phase(x))
        return cached[1], cached[2]

    def _all(self, x, t):
        (a, a1, a2, b, b1, b2), phase = self._factors(np.asarray(x, dtype=float))
        decay = math.exp(-t)
        rise = 1.0 - decay
        d = {}
        d["v"], d["v_t"], d["v_x"], d["v_xx"] = 1.0 + a * decay, -a * decay, a1 * decay, a2 * decay
        d["u"], d["u_t"], d["u_x"], d["u_xx"] = a * decay, -a * decay, a1 * decay, a2 * decay
        d["theta"], d["theta_t"] = 1.0 + b * rise, b * decay
        d["theta_x"], d["theta_xx"] = b1 * rise, b2 * rise
        d["phi"], d["phi_x"], d["phi_xx"] = phase
        return d

    def fields(self, x, t):
        d = self._all(x, t)
        return d["v"], d["u"], d["theta"], d["phi"].copy()

    def sources(self, x, t):
        """Residuals of the governing equations on the manufactured fields."""
        pr = self.params
        eps = pr.epsilon
        d = self._all(x, t)
        v, v_t, v_x = d["v"], d["v_t"], d["v_x"]
        u_t, u_x, u_xx = d["u_t"], d["u_x"], d["u_xx"]
        theta, theta_t, theta_x, theta_xx = d["theta"], d["theta_t"], d["theta_x"], d["theta_xx"]
        phi, phi_x, phi_xx = d["phi"], d["phi_x"], d["phi_xx"]

        v2 = v**2
        theta_b = theta**pr.beta
        ratio_x = phi_xx / v - phi_x * v_x / v2  # (phi_x / v)_x
        mu = potential_from(phi, ratio_x, eps)

        s_v = v_t - u_x
        s_u = (u_t + pr.gas_R * (theta_x / v - theta * v_x / v2)
               + eps * (phi_x / v) * ratio_x
               - pr.nu * (u_xx / v - u_x * v_x / v2))
        s_phi = 0.0 * phi + v * mu
        cond = pr.kappa_tilde * (pr.beta * theta ** (pr.beta - 1.0) * theta_x**2 / v
                                 + theta_b * theta_xx / v
                                 - theta_b * theta_x * v_x / v2)
        # in theta_t units, matching the dtheta component it is added to
        s_theta = (pr.c_v * theta_t + pr.gas_R * (theta / v) * u_x - cond
                   - pr.nu * u_x**2 / v - v * mu**2) / pr.c_v
        return s_v, s_u, s_theta, s_phi

    # -- validity ----------------------------------------------------------

    def _check_window(self):
        x = np.linspace(-self.half_width, self.half_width, 4001)
        for t in (0.0, self.t_star):
            v, _, theta, phi = self.fields(x, t)
            if v.min() < 0.5 or theta.min() < 0.5:
                raise ValueError("manufactured fields leave the validity window "
                                 f"(min v = {v.min():.3f}, min theta = {theta.min():.3f})")
            if phi.min() < -1.0 - 1e-12 or phi.max() > 1.0 + 1e-12:
                raise ValueError("manufactured phi leaves [-1, 1]")


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

    dt is capped at DT_CAP_FACTOR * dx^2.  Resolutions must be at least
    three, each double the previous.
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
        result = run(state, case.params, case.bc, case.t_star,
                     dt_cap=DT_CAP_FACTOR * grid.dx**2, sources=case.sources)
        final = result.state
        exact = case.fields(grid.x, case.t_star)
        errs = [math.sqrt(np.sum((final.interior(name) - ex) ** 2) * grid.dx)
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
