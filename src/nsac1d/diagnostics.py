"""Scalar functionals of a state: conservation sums, Lyapunov energy,
dissipation rate, unit-interval average brackets, weighted dissipation,
and the integrated-momentum residual.

Quantities whose continuum bounds carry non-constructive constants are
computed and reported only; the quantitative ones (mass, Lyapunov chain,
phase range, brackets) are asserted by the audit layer and the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import FlowState, check_positive
from .operators import chemical_potential, d1_center


def mass_excess(state):
    """Midpoint-rule integral of (v - 1) over the interior."""
    return float(np.sum(state.interior("v") - 1.0) * state.grid.dx)


def total_energy(state, params):
    """Integral of u^2/2 + (theta - 1) + (phi^2-1)^2/(4 eps) + (eps/2) phi_x^2 / v."""
    s = state.grid.interior
    eps = params.epsilon
    phi_x = d1_center(state.phi, state.grid.dx)[s]
    integrand = (0.5 * state.u[s] ** 2 + (state.theta[s] - 1.0)
                 + (state.phi[s] ** 2 - 1.0) ** 2 / (4.0 * eps)
                 + 0.5 * eps * phi_x**2 / state.v[s])
    return float(np.sum(integrand) * state.grid.dx)


def lyapunov_energy(state, params):
    """The five-term entropy functional; zero exactly at the far-field state."""
    check_positive(state, params)
    s = state.grid.interior
    v, theta = state.v[s], state.theta[s]
    eps = params.epsilon
    phi_x = d1_center(state.phi, state.grid.dx)[s]
    integrand = (0.5 * state.u[s] ** 2
                 + (state.phi[s] ** 2 - 1.0) ** 2 / (4.0 * eps)
                 + 0.5 * eps * phi_x**2 / v
                 + (v - np.log(v) - 1.0)
                 + (theta - np.log(theta) - 1.0))
    return float(np.sum(integrand) * state.grid.dx)


def dissipation_rate(state, params):
    """Entropy production V = int theta^b theta_x^2/(v theta^2) + u_x^2/(v theta) + v mu^2/theta."""
    check_positive(state, params)
    s = state.grid.interior
    dx = state.grid.dx
    v, theta = state.v[s], state.theta[s]
    theta_x = d1_center(state.theta, dx)[s]
    u_x = d1_center(state.u, dx)[s]
    mu = chemical_potential(state, params)[s]
    integrand = (theta**params.beta * theta_x**2 / (v * theta**2)
                 + u_x**2 / (v * theta) + v * mu**2 / theta)
    return float(np.sum(integrand) * dx)


def _well(y):
    return y - math.log(y) - 1.0


def bracket_roots(e0):
    """The two roots 0 < alpha1 <= 1 <= alpha2 of y - ln y - 1 = e0.

    Bisection on each monotone branch of the convex well, with a doubling
    upper bracket; both roots satisfy the defining equation to 1e-12.  For
    e0 beyond ~690 the lower root underflows double precision and is
    clamped to the smallest certifiable positive value.
    """
    if not e0 >= 0:  # also rejects nan
        raise ValueError(f"e0 must be >= 0, got {e0}")
    if e0 == 0.0:
        return 1.0, 1.0

    lo = 1.0
    while _well(lo) < e0 and lo > 1e-300:
        lo *= 0.5
    if _well(lo) < e0:
        alpha1 = lo
    else:
        alpha1 = _bisect(lo, 1.0, e0, decreasing=True)

    hi = 2.0
    while _well(hi) < e0:
        hi *= 2.0
    alpha2 = _bisect(1.0, hi, e0, decreasing=False)
    return alpha1, alpha2


def _bisect(lo, hi, e0, decreasing):
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        r = _well(mid) - e0
        if decreasing:
            r = -r
        # r now increases along [lo, hi]: negative means left of the root
        if r < 0.0:
            lo = mid
        else:
            hi = mid
    # pick the endpoint with the smaller residual
    return min(lo, hi, key=lambda y: abs(_well(y) - e0))


def cell_average_brackets(state, alpha1, alpha2):
    """Check unit-interval averages of v and theta against [alpha1, alpha2].

    The grid must span whole unit mass intervals (integer L, cells tiling
    each interval).  Returns the violations beyond alpha +- (1e-6 + dx^2) as
    (field, n, average) for the interval [n, n+1].
    """
    grid = state.grid
    L = grid.half_width
    if L != int(L):
        raise ValueError(f"unit-interval averages need integer L, got {L}")
    n_units = 2 * int(L)
    if grid.n_cells % n_units != 0:
        raise ValueError(f"N = {grid.n_cells} cells do not tile {n_units} unit intervals")
    per_unit = grid.n_cells // n_units

    tol = 1e-6 + grid.dx**2
    violations = []
    for name in ("v", "theta"):
        averages = state.interior(name).reshape(n_units, per_unit).mean(axis=1)
        outside = (averages < alpha1 - tol) | (averages > alpha2 + tol)
        violations += [(name, int(j) - int(L), float(averages[j]))
                       for j in np.flatnonzero(outside)]
    return violations


def cutoff_weight(n, x):
    """Exponential cutoff: 1 on [n, n+1], decaying like e^{-|gap|/2} outside."""
    x = np.asarray(x, dtype=float)
    left = np.exp(0.5 * (x - n))
    right = np.exp(0.5 * (n + 1.0 - x))
    return np.minimum(1.0, np.minimum(left, right))


def weighted_dissipation(state, params, alpha, weight):
    """Cutoff-weighted, temperature-rescaled conduction dissipation.

    Integrand theta^beta theta_x^2 / (v theta^(alpha+1)) * w_n(x), with the
    cutoff weight w_n = cutoff_weight(n, state.grid.x) given as `weight`; the
    caller accumulates it in time.  Reported only: its continuum bound has a
    non-constructive constant.  Requires 0 < alpha < 1.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    check_positive(state, params)
    s = state.grid.interior
    dx = state.grid.dx
    v, theta = state.v[s], state.theta[s]
    theta_x = d1_center(state.theta, dx)[s]
    integrand = theta**params.beta * theta_x**2 / (v * theta ** (alpha + 1.0)) * weight
    return float(np.sum(integrand) * dx)


def lemma24_residual(state, initial):
    """L2 norm of the discrete integrated-momentum identity residual.

    R_i = d1((ln v - ln v0) - (G - G0))_i - (u_i - u0_i); identically zero in
    the continuum, pure truncation error for the scheme.  Zero exactly at
    t = 0 and to roundoff on equilibrium runs.
    """
    if state.grid != initial.grid:
        raise ValueError("state and initial live on different grids")
    grid = state.grid
    s = grid.interior
    combo = np.log(state.v) - np.log(initial.v) - (state.G - initial.G)
    resid = d1_center(combo, grid.dx)[s] - (state.u[s] - initial.u[s])
    return float(math.sqrt(np.sum(resid**2) * grid.dx))


@dataclass
class RunContext:
    """The run monitor: per-run inputs for record() (the initial state, its
    Lyapunov energy, the bracket roots, the weighted-dissipation pairs and
    each pair's cutoff weight w_n(x), computed once per run) and diss_cum,
    the running sum of V(t) dt that accumulate() grows."""

    initial: FlowState
    e0: float
    alpha1: float
    alpha2: float
    weighted_pairs: tuple = ()
    diss_cum: float = 0.0
    t_last: float = field(init=False)  # time of the last state folded in
    weights: dict = field(init=False, repr=False)  # n -> w_n on the grid

    def __post_init__(self):
        self.t_last = self.initial.t
        self.weights = {n: cutoff_weight(n, self.initial.grid.x)
                        for _, n in self.weighted_pairs}

    def accumulate(self, state, params):
        """Fold an accepted state into diss_cum (right-endpoint rule); return its V."""
        v_diss = dissipation_rate(state, params)
        self.diss_cum += (state.t - self.t_last) * v_diss
        self.t_last = state.t
        return v_diss


def make_context(initial, params, weighted_pairs=()):
    e0 = lyapunov_energy(initial, params)
    alpha1, alpha2 = bracket_roots(e0)
    return RunContext(initial=initial.copy(), e0=e0, alpha1=alpha1, alpha2=alpha2,
                      weighted_pairs=tuple(weighted_pairs))


@dataclass
class DiagnosticsRecord:
    """All scalar functionals of one state, plus the run-context scalars."""

    t: float
    mass_excess: float
    energy_total: float
    e_lyap: float
    v_diss: float
    diss_cum: float
    e0: float
    alpha1: float
    alpha2: float
    phi_min: float
    phi_max: float
    v_min: float
    v_max: float
    theta_min: float
    theta_max: float
    bracket_violations: int
    lemma24_residual: float
    weighted: dict = field(default_factory=dict)


def record(state, params, context, v_diss):
    """Evaluate every functional on one state; pure in (state, context).
    v_diss: dissipation_rate(state, params), as context.accumulate returns it."""
    phi = state.interior("phi")
    v = state.interior("v")
    theta = state.interior("theta")
    violations = cell_average_brackets(state, context.alpha1, context.alpha2)
    weighted = {(alpha, n): weighted_dissipation(state, params, alpha, context.weights[n])
                for alpha, n in context.weighted_pairs}
    return DiagnosticsRecord(
        t=float(state.t),
        mass_excess=mass_excess(state),
        energy_total=total_energy(state, params),
        e_lyap=lyapunov_energy(state, params),
        v_diss=v_diss,
        diss_cum=float(context.diss_cum),
        e0=float(context.e0),
        alpha1=context.alpha1,
        alpha2=context.alpha2,
        phi_min=float(phi.min()),
        phi_max=float(phi.max()),
        v_min=float(v.min()),
        v_max=float(v.max()),
        theta_min=float(theta.min()),
        theta_max=float(theta.max()),
        bracket_violations=len(violations),
        lemma24_residual=lemma24_residual(state, context.initial),
        weighted=weighted,
    )
