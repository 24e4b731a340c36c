"""Scalar functionals of a state: conservation sums, Lyapunov energy,
dissipation rate, unit-interval average brackets, weighted dissipation,
and the integrated-momentum residual.

Quantities whose continuum bounds carry non-constructive constants are
computed and reported only; the quantitative ones (mass, Lyapunov chain,
phase range, brackets) are asserted by the audit layer and the test suite.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .core import FlowState, SimParams, check_positive
from .operators import centered, chemical_potential


def mass_excess(state):
    """Midpoint-rule integral of (v - 1) over the interior."""
    return float(np.sum(state.interior("v") - 1.0) * state.grid.dx)


_Rows = namedtuple("_Rows", "u phi theta v u_x phi_x theta_x dx")


def _rows(state, params):
    """Run check_positive once, then take the interior rows (in FIELDS order)
    and u_x, phi_x and theta_x, each once, for every functional to read."""
    check_positive(state, params)
    g, n, dx = state.grid.n_ghost, state.grid.n_cells, state.grid.dx
    return _Rows(*state.data[:4, g:g + n],
                 *(centered(f, dx) for f in state.data[:3, g - 1:g + n + 1]), dx)


def _energies(r, eps):
    """(total energy, Lyapunov energy): the kinetic, mixing and gradient
    densities are defined once, and each integrand sums them in its order."""
    kinetic = 0.5 * r.u**2
    mixing = (r.phi**2 - 1.0) ** 2 / (4.0 * eps)
    gradient = 0.5 * eps * r.phi_x**2 / r.v
    total = kinetic + (r.theta - 1.0) + mixing + gradient
    lyapunov = (kinetic + mixing + gradient + (r.v - np.log(r.v) - 1.0)
                + (r.theta - np.log(r.theta) - 1.0))
    return float(np.sum(total) * r.dx), float(np.sum(lyapunov) * r.dx)


def total_energy(state, params):
    """Integral of u^2/2 + (theta - 1) + (phi^2-1)^2/(4 eps) + (eps/2) phi_x^2 / v."""
    return _energies(_rows(state, params), params.epsilon)[0]


def lyapunov_energy(state, params):
    """The five-term entropy functional; zero exactly at the far-field state."""
    return _energies(_rows(state, params), params.epsilon)[1]


def dissipation_rate(state, params):
    """Entropy production V = int theta^b theta_x^2/(v theta^2) + u_x^2/(v theta) + v mu^2/theta."""
    return _dissipation_rate(state, _rows(state, params), params)


def _dissipation_rate(state, r, params):
    integrand = (r.theta**params.beta * r.theta_x**2 / (r.v * r.theta**2)
                 + r.u_x**2 / (r.v * r.theta)
                 + r.v * chemical_potential(state, params)**2 / r.theta)
    return float(np.sum(integrand) * r.dx)


def _well(y):
    return y - math.log(y) - 1.0


def bracket_roots(e0):
    """The two roots 0 < alpha1 <= 1 <= alpha2 of y - ln y - 1 = e0.

    Each is bisected to adjacent doubles on a closed bracket, alpha1 in
    [e^(-e0-1), e^(-e0)] and alpha2 in [1 + e0, 3 + e0 + 2 ln(1 + e0)], and
    meets the equation to 1e-14 * max(1, e0) while alpha1 is a normal double
    (e0 below about 708); a subnormal alpha1 is as close as its spacing
    allows.  For e0 above about 743.4 the lower root lies below the smallest
    positive double, and alpha1 is that double.
    """
    if not 0 <= e0 < math.inf:  # also rejects nan
        raise ValueError(f"e0 must be >= 0 and finite, got {e0}")
    if e0 == 0.0:
        return 1.0, 1.0
    # at the bracket ends e0 - well is -e^(-e0-1) and 1 - e^(-e0), and
    # well - e0 is -l and 2 + 2l - ln(3 + e0 + 2l) >= 0, with l = ln(1 + e0)
    tiny, ell = math.ulp(0.0), math.log1p(e0)
    alpha1 = _bisect(lambda y: e0 - _well(y),
                     max(math.exp(-e0 - 1.0), tiny), max(math.exp(-e0), tiny))
    alpha2 = _bisect(lambda y: _well(y) - e0, 1.0 + e0, 3.0 + e0 + 2.0 * ell)
    return alpha1, alpha2


def _bisect(f, lo, hi):
    """Bisect [lo, hi], on which f increases through 0, until no double lies
    between the ends; return the end with the smaller |f|."""
    while True:
        mid = lo + 0.5 * (hi - lo)  # cannot overflow or fall below lo
        if mid == lo or mid == hi:
            return min(lo, hi, key=lambda y: abs(f(y)))
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid


def _unit_interval_cells(grid):
    """Cells per unit mass interval; L must be an integer and N tile 2L intervals."""
    L = grid.half_width
    if L != int(L):
        raise ValueError(f"unit-interval averages need integer L, got {L}")
    n_units = 2 * int(L)
    if grid.n_cells % n_units != 0:
        raise ValueError(f"N = {grid.n_cells} cells do not tile {n_units} unit "
                         "intervals; pick N divisible by 2L")
    return grid.n_cells // n_units


def cell_average_brackets(state, alpha1, alpha2):
    """Check unit-interval averages of v and theta against [alpha1, alpha2].

    L must be an integer and N divisible by 2L.  Returns the violations
    beyond alpha +- (1e-6 + dx^2) as (field, n, average) for [n, n+1].
    """
    per_unit = _unit_interval_cells(state.grid)
    tol = 1e-6 + state.grid.dx**2
    violations = []
    for name in ("v", "theta"):
        averages = state.interior(name).reshape(-1, per_unit).mean(axis=1)
        outside = (averages < alpha1 - tol) | (averages > alpha2 + tol)
        violations += [(name, int(j) - int(state.grid.half_width), float(averages[j]))
                       for j in np.flatnonzero(outside)]
    return violations


def cutoff_weight(n, x):
    """Exponential cutoff: 1 on [n, n+1], decaying like e^{-|gap|/2} outside."""
    x = np.asarray(x, dtype=float)
    left = np.exp(0.5 * (x - n))
    right = np.exp(0.5 * (n + 1.0 - x))
    return np.minimum(1.0, np.minimum(left, right))


def check_weighted_pairs(pairs):
    """The rule for weighted-dissipation pairs (alpha, n): 0 < alpha < 1, n
    an integer, the unit interval [n, n+1] of the cutoff weight, and each
    pair listed once."""
    seen = []
    for alpha, n in pairs:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"weighted_diss alpha must be in (0, 1), got {alpha}")
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ValueError(f"weighted_diss n must be an integer, got {n!r}")
        if (alpha, n) in seen:
            raise ValueError(f"weighted_diss lists the pair {alpha}:{n} twice")
        seen.append((alpha, n))


def weighted_dissipation(state, params, alpha, weight):
    """Cutoff-weighted, temperature-rescaled conduction dissipation.

    Integrand theta^beta theta_x^2 / (v theta^(alpha+1)) * w_n(x), with the
    cutoff weight w_n = cutoff_weight(n, state.grid.x) given as `weight`; the
    caller accumulates it in time.  Reported only: its continuum bound has a
    non-constructive constant.  Requires 0 < alpha < 1.
    """
    check_weighted_pairs([(alpha, 0)])  # n is already in the weight
    return _weighted_dissipation(_rows(state, params), params, alpha, weight)


def _weighted_dissipation(r, params, alpha, weight):
    integrand = r.theta**params.beta * r.theta_x**2 / (r.v * r.theta ** (alpha + 1.0)) * weight
    return float(np.sum(integrand) * r.dx)


def lemma24_residual(state, initial):
    """L2 norm of the discrete integrated-momentum identity residual.

    R_i = centered((ln v - ln v0) - (G - G0))_i - (u_i - u0_i); identically zero in
    the continuum, pure truncation error for the scheme.  Zero exactly at
    t = 0 and to roundoff on equilibrium runs.
    """
    if state.grid != initial.grid:
        raise ValueError("state and initial live on different grids")
    grid = state.grid
    s = grid.interior
    combo = np.log(state.v) - np.log(initial.v) - (state.G - initial.G)
    resid = centered(combo, grid.dx)[1:-1] - (state.u[s] - initial.u[s])
    return float(math.sqrt(np.sum(resid**2) * grid.dx))


@dataclass
class RunContext:
    """The run monitor: record()'s per-run inputs (params, the initial state,
    its Lyapunov energy e0, the bracket roots, the cutoff weight w_n(x) of each
    weighted-dissipation pair (alpha, n)) and the last fold (its state and rows,
    v_last, the V of that state, and diss_cum, the trapezoid-rule integral of V)."""

    params: SimParams
    initial: FlowState
    e0: float
    alpha1: float
    alpha2: float
    weights: dict = field(repr=False)  # (alpha, n) -> w_n on the grid
    state: FlowState
    rows: _Rows = field(repr=False)
    v_last: float
    diss_cum: float = 0.0

    def accumulate(self, state):
        """Fold an accepted state into diss_cum by the trapezoid rule over
        [self.state.t, state.t]; folding the last state again adds 0."""
        rows = _rows(state, self.params)
        v_diss = _dissipation_rate(state, rows, self.params)
        self.diss_cum += 0.5 * (state.t - self.state.t) * (self.v_last + v_diss)
        self.state, self.rows, self.v_last = state, rows, v_diss


def make_context(initial, params, weighted_pairs=()):
    """The RunContext of a run from `initial`, whose copy it folds; a grid or
    a weighted pair that record() cannot use is rejected before the first step."""
    _unit_interval_cells(initial.grid)  # record() needs whole unit intervals
    pairs = tuple(weighted_pairs)
    check_weighted_pairs(pairs)
    state = initial.copy()
    rows = _rows(state, params)
    e0 = _energies(rows, params.epsilon)[1]
    alpha1, alpha2 = bracket_roots(e0)
    return RunContext(params=params, initial=state, e0=e0, alpha1=alpha1, alpha2=alpha2,
                      weights={(a, n): cutoff_weight(n, initial.grid.x) for a, n in pairs},
                      state=state, rows=rows, v_last=_dissipation_rate(state, rows, params))


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


def record(context):
    """Evaluate every functional on the state the context folded last, from
    the rows of that fold; V and diss_cum are those of the fold."""
    state, r, params = context.state, context.rows, context.params
    energy_total, e_lyap = _energies(r, params.epsilon)
    violations = cell_average_brackets(state, context.alpha1, context.alpha2)
    weighted = {(alpha, n): _weighted_dissipation(r, params, alpha, w)
                for (alpha, n), w in context.weights.items()}
    return DiagnosticsRecord(
        t=float(state.t),
        mass_excess=mass_excess(state),
        energy_total=energy_total,
        e_lyap=e_lyap,
        v_diss=context.v_last,
        diss_cum=float(context.diss_cum),
        e0=float(context.e0),
        alpha1=context.alpha1,
        alpha2=context.alpha2,
        phi_min=float(r.phi.min()),
        phi_max=float(r.phi.max()),
        v_min=float(r.v.min()),
        v_max=float(r.v.max()),
        theta_min=float(r.theta.min()),
        theta_max=float(r.theta.max()),
        bracket_violations=len(violations),
        lemma24_residual=lemma24_residual(state, context.initial),
        weighted=weighted,
    )
