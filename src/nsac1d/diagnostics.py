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

from .core import NUMBERS, FlowState, SimParams, check_positive, is_number
from .operators import block_potential, centered


# Every functional is computed on a block: the (K, 5, N + 4) stacked data of
# K states, whose field rows are (K, N); it reduces over the last axis to one
# value per state, so a single state is the block state.data[None].
_Rows = namedtuple("_Rows", "grid data u phi theta v u_x phi_x theta_x")


def _block_rows(data, grid):
    """The interior rows (in FIELDS order) and u_x, phi_x and theta_x of a
    block, each taken once for every functional to read."""
    g, n = grid.n_ghost, grid.n_cells
    u, phi, theta, v = data[:, :4, g:g + n].swapaxes(0, 1)
    u_x, phi_x, theta_x = centered(data[:, :3, g - 1:g + n + 1], grid.dx).swapaxes(0, 1)
    return _Rows(grid, data, u, phi, theta, v, u_x, phi_x, theta_x)


def _rows(state, params):
    """Run check_positive once, then take the rows of the one-state block."""
    check_positive(state, params)
    return _block_rows(state.data[None], state.grid)


def mass_excess(state):
    """Midpoint-rule integral of (v - 1) over the interior."""
    return float(_mass_excess(state.data[None], state.grid)[0])


def _mass_excess(data, grid):
    return (data[:, 3, grid.interior] - 1.0).sum(axis=-1) * grid.dx


def _energies(r, eps):
    """(total energy, Lyapunov energy): the kinetic, mixing and gradient
    densities are defined once, and each integrand sums them in its order."""
    kinetic = 0.5 * r.u**2
    mixing = (r.phi**2 - 1.0) ** 2 / (4.0 * eps)
    gradient = 0.5 * eps * r.phi_x**2 / r.v
    total = kinetic + (r.theta - 1.0) + mixing + gradient
    lyapunov = (kinetic + mixing + gradient + (r.v - np.log(r.v) - 1.0)
                + (r.theta - np.log(r.theta) - 1.0))
    return total.sum(axis=-1) * r.grid.dx, lyapunov.sum(axis=-1) * r.grid.dx


def total_energy(state, params):
    """Integral of u^2/2 + (theta - 1) + (phi^2-1)^2/(4 eps) + (eps/2) phi_x^2 / v."""
    return float(_energies(_rows(state, params), params.epsilon)[0][0])


def lyapunov_energy(state, params):
    """The five-term entropy functional; zero exactly at the far-field state."""
    return float(_energies(_rows(state, params), params.epsilon)[1][0])


def dissipation_rate(state, params):
    """Entropy production V = int theta^b theta_x^2/(v theta^2) + u_x^2/(v theta) + v mu^2/theta."""
    return float(_dissipation_rate(_rows(state, params), params)[0])


def _dissipation_rate(r, params):
    mu = block_potential(r.data, r.grid, params.epsilon)
    integrand = (r.theta**params.beta * r.theta_x**2 / (r.v * r.theta**2)
                 + r.u_x**2 / (r.v * r.theta)
                 + r.v * mu**2 / r.theta)
    return integrand.sum(axis=-1) * r.grid.dx


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
    averages, outside = _brackets(state.data[None], state.grid, alpha1, alpha2)
    return [(name, int(j) - int(state.grid.half_width), float(averages[0, k, j]))
            for k, name in enumerate(("v", "theta")) for j in np.flatnonzero(outside[0, k])]


def _brackets(data, grid, alpha1, alpha2):
    """The unit-interval averages of v and theta of each state of a block,
    (K, 2, 2L), averaged in one reshape, and which lie outside the bracket."""
    tol = 1e-6 + grid.dx**2
    per_unit = _unit_interval_cells(grid)
    averages = data[:, 3:1:-1, grid.interior].reshape(len(data), 2, -1, per_unit).mean(axis=-1)
    return averages, (averages < alpha1 - tol) | (averages > alpha2 + tol)


def cutoff_weight(n, x):
    """Exponential cutoff: 1 on [n, n+1], decaying like e^{-|gap|/2} outside.
    The exponent is never positive, so exp does not overflow however far
    [n, n+1] lies from x."""
    x = np.asarray(x, dtype=float)
    gap = np.maximum(np.maximum(n - x, x - (n + 1.0)), 0.0)
    return np.exp(-0.5 * gap)


def check_weighted_pairs(pairs):
    """The rule for weighted-dissipation pairs (alpha, n): 0 < alpha < 1, n
    an integer, the unit interval [n, n+1] of the cutoff weight, and each
    pair listed once."""
    seen = []
    for alpha, n in pairs:
        if not is_number(alpha, float):  # one that text records as written
            raise ValueError(f"weighted_diss alpha must be {NUMBERS[float][1]}, got {alpha!r}")
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"weighted_diss alpha must be in (0, 1), got {alpha}")
        if not is_number(n, int):
            raise ValueError(f"weighted_diss n must be {NUMBERS[int][1]}, got {n!r}")
        if (alpha, n) in seen:
            raise ValueError(f"weighted_diss lists the pair {alpha}:{n} twice")
        seen.append((alpha, n))


def weighted_dissipation(state, params, alpha, n):
    """Cutoff-weighted, temperature-rescaled conduction dissipation.

    Integrand theta^beta theta_x^2 / (v theta^(alpha+1)) * w_n(x), with the
    cutoff weight w_n = cutoff_weight(n, state.grid.x); the caller integrates
    it in time.  Reported only: its continuum bound has a non-constructive
    constant.  (alpha, n) must pass check_weighted_pairs.
    """
    check_weighted_pairs([(alpha, n)])
    return float(_weighted_dissipation(_rows(state, params), params, alpha,
                                       cutoff_weight(n, state.grid.x))[0])


def _weighted_dissipation(r, params, alpha, weight):
    integrand = r.theta**params.beta * r.theta_x**2 / (r.v * r.theta ** (alpha + 1.0)) * weight
    return integrand.sum(axis=-1) * r.grid.dx


def lemma24_residual(state, initial):
    """L2 norm of the discrete integrated-momentum identity residual.

    R_i = centered((ln v - ln v0) - (G - G0))_i - (u_i - u0_i); identically zero in
    the continuum, pure truncation error for the scheme.  Zero exactly at
    t = 0 and to roundoff on equilibrium runs.
    """
    if state.grid != initial.grid:
        raise ValueError("state and initial live on different grids")
    return float(_lemma24_residual(state.data[None], state.grid, np.log(initial.v),
                                   initial.G, initial.u[initial.grid.interior])[0])


def _lemma24_residual(data, grid, log_v0, G0, u0):
    combo = np.log(data[:, 3]) - log_v0 - (data[:, 4] - G0)
    resid = centered(combo, grid.dx)[:, 1:-1] - (data[:, 0, grid.interior] - u0)
    return np.sqrt((resid**2).sum(axis=-1) * grid.dx)


@dataclass
class RunContext:
    """The run monitor: record()'s per-run inputs (params, the initial state's
    ln v, G and interior u, its Lyapunov energy e0, the bracket roots, the
    cutoff weight w_n(x) of each weighted-dissipation pair (alpha, n)), and
    the last state folded with its V, v_last, and diss_cum, the
    trapezoid-rule integral of V."""

    params: SimParams
    e0: float
    alpha1: float
    alpha2: float
    weights: dict = field(repr=False)  # (alpha, n) -> w_n on the grid
    log_v0: np.ndarray = field(repr=False)
    G0: np.ndarray = field(repr=False)
    u0: np.ndarray = field(repr=False)
    state: FlowState
    v_last: float
    diss_cum: float = 0.0


def make_context(initial, params, weighted_pairs=()):
    """The RunContext of a run from `initial`, whose copy it folds; a grid or
    a weighted pair that record() cannot use is rejected before the first step."""
    grid = initial.grid
    _unit_interval_cells(grid)  # record() needs whole unit intervals
    pairs = tuple(weighted_pairs)
    check_weighted_pairs(pairs)
    state = initial.copy()
    rows = _rows(state, params)
    e0 = float(_energies(rows, params.epsilon)[1][0])
    alpha1, alpha2 = bracket_roots(e0)
    return RunContext(params=params, e0=e0, alpha1=alpha1, alpha2=alpha2,
                      weights={(a, n): cutoff_weight(n, grid.x) for a, n in pairs},
                      log_v0=np.log(state.v), G0=state.G, u0=state.u[grid.interior],
                      state=state, v_last=float(_dissipation_rate(rows, params)[0]))


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


def record(context, states=(), kept=None):
    """Fold the accepted `states`, in order, as one block, and return the list
    of the DiagnosticsRecords of the block's states at the positions `kept`,
    or of its last state if kept is None.

    Every state is guarded once by check_positive before any is folded, so a
    failing state raises and leaves the context as it was.  diss_cum grows by
    the trapezoid rule over each interval [t of the state before, t]; folding
    the last state again adds 0.  Each functional is one pass over the block.
    With no states, the block is the last state folded, and nothing is
    guarded or folded.
    """
    params, states = context.params, tuple(states)
    for state in states:
        check_positive(state, params)
    block = states or (context.state,)
    rows = _block_rows(np.stack([s.data for s in block]), context.state.grid)
    if states:
        v_diss, cum = _dissipation_rate(rows, params).tolist(), []
        for state, v in zip(block, v_diss):
            context.diss_cum += 0.5 * (state.t - context.state.t) * (context.v_last + v)
            context.state, context.v_last = state, v
            cum.append(context.diss_cum)
    else:
        v_diss, cum = [context.v_last], [context.diss_cum]
    picks = [len(block) - 1] if kept is None else list(kept)
    if not picks:
        return []
    # the rows of the kept states, copied only when some states are not kept
    r = rows if picks == list(range(len(block))) else _Rows(
        rows.grid, *(values[picks] for values in rows[1:]))
    low = r.data[:, 1:4, r.grid.interior].min(axis=-1)  # phi, theta, v
    high = r.data[:, 1:4, r.grid.interior].max(axis=-1)
    energy_total, e_lyap = _energies(r, params.epsilon)
    _, outside = _brackets(r.data, r.grid, context.alpha1, context.alpha2)
    columns = {"mass_excess": _mass_excess(r.data, r.grid),
               "energy_total": energy_total, "e_lyap": e_lyap,
               "phi_min": low[:, 0], "phi_max": high[:, 0],
               "v_min": low[:, 2], "v_max": high[:, 2],
               "theta_min": low[:, 1], "theta_max": high[:, 1],
               "bracket_violations": outside.sum(axis=(1, 2)),
               "lemma24_residual": _lemma24_residual(r.data, r.grid, context.log_v0,
                                                     context.G0, context.u0)}
    columns = {name: values.tolist() for name, values in columns.items()}
    weighted = {pair: _weighted_dissipation(r, params, pair[0], w).tolist()
                for pair, w in context.weights.items()}
    return [DiagnosticsRecord(
        t=float(block[i].t), v_diss=v_diss[i], diss_cum=cum[i],
        e0=context.e0, alpha1=context.alpha1, alpha2=context.alpha2,
        weighted={pair: values[j] for pair, values in weighted.items()},
        **{name: values[j] for name, values in columns.items()})
        for j, i in enumerate(picks)]
