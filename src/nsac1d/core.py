"""Domain types, grids, and initial states for the 1-D two-phase flow solver.

All fields live at cell centers of a uniform grid in the Lagrangian mass
coordinate, truncated to [-L, L] with two ghost layers per side holding the
far-field state (v, u, theta) = (1, 0, 1) and phi = +-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

N_GHOST = 2
FARFIELD_V = 1.0
FARFIELD_U = 0.0
FARFIELD_THETA = 1.0

# closed-form initial fields must be this close to the far-field constants
# at |x| = L, so the Dirichlet ghost values introduce no visible kink
FARFIELD_REACH_TOL = 1e-12

# the largest |x - center| / width of a bump on [-L, L] whose square is a double
BUMP_SPAN_MAX = math.sqrt(np.finfo(float).max)

# the numbers that an int or a float written to text reads back as: a bool is
# neither, and a float of another width would be recorded as another value
NUMBERS = {int: ((int, np.integer), "an integer"),
           float: ((int, float, np.integer), "an int or a float")}


def is_number(value, kind):
    """Whether value is a number of kind int or float by the NUMBERS rule."""
    return isinstance(value, NUMBERS[kind][0]) and not isinstance(value, bool)


class PositivityError(RuntimeError):
    """v or theta at or below the positivity floor, or a field not finite.

    Raised instead of clamping: a violation means the run is under-resolved
    or the scheme misbehaves, and has to be surfaced.
    """

    def __init__(self, field, cell, value, t, floor):
        self.field = field
        self.cell = cell
        self.value = float(value)
        self.t = float(t)
        self.floor = float(floor)
        problem = ("is not finite" if not math.isfinite(self.value) else
                   f"is at or below the positivity floor {self.floor:.1e}")
        super().__init__(f"{field} = {self.value:.6e} at cell {cell} "
                         f"(t = {self.t:.6e}) {problem}")


@dataclass(frozen=True)
class SimParams:
    """The model's two parameters, epsilon (interface thickness) and beta
    (heat conductivity theta**beta; every other coefficient is 1), and the
    numerical constants."""

    epsilon: float = 1.0
    beta: float = 1.0
    cfl: float = 0.4
    positivity_floor: float = 1e-10

    def __post_init__(self):
        for name in ("epsilon", "beta", "positivity_floor"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:  # also rejects nan
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if not 0.0 < self.cfl < 1.0:
            raise ValueError(f"cfl must be in (0, 1), got {self.cfl}")


@dataclass(frozen=True)
class MassGrid:
    """Uniform cell-centered grid on [-L, L] in the mass coordinate; L must be
    finite and > 0, and n_cells an even integer >= 8."""

    half_width: float
    n_cells: int
    n_ghost: ClassVar[int] = N_GHOST

    def __post_init__(self):
        if not 0.0 < self.half_width < math.inf:  # also rejects nan
            raise ValueError(f"half_width must be finite and > 0, got {self.half_width}")
        n = self.n_cells
        if not is_number(n, int):
            raise ValueError(f"n_cells must be an integer, got {n!r}")
        if n < 8 or n % 2 != 0:
            raise ValueError(f"n_cells must be even and >= 8, got {n}")

    @cached_property
    def dx(self):
        return 2.0 * self.half_width / self.n_cells

    @cached_property
    def n_total(self):
        return self.n_cells + 2 * self.n_ghost

    @cached_property
    def interior(self):
        """Slice selecting the interior cells of a ghost-padded array."""
        return slice(self.n_ghost, self.n_ghost + self.n_cells)

    @cached_property
    def x(self):
        """Interior cell centers x_i = -L + (i + 1/2) dx."""
        i = np.arange(self.n_cells)
        return -self.half_width + (i + 0.5) * self.dx


def make_grid(half_width, n_cells):
    """A uniform MassGrid with half_width taken as a float."""
    return MassGrid(float(half_width), n_cells)


@dataclass(frozen=True)
class BoundaryConfig:
    """Far-field phase values; each must be exactly +1 or -1."""

    phi_left: float
    phi_right: float

    def __post_init__(self):
        for name in ("phi_left", "phi_right"):
            if abs(getattr(self, name)) != 1.0:
                raise ValueError(f"{name} must be +1 or -1, got {getattr(self, name)}")


@dataclass(frozen=True)
class InitialData:
    """The initial data's keys: the width of the tanh phase profile, and the
    amplitude, width and centre of a Gaussian bump on each of v, u and
    theta.  Widths must be finite and > 0, amplitudes and centres finite."""

    phi_width: float = 1.0
    v_amp: float = 0.0
    v_width: float = 2.0
    v_center: float = 0.0
    u_amp: float = 0.0
    u_width: float = 2.0
    u_center: float = 0.0
    theta_amp: float = 0.0
    theta_width: float = 2.0
    theta_center: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.phi_width < math.inf:  # also rejects nan
            raise ValueError(f"phi_width must be finite and > 0, got {self.phi_width}")
        for name, _, amp, w, c in self.bumps():
            if not 0.0 < w < math.inf:
                raise ValueError(f"{name}_width must be finite and > 0, got {w}")
            for key, value in (("amp", amp), ("center", c)):
                if not math.isfinite(value):
                    raise ValueError(f"{name}_{key} must be finite, got {value}")

    def bumps(self):
        """(name, far-field value, amplitude, width, centre) of each bump."""
        return (("v", FARFIELD_V, self.v_amp, self.v_width, self.v_center),
                ("u", FARFIELD_U, self.u_amp, self.u_width, self.u_center),
                ("theta", FARFIELD_THETA, self.theta_amp, self.theta_width,
                 self.theta_center))


# Row order of the packed state: the three conservatively diffused fields
# (u, phi, theta) are adjacent, and so are the two kept above the positivity
# floor (theta, v), so each group is one contiguous slice.
FIELDS = ("u", "phi", "theta", "v", "G")


def row_property(k):
    """A read/write attribute for row k of `self.data`, ghost cells included;
    reads give a view."""

    def get(self):
        return self.data[k]

    def set(self, values):
        self.data[k] = values

    return property(get, set)


@dataclass
class FlowState:
    """Cell-centered fields at one time level, ghost layers included: the
    rows of one (5, N + 4) array `data` in FIELDS order; `state.v` and the
    like are views of those rows.

    G holds the per-cell time integral of theta/v + (eps/2)(phi_x/v)^2
    from the start of the run; its far-field value is t, which apply_bc
    writes into the ghost cells where a state is built or lands, and step
    on each result.
    """

    grid: MassGrid
    t: float
    data: np.ndarray

    u = row_property(0)
    phi = row_property(1)
    theta = row_property(2)
    v = row_property(3)
    G = row_property(4)

    def copy(self):
        return FlowState(self.grid, self.t, self.data.copy())

    def interior(self, name):
        return getattr(self, name)[self.grid.interior]


def apply_bc(state, bc):
    """Write the far-field values into both ghost layers, in place: u, phi,
    theta and v from bc, and G's value t.  It runs where a state is built or
    lands; step carries the ghosts between."""
    g = state.grid.n_ghost
    # one array: the left then the right column, each in FIELDS order
    left, right = np.array((FARFIELD_U, bc.phi_left, FARFIELD_THETA, FARFIELD_V, state.t,
                            FARFIELD_U, bc.phi_right, FARFIELD_THETA, FARFIELD_V,
                            state.t)).reshape(2, -1, 1)
    state.data[:, :g] = left
    state.data[:, -g:] = right
    return state


def _within_bounds(high, lows, floor):
    """The guard's fast path: high (the largest of u, phi, theta and v) below
    inf and lows (their row minima) above -inf, -inf, floor, floor; nan fails."""
    u, phi, theta, v = lows
    return high < math.inf and u > -math.inf and phi > -math.inf and theta > floor and v > floor


def check_positive(state, params):
    """Hard error naming field and first offending cell if u, phi, theta or v
    is not finite, ghost cells included, or if interior v or theta is at or
    below the positivity floor.  Cells count from the first interior cell, so
    the ghost cells are -2, -1, N and N + 1.  Fast path: _within_bounds of two
    reductions that cannot warn, the largest of u, phi, theta and v and then
    their row minima, ghosts included; anything else, a low ghost too, falls
    through to the exact per-field scan, which gives the verdict."""
    data, floor = state.data[:4], params.positivity_floor
    if _within_bounds(np.maximum.reduce(data, axis=None),
                      np.minimum.reduce(data, axis=1).tolist(), floor):
        return
    s = state.grid.interior
    for name in ("v", "theta", "u", "phi"):
        vals = getattr(state, name)
        ok = np.isfinite(vals)
        if name in ("v", "theta"):
            ok[s] &= vals[s] > floor
        if not ok.all():
            j = int(ok.argmin())
            raise PositivityError(name, j - s.start, vals[j], state.t, floor)


def state_from_fields(grid, bc, rows, params):
    """Assemble a FlowState at t = 0 from a (4, N) array-like of the interior
    rows u, phi, theta and v (FIELDS order, the layout of the sources hook),
    checked with check_positive; G starts at zero."""
    rows = np.asarray(rows, dtype=float)
    if rows.shape != (4, grid.n_cells):
        raise ValueError(f"rows must have shape (4, {grid.n_cells}), got {rows.shape}")
    state = FlowState(grid, 0.0, np.zeros((len(FIELDS), grid.n_total)))
    state.data[:4, grid.interior] = rows
    apply_bc(state, bc)
    check_positive(state, params)
    return state


def _check_reach(name, gap):
    if gap > FARFIELD_REACH_TOL:
        raise ValueError(
            f"{name} misses its far-field value by {gap:.3e} at |x| = L "
            f"(limit {FARFIELD_REACH_TOL:.0e}); narrow the profile or enlarge L")


def _check_span(name, half_width, width, center):
    span = (half_width + abs(center)) / width
    if not span <= BUMP_SPAN_MAX:
        raise ValueError(
            f"(L + |{name}_center|) / {name}_width = {span:.3e} exceeds {BUMP_SPAN_MAX:.3e}, "
            f"so the {name} bump cannot be squared in a double; move {name}_center "
            f"nearer or widen {name}_width")


def _gaussian_bump(x, amp, width, center):
    return amp * np.exp(-(((x - center) / width) ** 2))


def interface_initial_state(grid, params, bc, **keywords):
    """Smooth initial data: tanh phase profile plus optional Gaussian bumps,
    from the InitialData built of the keywords.

    phi0 connects phi_left to phi_right over phi_width; v0, u0, theta0 are
    the far-field constants plus bumps amp * exp(-((x-c)/w)^2).  Every
    profile must come back to its far-field value at |x| = L to within 1e-12,
    L / phi_width must be a double, each bump's (L + |c|) / w must square to
    a double, and v0, theta0 must stay above the positivity floor.
    """
    data = InitialData(**keywords)
    L = grid.half_width
    x = grid.x
    mid = 0.5 * (bc.phi_right + bc.phi_left)
    dphi = 0.5 * (bc.phi_right - bc.phi_left)
    if not L / data.phi_width < math.inf:  # then no x / phi_width overflows
        raise ValueError(
            f"L / phi_width = {L!r} / {data.phi_width!r} overflows a double, so the "
            f"phi profile cannot be built; widen phi_width")
    rows = np.empty((4, grid.n_cells))  # FIELDS order, as state_from_fields takes
    rows[FIELDS.index("phi")] = mid + dphi * np.tanh(x / data.phi_width)
    if dphi != 0.0:
        _check_reach("phi", abs(dphi) * (1.0 - math.tanh(L / data.phi_width)))
    for name, farfield, amp, w, c in data.bumps():
        _check_span(name, L, w, c)
        if amp != 0.0:
            _check_reach(name, abs(amp) * math.exp(-(((L - abs(c)) / w) ** 2)))
        rows[FIELDS.index(name)] = farfield + _gaussian_bump(x, amp, w, c)
    return state_from_fields(grid, bc, rows, params)
