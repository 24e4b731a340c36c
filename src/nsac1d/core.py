"""Domain types, grids, and initial states for the 1-D two-phase flow solver.

All fields live at cell centers of a uniform grid in the Lagrangian mass
coordinate, truncated to [-L, L] with two ghost layers per side holding the
far-field state (v, u, theta) = (1, 0, 1) and phi = +-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

N_GHOST = 2
FARFIELD_V = 1.0
FARFIELD_U = 0.0
FARFIELD_THETA = 1.0

# closed-form initial fields must be this close to the far-field constants
# at |x| = L, so the Dirichlet ghost values introduce no visible kink
FARFIELD_REACH_TOL = 1e-12


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
    """Physical and numerical constants.

    The defaults nu = gas_R = c_v = kappa_tilde = 1 are the normalized
    coefficients the governing equations are written in; epsilon is the
    interface-thickness parameter and beta the conductivity exponent in
    kappa(theta) = kappa_tilde * theta**beta.
    """

    epsilon: float = 1.0
    beta: float = 1.0
    nu: float = 1.0
    gas_R: float = 1.0
    c_v: float = 1.0
    kappa_tilde: float = 1.0
    cfl: float = 0.4
    positivity_floor: float = 1e-10

    def __post_init__(self):
        for name in ("epsilon", "beta", "nu", "gas_R", "c_v", "kappa_tilde",
                     "positivity_floor"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:  # also rejects nan
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if not 0.0 < self.cfl < 1.0:
            raise ValueError(f"cfl must be in (0, 1), got {self.cfl}")


@dataclass(frozen=True)
class MassGrid:
    """Uniform cell-centered grid on [-L, L] in the mass coordinate."""

    half_width: float
    n_cells: int
    dx: float
    n_ghost: int = N_GHOST

    @property
    def n_total(self):
        return self.n_cells + 2 * self.n_ghost

    @property
    def interior(self):
        """Slice selecting the interior cells of a ghost-padded array."""
        return slice(self.n_ghost, self.n_ghost + self.n_cells)

    @cached_property
    def x(self):
        """Interior cell centers x_i = -L + (i + 1/2) dx."""
        i = np.arange(self.n_cells)
        return -self.half_width + (i + 0.5) * self.dx

    @cached_property
    def x_with_ghosts(self):
        i = np.arange(-self.n_ghost, self.n_cells + self.n_ghost)
        return -self.half_width + (i + 0.5) * self.dx


def make_grid(half_width, n_cells):
    """Build a uniform MassGrid; rejects n_cells odd or < 8 and L not finite
    or <= 0."""
    if not 0.0 < half_width < math.inf:  # also rejects nan
        raise ValueError(f"half_width must be finite and > 0, got {half_width}")
    if n_cells < 8 or n_cells % 2 != 0:
        raise ValueError(f"n_cells must be even and >= 8, got {n_cells}")
    return MassGrid(half_width=float(half_width), n_cells=int(n_cells),
                    dx=2.0 * half_width / n_cells)


@dataclass(frozen=True)
class BoundaryConfig:
    """Far-field phase values; each must be exactly +1 or -1."""

    phi_left: float
    phi_right: float

    def __post_init__(self):
        for name in ("phi_left", "phi_right"):
            if abs(getattr(self, name)) != 1.0:
                raise ValueError(f"{name} must be +1 or -1, got {getattr(self, name)}")


# Row order of the packed state: the three conservatively diffused fields
# (u, phi, theta) are adjacent, and so are the two kept above the positivity
# floor (theta, v), so each group is one contiguous slice.
FIELDS = ("u", "phi", "theta", "v", "G")


def row_property(k, ghosts=0):
    """A read/write attribute for row k of `self.data`, less `ghosts` cells
    at each end; reads give a view."""
    cols = slice(ghosts, -ghosts or None)

    def get(self):
        return self.data[k, cols]

    def set(self, values):
        self.data[k, cols] = values

    return property(get, set)


@dataclass
class FlowState:
    """Cell-centered fields at one time level, ghost layers included: the
    rows of one (5, N + 4) array `data` in FIELDS order; `state.v` and the
    like are views of those rows.

    G accumulates the per-cell time integral of theta/v + (eps/2)(phi_x/v)^2
    from the start of the run; its far-field value is t, which apply_bc
    maintains in the ghost cells.
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
    """Write the far-field values into both ghost layers, in place."""
    g = state.grid.n_ghost
    # one column per side, in FIELDS order
    left = (FARFIELD_U, bc.phi_left, FARFIELD_THETA, FARFIELD_V, state.t)
    right = (FARFIELD_U, bc.phi_right, FARFIELD_THETA, FARFIELD_V, state.t)
    state.data[:, :g] = np.array(left)[:, None]
    state.data[:, -g:] = np.array(right)[:, None]
    return state


def check_positive(state, params):
    """Hard error naming field and first offending interior cell if a field
    is not finite, or if v or theta is at or below the positivity floor."""
    s = state.grid.interior
    floor = params.positivity_floor
    # fast path over the contiguous rows u, phi, theta, v, ghosts included:
    # apply_bc keeps those finite
    if np.isfinite(state.data[:4]).all() and state.data[2:4, s].min() > floor:
        return
    for name in ("v", "theta", "u", "phi"):
        vals = state.interior(name)
        ok = np.isfinite(vals) & (vals > floor if name in ("v", "theta") else True)
        if not ok.all():
            j = int(np.argmin(ok))
            raise PositivityError(name, j, vals[j], state.t, floor)


def _blank_state(grid, t=0.0):
    state = FlowState(grid, float(t), np.empty((len(FIELDS), grid.n_total)))
    state.G[:] = 0.0
    return state


def state_from_fields(grid, bc, v, u, theta, phi, params, t=0.0):
    """Assemble a FlowState from interior field arrays, checked with
    check_positive; G starts at zero."""
    state = _blank_state(grid, t)
    s = grid.interior
    for name, arr in (("v", v), ("u", u), ("theta", theta), ("phi", phi)):
        arr = np.asarray(arr, dtype=float)
        if arr.shape != (grid.n_cells,):
            raise ValueError(f"{name} must have {grid.n_cells} interior values, "
                             f"got shape {arr.shape}")
        getattr(state, name)[s] = arr
    apply_bc(state, bc)
    check_positive(state, params)
    return state


def equilibrium_state(grid, bc):
    """The constant far-field state; requires phi_left == phi_right."""
    if bc.phi_left != bc.phi_right:
        raise ValueError("equilibrium needs phi_left == phi_right; "
                         f"got {bc.phi_left} and {bc.phi_right}")
    state = _blank_state(grid)
    state.v[:] = FARFIELD_V
    state.u[:] = FARFIELD_U
    state.theta[:] = FARFIELD_THETA
    state.phi[:] = bc.phi_left
    return state


def _check_reach(name, gap):
    if gap > FARFIELD_REACH_TOL:
        raise ValueError(
            f"{name} misses its far-field value by {gap:.3e} at |x| = L "
            f"(limit {FARFIELD_REACH_TOL:.0e}); narrow the profile or enlarge L")


def _gaussian_bump(x, amp, width, center):
    return amp * np.exp(-(((x - center) / width) ** 2))


def interface_initial_state(grid, params, bc, phi_width=1.0,
                            v_amp=0.0, v_width=2.0, v_center=0.0,
                            u_amp=0.0, u_width=2.0, u_center=0.0,
                            theta_amp=0.0, theta_width=2.0, theta_center=0.0):
    """Smooth initial data: tanh phase profile plus optional Gaussian bumps.

    phi0 connects phi_left to phi_right over the given width; v0, u0, theta0
    are the far-field constants plus bumps amp * exp(-((x-c)/w)^2).  Every
    profile must come back to its far-field value at |x| = L to within 1e-12,
    and v0, theta0 must stay above the positivity floor.
    """
    if phi_width <= 0:
        raise ValueError(f"phi_width must be > 0, got {phi_width}")
    for name, w in (("v", v_width), ("u", u_width), ("theta", theta_width)):
        if w <= 0:
            raise ValueError(f"{name}_width must be > 0, got {w}")

    L = grid.half_width
    x = grid.x
    mid = 0.5 * (bc.phi_right + bc.phi_left)
    dphi = 0.5 * (bc.phi_right - bc.phi_left)
    phi = mid + dphi * np.tanh(x / phi_width)
    v = FARFIELD_V + _gaussian_bump(x, v_amp, v_width, v_center)
    u = FARFIELD_U + _gaussian_bump(x, u_amp, u_width, u_center)
    theta = FARFIELD_THETA + _gaussian_bump(x, theta_amp, theta_width, theta_center)

    if dphi != 0.0:
        _check_reach("phi", abs(dphi) * (1.0 - math.tanh(L / phi_width)))
    for name, amp, w, c in (("v", v_amp, v_width, v_center),
                            ("u", u_amp, u_width, u_center),
                            ("theta", theta_amp, theta_width, theta_center)):
        if amp != 0.0:
            gap = abs(amp) * math.exp(-(((L - abs(c)) / w) ** 2))
            _check_reach(name, gap)

    return state_from_fields(grid, bc, v, u, theta, phi, params)
