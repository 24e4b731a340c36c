"""Second-order spatial discretization of the governing system.

Grouping of the momentum flux: the capillary stress joins the thermal
pressure in a single effective pressure p_eff = theta/v + (eps/2)(phi_x/v)^2
which is differenced once, so the discrete momentum sum telescopes to the
two outer faces.  All stencils assume populated ghost layers.  centered and
chemical_potential return only the cells they reach; diffusion_flux returns a
full-length array whose outermost entries hold no value and must not be read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import N_GHOST, apply_bc, check_positive, row_property


def centered(f, dx):
    """Central first derivative (f_{i+1} - f_{i-1}) / (2 dx) along the last
    axis, at every cell with both neighbours; the divided difference of face
    averages, so interior sums telescope to the outer face values."""
    return (f[..., 2:] - f[..., :-2]) / (2.0 * dx)


def face_average(c):
    """Arithmetic mean of adjacent cell values; entry k sits between cells k, k+1."""
    return 0.5 * (c[:-1] + c[1:])


def diffusion_flux(a_face, f, dx):
    """Conservative flux form of (a f_x)_x with face coefficients a_face."""
    flux = a_face * (f[1:] - f[:-1])
    out = np.empty(f.shape)
    np.divide(flux[1:] - flux[:-1], dx**2, out=out[1:-1])
    return out


def potential_from(phi, phi_lap, eps):
    """mu = (1/eps)(phi^3 - phi) - eps phi_lap, given phi_lap = (phi_x / v)_x;
    the cube is a product because pow() is slow for negative bases."""
    return (phi * phi * phi - phi) / eps - eps * phi_lap


def chemical_potential(state, params):
    """mu = (1/eps)(phi^3 - phi) - eps ((phi_x / v)_x) at interior cells, flux form.

    Shares the diffusion stencil with the phase equation so phi_t = -v mu
    holds exactly at the discrete level.
    """
    return block_potential(state.data[None], state.grid, params.epsilon)[0]


def block_potential(data, grid, eps):
    """chemical_potential of each state of a (K, 5, N + 4) block of FlowState
    data, as (K, N): one stencil along the flattened phi rows; where it
    straddles two states it lands in a ghost column, which is never read."""
    v, phi = data[:, 3], data[:, 1]
    lap = diffusion_flux(face_average((1.0 / v).reshape(-1)), phi.reshape(-1), grid.dx)
    s = grid.interior
    return potential_from(phi[:, s], lap.reshape(v.shape)[:, s], eps)


@dataclass
class Rhs:
    """Time derivatives in the layout of FlowState: one (5, N + 4) array in
    FIELDS order whose ghost columns are zero, so that s + dt F is one array
    operation.  du, dphi, dtheta, dv and dG are views of the interior cells."""

    data: np.ndarray

    du = row_property(0, N_GHOST)
    dphi = row_property(1, N_GHOST)
    dtheta = row_property(2, N_GHOST)
    dv = row_property(3, N_GHOST)
    dG = row_property(4, N_GHOST)


def semi_discrete_rhs(state, params, bc):
    """Full second-order semi-discrete right-hand side.

    dv     = u_x
    du     = -(p_eff)_x + (u_x / v)_x
    dphi   = -v mu
    dtheta = -theta/v u_x + (theta^beta theta_x / v)_x + u_x^2 / v + v mu^2
    dG     = p_eff = theta/v + (eps/2)(phi_x/v)^2

    Refreshes the ghost layers from bc first, then fails hard on any
    positivity violation.
    """
    apply_bc(state, bc)
    check_positive(state, params)

    grid = state.grid
    dx = grid.dx
    n, g, m = grid.n_cells, grid.n_ghost, grid.n_total
    s = grid.interior
    eps = params.epsilon
    data = state.data
    v, theta = data[3], data[2]
    v_i = v[s]

    # (a f_x)_x for f = u, phi, theta with a = 1/v, 1/v, theta^beta/v,
    # as one stencil along the flattened rows; where it straddles two rows
    # it lands in a ghost column, which is never read
    coef = np.empty((3, m))
    coef[:2] = 1.0
    coef[2] = theta**params.beta
    coef /= v
    lap = diffusion_flux(face_average(coef.reshape(-1)), data[:3].reshape(-1), dx)
    visc, phi_lap, conduct = lap.reshape(3, m)[:, s]

    # p_eff is differenced, so it is needed one ghost cell beyond the interior
    e = slice(g - 1, g + n + 1)
    u_x, phi_x = centered(data[:2, g - 2:g + n + 2], dx)  # one stencil, over e
    u_x = u_x[1:-1]
    mu = potential_from(data[1, s], phi_lap, eps)
    p_thermal = theta[e] / v[e]
    p_eff = p_thermal + 0.5 * eps * (phi_x / v[e]) ** 2

    # written into the rows in place; dtheta adds its terms left to right
    rhs = Rhs(np.zeros(data.shape))
    np.subtract(visc, centered(p_eff, dx), out=rhs.du)
    np.multiply(-v_i, mu, out=rhs.dphi)
    dtheta = np.subtract(conduct, p_thermal[1:-1] * u_x, out=rhs.dtheta)
    dtheta += u_x**2 / v_i
    dtheta += v_i * mu**2
    rhs.dv[:] = u_x
    rhs.dG[:] = p_eff[1:-1]
    return rhs
