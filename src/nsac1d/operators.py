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

from .core import N_GHOST, check_positive, row_property


def centered(f, dx):
    """Central first derivative (f_{i+1} - f_{i-1}) / (2 dx) along the last
    axis, at every cell with both neighbours; the divided difference of face
    averages, so interior sums telescope to the outer face values."""
    d = f[..., 2:] - f[..., :-2]
    d /= 2.0 * dx
    return d


def face_average(c):
    """Mean of adjacent cell values along the last axis; entry k sits between cells k, k+1."""
    a = c[..., :-1] + c[..., 1:]
    a *= 0.5
    return a


def cell_coefficients(v, theta, beta):
    """The rows 1/v, 1/v and theta^beta/v of a in the kernel's (a f_x)_x, f = u, phi, theta."""
    coef = np.empty((3,) + v.shape)
    np.divide(1.0, v, out=coef[0])
    coef[1] = coef[0]
    np.divide(theta**beta, v, out=coef[2])
    return coef


def diffusion_flux(a_face, f, dx):
    """Conservative flux form of (a f_x)_x with face coefficients a_face."""
    flux = f[1:] - f[:-1]
    flux *= a_face
    out = np.empty(f.shape)
    np.subtract(flux[1:], flux[:-1], out=out[1:-1])
    out[1:-1] /= dx**2
    return out


def potential_from(phi, phi_lap, eps):
    """mu = (1/eps)(phi^3 - phi) - eps phi_lap, given phi_lap = (phi_x / v)_x;
    the cube is a product because pow() is slow for negative bases."""
    mu = phi * phi
    mu *= phi
    mu -= phi
    mu /= eps
    mu -= eps * phi_lap
    return mu


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


def semi_discrete_rhs(state, params):
    """Full second-order semi-discrete right-hand side.

    dv     = u_x
    du     = -(p_eff)_x + (u_x / v)_x
    dphi   = -v mu
    dtheta = -theta/v u_x + (theta^beta theta_x / v)_x + u_x^2 / v + v mu^2
    dG     = p_eff = theta/v + (eps/2)(phi_x/v)^2

    Pure: reads the ghost layers of u, phi, theta and v as they stand (never
    G), writes nothing to state, and fails hard on any positivity violation.
    """
    check_positive(state, params)

    grid = state.grid
    dx, s = grid.dx, grid.interior
    n, g, m = grid.n_cells, grid.n_ghost, grid.n_total
    eps = params.epsilon
    data = state.data
    v, theta = data[3], data[2]
    v_i = v[s]
    out = np.empty(data.shape)
    du, dphi, dtheta, dv = out[0, s], out[1, s], out[2, s], out[3, s]

    # (a f_x)_x for f = u, phi, theta as one stencil along the flattened
    # rows, and u_x, phi_x as another; where one straddles two rows it lands
    # in a ghost column, which is never read
    coef = cell_coefficients(v, theta, params.beta)
    lap = diffusion_flux(face_average(coef.reshape(-1)), data[:3].reshape(-1), dx).reshape(3, m)
    grad = centered(data[:2].reshape(-1), dx)  # entry k is at flat cell k + 1
    mu = potential_from(data[1, s], lap[1, s], eps)

    # p_eff is differenced, so it and phi_x are needed one ghost cell beyond
    # the interior, over e; p_eff is built in the row of dG, its interior
    e = slice(g - 1, g + n + 1)
    u_x, phi_x = grad[g - 1:g - 1 + n], grad[m + e.start - 1:m + e.stop - 1]
    p_thermal = theta[e] / v[e]
    p_eff = np.divide(phi_x, v[e], out=out[4, e])
    np.square(p_eff, out=p_eff)
    p_eff *= 0.5 * eps
    p_eff += p_thermal
    np.subtract(lap[0, s], centered(p_eff, dx), out=du)

    # each term in the order of dphi = -v mu and dtheta = conduction -
    # p_thermal u_x + u_x^2 / v + v mu^2; dv is scratch until it takes u_x
    np.negative(v_i, out=dphi)
    dphi *= mu
    np.multiply(p_thermal[1:-1], u_x, out=dtheta)
    np.subtract(lap[2, s], dtheta, out=dtheta)
    np.square(u_x, out=dv)
    dv /= v_i
    dtheta += dv
    np.square(mu, out=dv)
    dv *= v_i
    dtheta += dv
    dv[:] = u_x
    out[:, :g] = 0.0  # the ghost columns, p_eff's two ends among them
    out[:, -g:] = 0.0
    return Rhs(out)
