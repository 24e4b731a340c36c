"""Second-order spatial discretization of the governing system.

Grouping of the momentum flux: the capillary stress joins the thermal
pressure in a single effective pressure p_eff = theta/v + (eps/2)(phi_x/v)^2
which is differenced once, so the discrete momentum sum telescopes to the
two outer faces.  All stencils assume populated ghost layers.  centered and
chemical_potential return only the cells they reach; diffusion_flux returns a
full-length array whose outermost entries hold no value and must not be read.

The stencil owners (centered, face_average, cell_coefficients,
diffusion_flux, potential_from) take an optional out, which they fill and
return; without it they return a new array holding the same bits.
semi_discrete_rhs keeps its intermediates in a workspace per grid, so that a
call allocates only the (5, N + 4) array it returns, in FlowState's layout.

Divisions are slow next to products, so the owners multiply by 0.5/dx,
1/dx^2 and 1/eps, which equals dividing, bit for bit, wherever dx and eps
are powers of two, and every /v of the kernel is a product with the 1/v row
of cell_coefficients: 1/v is a kernel call's one array division.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .core import check_positive


def centered(f, dx, out=None):
    """Central first derivative (f_{i+1} - f_{i-1}) (0.5 / dx) along the last
    axis, at every cell with both neighbours; the divided difference of face
    averages, so interior sums telescope to the outer face values."""
    d = np.subtract(f[..., 2:], f[..., :-2], out=out)
    d *= 0.5 / dx
    return d


def face_average(c, out=None):
    """Mean of adjacent cell values along the last axis; entry k sits between cells k, k+1."""
    a = np.add(c[..., :-1], c[..., 1:], out=out)
    a *= 0.5
    return a


def cell_coefficients(v, theta, beta, out=None):
    """The rows 1/v, 1/v and theta^beta/v of a in the kernel's (a f_x)_x, f = u, phi, theta;
    the third is theta^beta times the first, 1/v being its one division."""
    coef = np.empty((3,) + v.shape) if out is None else out
    np.divide(1.0, v, out=coef[0])
    coef[1] = coef[0]
    # ** in place keeps the operator's fast paths (beta = 0.5 is a square
    # root), which np.power does not take
    theta_pow = coef[2]
    theta_pow[...] = theta
    theta_pow **= beta
    theta_pow *= coef[0]
    return coef


def diffusion_flux(a_face, f, dx, out=None, scratch=None):
    """Conservative flux form of (a f_x)_x with face coefficients a_face;
    scratch, of the length of a_face, takes the face fluxes if given."""
    flux = np.subtract(f[1:], f[:-1], out=scratch)
    flux *= a_face
    if out is None:
        out = np.empty(f.shape)
    inner = np.subtract(flux[1:], flux[:-1], out=out[1:-1])
    inner *= 1.0 / dx**2
    return out


def potential_from(phi, phi_lap, eps, out=None, scratch=None):
    """mu = (phi^3 - phi)(1/eps) - eps phi_lap, given phi_lap = (phi_x / v)_x;
    the cube is a product because pow() is slow for negative bases.
    scratch, of the shape of phi, takes eps phi_lap if given."""
    mu = np.multiply(phi, phi, out=out)
    mu *= phi
    mu -= phi
    mu *= 1.0 / eps
    mu -= np.multiply(eps, phi_lap, out=scratch)
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


# the grids whose workspaces are kept at once: the three of an MMS ladder
# and one more
WORKSPACE_GRIDS = 4


class _KernelWorkspace:
    """The intermediates of semi_discrete_rhs on one grid, and the views of
    them that it reads; nothing here is returned."""

    def __init__(self, grid):
        n, g, m = grid.n_cells, grid.n_ghost, grid.n_total
        s = grid.interior
        self.coef = np.empty((3, m))
        self.coef_flat = self.coef.reshape(-1)
        # the 1/v row of coef over e (the interior and one ghost cell each
        # side) and over the interior
        self.inv_v_e = self.coef[0, g - 1:g + n + 1]
        self.inv_v_i = self.coef[0, s]
        self.faces = np.empty(3 * m - 1)
        self.flux = np.empty(3 * m - 1)
        self.lap = np.empty(3 * m)
        self.lap_u, self.lap_phi, self.lap_theta = self.lap.reshape(3, m)[:, s]
        # entry k of grad is at flat cell k + 1 of the u and phi rows: u_x
        # over the interior, phi_x one cell beyond it
        self.grad = np.empty(2 * m - 2)
        self.u_x = self.grad[g - 1:g - 1 + n]
        self.phi_x = self.grad[m + g - 2:m + g + n]
        self.p_thermal = np.empty(n + 2)
        self.p_thermal_i = self.p_thermal[1:-1]
        self.mu, self.eps_lap, self.p_x = np.empty((3, n))


_kernel_workspace = lru_cache(maxsize=WORKSPACE_GRIDS)(_KernelWorkspace)


def semi_discrete_rhs(state, params):
    """Full second-order semi-discrete right-hand side.

    dv     = u_x
    du     = -(p_eff)_x + (u_x / v)_x
    dphi   = -v mu
    dtheta = -theta/v u_x + (theta^beta theta_x / v)_x + u_x^2 / v + v mu^2
    dG     = p_eff = theta/v + (eps/2)(phi_x/v)^2

    Returns a new (5, N + 4) ndarray on every call, these rows in FIELDS
    order and ghost columns of +0.0.  Pure: reads the ghost layers of u, phi,
    theta and v as they stand (never G), writes nothing to state, and fails
    hard on any positivity violation.  Its intermediates live in a workspace
    built on a grid's first call and kept for the last WORKSPACE_GRIDS grids;
    calls on equal grids share it, as the solver is single-threaded.
    """
    check_positive(state, params)

    grid = state.grid
    w = _kernel_workspace(grid)
    dx, s = grid.dx, grid.interior
    n, g = grid.n_cells, grid.n_ghost
    eps = params.epsilon
    data = state.data
    v, theta = data[3], data[2]
    v_i = v[s]
    out = np.empty(data.shape)
    du, dphi, dtheta, dv = out[0, s], out[1, s], out[2, s], out[3, s]

    # (a f_x)_x for f = u, phi, theta as one stencil along the flattened
    # rows, and u_x, phi_x as another; where one straddles two rows it lands
    # in a ghost column, which is never read
    cell_coefficients(v, theta, params.beta, out=w.coef)
    face_average(w.coef_flat, out=w.faces)
    diffusion_flux(w.faces, data[:3].reshape(-1), dx, out=w.lap, scratch=w.flux)
    centered(data[:2].reshape(-1), dx, out=w.grad)
    mu = potential_from(data[1, s], w.lap_phi, eps, out=w.mu, scratch=w.eps_lap)

    # p_eff is differenced, so it and phi_x are needed one ghost cell beyond
    # the interior, over e; p_eff is built in the row of dG, its interior.
    # Every /v is a product with the 1/v row of the coefficients
    e = slice(g - 1, g + n + 1)
    u_x = w.u_x
    p_thermal = np.multiply(theta[e], w.inv_v_e, out=w.p_thermal)
    p_eff = np.multiply(w.phi_x, w.inv_v_e, out=out[4, e])
    np.square(p_eff, out=p_eff)
    p_eff *= 0.5 * eps
    p_eff += p_thermal
    np.subtract(w.lap_u, centered(p_eff, dx, out=w.p_x), out=du)

    # each term in the order of dphi = -v mu and dtheta = conduction -
    # p_thermal u_x + u_x^2 / v + v mu^2; dv is scratch until it takes u_x
    np.negative(v_i, out=dphi)
    dphi *= mu
    np.multiply(w.p_thermal_i, u_x, out=dtheta)
    np.subtract(w.lap_theta, dtheta, out=dtheta)
    np.square(u_x, out=dv)
    dv *= w.inv_v_i
    dtheta += dv
    np.square(mu, out=dv)
    dv *= v_i
    dtheta += dv
    dv[:] = u_x
    out[:, :g] = 0.0  # the ghost columns, p_eff's two ends among them
    out[:, -g:] = 0.0
    return out
