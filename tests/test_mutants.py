"""Audit sensitivity: seeded mistakes in the kernel and the time step must be
caught by the checks the suite and `nsac1d run` assert.

Each mutant is patched in, in process, for one set of runs:

* the flagship data at L = 32, N = 512 to t = 0.05, recorded on every step
  and checked by audit_records;
* a manufactured-solution ladder at L = 8, N = 32, 64, 128 to t* = 0.05;
* the same manufactured case at a fixed N = 64 with the dt cap halved twice,
  whose self-convergence order in time is the temporal_order column;
* the same manufactured case at a fixed N = 256 stepped by `step` in a
  fixed number of RKL2 stages at a dt above the Heun step, halved twice:
  the rkl2_temporal_order column;
* the flagship data at N = 256 and 512 to t = 0.05, whose Lemma 2.4
  residual order is the lemma24_order column.

A mutant is killed by a failed asserted audit check, an abort, a
finest-pair order below the acceptance thresholds, a temporal order of
either ladder below MIN_TEMPORAL_ORDER in any field, or a lemma24_order
below MIN_LEMMA24_ORDER.  A survivor is a finding;
it is marked xfail(strict=True) with the reason it survives, so a check that
starts to kill it shows up as an unexpected pass.

Run with `pytest tests/test_mutants.py -s` to see the kill matrix.
"""

import sys

import numpy as np
import pytest

import nsac1d as ns
from conftest import (MIN_LEMMA24_ORDER, field_orders, lemma24_order, recorded_run,
                      temporal_orders)
from nsac1d import integrator, operators
from nsac1d.mms import DT_CAP_FACTOR

FLAGSHIP_N = 512
FLAGSHIP_T = 0.05
MMS_L = 8
MMS_RESOLUTIONS = (32, 64, 128)
MMS_T = 0.05
# the acceptance thresholds on the observed orders (criterion 8)
MIN_ORDER = {"v": 1.9, "u": 1.9, "theta": 1.9, "phi": 1.5}
# the temporal ladder: dt cap = DT_CAP_FACTOR dx^2 / k at a fixed dx, each
# under the Heun step (8, 16 and 32 steps); Heun measures 2.02 (v), 2.01 (u),
# 2.01 (theta) and 2.15 (phi), forward Euler 1.00-1.04
TEMPORAL_N = 64
TEMPORAL_DIVISORS = (1, 2, 4)
MIN_TEMPORAL_ORDER = 1.8
# the RKL2 ladder: steps of dt = MMS_T / 6 / k at a fixed dx, every one in
# RKL2_STAGES stages, the count run gives the coarsest rung at most: an RKL2
# step's error constant depends on its stage count, so a fixed count
# measures the scheme's order alone.  RKL2 measures 2.00 (v), 2.02 (u),
# 2.00 (theta) and 2.17 (phi); 4 or 6 stages give the same to 0.01.
RKL2_N = 256
RKL2_DT = MMS_T / 6
RKL2_STAGES = 5


def _kernel_then(edit):
    """A mutant that runs the kernel, then edits its result in place: the
    rows du, dphi, dtheta, dv, dG of the interior, views of that result."""

    def patch(mp):
        kernel = operators.semi_discrete_rhs

        def mutant(state, params):
            rhs = kernel(state, params)
            edit(state, params, *rhs[:, state.grid.interior])
            return rhs

        mp.setattr(integrator, "semi_discrete_rhs", mutant)

    return patch


def _drop_viscous_heating(state, params, du, dphi, dtheta, dv, dG):
    # the kernel's u_x is this central difference, over the ghosts the state holds
    grid = state.grid
    u_x = ns.centered(state.u, grid.dx)[1:-1]
    dtheta -= u_x**2 / state.interior("v")


def _drop_capillary_stress(state, params, du, dphi, dtheta, dv, dG):
    """p_eff = theta / v: the kernel's (eps/2)(phi_x/v)^2, on the interior
    cells and one beyond, where du differences it, taken out of du and dG."""
    phi_x = ns.centered(state.phi, state.grid.dx)
    capillary = 0.5 * params.epsilon * (phi_x / state.v[1:-1]) ** 2
    du += ns.centered(capillary, state.grid.dx)
    dG -= capillary[1:-1]


def _drop_v_mu2(state, params, du, dphi, dtheta, dv, dG):
    """v mu^2 taken out of dtheta, with mu the kernel's potential."""
    dtheta -= state.interior("v") * ns.chemical_potential(state, params) ** 2


def _freeze_G(state, params, du, dphi, dtheta, dv, dG):
    dG[:] = 0.0


def _scale_cube_in_kernel_mu(mp):
    """phi^3 * 0.99 in the kernel's mu; the diagnostics keep the true mu."""
    kernel = operators.semi_discrete_rhs

    def potential(phi, phi_lap, eps, out=None, scratch=None):
        return np.subtract((0.99 * phi * phi * phi - phi) / eps, eps * phi_lap, out=out)

    def mutant(state, params):
        with pytest.MonkeyPatch.context() as inner:
            inner.setattr(operators, "potential_from", potential)
            return kernel(state, params)

    mp.setattr(integrator, "semi_discrete_rhs", mutant)


def _left_value_face_average(mp):
    """face_average returns the left cell's value: patched in every nsac1d
    namespace that holds it, so the kernel, mu and step_limits all take it."""
    original = operators.face_average
    for name, module in list(sys.modules.items()):
        if (name.partition(".")[0] == "nsac1d"
                and getattr(module, "face_average", None) is original):
            mp.setattr(module, "face_average",
                       lambda c, out=None: np.positive(c[..., :-1], out=out))


def _forward_euler(mp):
    mp.setattr(integrator, "increments", lambda y0, t0, dt, rate, stages: dt * rate(y0, t0))


def _rkl2_first_stage_without_w1(mp):
    """mu~_1 = b_1 in place of b_1 w1: the first RKL2 stage overshoots."""
    coefficients = integrator.rkl2_coefficients

    def mutant(s):
        (mu, nu, mu_t, gamma_t, c), *rest = coefficients(s)
        return ((mu, nu, mu_t * (s * s + s - 2) / 4, gamma_t, c), *rest)

    mp.setattr(integrator, "rkl2_coefficients", mutant)


def _rkl2_gamma_dropped(mp):
    """gamma~_j = 0: the RKL2 stages lose their F(Y_0) term."""
    coefficients = integrator.rkl2_coefficients
    mp.setattr(integrator, "rkl2_coefficients",
               lambda s: tuple((mu, nu, mu_t, 0.0, c)
                               for mu, nu, mu_t, _, c in coefficients(s)))


def _G_ghosts_left_at_the_input(mp):
    """step's result keeps its input's G ghosts, not its own t."""
    original = integrator.step

    def mutant(state, *args, **kwargs):
        out = original(state, *args, **kwargs)
        g = state.grid.n_ghost
        out.G[:g], out.G[-g:] = state.G[:g], state.G[-g:]
        return out

    mp.setattr(integrator, "step", mutant)


MUTANTS = {
    "viscous_heating_dropped": _kernel_then(_drop_viscous_heating),
    "phi_cubed_x0.99_in_kernel_mu": _scale_cube_in_kernel_mu,
    "dG_zero": _kernel_then(_freeze_G),
    "capillary_stress_dropped": _kernel_then(_drop_capillary_stress),
    "v_mu2_dropped": _kernel_then(_drop_v_mu2),
    "left_value_face_average": _left_value_face_average,
    "forward_euler": _forward_euler,
    "rkl2_mu1_without_w1": _rkl2_first_stage_without_w1,
    "rkl2_gamma_dropped": _rkl2_gamma_dropped,
    "G_ghosts_left_at_the_input": _G_ghosts_left_at_the_input,
}

SURVIVORS = {
    # only lemma24_residual reads G's ghosts, at the two edge cells, and run
    # writes them on landing: lemma24_order reads 1.598 and the last record's
    # residual 2.439e-4 with or without it; the residual of the records before
    # it rises from 2.35e-4 to 9.74e-2 (max over them), which no check asserts
    "G_ghosts_left_at_the_input": "G's ghosts are written again on landing, and no "
                                  "check asserts the residual of the records between",
}


def _initial(case, n_cells):
    grid = ns.make_grid(case.half_width, n_cells)
    return ns.state_from_fields(grid, case.bc, case.fields(grid.x, 0.0), case.params)


def _heun_orders(case):
    """Orders in time of the manufactured case at TEMPORAL_N under the dt
    caps DT_CAP_FACTOR dx^2 / k of the ladder."""
    state = _initial(case, TEMPORAL_N)
    cap = DT_CAP_FACTOR * state.grid.dx**2
    return temporal_orders(state, case.params, case.bc, case.t_star,
                           [cap / k for k in TEMPORAL_DIVISORS], sources=case.sources)[0]


def _rkl2_orders(case):
    """Orders in time of the manufactured case at RKL2_N stepped to t* in
    steps of RKL2_DT / k, each of RKL2_STAGES stages."""
    finals = []
    for k in TEMPORAL_DIVISORS:
        state = _initial(case, RKL2_N)
        for _ in range(round(case.t_star / RKL2_DT) * k):
            state = ns.step(state, case.params, RKL2_DT / k,
                            sources=case.sources, stages=RKL2_STAGES)
        finals.append(state)
    return field_orders(finals)


def _run_set(patch, flagship_ic):
    """The kill-matrix columns of the run set with `patch` applied, and the
    set of those it fails."""
    columns, failed = ["abort"], set()
    with pytest.MonkeyPatch.context() as mp:
        if patch is not None:
            patch(mp)
        params, _, bc, state = flagship_ic(FLAGSHIP_N)
        try:
            _, records = recorded_run(params, bc, state, FLAGSHIP_T)
        except ns.SimulationAbort:
            failed.add("abort")
        else:
            failures, lines = ns.audit_records(records)
            columns += [line.split()[1].rstrip(":") for line in lines
                        if not line.startswith("MONITORED")]
            failed.update(failures)
        case = ns.ManufacturedCase(params, MMS_L, t_star=MMS_T)
        columns += [f"order_{name}" for name in MIN_ORDER]
        try:
            finest = ns.convergence_study(case, MMS_RESOLUTIONS)[-1]
        except ns.SimulationAbort:
            failed.add("abort")
        else:
            failed.update(f"order_{name}" for name, low in MIN_ORDER.items()
                          if not getattr(finest, f"order_{name}") >= low)
        for column, orders_of in {"temporal_order": _heun_orders,
                                  "rkl2_temporal_order": _rkl2_orders}.items():
            columns.append(column)
            try:
                orders = orders_of(case)
            except (ns.SimulationAbort, ns.PositivityError):
                failed.add("abort")
            else:
                if not all(order >= MIN_TEMPORAL_ORDER for order in orders.values()):
                    failed.add(column)
        columns.append("lemma24_order")
        try:
            if not lemma24_order(flagship_ic) >= MIN_LEMMA24_ORDER:
                failed.add("lemma24_order")
        except ns.SimulationAbort:
            failed.add("abort")
    return columns, failed


@pytest.fixture(scope="module")
def kill_matrix(flagship_ic):
    """(columns, failed columns) per run set, "unmutated" first."""
    return {name: _run_set(patch, flagship_ic)
            for name, patch in {"unmutated": None, **MUTANTS}.items()}


def test_rkl2_ladder_stages_cover_its_coarsest_step(flagship_ic):
    # run would take the coarsest rung in at most RKL2_STAGES stages
    params = flagship_ic(FLAGSHIP_N)[0]
    state = _initial(ns.ManufacturedCase(params, MMS_L, t_star=MMS_T), RKL2_N)
    diffusion = ns.step_limits(state, params)[0]
    assert integrator.rkl2_stages(RKL2_DT, integrator.RKL2_STAGE_LIMIT * diffusion) <= RKL2_STAGES


def test_unmutated_pair_passes(kill_matrix):
    columns = kill_matrix["unmutated"][0]
    width = max(map(len, kill_matrix))
    print("\n" + " " * width + "  " + "  ".join(columns))
    for name, (_, failed) in kill_matrix.items():
        marks = (("KILL" if c in failed else ".").center(len(c)) for c in columns)
        print(f"{name:<{width}}  " + "  ".join(marks))
    assert kill_matrix["unmutated"][1] == set()


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(reason=SURVIVORS[name], strict=True))
    if name in SURVIVORS else name for name in MUTANTS])
def test_mutant_is_killed(kill_matrix, name):
    assert kill_matrix["unmutated"][1] == set(), "the unmutated run set must pass"
    assert kill_matrix[name][1], f"{name} passes every asserted check and order"
