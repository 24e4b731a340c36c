"""Audit sensitivity: seeded mistakes in the kernel and the time step must be
caught by the checks the suite and `nsac1d run` assert.

Each mutant is patched in, in process, for one set of runs:

* the flagship data at L = 32, N = 512 to t = 0.05, recorded on every step
  and checked by audit_records;
* a manufactured-solution ladder at L = 8, N = 32, 64, 128 to t* = 0.05;
* the same manufactured case at a fixed N = 64 with the dt cap halved twice,
  whose self-convergence order in time is the temporal_order column;
* the same manufactured case at a fixed N = 256 with dt caps above the Heun
  step, so that every step is an RKL2 step of the cap, halved twice: the
  rkl2_temporal_order column;
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

import pytest

import nsac1d as ns
from conftest import MIN_LEMMA24_ORDER, lemma24_order, recorded_run, temporal_orders
from nsac1d import integrator, operators
from nsac1d.core import check_positive
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
# the RKL2 ladder: dt cap = MMS_T / 6 / k at a fixed dx, each above the
# stage base (RKL2_STAGE_LIMIT times the diffusion limit, 1.5e-3) and under
# RKL2's own tau (8.6e-3), in 5, 4 and 3 stages; RKL2 measures 1.89 (v),
# 1.94 (u), 1.89 (theta) and 2.06 (phi).  The error constant of an RKL2 step
# depends on its stage count, so a ladder whose rungs take other stage
# counts measures other orders: MMS_T / 8 (4, 3 and 3 stages) gives 1.05 in
# u (1.74 when stages were sized from the Heun step), yet its time error is
# smooth, the Fourier modes above half the Nyquist wavenumber at most 2e-5
# of its norm, so this is the error constant, not an instability; and
# MMS_T / 12 puts its finest rung under the stage base, so that rung is Heun.
RKL2_N = 256
RKL2_CAP = MMS_T / 6


def _kernel_then(edit):
    """A mutant that runs the kernel, then edits its Rhs in place."""

    def patch(mp):
        kernel = operators.semi_discrete_rhs

        def mutant(state, params, bc):
            rhs = kernel(state, params, bc)
            edit(state, rhs)
            return rhs

        mp.setattr(integrator, "semi_discrete_rhs", mutant)

    return patch


def _drop_viscous_heating(state, rhs):
    # the kernel refreshed the ghosts, and its u_x is this central difference
    grid = state.grid
    u_x = ns.centered(state.u, grid.dx)[1:-1]
    rhs.dtheta -= u_x**2 / state.interior("v")


def _freeze_G(state, rhs):
    rhs.dG = 0.0


def _scale_cube_in_kernel_mu(mp):
    """phi^3 * 0.99 in the kernel's mu; the diagnostics keep the true mu."""
    kernel = operators.semi_discrete_rhs

    def potential(phi, phi_lap, eps):
        return (0.99 * phi * phi * phi - phi) / eps - eps * phi_lap

    def mutant(state, params, bc):
        with pytest.MonkeyPatch.context() as inner:
            inner.setattr(operators, "potential_from", potential)
            return kernel(state, params, bc)

    mp.setattr(integrator, "semi_discrete_rhs", mutant)


def _forward_euler(mp):
    def euler_step(state, params, bc, dt, sources=None, stages=2):
        rhs = integrator.semi_discrete_rhs(state, params, bc)
        if sources is not None:
            integrator._add_sources(rhs, sources, state.grid.x, state.t)
        out = ns.FlowState(state.grid, state.t + dt, state.data + dt * rhs.data)
        ns.apply_bc(out, bc)
        check_positive(out, params)
        return out

    mp.setattr(integrator, "step", euler_step)


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


MUTANTS = {
    "viscous_heating_dropped": _kernel_then(_drop_viscous_heating),
    "phi_cubed_x0.99_in_kernel_mu": _scale_cube_in_kernel_mu,
    "dG_zero": _kernel_then(_freeze_G),
    "forward_euler": _forward_euler,
    "rkl2_mu1_without_w1": _rkl2_first_stage_without_w1,
    "rkl2_gamma_dropped": _rkl2_gamma_dropped,
}

SURVIVORS = {}


def _temporal_orders(case, n_cells, cap):
    """Orders in time of the manufactured case at n_cells under the dt caps
    cap / k of the ladder, and the runs' StepControls."""
    grid = ns.make_grid(case.half_width, n_cells)
    state = ns.state_from_fields(grid, case.bc, *case.fields(grid.x, 0.0), case.params)
    return temporal_orders(state, case.params, case.bc, case.t_star,
                           [cap / k for k in TEMPORAL_DIVISORS], sources=case.sources)


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
        heun_cap = DT_CAP_FACTOR * ns.make_grid(MMS_L, TEMPORAL_N).dx**2
        ladders = {"temporal_order": (TEMPORAL_N, heun_cap),
                   "rkl2_temporal_order": (RKL2_N, RKL2_CAP)}
        for column, (n_cells, cap) in ladders.items():
            columns.append(column)
            try:
                orders, _ = _temporal_orders(case, n_cells, cap)
            except ns.SimulationAbort:
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


def test_rkl2_ladder_takes_rkl2_steps(flagship_ic):
    params = flagship_ic(FLAGSHIP_N)[0]
    case = ns.ManufacturedCase(params, MMS_L, t_star=MMS_T)
    _, controls = _temporal_orders(case, RKL2_N, RKL2_CAP)
    assert [c.step_count for c in controls] == [6, 12, 24]
    assert all(c.rkl2_steps == c.step_count for c in controls)


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
