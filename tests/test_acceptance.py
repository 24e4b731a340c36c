"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary.  All runs are desk scale (N <= 1024, each under a minute).
"""

import math

import pytest

import nsac1d as ns
from conftest import tracked_run

from test_diagnostics import PINNED_BRACKET_ROOTS


def criterion(number, name, ok, detail):
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


@pytest.fixture(scope="module")
def flagship_512(flagship_ic):
    p, grid, bc, state = flagship_ic(512)
    return tracked_run(p, grid, bc, state, 1.0)


@pytest.fixture(scope="module")
def flagship_1024(flagship_ic):
    p, grid, bc, state = flagship_ic(1024)
    return tracked_run(p, grid, bc, state, 1.0)


@pytest.fixture(scope="module")
def matrix_runs(flagship_ic):
    runs = {}
    for beta in (0.5, 1.0, 2.0):
        for eps in (0.5, 1.0):
            p = ns.SimParams(epsilon=eps, beta=beta)
            grid = ns.make_grid(16, 256)
            bc = ns.BoundaryConfig(-1.0, 1.0)
            state = ns.interface_initial_state(
                grid, p, bc, phi_width=1.0,
                v_amp=0.15, v_width=1.5, v_center=-2.0,
                u_amp=0.2, u_width=1.5, u_center=2.0,
                theta_amp=0.2, theta_width=1.5, theta_center=0.0)
            runs[(beta, eps)] = tracked_run(p, grid, bc, state, 1.0)
    return runs


@pytest.fixture(scope="module")
def cold_spot_run():
    p = ns.SimParams(beta=2.0)
    grid = ns.make_grid(32, 512)
    bc = ns.BoundaryConfig(-1.0, 1.0)
    state = ns.interface_initial_state(grid, p, bc, phi_width=1.0,
                                       theta_amp=-0.8, theta_width=2.0)
    assert state.interior("theta").min() == pytest.approx(0.2, abs=2e-3)
    return tracked_run(p, grid, bc, state, 1.0)


@pytest.fixture(scope="module")
def lemma24_study():
    params = ns.SimParams()
    bc = ns.BoundaryConfig(-1.0, 1.0)
    residuals = {}
    for n in (128, 256, 512):
        grid = ns.make_grid(16, n)
        state = ns.interface_initial_state(
            grid, params, bc, phi_width=1.0,
            v_amp=0.15, v_width=1.5, v_center=-2.0,
            u_amp=0.2, u_width=1.5, u_center=2.0,
            theta_amp=0.2, theta_width=1.5, theta_center=0.0)
        initial = state.copy()
        result = ns.run(state, params, bc, 0.5)
        residuals[n] = ns.lemma24_residual(result.state, initial)
    return residuals


@pytest.fixture(scope="module")
def mms_rows():
    params = ns.SimParams()
    grid = ns.make_grid(16, 128)
    case = ns.default_case(params, grid, amplitude=0.1, t_star=0.25)
    return ns.convergence_study(case, [128, 256, 512])


def test_criterion_1_mass_conservation(flagship_512):
    rel = flagship_512.max_mass_rel
    criterion(1, "mass conservation", rel <= 1e-12,
              f"max relative variation {rel:.3e} over {len(flagship_512.t)} steps "
              "(limit 1e-12)")


def test_criterion_2_total_energy_drift(flagship_512, flagship_1024):
    drift_512 = flagship_512.max_energy_rel
    drift_1024 = flagship_1024.max_energy_rel
    ratio = drift_512 / drift_1024
    ok = drift_512 <= 1e-3 and ratio >= 3.0
    criterion(2, "total energy", ok,
              f"relative drift {drift_512:.3e} at N=512 (limit 1e-3), "
              f"refinement ratio {ratio:.2f} (need >= 3)")


def test_criterion_3_lyapunov_inequality(matrix_runs):
    details = []
    ok = True
    for (beta, eps), tr in matrix_runs.items():
        slack = 1e-3 * tr.e0
        ok = ok and tr.max_lyap_excess <= slack
        details.append(f"beta={beta},eps={eps}: {tr.max_lyap_excess:.2e}<= {slack:.2e}")
    criterion(3, "Lyapunov inequality", ok, "; ".join(details))


def test_criterion_4_maximum_principle(flagship_512, flagship_1024, matrix_runs,
                                        cold_spot_run):
    worst = max(tr.phi_overshoot for tr in
                [flagship_512, flagship_1024, cold_spot_run, *matrix_runs.values()])
    criterion(4, "phase maximum principle", worst <= 1e-8,
              f"max overshoot beyond [-1, 1] is {worst:.3e} (limit 1e-8)")


def test_criterion_5_cell_average_brackets(flagship_512, matrix_runs, cold_spot_run):
    total = (flagship_512.bracket_violations + cold_spot_run.bracket_violations
             + sum(tr.bracket_violations for tr in matrix_runs.values()))
    criterion(5, "cell-average brackets", total == 0,
              f"{total} violations across all unit intervals and recorded times")


def test_criterion_6_integrated_momentum_residual(lemma24_study, params):
    r = lemma24_study
    orders = [math.log2(r[128] / r[256]), math.log2(r[256] / r[512])]

    grid = ns.make_grid(16, 128)
    bc = ns.BoundaryConfig(1.0, 1.0)
    eq = ns.equilibrium_state(grid, bc)
    initial = eq.copy()
    at_start = ns.lemma24_residual(eq, initial)
    eq_run = ns.run(eq, params, bc, 0.5)
    eq_resid = ns.lemma24_residual(eq_run.state, initial)

    ok = min(orders) >= 1.5 and at_start == 0.0 and eq_resid <= 1e-12
    criterion(6, "integrated-momentum residual", ok,
              f"norms {r[128]:.2e}/{r[256]:.2e}/{r[512]:.2e}, orders "
              f"{orders[0]:.2f}, {orders[1]:.2f} (need >= 1.5); t=0 gives "
              f"{at_start}; equilibrium run gives {eq_resid:.2e}")


def test_criterion_7_positivity(flagship_512, matrix_runs, cold_spot_run, params):
    guarded = min(tr.v_min for tr in [flagship_512, cold_spot_run,
                                      *matrix_runs.values()]) > 0 and \
              min(tr.theta_min for tr in [flagship_512, cold_spot_run,
                                          *matrix_runs.values()]) > 0

    grid = ns.make_grid(16, 16)
    bc = ns.BoundaryConfig(-1.0, 1.0)
    state = ns.interface_initial_state(
        grid, params, bc, phi_width=1.0,
        v_amp=-0.99, v_width=2.0, v_center=0.0,
        u_amp=12.0, u_width=2.0, u_center=-3.0,
        theta_amp=-0.95, theta_width=2.0, theta_center=0.0)
    named = False
    try:
        ns.run(state, params, bc, 1.0)
    except ns.SimulationAbort as abort:
        cause = abort.__cause__
        named = (isinstance(cause, ns.PositivityError)
                 and cause.field in ("v", "theta") and isinstance(cause.cell, int))
    criterion(7, "positivity", guarded and named,
              f"no guard trips in the test matrix: {guarded}; under-resolved "
              f"N=16 run aborted naming cell and field: {named}")


def test_criterion_8_mms_convergence(mms_rows):
    finest = mms_rows[-1], mms_rows[-2]
    order_v = min(r.order_v for r in finest)
    order_u = min(r.order_u for r in finest)
    order_theta = min(r.order_theta for r in finest)
    order_phi = min(r.order_phi for r in finest)
    stable = all(abs(mms_rows[-1].__getattribute__(k) -
                     mms_rows[-2].__getattribute__(k)) <= 0.3
                 for k in ("order_v", "order_u", "order_theta", "order_phi"))
    ok = (order_v >= 1.9 and order_u >= 1.9 and order_theta >= 1.9
          and order_phi >= 1.5 and stable)
    criterion(8, "manufactured-solution convergence", ok,
              f"orders v={order_v:.2f} u={order_u:.2f} theta={order_theta:.2f} "
              f"(need >= 1.9), phi={order_phi:.2f} (need >= 1.5); "
              f"stable across finest pairs: {stable}")


def test_criterion_9_bracket_roots():
    exact = ns.bracket_roots(0.0) == (1.0, 1.0)
    euler = abs(ns.bracket_roots(math.e - 2.0)[1] - math.e) <= 1e-10
    pinned = all(
        abs(ns.bracket_roots(e0)[0] - want[0]) <= 1e-10
        and abs(ns.bracket_roots(e0)[1] - want[1]) <= 1e-10
        for e0, want in PINNED_BRACKET_ROOTS.items())
    criterion(9, "bracket roots", exact and euler and pinned,
              f"e0=0 exact: {exact}; alpha2(e-2)=e to 1e-10: {euler}; "
              f"pinned {sorted(PINNED_BRACKET_ROOTS)} to 1e-10: {pinned}")


def test_criterion_10_degenerate_conductivity(cold_spot_run):
    tr = cold_spot_run
    checks = {
        "completed to T=1": tr.result.state.t == 1.0,
        "theta positive": tr.theta_min > 0.0,
        "mass (criterion 1)": tr.max_mass_rel <= 1e-12,
        "energy drift (criterion 2)": tr.max_energy_rel <= 1e-3,
        "Lyapunov (criterion 3)": tr.max_lyap_excess <= 1e-3 * tr.e0,
        "phi range (criterion 4)": tr.phi_overshoot <= 1e-8,
        "brackets (criterion 5)": tr.bracket_violations == 0,
    }
    ok = all(checks.values())
    criterion(10, "degenerate conductivity (beta=2, cold spot)", ok,
              "; ".join(f"{k}: {v}" for k, v in checks.items())
              + f"; min theta over run {tr.theta_min:.3f}")
