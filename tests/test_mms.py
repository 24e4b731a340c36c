import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nsac1d as ns

# Frozen oracle: sources of the default manufactured case (L = 16,
# amplitude 0.1, all coefficients 1) evaluated by an independent symbolic
# differentiation of the governing equations at 20 random space-time points.
# Columns: x, t, S_v, S_u, S_theta, S_phi.
SOURCE_ORACLE = [
    (-2.547889296806776, 0.07725047222367099, 0.024190036747015455, 0.037031120196106354, 0.012767309676836616, 0.11009431663566982),
    (-7.915184757908804, 0.22883461952911638, 3.8246377137550484e-05, 9.433529353415957e-05, -2.961760503196705e-05, 0.0007292204937741461),
    (15.29655318814254, 0.1180228201223315, 2.9581213053543414e-16, -1.3662510379972112e-15, 2.0523760507067353e-16, 8.001336592729079e-13),
    (13.349941592175064, 0.08298589819629493, 1.8493891335500344e-12, -7.585251334902935e-12, -2.322623119370354e-12, 1.348481787538237e-08),
    (-6.587628888001014, 0.4280736678386136, 0.00039217860580572245, 0.0008615932116367592, -0.0003405796522608093, 0.0027380145883668877),
    (-12.557541401279646, 0.11204184486007618, 6.25336433719034e-11, 2.3787309582173664e-10, -4.4884418040177444e-11, -6.986630629146061e-07),
    (14.384374317810636, 0.24512306993766675, 2.053930791518166e-14, -7.820829594025346e-14, 3.070032442222377e-14, 7.65373074791472e-11),
    (-14.393225324468546, 0.4301413205543001, 2.5401398196938805e-14, 9.004251524417168e-14, 8.043674667900019e-14, -7.32241706881338e-11),
    (-3.630440381217152, 0.1478366531801849, 0.015857045036054854, 0.02277227898116149, -0.0008771249455003424, 0.04650947063240913),
    (2.2130864812916684, 0.14661680522066706, -0.014618661108679066, -0.035184450836266444, 0.012949415851795796, -0.14853129476030685),
    (6.577791519786686, 0.24914682590062387, 0.00013547049867864127, -0.0004012346130285327, -0.0003429429123220456, -0.002768200228586163),
    (8.989912528722169, 0.03923053277863392, 1.7139219328281513e-06, -5.1909196443188455e-06, -3.076303633187816e-06, -0.0002494514146713498),
    (1.6043624941616983, 0.1244332600101889, -0.021932115992028323, -0.06339511185030863, 0.025661681627798288, -0.19169445147792097),
    (3.855406604291165, 0.19727120049749758, -0.000860950050969178, -0.007281665748708362, -0.0023070413267643176, -0.039699650447974175),
    (-5.602226426754015, 0.4663842050380949, 0.0016763462491609987, 0.0033863256326577664, -0.0014021767665687813, 0.007254098911377572),
    (8.753700481097372, 0.30787460821258233, 2.2658834478083104e-06, -6.68316196590906e-06, -4.172254961633429e-06, -0.0003156792486016145),
    (-9.187651007343856, 0.4301789489731039, 1.6066534281281701e-06, 4.4690723808500165e-06, -1.1934452507547914e-06, 0.00020496198957466866),
    (-12.591011651203505, 0.24109388978009028, 4.855500650460119e-11, 1.7852025683653056e-10, -1.2733029109819983e-11, -5.921130450924816e-07),
    (-5.5606848060311584, 0.13338321595338953, 0.0024721365535773625, 0.0044964875320547375, -0.0012540414606705714, 0.007548528318755318),
    (-5.631009472426637, 0.1735315026649657, 0.0021612422503958116, 0.004012322104544248, -0.0011917213441398683, 0.007046422245615862),
]

# The kernel's truncation error on the manufactured pair, by FIELDS row: the
# L2 norm of semi_discrete_rhs of the exact fields plus the sources minus the
# fields' time derivative (central difference, step TRUNCATION_H), at L = 8,
# amplitude 0.2, t = 0.1.  On these resolutions every row's order measured
# 1.976 to 1.999 at (beta, epsilon) = (1, 1) and (2, 0.5), but phi's 1.952
# from 256 to 512 (at L = 8 the phase misses +-1 by 4.5e-8 at |x| = L, which
# the phi_xx stencil reads beside the ghosts); a row on which the fields and
# the sources disagree keeps a residual that does not fall, order 0.
TRUNCATION_RESOLUTIONS = (64, 128, 256, 512)
TRUNCATION_H = 1e-4
MIN_TRUNCATION_ORDER = 1.9


# the interior columns of the sources, which sit in the layout of the kernel's rows
INTERIOR = np.s_[:, ns.core.N_GHOST:-ns.core.N_GHOST]


def reference_sources(case, x, t):
    """The sources as the closed forms of the governing equations' terms on
    the manufactured fields, one term at a time and sharing no factor
    between terms, in FIELDS order (u, phi, theta, v): the reference
    ManufacturedCase.sources is compared with."""
    beta, eps = case.params.beta, case.params.epsilon
    a, a1, a2, b, b1, b2 = case._spatial(x)
    phi, phi_x, phi_xx = case._phase(x)
    decay = math.exp(-t)
    rise = 1.0 - decay
    v, theta = 1.0 + a * decay, 1.0 + b * rise
    u_t, u_x, u_xx = -a * decay, a1 * decay, a2 * decay
    theta_t, theta_x, theta_xx = b * decay, b1 * rise, b2 * rise
    v_t, v_x = u_t, u_x  # v - 1 = u
    v2 = v**2
    theta_b = theta**beta
    ratio_x = phi_xx / v - phi_x * v_x / v2  # (phi_x / v)_x
    mu = (phi**3 - phi) / eps - eps * ratio_x
    s_v = v_t - u_x
    s_u = (u_t + (theta_x / v - theta * v_x / v2) + eps * (phi_x / v) * ratio_x
           - (u_xx / v - u_x * v_x / v2))
    cond = (beta * theta ** (beta - 1.0) * theta_x**2 / v + theta_b * theta_xx / v
            - theta_b * theta_x * v_x / v2)
    s_theta = theta_t + (theta / v) * u_x - cond - u_x**2 / v - v * mu**2
    return s_u, v * mu, s_theta, s_v


def interior_layout_sources(case, x, t):
    """ManufacturedCase.sources as it was computed into a (4, N) array of the
    interior: the same operations in the same order, so its rows are the
    bytes the sources in the kernel's layout must hold between their ghost columns."""
    decaying, rising, (_, phi_x, phi_xx, cube, eps_phi_x) = case._rows_of(x)
    beta, eps = case.params.beta, case.params.epsilon
    decay = math.exp(-t)
    rows = np.empty_like(decaying[:4])
    s_u, s_phi, s_theta, s_v = rows
    u, u_x, u_xx, theta_t = decaying[:4] * decay
    np.multiply(decaying[4], decay, out=s_v)
    theta, theta_x, theta_xx = rising * (1.0 - decay)
    theta += 1.0
    v = 1.0 + u
    inv_v = 1.0 / v
    w = u_x * inv_v
    ratio_x = (phi_xx - phi_x * w) * inv_v
    mu = cube - eps * ratio_x
    np.multiply(v, mu, out=s_phi)
    theta_w, u_x_w = theta * w, u_x * w
    np.subtract((theta_x - theta_w + eps_phi_x * ratio_x - u_xx + u_x_w) * inv_v, u,
                out=s_u)
    cond_v = theta**beta * (theta_x * (beta * theta_x / theta - w) + theta_xx)
    np.subtract(theta_t + theta_w - cond_v * inv_v - u_x_w, s_phi * mu, out=s_theta)
    return rows


@pytest.fixture(scope="module")
def case(params):
    grid = ns.make_grid(16, 128)
    return ns.default_case(params, grid, amplitude=0.1, t_star=0.25)


class TestManufacturedCase:
    def test_sources_match_symbolic_oracle(self, case):
        for x, t, sv, su, stheta, sphi in SOURCE_ORACLE:
            got = case.sources(np.array([x]), t)[INTERIOR]
            for value, want in zip(got, (su, sphi, stheta, sv)):
                assert float(value[0]) == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("beta", [0.5, 2.0, 4.0])
    @pytest.mark.parametrize("epsilon", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("amplitude", [0.0, 0.1, 0.3])
    def test_sources_match_the_closed_forms(self, beta, epsilon, amplitude):
        # the oracle pins beta = epsilon = 1 only; measured worst deviation
        # over this grid 7.4e-16 of max |S|, bounded at 1e-13
        case = ns.ManufacturedCase(ns.SimParams(epsilon=epsilon, beta=beta), 16,
                                   amplitude=amplitude)
        x = ns.make_grid(16, 256).x
        for t in (0.0, 0.1, 0.25, 3.0):
            for got, want in zip(case.sources(x, t)[INTERIOR], reference_sources(case, x, t)):
                if amplitude == 0.0:
                    assert np.all(got == 0.0)
                else:
                    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("beta, epsilon, amplitude", [(1.0, 1.0, 0.1), (2.0, 0.5, 0.3),
                                                          (0.5, 1.0, 0.0)])
    def test_sources_are_in_the_rhs_layout_with_zero_ghosts(self, beta, epsilon, amplitude):
        # on each grid of the default ladder: N + 4 columns whose ghosts are
        # +0.0 (no -0.0), and whose interior holds the bytes of the (4, N)
        # sources, so adding them to the kernel's rows keeps its ghosts
        cfg = ns.parse_config("")
        case = ns.ManufacturedCase(ns.SimParams(epsilon=epsilon, beta=beta), cfg.L,
                                   amplitude=amplitude)
        g = ns.core.N_GHOST
        for n in cfg.mms_resolutions:
            grid = ns.make_grid(cfg.L, n)
            for t in (0.0, 0.05, 0.1, cfg.mms_t_final, 3.0):
                got = case.sources(grid.x, t)
                assert got.shape == (4, grid.n_total)
                ghosts = np.concatenate((got[:, :g], got[:, -g:]), axis=1)
                assert np.all(ghosts == 0.0) and not np.signbit(ghosts).any()
                want = interior_layout_sources(case, grid.x, t)
                assert got[INTERIOR].tobytes() == want.tobytes()

    def test_source_v_is_vt_minus_ux(self, case):
        # S_v must equal d/dt v - d/dx u; both fields share the same
        # spatial factor, re-derived here from the documented closed form
        L, amp, we = 16.0, 0.1, 16.0 / 6.0
        x = np.linspace(-10, 10, 41)
        t = 0.2
        env = np.exp(-((x / we) ** 2))
        a = amp * np.sin(np.pi * x / L) * env
        a1 = amp * (np.pi / L * np.cos(np.pi * x / L) * env
                    + np.sin(np.pi * x / L) * env * (-2 * x / we**2))
        expected = (-a - a1) * math.exp(-t)
        got = case.sources(x, t)[INTERIOR][3]  # the v row
        assert got == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("beta, epsilon", [(1.0, 1.0), (2.0, 0.5)])
    def test_kernel_truncation_error_is_second_order_by_row(self, beta, epsilon):
        case = ns.ManufacturedCase(ns.SimParams(epsilon=epsilon, beta=beta), 8, amplitude=0.2)
        t, h = 0.1, TRUNCATION_H
        norms = []
        for n in TRUNCATION_RESOLUTIONS:
            grid = ns.make_grid(case.half_width, n)
            x = grid.x
            state = ns.state_from_fields(grid, case.bc, case.fields(x, t), case.params)
            time_derivative = (case.fields(x, t + h) - case.fields(x, t - h)) / (2.0 * h)
            residual = (ns.semi_discrete_rhs(state, case.params)[:4, grid.interior]
                        + case.sources(x, t)[INTERIOR] - time_derivative)
            norms.append(np.sqrt((residual**2).sum(axis=1) * grid.dx))
        orders = np.log2(np.array(norms[:-1]) / np.array(norms[1:]))  # pairs x rows
        assert orders.min() >= MIN_TRUNCATION_ORDER, orders

    def test_fields_meet_far_field(self, case):
        for x_edge in (-16.0, 16.0, -16.5, 16.5):
            u, phi, theta, v = case.fields(np.array([x_edge]), 0.3)
            assert abs(v[0] - 1.0) < 1e-12
            assert abs(u[0]) < 1e-12
            assert abs(theta[0] - 1.0) < 1e-12
            assert abs(abs(phi[0]) - 1.0) < 1e-12

    @pytest.mark.parametrize("half_width, low, high",
                             [(8, 4e-8, 5e-8), (12, 6e-12, 7e-12), (13, 0.0, 1e-12),
                              (16, 0.0, 1e-15)])
    def test_the_phase_gap_at_the_far_field(self, params, half_width, low, high):
        # the docstring's figures: 1 - |phi| at |x| = L, where the ghost
        # region starts, is about 2 e^(-2.2 L)
        case = ns.ManufacturedCase(params, half_width)
        x = np.array([-half_width, half_width])
        gap = max(np.abs(1.0 - np.abs(case.fields(x, t)[1])).max() for t in (0.0, 0.25, 1.0))
        assert low <= gap <= high

    def test_fields_stay_in_validity_window(self, case):
        x = np.linspace(-16, 16, 2001)
        for t in (0.0, 0.1, 0.25):
            _, phi, theta, v = case.fields(x, t)
            assert v.min() >= 0.5 and theta.min() >= 0.5
            assert phi.min() >= -1.0 - 1e-12 and phi.max() <= 1.0 + 1e-12

    def test_sources_follow_the_values_of_x(self, params):
        # the t-independent factors are kept per grid: a new grid, a return
        # to an old one and an x edited in place must all give exactly what
        # a fresh case gives
        def fresh(x, t):
            return ns.default_case(params, ns.make_grid(16, 128)).sources(x.copy(), t)

        case = ns.default_case(params, ns.make_grid(16, 128))
        a, b = ns.make_grid(16, 128).x.copy(), ns.make_grid(16, 256).x
        case.fields(a, 0.1)[:] = 0.0  # a caller may write to what it gets
        for x, t in ((a, 0.1), (b, 0.1), (a, 0.2), (a, 0.2)):
            for got, want in zip(case.sources(x, t), fresh(x, t)):
                assert np.array_equal(got, want)
        a[40] += 0.05
        for got, want in zip(case.sources(a, 0.2), fresh(a, 0.2)):
            assert np.array_equal(got, want)

    def test_zero_amplitude_sources_vanish(self, params):
        grid = ns.make_grid(16, 128)
        flat = ns.default_case(params, grid, amplitude=0.0)
        x = np.linspace(-15, 15, 31)
        for t in (0.0, 0.3):
            u, phi, theta, v = flat.fields(x, t)
            assert np.all(v == 1.0) and np.all(u == 0.0)
            assert np.all(theta == 1.0) and np.all(phi == 1.0)
            for src in flat.sources(x, t):
                assert np.all(np.asarray(src) == 0.0)

    def test_rejects_bad_parameters(self, params):
        grid = ns.make_grid(16, 128)
        with pytest.raises(ValueError):
            ns.default_case(params, grid, amplitude=0.4)
        with pytest.raises(ValueError):
            ns.ManufacturedCase(params, 6.0)
        with pytest.raises(ValueError):
            ns.default_case(params, grid, t_star=0.0)

    def test_the_config_defaults_are_the_case_defaults(self):
        # RunConfig keeps its own copy of them, so that config.txt lists them
        defaults = inspect.signature(ns.ManufacturedCase).parameters
        config = ns.RunConfig()
        assert config.mms_amplitude == defaults["amplitude"].default
        assert config.mms_t_final == defaults["t_star"].default

    @settings(max_examples=60, deadline=None)
    @given(amplitude=st.floats(0.0, 0.3), half_width=st.floats(8.0, 1000.0),
           t=st.floats(0.0, 50.0))
    def test_fields_stay_in_the_validity_window(self, amplitude, half_width, t):
        # amplitude <= 0.3 bounds |A| and |B|, so v and theta stay in
        # [0.7, 1.3], and the logistic weights sum to < 1, so |phi| <= 1;
        # the case therefore needs no check of its own
        case = ns.ManufacturedCase(ns.SimParams(), half_width, amplitude=amplitude)
        _, phi, theta, v = case.fields(np.linspace(-half_width, half_width, 4001), t)
        for field in (v, theta):
            assert 0.7 - 1e-12 <= field.min() and field.max() <= 1.3 + 1e-12
        assert np.abs(phi).max() <= 1.0 + 1e-12

    @pytest.mark.parametrize("half_width", [math.inf, math.nan])
    def test_rejects_non_finite_half_width(self, params, half_width):
        with pytest.raises(ValueError, match="needs a finite L >= 8"):
            ns.ManufacturedCase(params, half_width)

    @pytest.mark.parametrize("t_star", [math.inf, math.nan])
    def test_rejects_non_finite_t_star(self, params, t_star):
        with pytest.raises(ValueError, match="t_star must be finite"):
            ns.ManufacturedCase(params, 16.0, t_star=t_star)


class TestLastSources:
    """ManufacturedCase keeps the sources of its last t beside its per-grid
    factors, so a run, which calls the hook at every stage, evaluates them
    once per distinct stage time: the second Heun stage of one step is at the
    first stage time of the next."""

    def test_a_repeated_grid_and_time_returns_the_same_arrays(self, params):
        def fresh(x, t):
            return ns.default_case(params, ns.make_grid(16, 128)).sources(x.copy(), t)

        case = ns.default_case(params, ns.make_grid(16, 128))
        x = ns.make_grid(16, 128).x.copy()
        last = case.sources(x, 0.1)
        assert case.sources(x.copy(), 0.1) is last
        with pytest.raises(ValueError, match="read-only"):
            last[1][0] = 0.0  # the arrays are shared by every repeat
        # a new t, a new grid, a return to the old grid and an edit of x in
        # place each evaluate again
        other = ns.make_grid(16, 256).x
        for y, t, edit in ((x, 0.2, 0.0), (other, 0.2, 0.0), (x, 0.2, 0.0), (x, 0.2, 0.05)):
            y[40] += edit
            got = case.sources(y, t)
            assert got is not last
            for row, want in zip(got, fresh(y, t)):
                assert np.array_equal(row, want)
            last = got

    def test_a_capped_run_evaluates_once_per_stage_time(self, params, monkeypatch):
        case = ns.ManufacturedCase(params, 8, amplitude=0.2)
        grid = ns.make_grid(8, 32)
        initial = ns.state_from_fields(grid, case.bc, case.fields(grid.x, 0.0), params)
        step, dts, times, results, seen = ns.integrator.step, [], [], [], []

        def recording_step(state, params, dt, sources=None, stages=2):
            dts.append(dt)
            return step(state, params, dt, sources=sources, stages=stages)

        def counting(x, t):
            times.append(t)
            results.append(case.sources(x, t))  # kept, so no id is reused
            return results[-1]

        monkeypatch.setattr(ns.integrator, "step", recording_step)
        result = ns.run(initial, params, case.bc, 0.05, observer=seen.append,
                        dt_cap=ns.mms.DT_CAP_FACTOR * grid.dx**2, sources=counting)
        monkeypatch.undo()
        control = result.control
        steps = control.step_count
        assert steps == len(dts) > 1 and control.rhs_evals == 2 * steps
        assert control.limit_kind == "cap" and control.rkl2_steps == 0
        assert len(times) == 2 * steps
        assert len({id(r) for r in results}) == steps + 1
        # each step after the first starts where the last one's second stage was
        assert times[2::2] == times[1:-1:2] == [s.t for s in seen[:-1]]

        def uncached(x, t):
            return ns.ManufacturedCase(params, 8, amplitude=0.2).sources(x, t)

        state = initial
        for dt in dts:
            state = ns.step(state, params, dt, sources=uncached)
        assert np.array_equal(result.state.data, state.data)


class TestSourceBlocks:
    """Given a step, sources evaluates a block of stage times in one pass: t,
    t + step, (t + step) + step, ..., max(1, BLOCK_CELLS // N) of them and
    none past t_star, so a capped run's later stage times are lookups."""

    # (SimParams keywords, L, amplitude): the default `nsac1d mms` case, the
    # mms-beta2 case and a thin interface
    @pytest.mark.parametrize("keywords, half_width, amplitude", [
        ({}, 16, 0.1), ({"beta": 2.0, "epsilon": 0.5}, 8, 0.2), ({"epsilon": 0.05}, 16, 0.1)])
    def test_each_time_of_a_block_is_a_lone_evaluation_byte_for_byte(self, keywords,
                                                                      half_width, amplitude):
        # the stage times of the study's capped runs on the default ladder's
        # grids, against a fresh case that evaluates the one time asked
        params = ns.SimParams(**keywords)
        case = ns.ManufacturedCase(params, half_width, amplitude=amplitude)
        g = ns.core.N_GHOST
        for n in ns.parse_config("").mms_resolutions:
            grid = ns.make_grid(half_width, n)
            cap = ns.mms.DT_CAP_FACTOR * grid.dx**2
            t = 0.0
            while t <= case.t_star:
                got = case.sources(grid.x, t, cap)
                fresh = ns.ManufacturedCase(params, half_width, amplitude=amplitude)
                assert got.tobytes() == fresh.sources(grid.x, t).tobytes(), (n, t)
                assert got.shape == (4, grid.n_total) and not got.flags.writeable
                ghosts = np.concatenate((got[:, :g], got[:, -g:]), axis=1)
                assert np.all(ghosts == 0.0) and not np.signbit(ghosts).any()
                t += cap

    def test_a_later_time_of_a_block_is_not_evaluated_again(self, params, monkeypatch):
        grid = ns.make_grid(16, 128)
        case = ns.default_case(params, grid)
        cap = ns.mms.DT_CAP_FACTOR * grid.dx**2
        times = [0.0]
        while len(times) < ns.mms.BLOCK_CELLS // 128:
            times.append(times[-1] + cap)
        exps, exp = [], math.exp  # one math.exp per time evaluated
        monkeypatch.setattr(math, "exp", lambda y: exps.append(y) or exp(y))
        first = case.sources(grid.x, 0.0, cap)
        assert exps == [-t for t in times]
        later = [case.sources(grid.x, t, cap) for t in times[1:]]
        assert len(exps) == len(times)
        # a repeated (x, t) returns the same array, with or without a step
        assert case.sources(grid.x, 0.0) is first
        assert case.sources(grid.x.copy(), times[-1], cap) is later[-1]
        # the next stage time starts a new block; one near t_star stops at it
        case.sources(grid.x, times[-1] + cap, cap)
        assert len(exps) == 2 * len(times)
        near = case.t_star - 2.5 * cap
        case.sources(grid.x, near, cap)
        assert exps[2 * len(times):] == [-near, -(near + cap), -(near + cap + cap)]


class TestConvergenceStudy:
    def test_zero_amplitude_errors_at_roundoff(self, params):
        grid = ns.make_grid(16, 64)
        flat = ns.default_case(params, grid, amplitude=0.0, t_star=0.05)
        rows = ns.convergence_study(flat, [64, 128, 256])
        for row in rows:
            assert max(row.err_v, row.err_u, row.err_theta, row.err_phi) < 1e-10

    def test_rejects_bad_resolutions(self, params, case):
        with pytest.raises(ValueError, match="at least 3"):
            ns.convergence_study(case, [128, 256])
        with pytest.raises(ValueError, match="double"):
            ns.convergence_study(case, [128, 192, 256])

    @pytest.mark.parametrize("beta, amplitude", [(1.0, 0.1), (2.0, 0.3)])
    def test_dt_cap_keeps_the_time_error_out_of_the_orders(self, monkeypatch,
                                                           beta, amplitude):
        # halving DT_CAP_FACTOR moves each error by at most 1.6e-3 (beta 1)
        # and 1.8e-3 (beta 2) relative, and each order by 2.0e-3 and 2.1e-3;
        # bounded at 5e-3 and 0.01, about 3x and 5x those
        params = ns.SimParams(beta=beta)
        case = ns.ManufacturedCase(params, 16, amplitude=amplitude)
        resolutions = (64, 128, 256)
        rows = ns.convergence_study(case, resolutions)
        monkeypatch.setattr(ns.mms, "DT_CAP_FACTOR", ns.mms.DT_CAP_FACTOR / 2)
        finer = ns.convergence_study(case, resolutions)
        monkeypatch.undo()
        for row, fine in zip(rows, finer):
            for name in ("v", "u", "theta", "phi"):
                err, err_fine = getattr(row, f"err_{name}"), getattr(fine, f"err_{name}")
                assert abs(err - err_fine) <= 5e-3 * err_fine
                if row.n_cells > resolutions[0]:
                    assert abs(getattr(row, f"order_{name}")
                               - getattr(fine, f"order_{name}")) <= 0.01
        # the cap, not the Heun step or RKL2, sets every step of the finest run
        grid = ns.make_grid(16, resolutions[-1])
        initial = ns.state_from_fields(grid, case.bc, case.fields(grid.x, 0.0), params)
        cap = ns.mms.DT_CAP_FACTOR * grid.dx**2
        control = ns.run(initial, params, case.bc, case.t_star, dt_cap=cap,
                         sources=case.sources).control
        assert control.rkl2_steps == 0 and control.limit_kind == "cap"
        assert control.step_count == math.ceil(case.t_star / cap)

    def test_observed_second_order_smoke(self, params):
        # the acceptance suite runs {128, 256, 512}; keep a cheap smoke here
        grid = ns.make_grid(16, 64)
        case = ns.default_case(params, grid, amplitude=0.1, t_star=0.1)
        rows = ns.convergence_study(case, [64, 128, 256])
        assert rows[-1].order_v >= 1.8
        assert rows[-1].order_u >= 1.8
        assert rows[-1].order_theta >= 1.8
        assert rows[-1].order_phi >= 1.5
