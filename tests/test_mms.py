import math

import numpy as np
import pytest

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


@pytest.fixture(scope="module")
def case(params):
    grid = ns.make_grid(16, 128)
    return ns.default_case(params, grid, amplitude=0.1, t_star=0.25)


class TestManufacturedCase:
    def test_sources_match_symbolic_oracle(self, case):
        for x, t, sv, su, stheta, sphi in SOURCE_ORACLE:
            got = case.sources(np.array([x]), t)
            for value, want in zip(got, (sv, su, stheta, sphi)):
                assert float(value[0]) == pytest.approx(want, abs=1e-10)

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
        got = case.sources(x, t)[0]
        assert got == pytest.approx(expected, abs=1e-13)

    def test_fields_meet_far_field(self, case):
        for x_edge in (-16.0, 16.0, -16.5, 16.5):
            v, u, theta, phi = case.fields(np.array([x_edge]), 0.3)
            assert abs(v[0] - 1.0) < 1e-12
            assert abs(u[0]) < 1e-12
            assert abs(theta[0] - 1.0) < 1e-12
            assert abs(abs(phi[0]) - 1.0) < 1e-12

    def test_fields_stay_in_validity_window(self, case):
        x = np.linspace(-16, 16, 2001)
        for t in (0.0, 0.1, 0.25):
            v, _, theta, phi = case.fields(x, t)
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
        case.fields(a, 0.1)[3][:] = 0.0  # a caller may write to what it gets
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
            v, u, theta, phi = flat.fields(x, t)
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

    def test_observed_second_order_smoke(self, params):
        # the acceptance suite runs {128, 256, 512}; keep a cheap smoke here
        grid = ns.make_grid(16, 64)
        case = ns.default_case(params, grid, amplitude=0.1, t_star=0.1)
        rows = ns.convergence_study(case, [64, 128, 256])
        assert rows[-1].order_v >= 1.8
        assert rows[-1].order_u >= 1.8
        assert rows[-1].order_theta >= 1.8
        assert rows[-1].order_phi >= 1.5
