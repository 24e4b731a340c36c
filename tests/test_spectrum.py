"""The linear stability certificate of the step `run` takes.

`run` takes the step dt in the fewest stages whose real stability interval
covers dt from a stage base: RKL2_STAGE_LIMIT times the diffusion limit, a
per-cell bound, or the Heun step if that is longer.  The certificate checks
that step against the true spectrum: the eigenvalues
lambda of the kernel's Jacobian (conftest.kernel_jacobian), on which the
step's amplification R(dt lambda) may exceed neither 1 nor the exact
|exp(dt lambda)| by more than roundoff (conftest.linear_amplification).
Meyer, Balsara & Aslam, J. Comput. Phys. 257 (2014); Reddy & Trefethen,
Numer. Math. 62 (1992).
"""

import dataclasses

import numpy as np
import pytest

import nsac1d as ns
from conftest import kernel_jacobian, linear_amplification

# the excess amplification the certificate allows
AMPLIFICATION_TOL = 1e-12

# name: (N, L, cfl, SimParams and initial-data keywords of flagship_ic, the
# stages of the first step run takes); the excess measured is in the comment
STATES = {
    "flagship-64": (64, 32, 0.4, {}, 2),     # -3.2e-5
    "flagship-128": (128, 32, 0.4, {}, 2),   # -4.6e-6
    # the flagship data at the dx of N = 256 (3 stages, -6.3e-7, and 0.51
    # with 2 stages) on half the domain, whose spectrum takes a quarter of
    # the time
    "flagship-L16": (128, 16, 0.4, {}, 3),   # -2.2e-6
    "u_amp-2": (128, 16, 0.4, {"u_amp": 2.0}, 3),  # -2.5e-9
    "beta-4": (128, 16, 0.4, {"beta": 4.0, "theta_amp": 2.0, "v_amp": 1.0}, 16),  # -1.6e-6
    # at cfl 0.95 the Heun step is longer than the stage base and sizes the
    # stages; the N = 512 run's first step (5 stages) measures -1.9e-7, and
    # 8.5 with 4 stages, but that spectrum takes 4 s
    "cfl-0.95": (128, 32, 0.95, {}, 3),      # -1.1e-5
}


def first_step(state, params, bc):
    """(dt, stages) of the first step run takes from state, as it calls step."""
    taken = []

    def recording(state, params, bc, dt, sources=None, stages=2):
        taken.append((dt, stages))
        raise RuntimeError("recorded")  # run aborts after one call

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ns.integrator, "step", recording)
        with pytest.raises(ns.SimulationAbort):
            ns.run(state, params, bc, state.t + 1.0)
    return taken[0]


@pytest.fixture(scope="module")
def case(flagship_ic):
    """(params, bc, state, dt, stages) of a STATES entry and its first step."""

    def make(name):
        n_cells, half_width, cfl, keywords, _ = STATES[name]
        params, _, bc, state = flagship_ic(n_cells, half_width=half_width, **keywords)
        params = dataclasses.replace(params, cfl=cfl)
        return (params, bc, state, *first_step(state, params, bc))

    return make


def test_coloured_jacobian_is_the_dense_one(flagship_ic):
    # 40 kernel calls in place of 512; equal bit for bit, because no kernel
    # row reads a cell beyond KERNEL_REACH and the rows are computed apart
    for keywords in ({}, {"u_amp": 2.0, "beta": 4.0}):
        params, _, bc, state = flagship_ic(64, half_width=16, **keywords)
        dense = kernel_jacobian(state, params, bc, period=64)
        assert np.count_nonzero(dense) > 0
        assert np.array_equal(kernel_jacobian(state, params, bc), dense)


@pytest.mark.parametrize("name", STATES)
def test_certifies_the_step_run_takes(case, name):
    params, bc, state, dt, stages = case(name)
    assert stages == STATES[name][-1]
    assert linear_amplification(state, params, bc, dt, stages) <= AMPLIFICATION_TOL


@pytest.mark.parametrize("name", ["flagship-L16", "u_amp-2", "cfl-0.95"])
def test_one_stage_fewer_fails(case, name):
    # measured 0.51, 0.55 and 0.82: the step takes no stage the spectrum
    # does not need, so a "stages - 1" rule is caught
    params, bc, state, dt, stages = case(name)
    assert linear_amplification(state, params, bc, dt, stages - 1) > 0.1
