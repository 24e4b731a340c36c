#!/usr/bin/env python3
"""Interleaved A/B timing of two nsac1d source trees in one process.

    python tools/ab_time.py PARENT_SRC CHANGE_SRC [--n 1024] [--rounds 15] [--seed 0]

Each SRC is a directory that holds the `nsac1d` package (a checkout's
`src`). Both trees are loaded side by side under the package names
nsac1d_parent and nsac1d_change (the package imports itself only
relatively), and each builds the same inputs: the flagship initial data of
the benchmark (bench/workloads.py's FLAGSHIP at FLAGSHIP_L) on N cells, the
default parameters and the far-field phases -1, +1; the run case goes to the
benchmark's T_FINAL.  The mms-run case is the manufactured case of the
default `nsac1d mms` config on N cells, run with its sources to t_star under
the study's cap, mms.DT_CAP_FACTOR dx^2, so every step is a cap-bound Heun
step; the step-2 case is one such step from the case's initial state.

First every case below is called once on each side, and the results must be
bit-identical: timing two trees that compute different things compares
different work. Each case whose results differ is printed on a
`not bit-identical:` line, and the script exits 1 without timing.

Then, in each of --rounds rounds, each case is timed as one batch of calls
per side, the side that goes first drawn at random for each case and round.
A batch holds as many calls as take about BATCH_S on the parent (one `run`
at the default N). Times are process CPU time, which leaves out the
gaps when the host takes the CPU away; the garbage collector is off during a
batch. The cases:

    kernel        semi_discrete_rhs(state, params)
    guard         core.check_positive(state, params)
    step_limits   step_limits(state, params)
    increments-2  integrator.increments(y0, t0, dt, rate, stages) at 2 and 5
    increments-5  stages, with rate returning a fixed F: the arithmetic alone
    step-5        step(state, params, bc, dt, stages=5)
    step-2        step(mms_initial, params, case.bc, dt_cap, case.sources)
    run           run(initial, params, bc, T_FINAL)
    mms-run       run(mms_initial, params, case.bc, case.t_star, dt_cap, case.sources)

dt is the Heun step of the initial state, cfl times its least limit. For
each case one line gives the median and the quartiles of the per-call time
in microseconds on each side, the ratio of the medians (change over parent),
the median of the per-round ratios (change over parent within one round) and
the number of rounds in which the change was lower. A round's two batches
run back to back, so its ratio cancels a host whose speed drifts over the
run, which the ratio of the medians does not.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import random
import sys
from pathlib import Path
from time import process_time

import numpy as np

SIDES = ("parent", "change")
BATCH_S = 0.02  # CPU seconds per batch on the parent


def load(src, name):
    """The nsac1d package under src, imported as `name`; an earlier import
    under that name is replaced."""
    for key in [key for key in sys.modules if key == name or key.startswith(name + ".")]:
        del sys.modules[key]
    package = Path(src) / "nsac1d"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _workloads():
    """bench/workloads.py, loaded by path: the flagship data it times."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("ab_time_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()


def cases(ns, n_cells):
    """{case: (call, key)}: call() runs the case once; key(result) is its
    result as bytes, the same on both sides if the trees agree bit for bit."""
    params = ns.SimParams()
    bc = ns.BoundaryConfig(-1.0, 1.0)
    initial = ns.interface_initial_state(ns.make_grid(WORKLOADS.FLAGSHIP_L, n_cells), params,
                                         bc, **WORKLOADS.FLAGSHIP)
    state = initial.copy()
    dt = params.cfl * min(ns.step_limits(state, params))
    force = ns.semi_discrete_rhs(state, params).data
    increments, check_positive = ns.integrator.increments, ns.core.check_positive

    def rate(y, t):
        return force

    cfg = ns.parse_config("")
    case = ns.ManufacturedCase(params, cfg.L, amplitude=cfg.mms_amplitude,
                               t_star=cfg.mms_t_final)
    mms_grid = ns.make_grid(case.half_width, n_cells)
    mms_initial = ns.state_from_fields(mms_grid, case.bc, case.fields(mms_grid.x, 0.0), params)
    mms_cap = ns.mms.DT_CAP_FACTOR * mms_grid.dx**2

    def run_key(result):
        c = result.control
        return repr((result.state.data.tobytes(), result.state.t, c.step_count, c.rhs_evals,
                     c.rkl2_steps, c.stages, c.limit_kind)).encode()

    def data_key(result):
        return result.data.tobytes()

    def array_key(result):
        return np.asarray(result).tobytes()

    return {
        "kernel": (lambda: ns.semi_discrete_rhs(state, params), data_key),
        "guard": (lambda: check_positive(state, params), repr),
        "step_limits": (lambda: ns.step_limits(state, params), array_key),
        "increments-2": (lambda: increments(state.data, state.t, dt, rate, 2), array_key),
        "increments-5": (lambda: increments(state.data, state.t, dt, rate, 5), array_key),
        "step-5": (lambda: ns.step(state, params, bc, dt, stages=5), data_key),
        "step-2": (lambda: ns.step(mms_initial, params, case.bc, mms_cap, case.sources),
                   data_key),
        "run": (lambda: ns.run(initial, params, bc, WORKLOADS.T_FINAL), run_key),
        "mms-run": (lambda: ns.run(mms_initial, params, case.bc, case.t_star, dt_cap=mms_cap,
                                   sources=case.sources), run_key),
    }


def timed(call, k):
    """CPU seconds per call of k calls of call(), with the garbage collector off."""
    gc.collect()
    gc.disable()
    try:
        start = process_time()
        for _ in range(k):
            call()
        return (process_time() - start) / k
    finally:
        gc.enable()


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Interleaved A/B timing of two nsac1d source trees in one process.")
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--n", type=int, default=1024, help="cells (default 1024)")
    parser.add_argument("--rounds", type=int, default=15, help="rounds (default 15)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the side order")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    trees = {}
    for side, src in zip(SIDES, (args.parent_src, args.change_src)):
        if not (src / "nsac1d" / "__init__.py").is_file():
            parser.error(f"{src} holds no nsac1d package")
        trees[side] = cases(load(src.resolve(), f"nsac1d_{side}"), args.n)

    names = list(trees["parent"])
    differing = [name for name in names
                 if len({key(call()) for call, key in (trees[side][name] for side in SIDES)}) > 1]
    for name in differing:
        print(f"not bit-identical: {name}")
    if differing:
        return 1

    # calls per batch, from a short timing of the parent
    sizes = {}
    for name in names:
        call = trees["parent"][name][0]
        k, seconds = 1, timed(call, 1)
        while seconds * k < BATCH_S / 4:
            k *= 2
            seconds = timed(call, k)
        sizes[name] = max(1, round(BATCH_S / seconds))

    rng = random.Random(args.seed)
    samples = {name: {side: [] for side in SIDES} for name in names}
    for _ in range(args.rounds):
        for name in names:
            for side in rng.sample(SIDES, 2):
                samples[name][side].append(timed(trees[side][name][0], sizes[name]))

    print(f"ab_time: N = {args.n}, {args.rounds} rounds, seed {args.seed}; "
          f"per-call CPU time in microseconds, median [first quartile, third quartile]")
    for name in names:
        parent, change = (1e6 * np.array(samples[name][side]) for side in SIDES)
        (p1, p2, p3), (c1, c2, c3) = (np.percentile(x, [25, 50, 75]) for x in (parent, change))
        lower = int(np.sum(change < parent))
        print(f"{name:<13} calls {sizes[name]:>5}  parent {p2:10.2f} [{p1:.2f}, {p3:.2f}]"
              f"  change {c2:10.2f} [{c1:.2f}, {c3:.2f}]  ratio {c2 / p2:.3f}"
              f"  round ratio {np.median(change / parent):.3f}  lower {lower}/{args.rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
