#!/usr/bin/env python3
"""Interleaved A/B timing of two nsac1d source trees in one process.

    python tools/ab_time.py PARENT_SRC CHANGE_SRC [--n 1024] [--rounds 15] [--seed 0]
                            [--allow-differing]

Each SRC is a directory that holds the `nsac1d` package (a checkout's
`src`). Both trees are loaded side by side under the package names
nsac1d_parent and nsac1d_change (the package imports itself only
relatively), and each builds the same inputs: the flagship initial data of
the benchmark (bench/workloads.py's FLAGSHIP at FLAGSHIP_L) on N cells, the
default parameters and the far-field phases -1, +1; the run case goes to the
benchmark's T_FINAL.  The mms-run case is the manufactured case of the
default `nsac1d mms` config on N cells, run with its sources to t_star under
the study's cap, mms.DT_CAP_FACTOR dx^2, so every step is a cap-bound Heun
step; the step-2 case is one such step from the case's initial state, whose
sources at its two stage times are computed once at set-up, so it times the
step without the source expressions (the benchmark traces those as
mms.sources); the mms-study case is convergence_study of that case (a case
of its own, so its sources cache is apart from mms-run's) at N/4, N/2 and
N, whose runs take their sources in blocks of stage times.  The record and
csv cases read the accepted states of the flagship run to T_FINAL,
monitored as `nsac1d run` monitors them with one weighted pair, (0.5, 0),
in a context made from the initial state.

First every case below is called once on each side, and the results must be
bit-identical: timing two trees that compute different things compares
different work. Each case whose results differ is printed on a
`not bit-identical:` line, and the script exits 1 without timing. With
--allow-differing, for a change that moves results at roundoff, each such
line also gives the largest relative difference between the numbers of the
two results, and every case is then timed.

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
    step-5        step(state, params, dt, stages=5)
    step-2        step(mms_initial, params, dt_cap, sources), sources
                  answering the step's two stage times from set-up
    run           run(initial, params, bc, T_FINAL)
    mms-run       run(mms_initial, params, case.bc, case.t_star, dt_cap, case.sources)
    mms-study     convergence_study(case, (N // 4, N // 2, N)), keyed by the rows' repr
    record        record(copy(context), block, kept): one fold of the block
                  `nsac1d run` folds at N with every step recorded, the first
                  max(1, BLOCK_CELLS // N) states, all kept
    csv           write_diagnostics(records, path), then read_diagnostics(path),
                  on the records of the initial and every accepted state

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
import copy
import dataclasses
import gc
import importlib.util
import random
import runpy
import sys
import tempfile
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


# the flagship data's one owner, the benchmark's bench/workloads.py, read by path
WORKLOADS = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "workloads.py"))


def cases(ns, n_cells, path):
    """{case: (call, key)}: call() runs the case once; key(result) is its
    result as bytes, the same on both sides if the trees agree bit for bit.
    The csv case writes and reads the file at path."""
    params = ns.SimParams()
    bc = ns.BoundaryConfig(-1.0, 1.0)
    initial = ns.interface_initial_state(ns.make_grid(WORKLOADS["FLAGSHIP_L"], n_cells), params,
                                         bc, **WORKLOADS["FLAGSHIP"])
    state = initial.copy()
    dt = params.cfl * min(ns.step_limits(state, params))
    force = ns.semi_discrete_rhs(state, params)
    increments, check_positive = ns.integrator.increments, ns.core.check_positive

    def rate(y, t):
        return force

    cfg = ns.parse_config("")
    case, study_case = (ns.ManufacturedCase(params, cfg.L, amplitude=cfg.mms_amplitude,
                                            t_star=cfg.mms_t_final) for _ in range(2))
    mms_grid = ns.make_grid(case.half_width, n_cells)
    mms_initial = ns.state_from_fields(mms_grid, case.bc, case.fields(mms_grid.x, 0.0), params)
    mms_cap = ns.mms.DT_CAP_FACTOR * mms_grid.dx**2
    # the sources at the two stage times of step-2's one Heun step, 0 and the cap
    stage_sources = {t: case.sources(mms_grid.x, t) for t in (0.0, mms_cap)}

    states = []
    ns.run(initial, params, bc, WORKLOADS["T_FINAL"], observer=states.append)
    context = ns.make_context(initial, params, [(0.5, 0)])
    block = states[:max(1, ns.cli_io.BLOCK_CELLS // n_cells)]
    kept = range(len(block))
    monitor = copy.copy(context)  # record() rebinds a context's last fold only
    records = ns.record(monitor) + ns.record(monitor, states, range(len(states)))

    def csv_round_trip():
        ns.write_diagnostics(records, path)
        return ns.read_diagnostics(path)

    def run_key(result):
        c = result.control
        return repr((result.state.data.tobytes(), result.state.t, c.step_count, c.rhs_evals,
                     c.rkl2_steps, c.stages, c.limit_kind)).encode()

    def data_key(result):
        return result.data.tobytes()

    def array_key(result):
        return np.asarray(result).tobytes()

    def records_key(result):
        return repr(result).encode()

    return {
        "kernel": (lambda: ns.semi_discrete_rhs(state, params), array_key),
        "guard": (lambda: check_positive(state, params), repr),
        "step_limits": (lambda: ns.step_limits(state, params), array_key),
        "increments-2": (lambda: increments(state.data, state.t, dt, rate, 2), array_key),
        "increments-5": (lambda: increments(state.data, state.t, dt, rate, 5), array_key),
        "step-5": (lambda: ns.step(state, params, dt, stages=5), data_key),
        "step-2": (lambda: ns.step(mms_initial, params, mms_cap,
                                   lambda x, t: stage_sources[t]), data_key),
        "run": (lambda: ns.run(initial, params, bc, WORKLOADS["T_FINAL"]), run_key),
        "mms-run": (lambda: ns.run(mms_initial, params, case.bc, case.t_star, dt_cap=mms_cap,
                                   sources=case.sources), run_key),
        "mms-study": (lambda: ns.convergence_study(study_case,
                                                   (n_cells // 4, n_cells // 2, n_cells)),
                      records_key),
        "record": (lambda: ns.record(copy.copy(context), block, kept), records_key),
        "csv": (csv_round_trip, lambda result: path.read_bytes() + records_key(result)),
    }


def numbers(result):
    """The numbers of a result in a fixed order, as one float array: those
    of its arrays, ints and floats, inside lists, tuples and the fields of
    dataclasses; anything else (None, a string) holds none."""
    if isinstance(result, (np.ndarray, int, float, np.number)):
        return np.asarray(result, dtype=float).ravel()
    if dataclasses.is_dataclass(result):
        result = [getattr(result, field.name) for field in dataclasses.fields(result)]
    if isinstance(result, (list, tuple)):
        return np.concatenate([numbers(part) for part in result] + [np.empty(0)])
    return np.empty(0)


def largest_relative_difference(parent, change):
    """max |a - b| / max(|a|, |b|) over the paired numbers of two results;
    inf where their counts differ or only one of a pair is nan."""
    a, b = numbers(parent), numbers(change)
    if a.shape != b.shape:
        return np.inf
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(divide="ignore", invalid="ignore"):
        relative = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
    return float(np.max(np.where(same, 0.0, np.nan_to_num(relative, nan=np.inf)), initial=0.0))


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
    parser.add_argument("--allow-differing", action="store_true",
                        help="time cases whose results differ, after printing the largest "
                             "relative difference of each (for changes at roundoff)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    with tempfile.TemporaryDirectory() as workdir:
        return _time_trees(parser, args, Path(workdir))


def _time_trees(parser, args, workdir):
    trees = {}
    for side, src in zip(SIDES, (args.parent_src, args.change_src)):
        if not (src / "nsac1d" / "__init__.py").is_file():
            parser.error(f"{src} holds no nsac1d package")
        ns = load(src.resolve(), f"nsac1d_{side}")
        try:
            # the tree's own grid rule, and its monitor's: whole unit intervals
            grid, params = ns.make_grid(WORKLOADS["FLAGSHIP_L"], args.n), ns.SimParams()
            ns.make_context(ns.interface_initial_state(grid, params, ns.BoundaryConfig(1.0, 1.0)),
                            params)
        except ValueError as exc:
            parser.error(f"--n: {exc}")
        trees[side] = cases(ns, args.n, workdir / f"diagnostics-{side}.csv")

    names = list(trees["parent"])
    differing = False
    for name in names:
        results = [trees[side][name][0]() for side in SIDES]
        # each side's own key: the csv key reads that side's file
        if len({trees[side][name][1](result) for side, result in zip(SIDES, results)}) > 1:
            differing = True
            note = (f", largest relative difference {largest_relative_difference(*results):.3g}"
                    if args.allow_differing else "")
            print(f"not bit-identical: {name}{note}")
    if differing and not args.allow_differing:
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
