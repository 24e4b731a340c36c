#!/usr/bin/env python3
"""nsac1d benchmark: time to solution, set-up time, memory and accuracy on
three workloads, plus an outside-in trace of the package's modules.

    python3 bench/run_bench.py --workload flagship-1024 --seed 0 --seconds 30 --trace 0

With --trace 0 the workload runs untraced, repeatedly, for --seconds and the
end-to-end metrics are reported. With --trace 1 untraced and traced runs
alternate for --seconds, and the per-layer metrics are reported, together with
a flagship scaling sweep over N = 256, 512, 1024. Standard output is a report
for people, then one JSON line {"correct", "attempted", "failed", "metrics"}.
An operation is one run of the workload; it fails when it raises or its output
does not pass the workload's check.

End-to-end metrics, all lower-is-better: time_s, the time to solution after
set-up; setup_s, a fresh `import nsac1d` plus the workload's set-up; peak_rss_mb,
the high-water resident memory of this process; accuracy_err, which is
energy_drift_rel on flagship-1024 and cli-diag-512 and mms_err_max on
mms-ladder (each workload reports every metric, so the two share one name).
error_rate, failed over attempted, is in the report and in the JSON's
attempted and failed counts rather than among the metrics, being 0 when all
is well.

time_s and setup_s are CPU seconds at a fixed reference speed. On a shared
2-core VM wall time is unsteady in two ways. The hypervisor takes the vCPU
away for a while (steal time), which only wall time sees; so the operations
are timed with process_time(), which for this single-threaded program is its
wall time less those gaps. And the host's speed drifts, by up to 1.6x over
tens of seconds to minutes, which CPU time sees too; so a fixed numpy
kernel, reference_cpu(), is timed before the first operation and after every
one, and time_s is the mean CPU time of an operation scaled by REF_SECONDS
over the mean reference time of the run. setup_s pairs each probe's set-up
with one reference_cpu() in the same child process and scales the same way.
The report prints the raw wall, CPU and reference times, with their median
and quartiles, beside the scaled ones. Traced times are the fastest over the
traced operations, in wall seconds, unscaled.

Everything runs in this one process on one thread, except the set-up probes:
SETUP_REPS short child processes, run one after another before any timing,
each timing a fresh `import nsac1d` plus the workload's set-up. The package is
imported from src/ of the checkout this file sits in, never from elsewhere;
outputs go to .bench_run/ in that checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter, process_time

from tracer import Tracer
from workloads import WORKLOADS, FlagshipRun

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_run"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 11
MIN_OPS = 3          # untraced operations per run, whatever --seconds says
MIN_PAIRS = 2        # untraced and traced pairs, so that counts are compared
SWEEP_N = (256, 512, 1024)
REF_CELLS = 1028     # a flagship array: N = 1024 plus ghost cells
# ~0.3 s per reference timing: with 0.1 s its mean over a flagship run tracked
# the host speed too loosely and added as much spread as it removed
REF_LOOPS = 15000
REF_SECONDS = 0.3    # time_s is CPU time on a host where reference_cpu() takes this

END_TO_END = (("time_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("accuracy_err", "1"))
# end-to-end metrics computed from the samples of another name
SAMPLED_AS = {"time_s": "cpu_s", "setup_s": "setup_cpu_s"}

# per-layer metrics read off the spans: span -> fields. calls and bytes are
# counts; self_s is time in the span less its traced children; s is the whole
# span; us_per_call is the mean whole-span time per call.
SPAN_METRICS = (
    ("operators.semi_discrete_rhs", ("calls", "self_s", "us_per_call")),
    ("operators.chemical_potential", ("calls", "self_s")),
    ("operators.check_positive", ("calls", "self_s")),
    ("integrator.step", ("self_s",)),
    ("integrator.step_limits", ("calls", "self_s")),
    ("integrator.run", ("self_s",)),
    ("core.copy", ("calls", "bytes")),
    ("diagnostics.record", ("calls", "self_s")),
    ("diagnostics.dissipation_rate", ("calls", "self_s")),
    ("diagnostics.cell_average_brackets", ("calls", "self_s")),
    ("diagnostics.lyapunov_energy", ("calls", "self_s")),
    ("diagnostics.total_energy", ("calls", "self_s")),
    ("diagnostics.lemma24_residual", ("calls", "self_s")),
    ("diagnostics.make_context", ("s",)),
    ("cli_io.write_snapshot", ("calls", "self_s", "bytes")),
    ("cli_io.write_diagnostics", ("calls", "self_s", "bytes")),
    ("cli_io.read_diagnostics", ("self_s",)),
    ("cli_io.audit_records", ("self_s",)),
    ("cli_io.parse_config", ("s",)),
    ("mms.sources", ("calls", "self_s")),
    ("mms.convergence_study", ("s",)),
)
FIELD_UNITS = {"calls": "count", "self_s": "s", "s": "s", "us_per_call": "us",
               "bytes": "B"}
LIMITS = ("diffusion", "acoustic", "reaction", "cap")
# step-level metrics: name -> (unit, spans whose hooks feed it)
STEP_METRICS = {
    "integrator.steps": ("count", ()),
    "integrator.rhs_evals": ("count", ()),
    "integrator.rhs_per_step": ("count/step", ()),
    "integrator.us_per_step": ("us", ()),
    "integrator.cell_updates_per_s": ("1/s", ("integrator.step",)),
    "integrator.dt_min": ("t_model", ("integrator.step_limits", "integrator.step")),
    "integrator.dt_max": ("t_model", ("integrator.step_limits", "integrator.step")),
    **{f"integrator.limit.{kind}": ("count", ("integrator.step_limits",
                                              "integrator.step"))
       for kind in LIMITS},
}
RUN_METRICS = (("trace.overhead_s", "s"), ("integrator.steps_exponent", "1"),
               ("integrator.wall_exponent", "1"))


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{span}.{field}": FIELD_UNITS[field]
             for span, fields in SPAN_METRICS for field in fields}
    units.update((name, unit) for name, (unit, _) in STEP_METRICS.items())
    units.update(RUN_METRICS)
    return units


def import_nsac1d():
    """Import the package from this checkout's src/, or raise ImportError."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import nsac1d

    if not Path(nsac1d.__file__).resolve().is_relative_to(src):
        raise ImportError(f"nsac1d was imported from {nsac1d.__file__}, not {src}")
    return nsac1d


# -- one operation --------------------------------------------------------------

def run_op(workload, ns, inputs, tracer=None):
    """Time one operation and check it; returns (cpu s, wall s, accuracy)."""
    workload.prepare()
    with tracer.active(f"bench.{workload.name}") if tracer else nullcontext():
        t0, c0 = perf_counter(), process_time()
        result = workload.operate(ns, inputs)
        cpu, wall = process_time() - c0, perf_counter() - t0
    return cpu, wall, workload.check(ns, inputs, result)


def try_op(workload, ns, inputs, tracer=None):
    """run_op, with a failure reported on stderr and returned as None."""
    try:
        return run_op(workload, ns, inputs, tracer)
    except Exception:  # any failure of an operation is counted, not fatal
        print(f"operation on {workload.name} failed:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return None


# -- host speed -----------------------------------------------------------------

def reference_cpu():
    """CPU seconds of a fixed numpy kernel shaped like the solver's own work:
    REF_LOOPS passes of pointwise and stencil arithmetic on one flagship-size
    array, after a short untimed warm-up."""
    import numpy as np

    a = np.linspace(1.0, 2.0, REF_CELLS)
    b = a[::-1].copy()
    for loops in (REF_LOOPS // 20, REF_LOOPS):
        c0 = process_time()
        for _ in range(loops):
            c = np.sqrt(a * b + 1.0)
            d = c[2:] - 2.0 * c[1:-1] + c[:-2]
            float(np.max(np.abs(d)))
        cpu = process_time() - c0
    return cpu


def at_reference_speed(cpus, refs):
    """Mean CPU seconds of `cpus`, scaled to the host speed at which
    reference_cpu() takes REF_SECONDS, given the `refs` timed among them."""
    return statistics.fmean(cpus) * REF_SECONDS / statistics.fmean(refs)


# -- set-up -------------------------------------------------------------------

def probe_setup(name, seed):
    """Child process: time a fresh import plus the workload's set-up."""
    c0 = process_time()
    ns = import_nsac1d()
    WORKLOADS[name](seed, WORK / name).build(ns)
    cpu = process_time() - c0
    print(repr(cpu), repr(reference_cpu()))


def setup_samples(name, seed):
    samples = []
    for _ in range(SETUP_REPS):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        cpu, ref = done.stdout.strip().splitlines()[-1].split()
        samples.append((float(cpu), float(ref)))
    return samples


# -- untraced run ---------------------------------------------------------------

def measure(workload, ns, seconds, setup):
    inputs = workload.build(ns)
    cpus, walls, accuracies, attempted = [], [], [], 0
    refs = [reference_cpu()]
    deadline = perf_counter() + seconds
    while attempted < MIN_OPS or perf_counter() < deadline:
        attempted += 1
        outcome = try_op(workload, ns, inputs)
        refs.append(reference_cpu())
        if outcome is not None:
            cpus.append(outcome[0])
            walls.append(outcome[1])
            accuracies.append(outcome[2])
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_cpus, setup_refs = zip(*setup)
    samples = {"cpu_s": cpus, "wall_s": walls, "reference_cpu_s": refs,
               "setup_cpu_s": setup_cpus, "setup_reference_cpu_s": setup_refs,
               "peak_rss_mb": [peak_mb], "accuracy_err": accuracies}
    metrics = {"time_s": at_reference_speed(cpus, refs) if cpus else None,
               "setup_s": at_reference_speed(setup_cpus, setup_refs),
               "peak_rss_mb": peak_mb,
               "accuracy_err": max(accuracies, default=None)}
    return attempted, attempted - len(cpus), metrics, samples, {}


# -- traced run ------------------------------------------------------------------

def layer_values(tracer):
    """Per-layer metric values of one traced operation, and null reasons."""
    stats = tracer.summary()
    values, reasons = {}, {}

    def put(name, spans, hooked, value):
        reason = next((tracer.missing[span] for span in spans
                       if span in tracer.missing), None)
        reason = reason or next((f"counters of {span} failed: {tracer.hook_errors[span]}"
                                 for span in hooked if span in tracer.hook_errors), None)
        values[name] = None if reason else value
        if reason:
            reasons[name] = reason

    for span, fields in SPAN_METRICS:
        calls, whole, own = stats.get(span, (0, 0.0, 0.0))
        computed = {"calls": calls, "self_s": own, "s": whole,
                    "us_per_call": 1e6 * whole / calls if calls else 0.0,
                    "bytes": tracer.counters[span.split(".")[1] + ".bytes"]}
        for field in fields:
            hooked = (span,) if field == "bytes" else ()
            put(f"{span}.{field}", (span,), hooked, computed[field])

    step, limits, rhs = ("integrator.step", "integrator.step_limits",
                         "operators.semi_discrete_rhs")
    steps, step_s = stats.get(step, (0, 0.0, 0.0))[:2]
    rhs_evals = stats.get(rhs, (0,))[0]
    dts = tracer.dt_allowed
    derived = {
        "integrator.steps": ((step,), steps),
        "integrator.rhs_evals": ((rhs,), rhs_evals),
        "integrator.rhs_per_step": ((step, rhs), rhs_evals / steps if steps else 0.0),
        "integrator.us_per_step": ((step,), 1e6 * step_s / steps if steps else 0.0),
        "integrator.cell_updates_per_s": (
            (step,), tracer.counters["cell_updates"] / step_s if steps else 0.0),
        "integrator.dt_min": ((step, limits), min(dts, default=0.0)),
        "integrator.dt_max": ((step, limits), max(dts, default=0.0)),
        **{f"integrator.limit.{kind}": ((step, limits), tracer.counters[f"limit.{kind}"])
           for kind in LIMITS},
    }
    for name, (spans, value) in derived.items():
        put(name, spans, STEP_METRICS[name][1], value)
    return values, reasons


def scaling_sweep(ns, seed):
    """Untraced flagship runs at each N in SWEEP_N: rows and fitted exponents."""
    rows = []
    for n in SWEEP_N:
        workload = FlagshipRun(seed, None, n_cells=n)
        inputs = workload.build(ns)
        t0 = perf_counter()
        result = workload.operate(ns, inputs)
        rows.append((n, result.control.step_count, perf_counter() - t0))
    log_n = [math.log(n) for n, _, _ in rows]
    steps_fit = statistics.linear_regression(log_n, [math.log(s) for _, s, _ in rows])
    wall_fit = statistics.linear_regression(log_n, [math.log(w) for _, _, w in rows])
    return rows, steps_fit.slope, wall_fit.slope


def trace(workload, ns, seconds, spans_path):
    inputs = workload.build(ns)
    reasons = {}
    try:
        sweep, steps_exp, wall_exp = scaling_sweep(ns, workload.seed)
    except Exception as exc:  # a changed run() API leaves the sweep null
        sweep, steps_exp, wall_exp = [], None, None
        for name in ("integrator.steps_exponent", "integrator.wall_exponent"):
            reasons[name] = f"scaling sweep failed: {type(exc).__name__}: {exc}"

    untraced, traced, per_op = [], [], []
    attempted = failed = 0
    deadline = perf_counter() + seconds
    while attempted < 2 * MIN_PAIRS or perf_counter() < deadline:
        attempted += 2
        plain = try_op(workload, ns, inputs)
        tracer = Tracer()
        outcome = try_op(workload, ns, inputs, tracer)
        if plain is None or outcome is None:
            failed += (plain is None) + (outcome is None)
            continue
        untraced.append(plain[1])
        traced.append(outcome[1])
        values, op_reasons = layer_values(tracer)
        if per_op and counts_of(values) != counts_of(per_op[0]):
            failed += 1
            print("counts differ between traced runs of one seed:\n"
                  f"{counts_of(per_op[0])}\n{counts_of(values)}", file=sys.stderr)
        if not per_op:
            tracer.write_spans(spans_path)
        per_op.append(values)
        reasons.update(op_reasons)

    # counts repeat exactly (checked above), so they come from the first
    # operation; times are the fastest over the traced operations
    metrics = {}
    if per_op:
        counts = counts_of(per_op[0])
        metrics = {name: counts[name] if name in counts
                   else min((op[name] for op in per_op if op[name] is not None),
                            default=None)
                   for name in per_op[0]}
    metrics["trace.overhead_s"] = min(traced) - min(untraced) if traced else None
    metrics["integrator.steps_exponent"] = steps_exp
    metrics["integrator.wall_exponent"] = wall_exp
    for name in reasons:
        metrics[name] = None
    samples = {"untraced_wall_s": untraced, "traced_wall_s": traced,
               "sweep": [{"N": n, "steps": s, "wall_s": w} for n, s, w in sweep]}
    return attempted, failed, metrics, samples, reasons


def counts_of(values):
    """The deterministic per-layer values: counts, bytes and step sizes."""
    units = per_layer_units()
    return {name: value for name, value in values.items()
            if units[name] in ("count", "B", "t_model")}


# -- report -----------------------------------------------------------------------

def environment():
    import numpy

    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "nproc": os.cpu_count(), "cpu": cpu_model(), "commit": git_commit()}
    env.update((var, os.environ.get(var)) for var in THREAD_VARS)
    return env


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def distribution(values):
    if len(values) < 2:
        return ""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (f"  min {min(values):.6g}  q1 {q1:.6g}  median {median:.6g}"
            f"  q3 {q3:.6g}  max {max(values):.6g}")


def report(args, workload, env, attempted, failed, metrics, units, samples, reasons):
    print(f"nsac1d benchmark: workload {workload.name}, seed {args.seed}, "
          f"trace {args.trace}, {args.seconds:g} s")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"  {'error_rate':<44} {failed / attempted:<14.7g} "
          f"failed/attempted  n={attempted}")
    for name in ("wall_s", "cpu_s", "reference_cpu_s", "setup_cpu_s",
                 "setup_reference_cpu_s"):
        values = samples.get(name)
        if values:
            print(f"  {name + ' (report only)':<44} {statistics.median(values):<14.7g} "
                  f"s  n={len(values)}{distribution(values)}")
    for name, unit in units.items():
        label = name
        if name == "accuracy_err":
            label = f"{workload.accuracy_name} (as accuracy_err)"
        value = metrics.get(name)
        if value is None:
            print(f"  {label:<44} null  ({reasons.get(name, 'no successful operation')})")
            continue
        values = samples.get(name, [])
        n = len(samples.get(SAMPLED_AS.get(name), values))
        count = f"  n={n}" if n else ""
        print(f"  {label:<44} {value:<14.7g} {unit}{count}{distribution(values)}")
    for row in samples.get("sweep", ()):
        print(f"  sweep N={row['N']:<5} steps={row['steps']:<6} wall_s={row['wall_s']:.4f}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"

    if args.setup_probe:
        probe_setup(args.workload, args.seed)
        return 0
    try:
        ns = import_nsac1d()
    except ImportError as exc:
        print(f"cannot import nsac1d from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    workdir = WORK / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    if args.trace:
        spans_path = workdir / f"spans-seed{args.seed}.csv"
        attempted, failed, metrics, samples, reasons = trace(
            workload, ns, args.seconds, spans_path)
        units = per_layer_units()
    else:
        setup = setup_samples(args.workload, args.seed)
        attempted, failed, metrics, samples, reasons = measure(
            workload, ns, args.seconds, setup)
        units = dict(END_TO_END)

    env = environment()
    report(args, workload, env, attempted, failed, metrics, units, samples, reasons)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics.get(name), "unit": unit}
                          for name, unit in units.items()}}
    (workdir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "environment": env, "samples": samples,
                    "null_reasons": reasons}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
