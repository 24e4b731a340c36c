"""Tests of the benchmark itself: run with `python3 -m pytest bench`.

Each workload is traced twice at seed 0. The call counts must follow the
identities of the current Heun scheme and repeat exactly between the runs.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run_bench
from tracer import Tracer
from workloads import FLAGSHIP, WORKLOADS, flagship_data

ns = run_bench.import_nsac1d()


def traced_run(name, workdir):
    workload = WORKLOADS[name](0, workdir)
    inputs = workload.build(ns)
    tracer = Tracer()
    run_bench.run_op(workload, ns, inputs, tracer)
    values, reasons = run_bench.layer_values(tracer)
    assert reasons == {}
    calls = {span: stats[0] for span, stats in tracer.summary().items()}
    return values, calls


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced_twice(request, tmp_path_factory):
    workdir = tmp_path_factory.mktemp(request.param)
    return request.param, traced_run(request.param, workdir), traced_run(request.param, workdir)


def test_call_counts_follow_the_heun_identities(traced_twice):
    name, (values, calls), _ = traced_twice
    steps = values["integrator.steps"]
    assert steps > 0
    assert values["integrator.rhs_evals"] == 2 * steps
    # run() asks for the limits before every step and once after the loop
    assert values["integrator.step_limits.calls"] == steps + calls["integrator.run"]
    assert values["operators.check_positive.calls"] == 3 * steps
    # make_context keeps a copy of the initial state
    assert values["core.copy.calls"] == (2 * steps
                                         + calls.get("diagnostics.make_context", 0))
    assert sum(values[f"integrator.limit.{kind}"] for kind in run_bench.LIMITS) == steps
    if name == "flagship-1024":
        assert calls["integrator.run"] == 1
        assert values["integrator.limit.diffusion"] == steps
    if name == "cli-diag-512":
        assert values["diagnostics.record.calls"] == steps + 1
        assert values["cli_io.write_snapshot.calls"] == 11
        assert values["cli_io.write_diagnostics.calls"] == 1
    if name == "mms-ladder":
        assert values["mms.sources.calls"] == 2 * steps
        assert values["integrator.limit.cap"] == steps


def test_counts_repeat_exactly(traced_twice):
    _, (first, first_calls), (second, second_calls) = traced_twice
    assert run_bench.counts_of(first) == run_bench.counts_of(second)
    assert first_calls == second_calls


def test_missing_name_gives_null_with_reason(monkeypatch):
    monkeypatch.delattr(ns.operators, "check_positive")
    tracer = Tracer()
    with tracer.active("empty"):
        pass
    values, reasons = run_bench.layer_values(tracer)
    assert values["operators.check_positive.calls"] is None
    assert "check_positive" in reasons["operators.check_positive.calls"]
    assert values["operators.semi_discrete_rhs.calls"] == 0


def test_seed_zero_is_the_flagship_data():
    assert flagship_data(0) == FLAGSHIP
    assert flagship_data(5) == flagship_data(5)
    assert flagship_data(5) != flagship_data(6)


def test_benchmark_json_matches_what_the_benchmark_prints():
    spec = json.loads((run_bench.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert ([(m["name"], m["unit"]) for m in spec["end_to_end"]]
            == list(run_bench.END_TO_END))
    assert ([(m["name"], m["unit"]) for m in spec["per_layer"]]
            == list(run_bench.per_layer_units().items()))


def test_fails_without_the_package(tmp_path):
    shutil.copy(run_bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run_bench.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", "mms-ladder",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
