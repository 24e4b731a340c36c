"""Outside-in call tracer for the nsac1d benchmark.

The package is not touched. A traced function is wrapped in every nsac1d
namespace where callers look its name up: the module that defines it and each
module that imported it. A traced method is wrapped on its class. Each call
records a span: its name, start, end and parent span. Spans stay in memory and
are summarised or written out when the run ends.

A traced name that the package no longer defines is skipped; `missing` gives
the reason, and the metrics that need it are reported as null.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# "module.name" or "module.Class.method"; the span is named "module.name"
TRACED = (
    "operators.semi_discrete_rhs",
    "operators.chemical_potential",
    "operators.check_positive",
    "integrator.run",
    "integrator.step",
    "integrator.step_limits",
    "core.FlowState.copy",
    "diagnostics.make_context",
    "diagnostics.record",
    "diagnostics.dissipation_rate",
    "diagnostics.cell_average_brackets",
    "diagnostics.lyapunov_energy",
    "diagnostics.total_energy",
    "diagnostics.lemma24_residual",
    "cli_io.parse_config",
    "cli_io.write_snapshot",
    "cli_io.write_diagnostics",
    "cli_io.read_diagnostics",
    "cli_io.audit_records",
    "mms.ManufacturedCase.sources",
    "mms.convergence_study",
)

# the order of the tuple integrator.step_limits returns
LIMIT_KINDS = ("diffusion", "acoustic", "reaction")
FIELDS_PER_STATE = 5  # v, u, theta, phi, G
BYTES_PER_VALUE = 8


def span_name(target):
    module, _, attr = target.partition(".")
    return f"{module}.{attr.rpartition('.')[2]}"


class Tracer:
    """Spans and counters of the calls made while `active()` is entered."""

    def __init__(self):
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self._stack = [-1]
        self.counters = Counter()
        self.dt_allowed = []
        self.missing = {}       # span name -> why it is not traced
        self.hook_errors = {}   # span name -> why its counters are unknown
        self._patches = []
        self._dt_cap = None
        self._last_limits = None
        self._after = {"integrator.step_limits": self._after_step_limits,
                       "integrator.step": self._after_step,
                       "core.copy": self._after_copy,
                       "cli_io.write_snapshot":
                           self._bytes_written("write_snapshot.bytes", 2),
                       "cli_io.write_diagnostics":
                           self._bytes_written("write_diagnostics.bytes", 1)}
        self._before = {"integrator.run": self._before_run}

    # -- installing -------------------------------------------------------

    @contextmanager
    def active(self, root):
        """Trace the calls made inside the block, under one root span."""
        self._install()
        try:
            with self.span(root):
                yield self
        finally:
            self._uninstall()

    def _install(self):
        package = [m for n, m in list(sys.modules.items())
                   if n == "nsac1d" or n.startswith("nsac1d.")]
        for target in TRACED:
            name = span_name(target)
            module, _, attr = target.partition(".")
            owner_name, _, attr = attr.rpartition(".")
            owner = sys.modules.get(f"nsac1d.{module}")
            if owner is not None and owner_name:
                owner = getattr(owner, owner_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.missing[name] = f"nsac1d.{target} is not defined"
                continue
            wrapper = self._wrap(name, original)
            if owner_name:
                self._patch(owner, attr, original, wrapper)
            else:
                for namespace in package:
                    if vars(namespace).get(attr) is original:
                        self._patch(namespace, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack = self._stack
        before = self._before.get(name)
        after = self._after.get(name)

        # the bookkeeping of span() inlined: this runs ~100k times per operation
        def traced(*args, **kwargs):
            if before is not None:
                self._hook(name, before, args, kwargs, None)
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                self._hook(name, after, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name):
        """A span recorded from the benchmark's own code."""
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        try:
            yield
        finally:
            self.ends[idx] = perf_counter()
            self._stack.pop()

    # -- counters read from call arguments ---------------------------------

    def _hook(self, name, hook, args, kwargs, result):
        try:
            hook(args, kwargs, result)
        except Exception as exc:  # a changed signature must not stop the run
            self.hook_errors.setdefault(name, f"{type(exc).__name__}: {exc}")

    def _before_run(self, args, kwargs, result):
        self._dt_cap = kwargs.get("dt_cap")

    def _after_step_limits(self, args, kwargs, result):
        self._last_limits = tuple(result)

    def _after_step(self, args, kwargs, result):
        state, params = args[0], args[1]
        limits = self._last_limits
        kind = LIMIT_KINDS[limits.index(min(limits))]
        allowed = params.cfl * min(limits)
        if self._dt_cap is not None and self._dt_cap < allowed:
            kind, allowed = "cap", self._dt_cap
        self.counters[f"limit.{kind}"] += 1
        self.counters["cell_updates"] += state.grid.n_cells
        self.dt_allowed.append(allowed)

    def _after_copy(self, args, kwargs, result):
        self.counters["copy.bytes"] += (FIELDS_PER_STATE * args[0].grid.n_total
                                        * BYTES_PER_VALUE)

    def _bytes_written(self, counter, path_arg):
        def hook(args, kwargs, result):
            self.counters[counter] += os.path.getsize(args[path_arg])
        return hook

    # -- results ------------------------------------------------------------

    def summary(self):
        """{span name: (calls, inclusive seconds, self seconds)}.

        Self time is a span's duration minus the durations of its direct
        children, which nest inside it because the run is single-threaded.
        """
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            parent = self.parents[i]
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        stats = {}
        for i in range(n):
            duration = self.ends[i] - self.starts[i]
            calls, incl, own = stats.get(self.names[i], (0, 0.0, 0.0))
            stats[self.names[i]] = (calls + 1, incl + duration,
                                    own + duration - child[i])
        return stats

    def write_spans(self, path):
        """All spans as CSV rows index,name,parent,start_s,end_s (relative)."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            fh.write("index,name,parent,start_s,end_s\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.parents[i]},"
                         f"{self.starts[i] - t0!r},{self.ends[i] - t0!r}\n")
