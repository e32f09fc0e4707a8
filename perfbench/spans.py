"""Spans around the program's public functions, recorded from outside the package.

`Tracer.install` replaces each traced function object in every loaded `bangbang` module that
binds it (so `runner.tabulate_kernel` and `control.evolve` are traced too) and
records one span per call: name, start, end and the span that was open when it
began. Spans live in flat arrays and are reduced to per-layer metrics only in
`per_layer`, where self time is a span's duration minus its children's.

A function that no longer exists is noted as missing, and the metrics that
depend on it are reported as null instead of failing the run.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

import numpy as np

# span name -> (module, attribute); "Class.method" names a method
TRACED = {
    "cli.main": ("bangbang.cli", "main"),
    "runner.load_config": ("bangbang.runner", "load_config"),
    "runner.run_scenario": ("bangbang.runner", "run_scenario"),
    "runner.export_csv": ("bangbang.runner", "export_csv"),
    "kernels.tabulate_kernel": ("bangbang.kernels", "tabulate_kernel"),
    "kernels.adiabatic_integrand": ("bangbang.kernels", "adiabatic_integrand"),
    "kernels.thermal_integrand": ("bangbang.kernels", "thermal_integrand"),
    "control.run": ("bangbang.control", "run"),
    "control.solve_pulse": ("bangbang.control", "solve_pulse"),
    "evolution.evolve": ("bangbang.evolution", "evolve"),
    "noise.perturb": ("bangbang.noise", "PulseNoise.perturb"),
}

# span -> (counter, function of (args, result) giving the increment)
COUNTERS = {
    "kernels.tabulate_kernel": ("kernels.points", lambda args, out: len(out)),
    "kernels.adiabatic_integrand":
        ("kernels.integrand_nodes", lambda args, out: int(np.size(args[0]))),
    "kernels.thermal_integrand":
        ("kernels.integrand_nodes", lambda args, out: int(np.size(args[0]))),
    "control.solve_pulse": ("control.live_solves", lambda args, out: int(not out.degenerate)),
    "runner.export_csv": ("runner.csv_bytes", lambda args, out: os.path.getsize(args[1])),
}

# per-layer metric -> (unit, spans it needs)
PER_LAYER = {
    "kernels.table_s": ("s", ("kernels.tabulate_kernel",)),
    "kernels.points": ("count", ("kernels.tabulate_kernel",)),
    "kernels.integrand_nodes": ("count", ("kernels.adiabatic_integrand",
                                          "kernels.thermal_integrand")),
    "evolution.evolve_s": ("s", ("evolution.evolve",)),
    "evolution.evolve_calls": ("count", ("evolution.evolve",)),
    "control.solve_s": ("s", ("control.solve_pulse",)),
    "control.solves": ("count", ("control.solve_pulse",)),
    "control.live_solves": ("count", ("control.solve_pulse",)),
    "control.evals_per_solve": ("count", ("control.solve_pulse", "evolution.evolve")),
    "control.bookkeeping_s": ("s", ("control.run", "control.solve_pulse")),
    "noise.perturb_s": ("s", ("noise.perturb",)),
    "noise.draws": ("count", ("noise.perturb",)),
    "runner.config_s": ("s", ("runner.load_config",)),
    "runner.assembly_s": ("s", ("runner.run_scenario",)),
    "runner.csv_s": ("s", ("runner.export_csv",)),
    "runner.csv_bytes": ("count", ("runner.export_csv",)),
    "cli.self_s": ("s", ("cli.main",)),
    "trace.spans": ("count", ()),
    "trace.overhead_s": ("s", ()),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("b")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self.active = False
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _wrapper(self, span: str, fn, count=None):
        nid = len(self.names)
        self.names.append(span)
        stack, clock = self._stack, time.perf_counter
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[i] = t0
                end[i] = t1
            if count is not None:
                key, inc = count
                self.counts[key] = self.counts.get(key, 0) + inc(args, out)
            return out

        return traced

    def install(self) -> None:
        for span, (module, attr) in TRACED.items():
            mod = sys.modules.get(module)
            owner, _, name = attr.rpartition(".")
            holder = getattr(mod, owner, None) if owner else mod
            fn = getattr(holder, name, None) if holder is not None else None
            if fn is None:
                self.missing.append(span)
                continue
            wrapped = self._wrapper(span, fn, COUNTERS.get(span))
            if owner:
                self._replace(holder, name, fn, wrapped)
                continue
            for modname, other in list(sys.modules.items()):
                if modname.split(".")[0] != "bangbang" or other is None:
                    continue
                for key, value in list(vars(other).items()):
                    if value is fn:
                        self._replace(other, key, fn, wrapped)

    def _replace(self, owner, key, original, wrapped) -> None:
        setattr(owner, key, wrapped)
        self._restore.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- reduction -------------------------------------------------------

    def per_layer(self) -> dict[str, float | None]:
        name_of = np.frombuffer(self.name_of, dtype=np.int8).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child
        ids = {name: i for i, name in enumerate(self.names)}

        def mask(span):
            return name_of == ids[span] if span in ids else np.zeros(dur.size, bool)

        def total(span, values=dur):
            return float(values[mask(span)].sum())

        def calls(span):
            return int(mask(span).sum())

        solves = calls("control.solve_pulse")
        solve_ids = np.flatnonzero(mask("control.solve_pulse"))
        evolve_parent = parent[mask("evolution.evolve")]
        in_solve = int(np.isin(evolve_parent, solve_ids).sum())
        solve_in_run = mask("control.solve_pulse") & np.isin(
            parent, np.flatnonzero(mask("control.run")))
        counts = self.counts
        values = {
            "kernels.table_s": total("kernels.tabulate_kernel"),
            "kernels.points": counts.get("kernels.points", 0),
            "kernels.integrand_nodes": counts.get("kernels.integrand_nodes", 0),
            "evolution.evolve_s": total("evolution.evolve", self_time),
            "evolution.evolve_calls": calls("evolution.evolve"),
            "control.solve_s": total("control.solve_pulse"),
            "control.solves": solves,
            "control.live_solves": counts.get("control.live_solves", 0),
            "control.evals_per_solve": in_solve / solves if solves else 0.0,
            "control.bookkeeping_s": total("control.run") - float(dur[solve_in_run].sum()),
            "noise.perturb_s": total("noise.perturb"),
            "noise.draws": calls("noise.perturb"),
            "runner.config_s": total("runner.load_config"),
            "runner.assembly_s": total("runner.run_scenario", self_time),
            "runner.csv_s": total("runner.export_csv"),
            "runner.csv_bytes": counts.get("runner.csv_bytes", 0),
            "cli.self_s": total("cli.main", self_time),
            "trace.spans": int(dur.size),
            "trace.overhead_s": dur.size * wrapper_cost(),
        }
        for metric, (_, needs) in PER_LAYER.items():
            if any(span in self.missing for span in needs):
                values[metric] = None
        return values


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds over a direct call, measured on a no-op."""

    def noop(x):
        return x

    tracer = Tracer()
    traced = tracer._wrapper("noop", noop)
    tracer.active = True
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for i in range(calls):
            noop(i)
        t1 = time.perf_counter()
        for i in range(calls):
            traced(i)
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)
