#!/usr/bin/env python3
"""Benchmark of bangbang's three uses: the paper's figures, the noise ensemble
and live restoring control.

    python3 perfbench/run.py --workload figures_cold --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports the package from `src/` and
writes its CSVs under `.perfbench/`. One process, one thread. Times are in
reference seconds, wall time corrected for the shared host's speed as
`hostspeed.py` samples it. The last line of standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics` (the end-to-end metrics with `--trace 0`, the per-layer metrics
with `--trace 1`). See README.md in this directory for the workloads, the
metrics and the checks.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

T_START = time.perf_counter()
ROOT = Path.cwd()
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 3        # set-up is repeated and its median reported
IMPORT_SAMPLES = 9       # cold imports, spread over the run: the machine's speed drifts
MIN_RUNS = 200           # latency samples per timed phase, so that p95 has ten beyond it
TRACED_RUNS = 200        # a traced run does a fixed amount of work, so its counts repeat
TIME_CAP_S = 120.0       # no new round starts after this, so a slow program still ends

SQ2 = 1.0 / math.sqrt(2.0)
FIG_C1, FIG_C2 = complex(0.0, SQ2), complex(SQ2, 0.0)
# the paper's figure scenarios as the benchmark states them: regime, T, delta_I
FIGURES = {
    "fig1a": ("adiabatic", 0.5, 0.0), "fig1b": ("adiabatic", 0.5, 0.1),
    "fig1c": ("adiabatic", 2.0, 0.0), "fig1d": ("adiabatic", 2.0, 0.1),
    "fig2a": ("thermal", 0.25, 0.0), "fig2b": ("thermal", 0.25, 0.1),
    "fig2c": ("thermal", 1.0, 0.0), "fig2d": ("thermal", 1.0, 0.1),
}
NOISE_PRESETS = ("fig1b", "fig2b")
NOISE_SEEDS_PER_ROUND = 8
LIVE_PER_REGIME = 4
LIVE_T = (0.75, 0.9)          # tilted state c1 = i sqrt(t), c2 = sqrt(1 - t)
LIVE_STEP_T = (1e-5, 1e-4)


def import_program():
    """Import the package from this checkout's `src/`, never from elsewhere."""
    src = ROOT / "src"
    for need in (src / "bangbang" / "__init__.py", ROOT / "tests" / "oracles.py"):
        if not need.is_file():
            raise SystemExit(f"error: {need} not found; run from the root of a bangbang checkout")
    sys.path[:0] = [str(src), str(ROOT / "tests")]
    import bangbang.cli
    import bangbang.kernels
    import bangbang.runner
    import oracles
    return bangbang, oracles


bangbang, oracles = import_program()
import checks  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
from hostspeed import HostSpeed, Lap  # noqa: E402
from checks import MODEL, STEPS, Spec  # noqa: E402

cli, kernels, runner = bangbang.cli, bangbang.kernels, bangbang.runner


class OpFailed(RuntimeError):
    """An aborted run or a non-zero CLI exit."""


@dataclass
class Op:
    """One scenario run: what the benchmark expects, and the call that makes it."""

    spec: Spec
    path: Path
    call: Callable[[Path], object]     # runs the scenario, writing its CSV to the path
    pulses: list | None = None
    error: str | None = None
    lap: Lap | None = None
    problems: list[str] = field(default_factory=list)

    def execute(self, speed: HostSpeed) -> None:
        started = speed.lap_start()
        try:
            self.pulses = self.call(self.path)
        except OpFailed as exc:
            self.error = str(exc)
        except Exception as exc:   # the program's own fault: count it, keep measuring
            self.error = f"{type(exc).__name__}: {exc}"
        self.lap = speed.lap_end(started)


def figure_spec(preset: str, seed: int = 12345) -> Spec:
    regime, step_T, delta_I = FIGURES[preset]
    return Spec(regime, step_T, FIG_C1, FIG_C2, delta_I=delta_I, seed=seed)


def cli_op(preset: str, path: Path) -> Op:
    def call(path):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", "--preset", preset, "--out", str(path)])
        if code != 0:
            raise OpFailed(f"bangbang run --preset {preset} exited with {code}")

    return Op(figure_spec(preset), path, call)


def scenario_op(spec: Spec, path: Path, overrides: dict) -> Op:
    def call(path):
        result = runner.run_scenario(runner.load_config(**overrides))
        runner.export_csv(result.trajectory, str(path))
        if not result.run.completed:
            raise OpFailed(result.run.error)
        return result.run.pulses

    return Op(spec, path, call)


def cold_import(speed: HostSpeed) -> Lap:
    """`import bangbang.cli` in a fresh interpreter, the start-up every CLI call pays;
    the child is waited for."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    started = speed.lap_start()
    subprocess.run([sys.executable, "-c", "import bangbang.cli"], cwd=ROOT, env=env,
                   check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return speed.lap_end(started)


def clear_kernel_caches() -> None:
    """Empty every functools cache in the package, so kernel tables start cold."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "bangbang" and module is not None:
            for obj in list(vars(module).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def model_params(spec: Spec):
    return kernels.ModelParams(regime=kernels.Regime(spec.regime), **MODEL)


class Workload:
    """Set-up, rounds of runs, and the grid-level kernel checks shared by all workloads."""

    min_runs = MIN_RUNS
    traced_rounds = 1
    latency_per_round = False   # True: a latency sample is a whole round, not one run

    def __init__(self, seed: int):
        self.seed = seed
        self.done: list[Op] = []
        self.peak_rss_mb = 0.0
        self._g_ref: dict = {}
        self._kernel_problems: dict = {}

    def rng(self, *stream: int) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64([self.seed, *stream]))

    def setup(self, speed: HostSpeed) -> list[Op]:
        """One preparation, run SETUP_REPEATS times; returns the runs it made."""
        return []

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def oracle_points(self, ops: list[Op]) -> list[tuple[Spec, list[int]]]:
        """Thermal grids and step indices to compare with the Simpson oracle."""
        return []

    def g_ref(self, spec: Spec):
        key = (spec.regime, spec.step_T)
        if key not in self._g_ref:
            self._g_ref[key] = reference.g_reference(spec.regime, spec.taus(), **MODEL)
        return self._g_ref[key]

    def kernel_problems(self, spec: Spec) -> list[str]:
        key = (spec.regime, spec.step_T)
        if key not in self._kernel_problems:
            program = kernels.tabulate_kernel(spec.taus(), model_params(spec))
            self._kernel_problems[key] = checks.check_kernel(
                f"{spec.regime} T={spec.step_T!r}", program, self.g_ref(spec))
        return self._kernel_problems[key]

    def check(self, op: Op) -> None:
        if op.error is None:
            op.problems = self.kernel_problems(op.spec) + checks.check_run(
                op.spec, str(op.path), self.g_ref(op.spec), op.pulses)


class FiguresCold(Workload):
    """All eight figure presets through the CLI, from an empty kernel cache."""

    def setup(self, speed: HostSpeed) -> list[Op]:
        for preset in FIGURES:
            runner.load_config(preset=preset)
        return []

    def round(self, r: int) -> list[Op]:
        if r > 0:
            clear_kernel_caches()
        return [cli_op(p, WORK / f"{p}.csv") for p in FIGURES]

    min_runs = len(FIGURES)
    # a reproduction of all eight figures is the user's unit of work: per preset, the
    # median would fall between a warm run and the shortest cold one
    latency_per_round = True

    def oracle_points(self, ops):
        rng = self.rng(1 << 20)
        thermal = {op.spec.step_T: op.spec for op in ops if op.spec.regime == "thermal"}
        return [(spec, sorted(set(rng.integers(1, 80, 4).tolist()) | {80}))
                for spec in thermal.values()]


class NoiseEnsemble(Workload):
    """fig1b and fig2b over many noise seeds, kernel cache filled in set-up."""

    traced_rounds = math.ceil(TRACED_RUNS / (NOISE_SEEDS_PER_ROUND * len(NOISE_PRESETS)))

    def setup(self, speed: HostSpeed) -> list[Op]:
        clear_kernel_caches()
        ops = [cli_op(preset, WORK / f"setup-{preset}.csv") for preset in NOISE_PRESETS]
        for op in ops:
            op.execute(speed)
        return ops

    def round(self, r: int) -> list[Op]:
        seeds = self.rng(r).integers(0, 2 ** 63, NOISE_SEEDS_PER_ROUND).tolist()
        ops = []
        for seed in seeds:
            for preset in NOISE_PRESETS:
                path = WORK / f"noise-{len(ops)}.csv"
                ops.append(scenario_op(figure_spec(preset, seed), path,
                                       dict(preset=preset, seed=seed)))
        return ops

    def oracle_points(self, ops):
        rng = self.rng(1 << 20)
        return [(figure_spec("fig2b"), sorted(set(rng.integers(1, 80, 4).tolist()) | {80}))]


class LiveControl(Workload):
    """Pulse-spacing sweep on the tilted state, where restoring pulses are live."""

    traced_rounds = math.ceil(TRACED_RUNS / (2 * LIVE_PER_REGIME))
    # a latency sample is one sweep of both regimes: a run's time depends on its regime,
    # so the median of single runs would fall between the two groups
    latency_per_round = True

    def setup(self, speed: HostSpeed) -> list[Op]:
        for regime, step_T, t in self.points(0):
            runner.load_config(**self.overrides(regime, step_T, t))
        return []

    def points(self, r: int) -> list[tuple[str, float, float]]:
        """Per regime, one (T, t) in each of LIVE_PER_REGIME strata of T and of t
        (a Latin square), so every round sweeps the whole range."""
        rng = self.rng(r)
        points = []
        for regime in ("adiabatic", "thermal"):
            t_strata = rng.permutation(LIVE_PER_REGIME)
            for j in range(LIVE_PER_REGIME):
                u_T = (j + rng.random()) / LIVE_PER_REGIME
                u_t = (int(t_strata[j]) + rng.random()) / LIVE_PER_REGIME
                points.append((regime, LIVE_STEP_T[0] + u_T * (LIVE_STEP_T[1] - LIVE_STEP_T[0]),
                               LIVE_T[0] + u_t * (LIVE_T[1] - LIVE_T[0])))
        return points

    @staticmethod
    def overrides(regime: str, step_T: float, t: float) -> dict:
        return dict(regime=regime, step_T=step_T, num_steps=STEPS,
                    initial=[0.0, math.sqrt(t), math.sqrt(1.0 - t), 0.0])

    def round(self, r: int) -> list[Op]:
        ops = []
        for regime, step_T, t in self.points(r):
            spec = Spec(regime, step_T, complex(0.0, math.sqrt(t)),
                        complex(math.sqrt(1.0 - t), 0.0))
            ops.append(scenario_op(spec, WORK / f"live-{len(ops)}.csv",
                                   self.overrides(regime, step_T, t)))
        return ops

    def oracle_points(self, ops):
        # the Simpson oracle loses digits to 1 - cos(x) below tau ~ 1e-4, so sample k >= 20
        first = next(op.spec for op in ops if op.spec.regime == "thermal")
        return [(first, sorted(set(self.rng(1 << 20).integers(20, 80, 2).tolist()) | {80}))]


WORKLOADS = {"figures_cold": FiguresCold, "noise_ensemble": NoiseEnsemble,
             "live_control": LiveControl}


def oracle_problems(spec: Spec, points: list[int]) -> list[str]:
    taus = spec.taus()
    program = kernels.tabulate_kernel(taus, model_params(spec))
    got = [program[k] for k in points]
    want = [oracles.g_thermal_oracle(taus[k], gamma=MODEL["gamma"], omega_c=MODEL["omega_c"],
                                     beta0=MODEL["beta0"], omega12=MODEL["omega12"])
            for k in points]
    return checks.check_kernel(f"oracle thermal T={spec.step_T!r} k={points}", got, want)


def run(workload: Workload, seconds: float, tracer: spans.Tracer | None) -> dict:
    WORK.mkdir(exist_ok=True)
    # a traced run leaves the host-speed probe off, so that no probe lands inside a span
    speed = HostSpeed(enabled=tracer is None)
    speed.start()
    try:
        result = timed_phase(workload, seconds, tracer, speed)
    finally:
        speed.stop()
    timed, rounds, setup_laps, import_laps = result

    ref = speed.ref_seconds
    run_s = [ref(op.lap) for op in timed]
    round_s = [sum(ref(op.lap) for op in ops) for ops in rounds]
    latencies = [t * 1e3 for t in (round_s if workload.latency_per_round else run_s)]
    completed = sum(1 for op in timed if op.error is None)
    wall_ms = [op.lap.wall * 1e3 for op in timed]
    host = f"; probe median {speed.probe_ms():.4g} ms" if speed.enabled else ""
    print(f"wall time: run p50 {statistics.median(wall_ms):.6g} ms, round mean "
          f"{statistics.fmean(sum(op.lap.wall for op in ops) for ops in rounds):.6g} s{host}",
          file=sys.stderr)
    done = workload.done
    failed = [op for op in done if op.error is not None or op.problems]
    for op in failed[:10]:
        print(f"failed: {op.spec.regime} T={op.spec.step_T!r} seed={op.spec.seed}: "
              f"{op.error or '; '.join(op.problems)}", file=sys.stderr)
    return {
        "correct": not any(op.problems for op in done if op.error is None),
        "attempted": len(done),
        "failed": len(failed),
        "end_to_end": {
            "setup_s": (statistics.median(ref(lap) for lap in import_laps)
                        + statistics.median(ref(lap) for lap in setup_laps), "s"),
            "round_s": (statistics.fmean(round_s), "s"),
            "runs_per_s": (completed / sum(run_s), "1/s"),
            "run_ms_p50": (statistics.median(latencies), "ms"),
            "run_ms_p95": (p95(latencies), "ms"),
            "peak_rss_mb": (workload.peak_rss_mb, "MB"),
        },
        "runs": len(timed),
        "rounds": len(rounds),
    }


def timed_phase(workload: Workload, seconds: float, tracer: spans.Tracer | None,
                speed: HostSpeed) -> tuple[list[Op], list[list[Op]], list[Lap], list[Lap]]:
    """Set-up, then whole rounds while the next one fits in `seconds` of wall time, then
    the repeat and oracle checks. Returns the timed runs, the rounds, and the set-up and
    cold-import laps; every run made, checked, ends up in `workload.done`."""
    if tracer is not None:
        tracer.install()
        tracer.active = True
    setup_laps, done = [], workload.done
    for _ in range(SETUP_REPEATS):
        started = speed.lap_start()
        done.extend(workload.setup(speed))
        setup_laps.append(speed.lap_end(started))
    if tracer is not None:
        tracer.active = False
    for op in done:
        workload.check(op)
    timed: list[Op] = []
    rounds: list[list[Op]] = []
    first_bytes = None
    import_laps, sample_every, measured = [cold_import(speed)], seconds / IMPORT_SAMPLES, 0.0
    while True:
        ops = workload.round(len(rounds))
        if tracer is not None:
            tracer.active = True
        for op in ops:
            op.execute(speed)
            crossed = (measured + op.lap.wall) // sample_every > measured // sample_every
            measured += op.lap.wall
            if crossed and len(import_laps) < IMPORT_SAMPLES:
                import_laps.append(cold_import(speed))   # between runs, off their clock
        if tracer is not None:
            tracer.active = False
        workload.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for op in ops:
            workload.check(op)
        if not rounds:
            first = ops[0]
            first_bytes = first.path.read_bytes() if first.path.exists() else None
        timed.extend(ops)
        rounds.append(ops)
        if tracer is not None:
            if len(rounds) >= workload.traced_rounds:
                break
        elif (measured + sum(op.lap.wall for op in ops) > seconds
              and len(timed) >= workload.min_runs) \
                or time.perf_counter() - T_START > TIME_CAP_S:
            break   # the next round would not fit in --seconds

    while len(import_laps) < IMPORT_SAMPLES:
        import_laps.append(cold_import(speed))

    # after the timed phase: one run repeated byte for byte, and the Simpson oracle
    repeat = Op(first.spec, WORK / "repeat.csv", first.call)
    repeat.execute(speed)
    workload.check(repeat)
    if repeat.error is None and repeat.path.read_bytes() != first_bytes:
        repeat.problems.append("repeated run gave a different CSV")
    done.extend(timed + [repeat])
    for spec, points in workload.oracle_points(timed):
        bad = oracle_problems(spec, points)
        for op in done:
            if op.spec.regime == spec.regime and op.spec.step_T == spec.step_T:
                op.problems.extend(bad)
    return timed, rounds, setup_laps, import_laps


def p95(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    tracer = spans.Tracer() if args.trace else None
    result = run(WORKLOADS[args.workload](args.seed), args.seconds, tracer)
    e2e = {name: {"value": value, "unit": unit}
           for name, (value, unit) in result["end_to_end"].items()}
    print(f"{args.workload}: {result['runs']} runs in {result['rounds']} rounds, "
          + ", ".join(f"{k} {v['value']:.6g}" for k, v in e2e.items()), file=sys.stderr)
    if tracer is None:
        metrics = e2e
    else:
        tracer.uninstall()
        values = tracer.per_layer()
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in spans.PER_LAYER.items()}
        if tracer.missing:
            print(f"traced functions not found: {', '.join(tracer.missing)}", file=sys.stderr)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
