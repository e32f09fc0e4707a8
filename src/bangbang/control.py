"""Cyclic restoration controller.

One component of the density matrix is corrected per time step, in the fixed
`Component` order, by solving a scalar equation for the pulse area applied at
that step. A component of decoherence age m responds to the pulse sum S since
its last exact restoration as A + B cos 2S + C sin 2S, with (A, B, C) fixed by
g(mT), and no age exceeds 8; so a run reads one harmonic table of ages 0..8
and keeps, per component, the pulse sums since its last restoration.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .evolution import THERMAL_CONSISTENT, _hermitized, harmonic_table
from .kernels import Regime
from .noise import NoiseConfig, PulseNoise
from .state import COMPONENT_LABELS, Component, DensityMatrix

N_COMPONENTS = 8
ROOT_TOL = 1e-12                     # on the restoration-equation residual
# |(target - A)/R| this close to 1 is a tangent root: the target is the response's
# extremum up to the last bits, which acos would magnify to about sqrt(epsilon)
_TANGENT_TOL = 4 * sys.float_info.epsilon


class NoRootInInterval(RuntimeError):
    """The restoration equation has no root in the search interval.

    Signals that exact restoration is impossible at this pulse rate; the run
    aborts rather than degrading to best-effort correction.
    """


class NotStabilized(RuntimeError):
    """No cycle after which the pulse sequence repeats with period 8."""


@dataclass(frozen=True)
class PulseSolution:
    value: float
    residual: float
    degenerate: bool = False


@dataclass(frozen=True, slots=True)
class PulseRecord:
    step: int
    component: Component
    solved_I: float
    applied_I: float
    root_residual: float
    degenerate: bool = False


class PulseLog(Sequence):
    """A run's pulse records as columns. The solved_I and root_residual values (arrays of
    doubles) and the degenerate flags (one byte each) are the solve's, shared by every
    seed of a scenario; the applied_I values are this run's own exactly sized array, so a
    caller that keeps many seeds of one scenario holds 8 bytes a record. Record i is
    rebuilt on access as step i + 1, component i mod 8."""

    __slots__ = ("_solved", "_applied", "_residual", "_degenerate")

    def __init__(self, solved, applied, residual, degenerate):
        self._solved, self._applied, self._residual = map(_doubles, (solved, applied, residual))
        self._degenerate = (degenerate if isinstance(degenerate, bytes)
                            else bytes(map(bool, degenerate)))

    def __len__(self) -> int:
        return len(self._degenerate)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._item(j) for j in range(len(self))[i]]
        return self._item(range(len(self))[i])

    def __iter__(self):
        return map(self._item, range(len(self)))

    @property
    def solved_I(self) -> memoryview:
        """The solved pulses, read-only."""
        return memoryview(self._solved).toreadonly()

    @property
    def applied_I(self) -> memoryview:
        """The applied pulses, read-only."""
        return memoryview(self._applied).toreadonly()

    def _item(self, i: int) -> PulseRecord:
        return PulseRecord(i + 1, Component(i % N_COMPONENTS), self._solved[i], self._applied[i],
                           self._residual[i], bool(self._degenerate[i]))


def _doubles(values) -> array:
    """`values` as an array of doubles: an array is kept (shared), anything else copied."""
    return values if isinstance(values, array) else array("d", values)


def solve_pulse(row, pulse_sum: float, target: float,
                root_tol: float = ROOT_TOL) -> PulseSolution:
    """Solve A + B cos 2x + C sin 2x = target, x = pulse_sum + I, for this step's pulse I.

    `row` is the component's (A, B, C) (see `harmonic_table`), so with
    R = hypot(B, C) a root exists iff |target - A| <= R, and [-pi/2, pi/2] holds
    one full period. Of the two roots the smallest-magnitude one is returned
    (ties toward negative), with the residual of the row at it; a tangent root
    (the target within a few ulps of an extremum) is the extremum itself. A response with
    2R <= root_tol cannot be influenced by the pulse at this step
    (symmetry-forced components, or coherence factors decayed below
    resolution): the zero pulse is returned and flagged degenerate. Otherwise a
    target out of reach raises NoRootInInterval.
    """
    a, b, c = row

    def residual(x: float) -> float:
        return a + b * math.cos(2.0 * x) + c * math.sin(2.0 * x) - target

    r = math.hypot(b, c)
    if 2.0 * r <= root_tol:
        return PulseSolution(value=0.0, residual=residual(pulse_sum), degenerate=True)
    if abs(target - a) > r + root_tol:
        raise NoRootInInterval(
            f"no restoring pulse: response range [{a - r:.6g}, {a + r:.6g}] does not "
            f"reach target {target:.6g}"
        )
    phi = math.atan2(c, b)
    q = (target - a) / r
    if abs(abs(q) - 1.0) <= _TANGENT_TOL:
        q = math.copysign(1.0, q)
    half = math.acos(min(1.0, max(-1.0, q)))
    roots = (math.remainder(0.5 * (phi + sign * half) - pulse_sum, math.pi) for sign in (-1.0, 1.0))
    value = min(roots, key=lambda x: (abs(x), x))
    return PulseSolution(value=value, residual=residual(pulse_sum + value))


@dataclass(frozen=True)
class RunSetup:
    """Everything the control loop needs, resolved to plain values."""

    rho0: DensityMatrix
    regime: Regime
    step_T: float
    num_steps: int
    g_table: tuple[float, ...]       # g at k*step_T for k = 0..num_steps
    root_tol: float = ROOT_TOL
    noise: NoiseConfig = NoiseConfig()
    thermal_variant: str = THERMAL_CONSISTENT
    hermitize: bool = False

    def __post_init__(self):
        for name in ("step_T", "root_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if self.num_steps < 1:
            raise ValueError(f"num_steps must be >= 1, got {self.num_steps!r}")
        if len(self.g_table) < self.num_steps + 1:
            raise ValueError(
                f"g_table must cover ages 0..{self.num_steps}, got {len(self.g_table)} entries"
            )
        if not all(map(math.isfinite, self.g_table)):
            raise ValueError("g_table entries must be finite")


@dataclass
class RunResult:
    """A run's pulses, and after each step s (row s - 1) every component's bookkept value,
    its age in steps since its last restoration, and the applied pulses summed since then."""

    setup: RunSetup
    pulses: PulseLog
    values: np.ndarray                # (steps, 8), like the two below
    ages: np.ndarray
    applied_sums: np.ndarray
    aborted_at: int | None = None
    error: str | None = None
    error_type: type[Exception] | None = None

    @property
    def completed(self) -> bool:
        return self.aborted_at is None


def run(setup: RunSetup, template=None) -> RunResult:
    """Run the full control loop; abort on the first solver failure, keeping
    the partial trajectory and the failing step.

    Step s corrects component (s - 1) mod 8 at age min(s, 8): its pulse is
    solved, applied with noise, and added to every component's sums; then the
    corrected component's clock returns to zero, so its bookkept value is its
    reference value. With an 8-pulse `template` the pulses are replayed open
    loop instead of solved (root residual NaN); the bookkeeping is the same.

    The control is open loop, so the solve never depends on the noise: it is
    made once per scenario (see `_plan`), and each seed only draws its noise,
    sums the applied pulses and reads the bookkept values.
    """
    if template is not None:
        template = tuple(float(v) for v in template)
        if len(template) != N_COMPONENTS:
            raise ValueError(f"template must have 8 pulses, got {len(template)}")
    plan = _plan(replace(setup, noise=_NO_NOISE), template,
                 _sign_bits((*setup.rho0.components(), *(template or ()))))
    noise = PulseNoise(setup.noise)
    applied_col = array("d", [noise.perturb(v) for v in plan.solved])
    applied, applied_log = [0.0] * N_COMPONENTS, []
    for s, pulse in enumerate(applied_col):
        applied = [x + pulse for x in applied]
        applied[s % N_COMPONENTS] = 0.0
        applied_log.append(applied)
    sums = np.array(applied_log, dtype=float).reshape(-1, N_COMPONENTS)
    a, b, c = plan.coefficients
    return RunResult(
        setup=setup,
        pulses=PulseLog(plan.solved, applied_col, plan.residual, plan.degenerate),
        values=a + b * np.cos(2.0 * sums) + c * np.sin(2.0 * sums),
        ages=plan.ages,
        applied_sums=sums,
        aborted_at=plan.aborted_at,
        error=plan.error,
        error_type=plan.error_type,
    )


_NO_NOISE = NoiseConfig()


def _sign_bits(values) -> bytes:
    """One byte per value, set where its sign bit is: -0.0 == 0.0 in a cache key,
    but the sign of a zero shows in the output."""
    return bytes(math.copysign(1.0, v) < 0.0 for v in values)


@dataclass(frozen=True)
class _Plan:
    """The seed-independent half of a run: the solved pulses up to the abort, and after
    each step s (row s - 1) every component's age and the (A, B, C) of the table row its
    bookkept value is read from. Every seed of a scenario shares one, so the arrays are
    read-only."""

    solved: array
    residual: array
    degenerate: bytes
    aborted_at: int | None
    error: str | None
    error_type: type[Exception] | None
    ages: np.ndarray                  # (steps, 8)
    coefficients: np.ndarray          # (3, steps, 8): A, B and C


@lru_cache(maxsize=4)
def _plan(setup: RunSetup, template: tuple[float, ...] | None, sign_bits: bytes) -> _Plan:
    """Solve `setup` (noise-free) or replay `template` once, for every seed. `sign_bits`
    only keys the cache (see `_sign_bits`)."""
    g_ages = setup.g_table[:min(setup.num_steps, N_COMPONENTS) + 1]
    table = harmonic_table(setup.rho0, g_ages, setup.regime, setup.thermal_variant)
    rows, targets = table.tolist(), setup.rho0.components()
    intended = [0.0] * N_COMPONENTS
    solved, residual, degenerate = [], [], []
    aborted_at = error = error_type = None
    for s in range(1, setup.num_steps + 1):
        idx, age = (s - 1) % N_COMPONENTS, min(s, N_COMPONENTS)
        if template is None:
            try:
                solution = solve_pulse(rows[age][idx], intended[idx], targets[idx],
                                       setup.root_tol)
            except NoRootInInterval as exc:
                aborted_at, error_type = s, type(exc)
                error = (f"{type(exc).__name__}: step {s}, component {COMPONENT_LABELS[idx]} "
                         f"(age {age}, pulse sum {intended[idx]!r}): {exc}")
                break
        else:
            solution = PulseSolution(value=template[idx], residual=math.nan)
        intended = [x + solution.value for x in intended]
        intended[idx] = 0.0
        solved.append(solution.value)
        residual.append(solution.residual)
        degenerate.append(solution.degenerate)

    # after step s, component e was last restored at the latest step r <= s with
    # r = e + 1 (mod 8), or never (age s)
    steps = np.arange(1, len(solved) + 1)[:, None]
    e = np.arange(N_COMPONENTS)
    ages = np.where(steps > e, (steps - 1 - e) % N_COMPONENTS, steps)
    if setup.hermitize:      # the pulses were solved from the plain rows
        table = _hermitized(table)
    coefficients = np.moveaxis(table[ages, e], -1, 0)
    for frozen in (ages, coefficients):
        frozen.flags.writeable = False
    return _Plan(array("d", solved), array("d", residual), bytes(degenerate), aborted_at, error,
                 error_type, ages, coefficients)


@dataclass(frozen=True)
class StabilizationReport:
    first_stable_cycle: int            # 1-based cycle index
    template: tuple[float, ...]        # the 8 applied pulses of that cycle


def detect_stabilization(pulses: Sequence[PulseRecord], tol: float = 1e-6) -> StabilizationReport:
    """Earliest cycle c with |I(k) - I(k+8)| <= tol for every step k in cycles >= c.

    Judged on the pulses as applied, so noisy runs do not spuriously report a
    periodic template.
    """
    n_cycles = len(pulses) // N_COMPONENTS
    if n_cycles < 3:
        raise ValueError(f"need at least 3 full cycles of records, got {n_cycles}")
    values = [p.applied_I for p in pulses[: n_cycles * N_COMPONENTS]]
    for cycle in range(1, n_cycles):
        start = (cycle - 1) * N_COMPONENTS
        if all(
            abs(values[k] - values[k + N_COMPONENTS]) <= tol
            for k in range(start, len(values) - N_COMPONENTS)
        ):
            template = tuple(values[start : start + N_COMPONENTS])
            return StabilizationReport(first_stable_cycle=cycle, template=template)
    raise NotStabilized(
        f"no period-8 pulse template within tolerance {tol:g} over {n_cycles} cycles"
    )
