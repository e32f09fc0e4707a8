"""Cyclic restoration controller.

One component of the density matrix is corrected per time step, in the fixed
`Component` order, by solving a scalar transcendental equation for the pulse
area applied at that step. Per-component clocks track decoherence age and
accumulated pulses since each component's last exact restoration.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field

from .evolution import THERMAL_CONSISTENT, evolve, harmonic_coefficients
from .kernels import Regime
from .noise import NoiseConfig, PulseNoise
from .state import COMPONENT_LABELS, Component, DensityMatrix

N_COMPONENTS = 8
ROOT_TOL = 1e-12                     # on the restoration-equation residual


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
    """A run's pulse records as one flat array of (solved_I, applied_I, root_residual,
    degenerate): a caller that keeps many runs holds 32 bytes a record, not an object and
    three floats. Record i is rebuilt on access as step i + 1, component i mod 8."""

    def __init__(self):
        self._values = array("d")

    def append(self, record: PulseRecord) -> None:
        self._values.extend((record.solved_I, record.applied_I, record.root_residual,
                             record.degenerate))

    def __len__(self) -> int:
        return len(self._values) // 4

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]
        solved, applied, residual, degenerate = self._values[4 * i:4 * i + 4]
        return PulseRecord(i + 1, Component(i % N_COMPONENTS), solved, applied, residual,
                           degenerate == 1.0)


@dataclass
class ControlLedger:
    """Per-component decoherence clocks and pulse sums since last restoration.

    `intended` sums the controller's solved pulses (what it plans with);
    `applied` sums the pulses actually delivered (solved + noise). They agree
    whenever noise is disabled.
    """

    step: int = 0
    ages: list[int] = field(default_factory=lambda: [0] * N_COMPONENTS)
    intended: list[float] = field(default_factory=lambda: [0.0] * N_COMPONENTS)
    applied: list[float] = field(default_factory=lambda: [0.0] * N_COMPONENTS)

    def begin_step(self) -> Component:
        self.step += 1
        for e in range(N_COMPONENTS):
            self.ages[e] += 1
        return Component((self.step - 1) % N_COMPONENTS)

    def accumulate(self, solved: float, applied: float) -> None:
        for e in range(N_COMPONENTS):
            self.intended[e] += solved
            self.applied[e] += applied

    def reset(self, idx: Component) -> None:
        self.ages[idx] = 0
        self.intended[idx] = 0.0
        self.applied[idx] = 0.0


def solve_restoration(response, pulse_sum: float, target: float,
                      root_tol: float = ROOT_TOL) -> PulseSolution:
    """Solve response(pulse_sum + I) = target exactly for the pulse I of this step.

    The response is A + R cos(2(pulse_sum + I) - phi) (see
    `harmonic_coefficients`), so [-pi/2, pi/2] holds one full period and a root
    exists iff |target - A| <= R. Of the two roots the smallest-magnitude one
    is returned (ties toward negative); the residual is re-evaluated from the
    response itself. A response with 2R <= root_tol cannot be influenced by the
    pulse at this step (symmetry-forced components, or coherence factors
    decayed below resolution): the zero pulse is returned and flagged
    degenerate. Otherwise a target out of reach raises NoRootInInterval.
    """
    a, b, c = harmonic_coefficients(response)
    r = math.hypot(b, c)
    if 2.0 * r <= root_tol:
        return PulseSolution(value=0.0, residual=response(pulse_sum) - target, degenerate=True)
    if abs(target - a) > r + root_tol:
        raise NoRootInInterval(
            f"no restoring pulse: response range [{a - r:.6g}, {a + r:.6g}] does not "
            f"reach target {target:.6g}"
        )
    phi = math.atan2(c, b)
    half = math.acos(min(1.0, max(-1.0, (target - a) / r)))
    roots = (math.remainder(0.5 * (phi + sign * half) - pulse_sum, math.pi) for sign in (-1.0, 1.0))
    value = min(roots, key=lambda x: (abs(x), x))
    return PulseSolution(value=value, residual=response(pulse_sum + value) - target)


def solve_pulse(
    idx: Component,
    rho0: DensityMatrix,
    g_since_reset: float,
    pulse_sum: float,
    target: float,
    root_tol: float = ROOT_TOL,
    regime: Regime = Regime.ADIABATIC,
    thermal_variant: str = THERMAL_CONSISTENT,
) -> PulseSolution:
    """Restoration solve for one component given its clock state."""
    def response(pulse_area: float) -> float:
        return evolve(rho0, g_since_reset, pulse_area, regime, variant=thermal_variant).component(idx)

    return solve_restoration(response, pulse_sum, target, root_tol)


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


@dataclass(frozen=True)
class StepState:
    """Post-step snapshot: bookkept component values and ledger state."""

    step: int
    values: tuple[float, ...]
    ages: tuple[int, ...]
    intended_sums: tuple[float, ...]
    applied_sums: tuple[float, ...]


@dataclass
class RunResult:
    setup: RunSetup
    pulses: PulseLog
    states: list[StepState]
    aborted_at: int | None = None
    error: str | None = None
    error_type: type[Exception] | None = None

    @property
    def completed(self) -> bool:
        return self.aborted_at is None


def _bookkept_value(setup: RunSetup, e: int, age: int, applied_sum: float) -> float:
    rho = evolve(
        setup.rho0,
        setup.g_table[age],
        applied_sum,
        setup.regime,
        variant=setup.thermal_variant,
        hermitize=setup.hermitize,
    )
    return rho.component(e)


def step(ledger: ControlLedger, setup: RunSetup, noise: PulseNoise,
         template: tuple[float, ...] | None = None) -> tuple[PulseRecord, StepState]:
    """Advance one control step: solve (or take the template's pulse), apply
    with noise, reset the clock.

    The corrected component's clock returns to zero, so its bookkept post-step
    value is exactly its reference value; every other component ages by one
    step and absorbs the applied pulse into its running sum.
    """
    idx = ledger.begin_step()
    if template is None:
        solution = solve_pulse(
            idx,
            setup.rho0,
            setup.g_table[ledger.ages[idx]],
            ledger.intended[idx],
            setup.rho0.component(idx),
            setup.root_tol,
            setup.regime,
            setup.thermal_variant,
        )
    else:
        solution = PulseSolution(value=template[idx], residual=math.nan)
    applied = noise.perturb(solution.value)
    ledger.accumulate(solution.value, applied)
    ledger.reset(idx)
    record = PulseRecord(
        step=ledger.step,
        component=idx,
        solved_I=solution.value,
        applied_I=applied,
        root_residual=solution.residual,
        degenerate=solution.degenerate,
    )
    values = tuple(
        _bookkept_value(setup, e, ledger.ages[e], ledger.applied[e])
        for e in range(N_COMPONENTS)
    )
    state = StepState(
        step=ledger.step,
        values=values,
        ages=tuple(ledger.ages),
        intended_sums=tuple(ledger.intended),
        applied_sums=tuple(ledger.applied),
    )
    return record, state


def run(setup: RunSetup, template=None) -> RunResult:
    """Run the full control loop; abort on the first solver failure, keeping
    the partial trajectory and the failing step.

    With an 8-pulse `template` the pulses are replayed open loop instead of
    solved (root residual NaN); the bookkeeping is the same.
    """
    if template is not None:
        template = tuple(float(v) for v in template)
        if len(template) != N_COMPONENTS:
            raise ValueError(f"template must have 8 pulses, got {len(template)}")
    ledger = ControlLedger()
    noise = PulseNoise(setup.noise)
    result = RunResult(setup=setup, pulses=PulseLog(), states=[])
    for _ in range(setup.num_steps):
        try:
            record, state = step(ledger, setup, noise, template)
        except NoRootInInterval as exc:
            idx = (ledger.step - 1) % N_COMPONENTS
            result.aborted_at = ledger.step
            result.error_type = type(exc)
            result.error = (
                f"{type(exc).__name__}: step {ledger.step}, "
                f"component {COMPONENT_LABELS[idx]} "
                f"(age {ledger.ages[idx]}, pulse sum {ledger.intended[idx]!r}): {exc}"
            )
            return result
        result.pulses.append(record)
        result.states.append(state)
    return result


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
