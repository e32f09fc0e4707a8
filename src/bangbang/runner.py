"""Scenario configuration, orchestration, and CSV trajectory export."""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import lru_cache

from . import control
from .control import ROOT_TOL, RunResult, RunSetup, StabilizationReport, _sign_bits
from .evolution import THERMAL_CONSISTENT, THERMAL_FOLDED, zero_control
from .kernels import ModelParams, Regime, tabulate_kernel
from .noise import RNG_ALGORITHM, NoiseConfig
from .state import COMPONENT_LABELS, DensityMatrix

CSV_HEADER = "step,tau,component,unitary,uncontrolled,controlled,solved_I,applied_I"

# Parameters that are artifact defaults rather than part of any scenario
# definition; they are echoed with a marker in run metadata.
ARTIFACT_DEFAULT_FIELDS = ("n", "omega_c", "beta0", "omega12", "num_steps", "seed")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ScenarioConfig:
    regime: Regime = Regime.ADIABATIC
    gamma: float = 1.0
    n: int = 3
    omega_c: float = 10.0
    beta0: float = 1.0
    omega12: float = 1.0
    step_T: float = 0.5
    num_steps: int = 80
    c1: complex = complex(0.0, 1.0 / math.sqrt(2.0))
    c2: complex = complex(1.0 / math.sqrt(2.0), 0.0)
    noise: NoiseConfig = NoiseConfig()
    root_tol: float = ROOT_TOL
    hermitize: bool = False
    thermal_offdiag: str = THERMAL_CONSISTENT
    out: str | None = None
    preset: str | None = None
    overridden: tuple[str, ...] = ()

    def validate(self) -> "ScenarioConfig":
        for name in ("step_T", "root_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and > 0, got {value!r}")
        if self.num_steps < 1:
            raise ConfigError(f"num_steps must be >= 1, got {self.num_steps!r}")
        if self.thermal_offdiag not in (THERMAL_CONSISTENT, THERMAL_FOLDED):
            raise ConfigError(
                f"thermal_offdiag must be '{THERMAL_CONSISTENT}' or '{THERMAL_FOLDED}', "
                f"got {self.thermal_offdiag!r}"
            )
        if not all(map(math.isfinite, (self.c1.real, self.c1.imag, self.c2.real, self.c2.imag))):
            raise ConfigError(f"initial amplitudes must be finite, got {self.c1!r}, {self.c2!r}")
        norm = abs(self.c1) ** 2 + abs(self.c2) ** 2
        if abs(norm - 1.0) > 1e-12:
            raise ConfigError(
                f"initial state not normalized: |c1|^2+|c2|^2 = {norm!r}"
            )
        self.model_params()
        return self

    def model_params(self) -> ModelParams:
        return ModelParams(
            regime=self.regime,
            gamma=self.gamma,
            n=self.n,
            omega_c=self.omega_c,
            beta0=self.beta0,
            omega12=self.omega12,
        )

    def initial_state(self) -> DensityMatrix:
        return DensityMatrix.from_pure_state(self.c1, self.c2)


_SQ2 = 1.0 / math.sqrt(2.0)
_FIG_STATE = dict(c1=complex(0.0, _SQ2), c2=complex(_SQ2, 0.0))

PRESETS: dict[str, ScenarioConfig] = {
    "fig1a": ScenarioConfig(regime=Regime.ADIABATIC, gamma=1.0, step_T=0.5,
                            noise=NoiseConfig(delta_I=0.0), preset="fig1a", **_FIG_STATE),
    "fig1b": ScenarioConfig(regime=Regime.ADIABATIC, gamma=1.0, step_T=0.5,
                            noise=NoiseConfig(delta_I=0.1), preset="fig1b", **_FIG_STATE),
    "fig1c": ScenarioConfig(regime=Regime.ADIABATIC, gamma=1.0, step_T=2.0,
                            noise=NoiseConfig(delta_I=0.0), preset="fig1c", **_FIG_STATE),
    "fig1d": ScenarioConfig(regime=Regime.ADIABATIC, gamma=1.0, step_T=2.0,
                            noise=NoiseConfig(delta_I=0.1), preset="fig1d", **_FIG_STATE),
    "fig2a": ScenarioConfig(regime=Regime.THERMAL, gamma=1.0, step_T=0.25,
                            noise=NoiseConfig(delta_I=0.0), preset="fig2a", **_FIG_STATE),
    "fig2b": ScenarioConfig(regime=Regime.THERMAL, gamma=1.0, step_T=0.25,
                            noise=NoiseConfig(delta_I=0.1), preset="fig2b", **_FIG_STATE),
    "fig2c": ScenarioConfig(regime=Regime.THERMAL, gamma=1.0, step_T=1.0,
                            noise=NoiseConfig(delta_I=0.0), preset="fig2c", **_FIG_STATE),
    "fig2d": ScenarioConfig(regime=Regime.THERMAL, gamma=1.0, step_T=1.0,
                            noise=NoiseConfig(delta_I=0.1), preset="fig2d", **_FIG_STATE),
}


# configuration key -> type of its value; "initial" holds the four reals c1re, c1im, c2re, c2im
_KEY_TYPES = {
    "regime": Regime, "gamma": float, "n": int, "omega_c": float, "beta0": float,
    "omega12": float, "step_T": float, "num_steps": int, "initial": complex, "delta_I": float,
    "seed": int, "hermitize": bool, "root_tol": float, "thermal_offdiag": str, "out": str,
}


# value type -> the Python types a value of it may arrive as
_ACCEPTED = {bool: bool, int: (int, float), float: (int, float), str: str, Regime: str}


def _parse(key: str, value, kind: type):
    """`value` as `kind`: a bool or a string is no number, a number no bool or string,
    and an int has no fraction."""
    if kind is complex:
        if not isinstance(value, (list, tuple)) or len(value) != 4:
            raise ConfigError(f"initial must be 4 reals (c1re, c1im, c2re, c2im), got {value!r}")
        reals = [_parse(key, v, float) for v in value]
        return complex(*reals[:2]), complex(*reals[2:])
    if kind is Regime and value not in tuple(Regime):
        raise ConfigError(f"regime must be 'adiabatic' or 'thermal', got {value!r}")
    if (not isinstance(value, _ACCEPTED[kind]) or (kind is not bool and isinstance(value, bool))
            or (kind is int and isinstance(value, float) and not value.is_integer())):
        raise ConfigError(f"{key} must be of type {kind.__name__}, got {value!r}")
    return kind(value)


def _apply_overrides(cfg: ScenarioConfig, overrides: dict, reject_none: bool = False) -> ScenarioConfig:
    plain: dict = {}
    noise: dict = {}
    for key, value in overrides.items():
        if value is None:
            if reject_none:
                raise ConfigError(f"field {key!r} is null; give it a value or omit it")
            continue
        if key not in _KEY_TYPES:
            raise ConfigError(f"unknown configuration key {key!r}")
        parsed = _parse(key, value, _KEY_TYPES[key])
        if key == "initial":
            plain["c1"], plain["c2"] = parsed
        elif key in ("delta_I", "seed"):
            noise[key] = parsed
        else:
            plain[key] = parsed
    touched = {key for key, value in overrides.items() if value is not None}
    return replace(cfg, noise=replace(cfg.noise, **noise), **plain,
                   overridden=tuple(sorted(set(cfg.overridden) | touched)))


def load_config(path: str | None = None, preset: str | None = None, **overrides) -> ScenarioConfig:
    """Resolve a scenario from a preset and/or JSON file plus explicit overrides."""
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {preset!r}; available: {', '.join(sorted(PRESETS))}"
            )
        cfg = PRESETS[preset]
    else:
        cfg = ScenarioConfig()
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                file_values = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ConfigError(f"config file {path!r} must hold a JSON object")
    try:
        if path is not None:
            cfg = _apply_overrides(cfg, file_values, reject_none=True)
        return _apply_overrides(cfg, overrides).validate()
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        # NoiseConfig, ModelParams and the value conversions reject bad fields
        raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class TrajectoryRow:
    step: int
    tau: float
    component: str
    unitary: float
    uncontrolled: float
    controlled: float
    solved_I: float
    applied_I: float


@dataclass
class Trajectory:
    rows: list[TrajectoryRow] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    aborted_at: int | None = None
    error: str | None = None
    # CSV text of each row up to `controlled` (see `_head`), shared by every seed of a
    # scenario; None formats it from the rows
    heads: Sequence[str] | None = field(default=None, repr=False, compare=False)

    def component_series(self, label: str, column: str) -> list[float]:
        return [getattr(r, column) for r in self.rows if r.component == label]


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    trajectory: Trajectory
    run: RunResult
    stabilization: StabilizationReport | None
    stabilization_note: str


def _metadata(cfg: ScenarioConfig) -> dict:
    meta = {
        "generator": "bangbang 0.1.0",
        "preset": cfg.preset or "(none)",
        "regime": cfg.regime.value,
        "gamma": cfg.gamma,
        "n": cfg.n,
        "omega_c": cfg.omega_c,
        "beta0": cfg.beta0,
        "omega12": cfg.omega12,
        "step_T": cfg.step_T,
        "num_steps": cfg.num_steps,
        "initial_c1": repr(cfg.c1),
        "initial_c2": repr(cfg.c2),
        "delta_I": cfg.noise.delta_I,
        "seed": cfg.noise.seed,
        "rng": RNG_ALGORITHM,
        "root_tol": cfg.root_tol,
        "hermitize": cfg.hermitize,
        "thermal_offdiag": cfg.thermal_offdiag,
    }
    defaults = [k for k in ARTIFACT_DEFAULT_FIELDS if k not in cfg.overridden]
    meta["artifact_defaults"] = ",".join(defaults) if defaults else "(none)"
    return meta


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Kernel tabulation -> control loop -> trajectory assembly -> stabilization."""
    cfg.validate()
    params = cfg.model_params()
    taus = [k * cfg.step_T for k in range(cfg.num_steps + 1)]
    try:
        g_table = tuple(tabulate_kernel(taus, params))
    except (ValueError, OverflowError) as exc:   # overflow, or too many thermal panels
        raise ConfigError(f"cannot tabulate the kernel: {exc}") from exc
    rho0 = cfg.initial_state()
    setup = RunSetup(
        rho0=rho0,
        regime=cfg.regime,
        step_T=cfg.step_T,
        num_steps=cfg.num_steps,
        g_table=g_table,
        root_tol=cfg.root_tol,
        noise=cfg.noise,
        thermal_variant=cfg.thermal_offdiag,
        hermitize=cfg.hermitize,
    )
    result = control.run(setup)

    unitary = rho0.components()
    free_decay, heads = _free_decay_text(rho0, g_table, cfg.regime, cfg.step_T,
                                         _sign_bits(unitary))
    rows: list[TrajectoryRow] = []
    steps = zip(range(1, cfg.num_steps + 1), free_decay, result.values.tolist(),
                result.pulses.solved_I, result.pulses.applied_I)
    for s, free, controlled, solved, applied in steps:
        tau = s * cfg.step_T
        for e in range(8):
            rows.append(TrajectoryRow(s, tau, COMPONENT_LABELS[e], unitary[e], free[e],
                                      controlled[e], solved, applied))

    stab = None
    if result.completed and len(result.pulses) >= 24:
        try:
            stab = control.detect_stabilization(result.pulses)
            note = (
                f"stabilized at cycle {stab.first_stable_cycle}; "
                f"template {[round(v, 12) for v in stab.template]}"
            )
        except control.NotStabilized as exc:
            note = f"not stabilized: {exc}"
    elif not result.completed:
        note = "not applicable: run aborted"
    else:
        note = "not applicable: fewer than 3 full cycles"

    meta = _metadata(cfg)
    meta["stabilization"] = note
    traj = Trajectory(rows=rows, metadata=meta, aborted_at=result.aborted_at, error=result.error,
                      heads=heads[:len(rows)])
    return ScenarioResult(
        config=cfg, trajectory=traj, run=result, stabilization=stab, stabilization_note=note
    )


@lru_cache(maxsize=4)
def _free_decay_text(rho0: DensityMatrix, g_table: tuple[float, ...], regime: Regime,
                     step_T: float, sign_bits: bytes):
    """Per step, the free decay's eight components, and per row its CSV text up to
    `controlled`: all of a row that no seed changes. `sign_bits` only keys the cache."""
    unitary = rho0.components()
    free_decay = tuple(zero_control(rho0, g, regime).components() for g in g_table[1:])
    heads = tuple(_head(s, s * step_T, COMPONENT_LABELS[e], unitary[e], free[e])
                  for s, free in enumerate(free_decay, 1) for e in range(8))
    return free_decay, heads


def _fmt(value: float) -> str:
    return repr(float(value))


def _head(step: int, tau: float, component: str, unitary: float, uncontrolled: float) -> str:
    return f"{step},{_fmt(tau)},{component},{_fmt(unitary)},{_fmt(uncontrolled)},"


def export_csv(traj: Trajectory, path: str) -> str:
    """Write the trajectory as UTF-8 CSV with LF endings and a metadata block.

    Identical configuration (including seed) must produce a byte-identical
    file, so the metadata carries no timestamps or environment state.
    """
    lines = [f"# {key} = {value}" for key, value in traj.metadata.items()]
    lines.append(CSV_HEADER)
    heads = traj.heads
    if heads is None:
        heads = [_head(r.step, r.tau, r.component, r.unitary, r.uncontrolled) for r in traj.rows]
    solved = applied = pulses = None
    for r, head in zip(traj.rows, heads):
        # a step's rows share its two pulse objects, so their text is made once a step
        if r.solved_I is not solved or r.applied_I is not applied:
            solved, applied = r.solved_I, r.applied_I
            pulses = f"{_fmt(solved)},{_fmt(applied)}"
        lines.append(f"{head}{_fmt(r.controlled)},{pulses}")
    if traj.aborted_at is not None:
        lines.append(f"# aborted at step {traj.aborted_at}: {traj.error}")
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path!r}: {exc}") from exc
    return path
