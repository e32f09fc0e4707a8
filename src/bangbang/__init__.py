"""Bang-bang decoherence control for a single spin-boson qubit."""

from .control import (
    NoRootInInterval,
    NotStabilized,
    PulseRecord,
    PulseSolution,
    RunResult,
    RunSetup,
    StabilizationReport,
    detect_stabilization,
    run,
    solve_pulse,
)
from .evolution import (
    THERMAL_CONSISTENT,
    THERMAL_FOLDED,
    evolve,
    harmonic_table,
    zero_control,
    zero_control_adiabatic,
    zero_control_thermal,
)
from .kernels import (
    ModelParams,
    Regime,
    g_adiabatic,
    g_thermal,
    tabulate_kernel,
)
from .noise import NoiseConfig, PulseNoise
from .runner import (
    PRESETS,
    ConfigError,
    ScenarioConfig,
    ScenarioResult,
    Trajectory,
    TrajectoryRow,
    export_csv,
    load_config,
    run_scenario,
)
from .state import COMPONENT_LABELS, Component, DensityMatrix

__version__ = "0.1.0"
