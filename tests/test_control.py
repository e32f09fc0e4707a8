import cmath
import math
import sys
from dataclasses import replace

import pytest

from bangbang import (
    Component,
    DensityMatrix,
    ModelParams,
    NoiseConfig,
    NoRootInInterval,
    NotStabilized,
    PulseRecord,
    Regime,
    RunSetup,
    detect_stabilization,
    evolve,
    harmonic_table,
    run,
    solve_pulse,
    tabulate_kernel,
)
from bangbang.control import PulseLog

SQ2 = 1.0 / math.sqrt(2.0)
FIG = DensityMatrix.from_pure_state(1j * SQ2, SQ2)
# diagonal-tilted superposition: its coherence restoration stays solvable
# while the decoherence exponent is below a finite threshold
TILTED = DensityMatrix.from_pure_state(1j * math.sqrt(0.8), math.sqrt(0.2))


def linear_g_table(num_steps, slope):
    return tuple(slope * k for k in range(num_steps + 1))


def setup_for(rho0, regime, g_table, step_T=1.0, num_steps=None, **kw):
    return RunSetup(
        rho0=rho0,
        regime=regime,
        step_T=step_T,
        num_steps=num_steps if num_steps is not None else len(g_table) - 1,
        g_table=g_table,
        **kw,
    )


def row(rho0, g, idx, regime=Regime.ADIABATIC):
    """(A, B, C) of component idx at decoherence exponent g, as `run` reads it."""
    return harmonic_table(rho0, [g], regime)[0, idx].tolist()


def shifted_cos2(shift):
    """(A, B, C) of the response cos(2(x - shift))."""
    return (0.0, math.cos(2.0 * shift), math.sin(2.0 * shift))


# ------------------------------------------------------------- solve_pulse

def test_symmetry_forced_root_is_zero():
    # rho11_re equation for the figure state: 1/2 + e^-g sin(2I)/2 = 1/2
    sol = solve_pulse(row(FIG, 0.3, Component.RHO11_RE), 0.0, FIG.component(0))
    assert sol.value == pytest.approx(0.0, abs=1e-12)
    assert not sol.degenerate


def test_no_root_for_decayed_coherence_target():
    # Im rho12 response from the figure state is bounded by e^-g / 2 < target
    with pytest.raises(NoRootInInterval, match="does not reach"):
        solve_pulse(row(FIG, 0.5, Component.RHO12_IM), 0.0, FIG.component(3))


def test_degenerate_constant_at_target_returns_zero():
    # rho11_im is identically zero along the pulse axis for a Hermitian state
    sol = solve_pulse(row(FIG, 0.7, Component.RHO11_IM), 0.0, FIG.component(1))
    assert sol.degenerate
    assert sol.value == 0.0
    assert abs(sol.residual) <= 1e-12


def test_flat_response_off_target_applies_zero_pulse():
    # with the coherence factor decayed below solver resolution the pulse
    # cannot influence the component at all; the controller moves on with I=0
    sol = solve_pulse(row(FIG, 50.0, Component.RHO12_IM), 0.0, FIG.component(3))
    assert sol.degenerate
    assert sol.value == 0.0
    assert sol.residual == pytest.approx(-0.5, abs=1e-12)


def test_smallest_magnitude_root_ties_to_negative():
    sol = solve_pulse((0.0, 1.0, 0.0), 0.0, 0.0)
    assert sol.value == pytest.approx(-math.pi / 4.0, abs=1e-10)


def test_offset_root_follows_pulse_sum():
    # response cos(2(base + I)) = 0 with base pi/4: root at I = 0
    sol = solve_pulse((0.0, 1.0, 0.0), math.pi / 4.0, 0.0)
    assert sol.value == pytest.approx(0.0, abs=1e-10)


def test_residual_within_tolerance_on_success():
    sol = solve_pulse((0.3, 0.0, 1.0), 0.0, 0.0)
    assert abs(sol.residual) <= 1e-12
    assert math.sin(2.0 * sol.value) + 0.3 == pytest.approx(0.0, abs=1e-12)


def test_tangent_root_at_scan_node():
    # gamma = 0 coherence equation: cos(2I) = 1 touches zero without crossing
    sol = solve_pulse((0.0, 1.0, 0.0), 0.0, 1.0)
    assert sol.value == 0.0
    assert not sol.degenerate


def test_root_pair_closer_than_old_scan_spacing():
    # roots 0.01 and 0.03 lie 0.02 apart, inside one cell of a pi/64 scan
    sol = solve_pulse(shifted_cos2(0.02), 0.0, math.cos(0.02))
    assert sol.value == pytest.approx(0.01, abs=1e-12)
    assert not sol.degenerate


def test_tangent_root_off_scan_node():
    # the target is the response's maximum, reached only at I = 0.3
    sol = solve_pulse(shifted_cos2(0.3), 0.0, 1.0)
    assert sol.value == pytest.approx(0.3, abs=1e-12)
    assert abs(sol.residual) <= 1e-15


def test_solver_config_validation():
    with pytest.raises(ValueError, match="root_tol"):
        RunSetup(FIG, Regime.ADIABATIC, 1.0, 1, (0.0, 0.1), root_tol=0.0)


# ------------------------------------------------------------------ run

def test_first_step_restores_first_component():
    g_table = linear_g_table(8, 0.002)
    setup = setup_for(TILTED, Regime.ADIABATIC, g_table, num_steps=1)
    result = run(setup)
    assert [p.component for p in result.pulses] == [Component.RHO11_RE]
    assert result.values.shape == (1, 8)
    assert result.values[0, 0] == pytest.approx(TILTED.component(0), abs=1e-12)


def test_ledger_pattern_after_full_cycle():
    g_table = linear_g_table(8, 0.002)
    setup = setup_for(TILTED, Regime.ADIABATIC, g_table)
    result = run(setup)
    assert result.completed
    ages, applied_sums = result.ages[-1].tolist(), result.applied_sums[-1].tolist()
    # component corrected j steps ago has age j and carries the last j pulses
    assert ages == [7, 6, 5, 4, 3, 2, 1, 0]
    applied = [p.applied_I for p in result.pulses]
    for e in range(8):
        j = ages[e]
        assert applied_sums[e] == sum(applied[8 - j:], 0.0)
    # rho22_re depends on exactly the last pulse
    assert applied_sums[6] == applied[7]
    # the component corrected at step 8 was restored
    assert result.values[7, 7] == pytest.approx(TILTED.component(7), abs=1e-9)


def test_zero_decoherence_gives_zero_pulses():
    g_table = (0.0,) * 17
    setup = setup_for(FIG, Regime.ADIABATIC, g_table)
    result = run(setup)
    assert result.completed
    assert all(abs(p.solved_I) <= 1e-12 for p in result.pulses)
    for values in result.values.tolist():
        for e in range(8):
            assert values[e] == pytest.approx(FIG.component(e), abs=1e-12)


def test_reset_exactness_every_step():
    g_table = linear_g_table(24, 0.0015)
    setup = setup_for(TILTED, Regime.ADIABATIC, g_table)
    result = run(setup)
    assert result.completed
    for s, values in enumerate(result.values.tolist(), start=1):
        idx = (s - 1) % 8
        assert values[idx] == pytest.approx(TILTED.component(idx), abs=1e-9)


def test_replay_oracle_from_scratch():
    # rebuild every component value from (rho0, g(age*T), applied pulse sum)
    # tracked independently of the ledger
    g_table = linear_g_table(24, 0.0015)
    setup = setup_for(TILTED, Regime.ADIABATIC, g_table)
    result = run(setup)
    assert result.completed
    last_reset = [0] * 8
    for s, values in enumerate(result.values.tolist(), start=1):
        last_reset[(s - 1) % 8] = s
        for e in range(8):
            age = s - last_reset[e]
            applied_sum = sum(
                (p.applied_I for p in result.pulses[last_reset[e]: s]), 0.0
            )
            expected = evolve(TILTED, g_table[age], applied_sum, Regime.ADIABATIC).component(e)
            assert values[e] == pytest.approx(expected, abs=1e-12)


def test_hermitized_bookkeeping_replays_from_scratch():
    # the pulses are solved from the plain maps, the values kept from the hermitized ones;
    # only the folded variant's maps are not Hermitian already
    rho0 = DensityMatrix.from_pure_state(cmath.exp(0.2j) * 0.6, 0.8)
    g_table = linear_g_table(20, 0.0015)
    setup = setup_for(rho0, Regime.THERMAL, g_table, hermitize=True, thermal_variant="folded",
                      noise=NoiseConfig(delta_I=0.05, seed=3))
    result = run(setup)
    plain = run(replace(setup, hermitize=False))
    assert result.completed
    assert list(result.pulses) == list(plain.pulses)
    assert (result.values != plain.values).any()
    for s, values in enumerate(result.values.tolist(), start=1):
        for e in range(8):
            age = int(result.ages[s - 1, e])
            applied_sum = 0.0
            for p in result.pulses[s - age:s]:
                applied_sum += p.applied_I
            expected = evolve(rho0, g_table[age], applied_sum, Regime.THERMAL,
                              variant="folded", hermitize=True).component(e)
            assert values[e] == pytest.approx(expected, abs=1e-15)


def test_adiabatic_trajectories_do_not_depend_on_hermitize():
    # adiabatic maps are Hermitian already, so rho21 := conj(rho12) changes no value
    rho0 = DensityMatrix.from_pure_state(cmath.exp(0.2j) * 0.6, 0.8)
    setup = setup_for(rho0, Regime.ADIABATIC, linear_g_table(20, 0.0015),
                      noise=NoiseConfig(delta_I=0.05, seed=3))
    plain, hermitized = run(setup), run(replace(setup, hermitize=True))
    assert plain.completed and any(not p.degenerate for p in plain.pulses)
    assert list(hermitized.pulses) == list(plain.pulses)
    assert (hermitized.values == plain.values).all()


def test_run_aborts_with_partial_trajectory():
    # constant decoherence too strong for the tilted state's coherence slots
    g_table = (0.0,) + (0.7,) * 16
    setup = setup_for(TILTED, Regime.ADIABATIC, g_table, num_steps=16)
    result = run(setup)
    assert not result.completed
    assert result.aborted_at == 4
    assert "NoRootInInterval" in result.error
    assert len(result.values) == 3
    assert len(result.pulses) == 3


def test_run_setup_validation():
    with pytest.raises(ValueError, match="g_table"):
        RunSetup(FIG, Regime.ADIABATIC, 1.0, 8, (0.0, 0.1))
    with pytest.raises(ValueError, match="num_steps"):
        RunSetup(FIG, Regime.ADIABATIC, 1.0, 0, (0.0,))
    with pytest.raises(ValueError, match="step_T"):
        RunSetup(FIG, Regime.ADIABATIC, -1.0, 1, (0.0, 0.1))


@pytest.mark.parametrize("kwargs, field", [
    (dict(step_T=math.nan), "step_T"),
    (dict(step_T=math.inf), "step_T"),
    (dict(root_tol=math.nan), "root_tol"),
    (dict(root_tol=math.inf), "root_tol"),
    (dict(g_table=(0.0, math.nan)), "g_table"),
    (dict(g_table=(0.0, math.inf)), "g_table"),
])
def test_run_setup_rejects_non_finite_values(kwargs, field):
    values = dict(rho0=FIG, regime=Regime.ADIABATIC, step_T=1.0, num_steps=1,
                  g_table=(0.0, 0.1)) | kwargs
    with pytest.raises(ValueError, match=field):
        RunSetup(**values)


# -------------------------------------------------------------- stabilization

def _records(values):
    return [
        PulseRecord(step=k + 1, component=Component(k % 8), solved_I=v,
                    applied_I=v, root_residual=0.0)
        for k, v in enumerate(values)
    ]


def test_pulse_log_returns_the_records_appended():
    records = [PulseRecord(step=k + 1, component=Component(k % 8), solved_I=0.1 * k - 0.5,
                           applied_I=0.1 * k - 0.45, root_residual=(-1.0) ** k * 1e-17 * k,
                           degenerate=k % 3 == 0) for k in range(19)]
    records[4] = replace(records[4], solved_I=-0.0, root_residual=math.nan)
    log = PulseLog(*zip(*((r.solved_I, r.applied_I, r.root_residual, r.degenerate)
                          for r in records)))
    assert len(log) == 19
    assert log[-1] == records[-1]
    assert log[2:17:3] == records[2:17:3]
    got = log[4]
    assert math.copysign(1.0, got.solved_I) == -1.0 and math.isnan(got.root_residual)
    assert [r for k, r in enumerate(log) if k != 4] == records[:4] + records[5:]
    with pytest.raises(IndexError):
        log[19]


def test_pulse_log_is_exactly_sized():
    # a caller that keeps every run's log keeps these bytes per run
    result = run(setup_for(TILTED, Regime.ADIABATIC, linear_g_table(80, 1e-4)))
    log = result.pulses
    assert result.completed and len(log) == 80
    assert not hasattr(log, "__dict__")
    size = sys.getsizeof(log) + sum(sys.getsizeof(buf) for buf in (log._values, log._degenerate))
    assert size <= 25 * 80 + 300


def test_stabilization_zero_run():
    g_table = (0.0,) * 25
    setup = setup_for(FIG, Regime.ADIABATIC, g_table)
    result = run(setup)
    report = detect_stabilization(result.pulses, tol=1e-6)
    assert report.first_stable_cycle == 1
    assert report.template == (0.0,) * 8


def test_stabilization_after_transient():
    cycle1 = [0.1, 0.0, -0.2, 0.0, 0.3, 0.0, 0.0, 0.05]
    steady = [0.0, 0.0, -0.25, 0.0, 0.25, 0.0, 0.0, 0.0]
    report = detect_stabilization(_records(cycle1 + steady * 3), tol=1e-6)
    assert report.first_stable_cycle == 2
    assert report.template == tuple(steady)


def test_stabilization_requires_three_cycles():
    with pytest.raises(ValueError, match="3 full cycles"):
        detect_stabilization(_records([0.0] * 16))


def test_noise_prevents_stabilization():
    g_table = (0.0,) * 25
    setup = setup_for(FIG, Regime.ADIABATIC, g_table, noise=NoiseConfig(delta_I=0.1, seed=4))
    result = run(setup)
    with pytest.raises(NotStabilized):
        detect_stabilization(result.pulses, tol=1e-6)


def test_offline_template_replay_matches_closed_form():
    g_table = linear_g_table(24, 0.0015)
    setup = setup_for(TILTED, Regime.ADIABATIC, g_table)
    closed = run(setup)
    assert closed.completed
    # period-8 replay only reproduces runs whose pulses are already periodic;
    # use the first cycle of a zero-decoherence run for a meaningful check
    zero_setup = setup_for(FIG, Regime.ADIABATIC, (0.0,) * 25)
    zero_closed = run(zero_setup)
    template = detect_stabilization(zero_closed.pulses).template
    replayed = run(zero_setup, template=template)
    for a, b in zip(zero_closed.values.tolist(), replayed.values.tolist()):
        for x, y in zip(a, b):
            assert x == pytest.approx(y, abs=1e-11)


def test_replay_template_validation():
    setup = setup_for(FIG, Regime.ADIABATIC, (0.0,) * 9)
    with pytest.raises(ValueError, match="8 pulses"):
        run(setup, template=(0.0,) * 5)


# ------------------------------------------------- real-kernel control runs

@pytest.mark.slow
def test_offline_replay_of_figure_preset():
    # the operational claim behind stabilization: once the template is known,
    # the controls can be applied open-loop with no further solving
    from bangbang import load_config, run_scenario

    cfg = load_config(preset="fig1a", num_steps=24)
    closed = run_scenario(cfg).run
    assert closed.completed
    template = detect_stabilization(closed.pulses).template
    replayed = run(closed.setup, template=template)
    for a, b in zip(closed.values.tolist(), replayed.values.tolist()):
        for x, y in zip(a, b):
            assert x == pytest.approx(y, abs=10 * cfg.root_tol)


@pytest.mark.slow
def test_monotone_control_budget_in_gamma():
    # weaker decoherence never demands larger stabilized pulses
    quadless_T = 2e-4
    taus = [k * quadless_T for k in range(25)]
    budgets = []
    for gamma in (1.0, 0.1, 0.01):
        params = ModelParams(regime=Regime.ADIABATIC, gamma=gamma)
        g_table = tuple(tabulate_kernel(taus, params))
        setup = setup_for(TILTED, Regime.ADIABATIC, g_table, step_T=quadless_T)
        result = run(setup)
        assert result.completed
        budgets.append(max(abs(p.solved_I) for p in result.pulses))
    assert budgets[0] >= budgets[1] >= budgets[2]


@pytest.mark.parametrize("regime, t, step_T", [
    ("adiabatic", 0.9, 3.2e-3),
    ("adiabatic", 0.95, 3.2e-3),
    ("thermal", 0.6, 1e-4),
])
def test_tilted_runs_with_near_tangent_roots_complete(regime, t, step_T):
    # each run meets a restoration equation whose target lies within 3e-13 of
    # the response's extremum (adiabatic) or whose two roots lie closer than
    # pi/64 (thermal); a root exists, and the run must find it
    from bangbang import load_config, run_scenario

    cfg = load_config(regime=regime, step_T=step_T,
                      initial=[0.0, math.sqrt(t), math.sqrt(1.0 - t), 0.0])
    result = run_scenario(cfg).run
    assert result.completed, result.error
    assert max(abs(p.root_residual) for p in result.pulses) <= 1e-15
