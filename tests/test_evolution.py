import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bangbang import (
    Component,
    DensityMatrix,
    Regime,
    evolve,
    harmonic_table,
    zero_control_adiabatic,
    zero_control_thermal,
)
from bangbang.evolution import THERMAL_CONSISTENT, THERMAL_FOLDED
from oracles import controlled_matrix_oracle, folded_thermal_oracle

SQ2 = 1.0 / math.sqrt(2.0)
FIG = DensityMatrix.from_pure_state(1j * SQ2, SQ2)
BASIS = DensityMatrix.from_pure_state(1.0, 0.0)


def assert_matrix_close(a: DensityMatrix, b: DensityMatrix, tol=1e-15):
    for x, y in zip(a.components(), b.components()):
        assert x == pytest.approx(y, abs=tol)


# ---------------------------------------------------------------- adiabatic

def test_adiabatic_identity_limit():
    out = evolve(FIG, 0.0, 0.0, Regime.ADIABATIC)
    assert_matrix_close(out, FIG, tol=1e-15)


def test_adiabatic_pure_dephasing():
    out = evolve(FIG, math.log(2.0), 0.0, Regime.ADIABATIC)
    assert out.rho12 == pytest.approx(0.25j, abs=1e-15)
    assert out.rho21 == pytest.approx(-0.25j, abs=1e-15)
    assert out.rho11 == FIG.rho11
    assert out.rho22 == FIG.rho22


def test_adiabatic_population_swap():
    out = evolve(BASIS, 0.0, math.pi / 2.0, Regime.ADIABATIC)
    assert out.rho11 == pytest.approx(0.0, abs=1e-15)
    assert out.rho22 == pytest.approx(1.0, abs=1e-15)
    assert abs(out.rho12) <= 1e-15


def test_zero_control_adiabatic_examples():
    assert zero_control_adiabatic(FIG, 0.0) == evolve(FIG, 0.0, 0.0, Regime.ADIABATIC)
    out = zero_control_adiabatic(FIG, math.log(2.0))
    assert out.rho12 == pytest.approx(0.25j, abs=1e-15)
    deep = zero_control_adiabatic(FIG, 50.0)
    assert abs(deep.rho12) < 1e-21
    assert deep.rho11 == FIG.rho11
    assert deep.rho22 == FIG.rho22


def test_zero_control_is_full_map_at_zero_pulse_bitwise():
    for g in (0.0, 0.3, 2.0, 50.0):
        assert zero_control_adiabatic(FIG, g) == evolve(FIG, g, 0.0, Regime.ADIABATIC)


# ------------------------------------------------------------------ thermal

def test_thermal_identity_limit_consistent():
    out = evolve(FIG, 0.0, 0.0, Regime.THERMAL)
    assert_matrix_close(out, FIG, tol=1e-15)


def test_thermal_identity_limit_folded_moves_im_into_re():
    # the verbatim variant collapses rho12 -> Re + Im at g = I = 0
    rho = DensityMatrix.from_pure_state(cmath.exp(0.3j) * 0.6, 0.8)
    out = evolve(rho, 0.0, 0.0, Regime.THERMAL, variant=THERMAL_FOLDED)
    assert out.rho12.real == pytest.approx(rho.rho12.real + rho.rho12.imag, abs=1e-15)
    assert out.rho12.imag == pytest.approx(0.0, abs=1e-15)


def test_thermal_deep_relaxation():
    out = evolve(BASIS, 50.0, 0.0, Regime.THERMAL)
    assert out.rho11.real == pytest.approx(0.5, abs=1e-12)
    assert out.rho22.real == pytest.approx(0.5, abs=1e-12)


def test_thermal_quarter_pulse():
    out = evolve(BASIS, 0.0, math.pi / 4.0, Regime.THERMAL)
    assert out.rho11.real == pytest.approx(0.5, abs=1e-15)
    assert out.rho12.imag == pytest.approx(-0.5, abs=1e-15)
    # both off-diagonal variants agree here since Im rho12(0) = 0
    folded = evolve(BASIS, 0.0, math.pi / 4.0, Regime.THERMAL, variant=THERMAL_FOLDED)
    assert out == folded


def test_zero_control_thermal_examples():
    ident = zero_control_thermal(FIG, 0.0)
    assert_matrix_close(ident, FIG, tol=1e-15)
    g = 0.5 * math.log(2.0)  # e^{-2g} = 1/2
    out = zero_control_thermal(BASIS, g)
    assert out.rho11.real == pytest.approx(0.75, abs=1e-15)
    assert out.rho22.real == pytest.approx(0.25, abs=1e-15)
    deep = zero_control_thermal(BASIS, 50.0)
    assert deep.rho11.real == pytest.approx(0.5, abs=1e-12)


def test_zero_control_thermal_matches_full_map_at_zero_pulse():
    for g in (0.0, 0.4, 3.0):
        full = evolve(FIG, g, 0.0, Regime.THERMAL, variant=THERMAL_CONSISTENT)
        free = zero_control_thermal(FIG, g)
        assert_matrix_close(full, free, tol=1e-16)


def test_unknown_thermal_variant_rejected():
    with pytest.raises(ValueError, match="variant"):
        evolve(FIG, 0.0, 0.0, Regime.THERMAL, variant="bogus")


def test_hermitize_flag():
    rho = DensityMatrix.from_pure_state(cmath.exp(0.7j) * 0.6, 0.8)
    out = evolve(rho, 0.2, 0.3, Regime.THERMAL, variant=THERMAL_FOLDED, hermitize=True)
    assert out.rho21 == out.rho12.conjugate()


# --------------------------------------------------------------- properties

amplitude = st.tuples(
    st.floats(-1, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False)
)


@st.composite
def pure_states(draw):
    (a, b) = draw(amplitude)
    (c, d) = draw(amplitude)
    norm = math.hypot(math.hypot(a, b), math.hypot(c, d))
    if norm < 1e-3:
        a, norm, b, c, d = 1.0, 1.0, 0.0, 0.0, 0.0
    return DensityMatrix.from_pure_state(complex(a, b) / norm, complex(c, d) / norm)


@given(
    pure_states(),
    st.floats(0.0, 50.0, allow_nan=False),
    st.floats(-math.pi, math.pi, allow_nan=False),
)
def test_trace_preserved_both_regimes(rho, g, pulse):
    for regime in (Regime.ADIABATIC, Regime.THERMAL):
        out = evolve(rho, g, pulse, regime)
        assert abs(out.trace() - 1.0) <= 1e-12


@given(
    pure_states(),
    st.floats(0.0, 10.0, allow_nan=False),
    st.floats(-math.pi, math.pi, allow_nan=False),
)
def test_adiabatic_hermiticity(rho, g, pulse):
    out = evolve(rho, g, pulse, Regime.ADIABATIC)
    assert abs(out.rho21 - out.rho12.conjugate()) <= 1e-14
    assert abs(out.rho11.imag) <= 1e-14
    assert abs(out.rho22.imag) <= 1e-14


@given(
    pure_states(),
    st.floats(0.0, 5.0, allow_nan=False),
    st.floats(-math.pi, math.pi, allow_nan=False),
)
def test_pi_periodicity(rho, g, pulse):
    for regime in (Regime.ADIABATIC, Regime.THERMAL):
        a = evolve(rho, g, pulse, regime)
        b = evolve(rho, g, pulse + math.pi, regime)
        for x, y in zip(a.components(), b.components()):
            assert x == pytest.approx(y, abs=1e-12)


def test_component_response_equals_full_map():
    # every component of every map is exactly A + B cos 2I + C sin 2I, with (A, B, C)
    # the component's harmonic_table row
    import random

    rnd = random.Random(7)
    states = [FIG] + [
        DensityMatrix.from_pure_state(cmath.exp(1j * rnd.uniform(0, 6.3)) * math.sqrt(p),
                                      math.sqrt(1.0 - p))
        for p in (0.1, 0.6, 0.9)
    ]
    maps = [(Regime.ADIABATIC, THERMAL_CONSISTENT), (Regime.THERMAL, THERMAL_CONSISTENT),
            (Regime.THERMAL, THERMAL_FOLDED)]
    for rho in states:
        for regime, variant in maps:
            rows = harmonic_table(rho, [0.8], regime, variant)[0]
            for _ in range(20):
                pulse = rnd.uniform(-math.pi, math.pi)
                want = oracle_components(rho, 0.8, pulse, regime, variant)
                fitted = rows @ (1.0, math.cos(2.0 * pulse), math.sin(2.0 * pulse))
                assert np.abs(fitted - want).max() <= 1e-15


def test_component_response_example_idx3():
    # Im rho12 of the figure state is e^-g Im rho12(0) cos 2I: (A, B, C) = (0, e^-g/2, 0)
    for g in (0.0, 0.7, 2.0):
        coefs = harmonic_table(FIG, [g], Regime.ADIABATIC)[0, Component.RHO12_IM]
        assert tuple(coefs) == pytest.approx((0.0, 0.5 * math.exp(-g), 0.0), abs=1e-15)


@pytest.mark.parametrize("regime, variant, hermitize", [
    (Regime.ADIABATIC, THERMAL_CONSISTENT, False),
    (Regime.THERMAL, THERMAL_CONSISTENT, False),
    (Regime.THERMAL, THERMAL_FOLDED, False),
    (Regime.THERMAL, THERMAL_FOLDED, True),
])
def test_harmonic_table_rows_are_the_components_coefficients(regime, variant, hermitize):
    # `evolve` and the control loop read the same rows: bit for bit at any pulse area
    rho = DensityMatrix.from_pure_state(cmath.exp(0.7j) * 0.6, 0.8)
    g_values = (0.0, 0.01, 0.4, 3.0)
    table = harmonic_table(rho, g_values, regime, variant, hermitize)
    assert table.shape == (4, 8, 3)
    for k, g in enumerate(g_values):
        for pulse in (0.0, 0.3, -1.1, math.pi / 4.0):
            c, s = math.cos(2.0 * pulse), math.sin(2.0 * pulse)
            out = evolve(rho, g, pulse, regime, variant=variant, hermitize=hermitize)
            assert [a + b * c + k_ * s for a, b, k_ in table[k].tolist()] == list(out.components())


# ------------------------------------------------------------------- oracle

def oracle_components(rho, g, pulse, regime, variant, hermitize=False):
    """The eight components of the map, from the numpy oracles."""
    rho0 = [[rho.rho11, rho.rho12], [rho.rho21, rho.rho22]]
    if regime is Regime.THERMAL and variant == THERMAL_FOLDED:
        out = folded_thermal_oracle(rho0, g, pulse)
    else:
        out = controlled_matrix_oracle(rho0, g, pulse, thermal=regime is Regime.THERMAL)
    if hermitize:
        out[1, 0] = out[0, 1].conjugate()
    return np.array([[z.real, z.imag] for z in out.ravel()]).ravel()


@pytest.mark.parametrize("regime, variant, hermitize", [
    (Regime.ADIABATIC, THERMAL_CONSISTENT, False),
    (Regime.ADIABATIC, THERMAL_CONSISTENT, True),
    (Regime.THERMAL, THERMAL_CONSISTENT, False),
    (Regime.THERMAL, THERMAL_CONSISTENT, True),
    (Regime.THERMAL, THERMAL_FOLDED, False),
    (Regime.THERMAL, THERMAL_FOLDED, True),
])
def test_rows_and_evolve_match_the_matrix_oracle(regime, variant, hermitize):
    rng = np.random.default_rng(29)
    amps = rng.normal(size=(250, 4))
    gs = 50.0 * rng.random(250) ** 3          # all of [0, 50], most of it where g is small
    pulses = rng.uniform(-math.pi, math.pi, 250)
    for (a, b, c, d), g, pulse in zip(amps, gs, pulses):
        norm = math.sqrt(a * a + b * b + c * c + d * d)
        rho = DensityMatrix.from_pure_state(complex(a, b) / norm, complex(c, d) / norm)
        want = oracle_components(rho, g, pulse, regime, variant, hermitize)
        rows = harmonic_table(rho, [g], regime, variant, hermitize)[0]
        from_rows = rows @ (1.0, math.cos(2.0 * pulse), math.sin(2.0 * pulse))
        from_evolve = evolve(rho, g, pulse, regime, variant=variant, hermitize=hermitize)
        assert np.abs(from_rows - want).max() <= 1e-15
        assert np.abs(np.array(from_evolve.components()) - want).max() <= 1e-15
