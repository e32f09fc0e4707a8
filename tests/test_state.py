import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bangbang import COMPONENT_LABELS, Component, DensityMatrix
from bangbang.state import _NORM_TOL

SQ2 = 1.0 / math.sqrt(2.0)


def test_basis_state():
    rho = DensityMatrix.from_pure_state(1.0, 0.0)
    assert rho.rho11 == 1.0
    assert rho.rho22 == 0.0
    assert rho.rho12 == 0.0
    assert rho.rho21 == 0.0


def test_figure_initial_state():
    rho = DensityMatrix.from_pure_state(1j * SQ2, SQ2)
    assert rho.rho11.real == pytest.approx(0.5, abs=1e-15)
    assert rho.rho22.real == pytest.approx(0.5, abs=1e-15)
    assert rho.rho12 == pytest.approx(0.5j, abs=1e-15)
    assert rho.rho21 == pytest.approx(-0.5j, abs=1e-15)


def test_symmetric_superposition():
    rho = DensityMatrix.from_pure_state(SQ2, SQ2)
    assert rho.rho12.imag == 0.0
    assert rho.rho12.real == pytest.approx(0.5, abs=1e-15)


def test_rejects_unnormalized():
    with pytest.raises(ValueError, match="not normalized"):
        DensityMatrix.from_pure_state(1.0, 1.0)
    with pytest.raises(ValueError, match="deviates"):
        DensityMatrix.from_pure_state(1.0 + 1e-6, 0.0)


def test_component_examples():
    basis = DensityMatrix.from_pure_state(1.0, 0.0)
    assert basis.component(Component.RHO11_RE) == 1.0
    assert basis.component(Component.RHO22_IM) == 0.0
    fig = DensityMatrix.from_pure_state(1j * SQ2, SQ2)
    assert fig.component(3) == pytest.approx(0.5, abs=1e-15)


def test_component_order_is_frozen():
    assert COMPONENT_LABELS == (
        "rho11_re", "rho11_im", "rho12_re", "rho12_im",
        "rho21_re", "rho21_im", "rho22_re", "rho22_im",
    )
    assert [c.value for c in Component] == list(range(8))


amplitude = st.tuples(
    st.floats(-1, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False)
)


@st.composite
def pure_amplitudes(draw):
    (a, b) = draw(amplitude)
    (c, d) = draw(amplitude)
    norm = math.hypot(math.hypot(a, b), math.hypot(c, d))
    if norm < 1e-3:
        a, norm = 1.0, 1.0
        b = c = d = 0.0
    return complex(a, b) / norm, complex(c, d) / norm


@given(pure_amplitudes())
@example(amps=((0.7525766947068779 + 0.6585046078685182j), 0j))   # |c1|^2 = 1 + 4e-16
def test_pure_state_invariants(amps):
    # from_pure_state accepts norms within _NORM_TOL of 1, so rho11 may leave [0, 1] by as much
    c1, c2 = amps
    rho = DensityMatrix.from_pure_state(c1, c2)
    assert abs(rho.trace() - 1.0) <= 1e-12
    assert rho.rho21 == rho.rho12.conjugate()
    assert -_NORM_TOL <= rho.rho11.real <= 1.0 + _NORM_TOL
    assert rho.rho11.imag == 0.0


@given(pure_amplitudes())
def test_component_round_trip(amps):
    rho = DensityMatrix.from_pure_state(*amps)
    comps = rho.components()
    again = DensityMatrix(*map(complex, comps[::2], comps[1::2]))
    assert again == rho
    assert all(again.component(k) == rho.components()[k] for k in range(8))
