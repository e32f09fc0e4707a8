"""Closed-form reduced dynamics of the two-level system.

Each map sends the state at an element's last reset to the state after an
accumulated decoherence exponent g and an accumulated control pulse area I.
These are not step-by-step propagators: g and I are the total effects since
the reset, and the maps are evaluated directly at those totals.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .kernels import Regime
from .state import DensityMatrix

# Thermal off-diagonal variants. "consistent" keeps the zero-control limit
# rho12 -> rho12 * e^-g exact (identity map at g = I = 0). "folded" reproduces
# the variant where Im{rho12(0)} enters the real part through cos(2I), which
# contradicts that limit (rho12 -> Re+Im at g = I = 0); kept for comparison.
THERMAL_CONSISTENT = "consistent"
THERMAL_FOLDED = "folded"


def evolve_adiabatic(rho0: DensityMatrix, g: float, pulse_area: float) -> DensityMatrix:
    """Dephasing-regime map: off-diagonals damped by e^-g, control rotates populations."""
    c = math.cos(pulse_area)
    s = math.sin(pulse_area)
    cs = c * s
    eg = math.exp(-g)
    r11, r12, r21, r22 = rho0.rho11, rho0.rho12, rho0.rho21, rho0.rho22
    return DensityMatrix(
        rho11=r11 * c * c + r22 * s * s - 1j * (r12 - r21) * eg * cs,
        rho12=r12 * eg * c * c + r21 * eg * s * s + 1j * (r22 - r11) * cs,
        rho21=r21 * eg * c * c + r12 * eg * s * s - 1j * (r22 - r11) * cs,
        rho22=r22 * c * c + r11 * s * s + 1j * (r12 - r21) * eg * cs,
    )


def evolve_thermal(
    rho0: DensityMatrix,
    g: float,
    pulse_area: float,
    variant: str = THERMAL_CONSISTENT,
    hermitize: bool = False,
) -> DensityMatrix:
    """Dissipation-regime map; all elements relax, control enters via cos/sin(2I)."""
    c2 = math.cos(2.0 * pulse_area)
    s2 = math.sin(2.0 * pulse_area)
    eg = math.exp(-g)
    e2g = math.exp(-2.0 * g)
    r11, r12, r21, r22 = rho0.rho11, rho0.rho12, rho0.rho21, rho0.rho22
    d = r11 - r22
    n11 = 0.5 * (1.0 + d * e2g * c2 - 1j * (r12 - r21) * eg * s2)
    n22 = 0.5 * (1.0 - d * e2g * c2 + 1j * (r12 - r21) * eg * s2)
    if variant == THERMAL_CONSISTENT:
        n12 = complex(r12.real, r12.imag * c2) * eg - 0.5j * d * e2g * s2
        n21 = complex(r21.real, r21.imag * c2) * eg + 0.5j * d * e2g * s2
    elif variant == THERMAL_FOLDED:
        n12 = (r12.real + r12.imag * c2) * eg - 0.5j * d * e2g * s2
        n21 = (r21.real + r21.imag * c2) * eg + 0.5j * d * e2g * s2
    else:
        raise ValueError(f"unknown thermal variant {variant!r}")
    out = DensityMatrix(n11, n12, n21, n22)
    return out.hermitized() if hermitize else out


def zero_control_adiabatic(rho0: DensityMatrix, g: float) -> DensityMatrix:
    """Pure dephasing: diagonals untouched, off-diagonals damped by e^-g.

    Defined as the full map at I = 0 so the two agree bit for bit.
    """
    return evolve_adiabatic(rho0, g, 0.0)


def zero_control_thermal(rho0: DensityMatrix, g: float) -> DensityMatrix:
    """Free relaxation toward the maximally mixed diagonal."""
    e2g = math.exp(-2.0 * g)
    eg = math.exp(-g)
    d = rho0.rho11 - rho0.rho22
    return DensityMatrix(
        rho11=0.5 * (1.0 + e2g * d),
        rho12=rho0.rho12 * eg,
        rho21=rho0.rho21 * eg,
        rho22=0.5 * (1.0 - e2g * d),
    )


def evolve(
    rho0: DensityMatrix,
    g: float,
    pulse_area: float,
    regime: Regime,
    variant: str = THERMAL_CONSISTENT,
    hermitize: bool = False,
) -> DensityMatrix:
    if regime is Regime.ADIABATIC:
        return evolve_adiabatic(rho0, g, pulse_area)
    return evolve_thermal(rho0, g, pulse_area, variant=variant, hermitize=hermitize)


def zero_control(rho0: DensityMatrix, g: float, regime: Regime) -> DensityMatrix:
    if regime is Regime.ADIABATIC:
        return zero_control_adiabatic(rho0, g)
    return zero_control_thermal(rho0, g)


def harmonic_coefficients(response: Callable[[float], float]) -> tuple[float, float, float]:
    """(A, B, C) with response(I) = A + B cos 2I + C sin 2I, from three evaluations.

    A response that returns an array of components gives arrays, element by element.

    Every component of every map above has this form in the pulse area: the
    adiabatic map through c^2 = (1 + cos 2I)/2, s^2 = (1 - cos 2I)/2 and
    cs = sin 2I / 2, the thermal map (either variant) directly. Sampling at
    I = +-pi/4 makes C exact even though cos(2 * fl(pi/4)) is not exactly 0.
    """
    f0, fp, fm = response(0.0), response(math.pi / 4.0), response(-math.pi / 4.0)
    b = f0 - 0.5 * (fp + fm)
    return f0 - b, b, 0.5 * (fp - fm)


def harmonic_table(
    rho0: DensityMatrix,
    g_values,
    regime: Regime,
    variant: str = THERMAL_CONSISTENT,
    hermitize: bool = False,
) -> np.ndarray:
    """(len(g_values), 8, 3) array: entry [k, e] is (A, B, C) of component e at g_values[k].

    A control run meets only ages 0..8, so this table is every map it needs;
    each age costs three `evolve` calls, combined as in `harmonic_coefficients`.
    """
    def response(pulse_area: float) -> np.ndarray:
        return np.array([evolve(rho0, g, pulse_area, regime, variant, hermitize).components()
                         for g in g_values])

    return np.stack(harmonic_coefficients(response), axis=-1)
