"""Closed-form reduced dynamics of the two-level system.

Each map sends the state at an element's last reset to the state after an
accumulated decoherence exponent g and an accumulated control pulse area I.
These are not step-by-step propagators: g and I are the total effects since
the reset, and the maps are evaluated directly at those totals.

A map is U M U^dagger with M = D_g(rho0), the free decay (`zero_control`), and
U = exp(i I sigma_x). Every element of it is A + B cos 2I + C sin 2I, and the
rows (A, B, C) are written out from the elements of M (`_rows`); a control run
meets only ages 0..8, so one table of rows (`harmonic_table`) is every map it
needs.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import Regime
from .state import DensityMatrix

# Thermal off-diagonal variants. "consistent" keeps the zero-control limit
# rho12 -> rho12 * e^-g exact (identity map at g = I = 0). "folded" reproduces
# the variant where Im{rho12(0)} enters the real part through cos(2I), which
# contradicts that limit (rho12 -> Re+Im at g = I = 0); kept for comparison.
THERMAL_CONSISTENT = "consistent"
THERMAL_FOLDED = "folded"


def zero_control(rho0: DensityMatrix, g: float, regime: Regime) -> DensityMatrix:
    """D_g(rho0), the free decay: the coherences damped by e^-g and, in the thermal
    regime, the population difference relaxed about 1/2 by e^-2g."""
    eg = math.exp(-g)
    m11, m22 = rho0.rho11, rho0.rho22
    if regime is Regime.THERMAL:
        e2g = math.exp(-2.0 * g)
        d = m11 - m22
        m11, m22 = 0.5 * (1.0 + e2g * d), 0.5 * (1.0 - e2g * d)
    return DensityMatrix(m11, rho0.rho12 * eg, rho0.rho21 * eg, m22)


def zero_control_adiabatic(rho0: DensityMatrix, g: float) -> DensityMatrix:
    """Pure dephasing: diagonals untouched, off-diagonals damped by e^-g."""
    return zero_control(rho0, g, Regime.ADIABATIC)


def zero_control_thermal(rho0: DensityMatrix, g: float) -> DensityMatrix:
    """Free relaxation toward the maximally mixed diagonal."""
    return zero_control(rho0, g, Regime.THERMAL)


def _rows(rho0: DensityMatrix, g: float, regime: Regime,
          variant: str) -> list[tuple[float, float, float]]:
    """(A, B, C) of the eight components after decoherence g, in the `Component` order.

    With M = D_g(rho0), the elements of U M U^dagger have the rows
    11: (M11 + M22, M11 - M22, i(M21 - M12)) / 2,
    12: (M12 + M21, M12 - M21, i(M22 - M11)) / 2,
    21: (M12 + M21, M21 - M12, i(M11 - M22)) / 2,
    22: (M11 + M22, M22 - M11, i(M12 - M21)) / 2;
    the folded thermal variant multiplies the two off-diagonal B by -i.
    """
    if regime is Regime.THERMAL and variant not in (THERMAL_CONSISTENT, THERMAL_FOLDED):
        raise ValueError(f"unknown thermal variant {variant!r}")
    m = zero_control(rho0, g, regime)
    m11, m12, m21, m22 = m.rho11, m.rho12, m.rho21, m.rho22
    b12, b21 = 0.5 * (m12 - m21), 0.5 * (m21 - m12)
    if regime is Regime.THERMAL and variant == THERMAL_FOLDED:
        b12, b21 = -1j * b12, -1j * b21
    elements = ((0.5 * (m11 + m22), 0.5 * (m11 - m22), 0.5j * (m21 - m12)),
                (0.5 * (m12 + m21), b12, 0.5j * (m22 - m11)),
                (0.5 * (m12 + m21), b21, 0.5j * (m11 - m22)),
                (0.5 * (m11 + m22), 0.5 * (m22 - m11), 0.5j * (m12 - m21)))
    return [row for a, b, c in elements
            for row in ((a.real, b.real, c.real), (a.imag, b.imag, c.imag))]


def _hermitized(table: np.ndarray) -> np.ndarray:
    """A (..., 8, 3) table with the rows of rho21 replaced by those of conj(rho12)."""
    out = table.copy()
    out[..., 4, :], out[..., 5, :] = table[..., 2, :], -table[..., 3, :]
    return out


def harmonic_table(
    rho0: DensityMatrix,
    g_values,
    regime: Regime,
    variant: str = THERMAL_CONSISTENT,
    hermitize: bool = False,
) -> np.ndarray:
    """(len(g_values), 8, 3) array: entry [k, e] is (A, B, C) of component e at g_values[k]."""
    table = np.array([_rows(rho0, g, regime, variant) for g in g_values],
                     dtype=float).reshape(-1, 8, 3)
    return _hermitized(table) if hermitize else table


def evolve(
    rho0: DensityMatrix,
    g: float,
    pulse_area: float,
    regime: Regime,
    variant: str = THERMAL_CONSISTENT,
    hermitize: bool = False,
) -> DensityMatrix:
    """The state after decoherence g and pulse area I: each component A + B cos 2I + C sin 2I.

    `hermitize` sets rho21 = conj(rho12).
    """
    c, s = math.cos(2.0 * pulse_area), math.sin(2.0 * pulse_area)
    v = [a + b * c + k * s for a, b, k in _rows(rho0, g, regime, variant)]
    out = DensityMatrix(*map(complex, v[::2], v[1::2]))
    return out.hermitized() if hermitize else out
