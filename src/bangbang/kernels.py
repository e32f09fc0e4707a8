"""Decoherence kernels: the dephasing and dissipation exponents of the boson bath.

With coth(x/2) = 1 + 2 sum_k e^(-k x), every integral over the bath spectrum
omega^(n-2) e^(-omega/omega_c) coth(beta0 omega/2) is a Matsubara series over
a_k = 1/omega_c + k beta0, w_0 = 1, w_k = 2 (Leggett et al., Rev. Mod. Phys. 59, 1
(1987); Breuer & Petruccione, The Theory of Open Quantum Systems (2002), ch. 4):
    adiabatic  g(tau) = gamma sum_k w_k Re[phi_p(a_k) - phi_p(a_k - i tau)],  p = n - 1,
    thermal    g(tau) = gamma int_0^tau (tau - s) Re[e^(-i omega12 s) C(s)] ds,
               C(s) = sum_k w_k phi_4(a_k - i s),
with phi_m(x) = Gamma(m) x^-m, phi_0 = -log x, phi_-1 = x log x - x, so phi_m' = -phi_(m+1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache

import numpy as np


class Regime(str, Enum):
    ADIABATIC = "adiabatic"
    THERMAL = "thermal"


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the bath coupling, in Rabi-normalized units."""

    regime: Regime = Regime.ADIABATIC
    gamma: float = 1.0      # dimensionless decoherence strength, >= 0
    n: int = 3              # bath dimensionality (adiabatic only; thermal is n = 3)
    omega_c: float = 10.0   # spectral cutoff frequency
    beta0: float = 1.0      # dimensionless inverse temperature (opaque scale)
    omega12: float = 1.0    # level splitting; enters the thermal kernel only

    def __post_init__(self):
        for name in ("gamma", "omega_c", "beta0", "omega12"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma!r}")
        for name in ("omega_c", "beta0", "omega12"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1 for an integrable kernel, got {self.n!r}")


_DIRECT = 16
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)
# series row orders: 16 direct terms, then the Euler-Maclaurin tail at a_16 (see _series)
_ORDER = np.array([0] * _DIRECT + [-1, 0] + [2 * j - 1 for j in range(1, len(_BERNOULLI) + 1)])
_GL_X, _GL_W = np.polynomial.legendre.leggauss(24)
_CHUNK = 4096            # series arguments per integrand call, to bound its temporaries
_MAX_PANELS = 1 << 16    # whole panels of the thermal s-partition


def _polar(p: int, x: np.ndarray, t: np.ndarray):
    """Row orders m = p + _ORDER, Gamma(m) x^-m (0 for m <= 0), u = t/x, log1p(u^2), arctan u."""
    m = (p + _ORDER)[:, None]
    gamma_m = np.array([math.gamma(k) if k > 0 else 0.0 for k in m.ravel()])[:, None]
    u = t / x
    return m, gamma_m * x ** -m, u, np.log1p(u * u), np.arctan(u)


def _series(integrand, t: np.ndarray, params: ModelParams) -> np.ndarray:
    """sum_k w_k F_0(a_k) at every t, from the rows F_m `integrand` evaluates. As
    F_m' = -F_(m+1), Euler-Maclaurin gives sum_(k>=16) F_0(a_k) = F_-1(a_16)/beta0
    + F_0(a_16)/2 + sum_j B_2j/(2j)! beta0^(2j-1) F_(2j-1)(a_16)."""
    b = params.beta0
    x = 1.0 / params.omega_c + b * np.minimum(np.arange(_ORDER.size), _DIRECT)
    weights = [1.0] + [2.0] * (_DIRECT - 1) + [2.0 / b, 1.0] + [
        2.0 * B * b ** (2 * j - 1) / math.factorial(2 * j) for j, B in enumerate(_BERNOULLI, 1)]
    total = np.zeros(t.shape)
    for lo in range(0, t.size, _CHUNK):
        part = t[lo:lo + _CHUNK]
        rows = integrand(np.repeat(x[:, None], part.size, axis=1), part, params)
        for w, row in zip(weights, rows):
            total[lo:lo + _CHUNK] += w * row
    return total


def adiabatic_integrand(x: np.ndarray, tau: np.ndarray, params: ModelParams) -> np.ndarray:
    """Series rows Re[phi_m(x) - phi_m(x - i tau)] of the dephasing exponent, m = n - 1 + order:
    Gamma(m) x^-m [-expm1(-m L/2) + 2 (1 + u^2)^(-m/2) sin^2(m psi/2)] for m >= 1, L/2 for
    m = 0, x (u psi - L/2) for m = -1, with u = tau/x, L = log(1 + u^2), psi = arctan u.
    Each is a sum of non-negative terms, so small tau does not cancel."""
    m, power, u, L, psi = _polar(params.n - 1, x, tau)
    power = power * (2.0 * np.exp(-0.5 * m * L) * np.sin(0.5 * m * psi) ** 2
                     - np.expm1(-0.5 * m * L))
    return power + np.where(m == 0, 0.5 * L, 0.0) + np.where(m == -1, x * (u * psi - 0.5 * L), 0.0)


def thermal_integrand(x: np.ndarray, s: np.ndarray, params: ModelParams) -> np.ndarray:
    """Series rows Re[e^(-i omega12 s) phi_m(x - i s)] of the thermal integrand, m = 4 + order,
    as (x - i s)^-m = x^-m (1 + u^2)^(-m/2) e^(i m arctan u) with u = s/x."""
    m, power, _, L, psi = _polar(4, x, s)
    return power * np.exp(-0.5 * m * L) * np.cos(m * psi - params.omega12 * s)


def _thermal(taus: np.ndarray, params: ModelParams) -> np.ndarray:
    """int_0^tau (tau - s) h(s) ds, h the thermal integrand: tau H0 - H1 over the whole panels
    below tau, plus the rest up to tau. A panel is as wide as its distance to C's nearest pole,
    s = -i/omega_c, and at most one period of e^(-i omega12 s): a partition fixed by the model."""
    edges = [0.0]
    while edges[-1] < taus[-1]:
        if len(edges) > _MAX_PANELS:
            raise ValueError(f"over {_MAX_PANELS} thermal panels up to tau = {taus[-1]:g}")
        edges.append(edges[-1] + min(max(1.0 / params.omega_c, edges[-1]),
                                     2.0 * math.pi / params.omega12))
    edges = np.array(edges)
    last = np.searchsorted(edges, taus, side="right") - 1
    lo = np.concatenate([edges[:-1], edges[last]])
    half = 0.5 * (np.concatenate([edges[1:], taus]) - lo)
    s = (lo + half)[:, None] + half[:, None] * _GL_X
    h = _series(thermal_integrand, s.ravel(), params).reshape(s.shape) * half[:, None] * _GL_W
    whole = edges.size - 1
    h0 = np.concatenate([[0.0], np.cumsum(h[:whole].sum(axis=1))])
    h1 = np.concatenate([[0.0], np.cumsum((h[:whole] * s[:whole]).sum(axis=1))])
    return taus * h0[last] - h1[last] + ((taus[:, None] - s[whole:]) * h[whole:]).sum(axis=1)


@lru_cache(maxsize=32)
def _table(taus: tuple[float, ...], params: ModelParams) -> tuple[float, ...]:
    t = np.array(taus)
    with np.errstate(all="ignore"):   # an overflow shows as a non-finite value below
        g = params.gamma * (_series(adiabatic_integrand, t, params)
                            if params.regime is Regime.ADIABATIC else _thermal(t, params))
    if not np.isfinite(g).all():
        raise ValueError(f"kernel is not finite for {params}")
    return tuple(g.tolist())


def tabulate_kernel(taus, params: ModelParams) -> list[float]:
    """The regime's kernel g(tau) on a strictly increasing grid of finite taus >= 0."""
    taus = tuple(map(float, taus))
    if not all(math.isfinite(t) and t >= 0 for t in taus):
        raise ValueError(f"taus must be finite and >= 0, got {taus[:8]!r}")
    if any(b <= a for a, b in zip(taus, taus[1:])):
        raise ValueError("taus must be strictly increasing")
    return list(_table(taus, params)) if taus else []


def g_adiabatic(tau: float, params: ModelParams) -> float:
    """Dephasing exponent g_ad(tau); g_ad(0) = 0, linear in gamma."""
    return tabulate_kernel([tau], replace(params, regime=Regime.ADIABATIC))[0]


def g_thermal(tau: float, params: ModelParams) -> float:
    """Dissipation exponent g_th(tau); g_th(0) = 0, linear in gamma."""
    return tabulate_kernel([tau], replace(params, regime=Regime.THERMAL))[0]
