"""Independent brute-force quadrature oracles for the decoherence kernels.

Deliberately written against the raw integrand definitions with composite
Simpson on dense fixed grids, sharing no code with the package's adaptive
Gauss-Legendre path. The thermal kernel is split around its removable
singularity: plain Simpson on both sides of a small symmetric window, plus
the window's Taylor-series contribution.
"""

import numpy as np


def _coth(x):
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)               # coth(x) - 1 < 5e-18 for x > 20
    small = np.abs(x) < 1e-6
    mid = ~small & (x <= 20.0)
    xs = x[small]
    out[small] = 1.0 / xs + xs / 3.0
    out[mid] = np.cosh(x[mid]) / np.sinh(x[mid])
    return out


def _simpson(y, x):
    n = len(x) - 1
    assert n % 2 == 0
    h = (x[-1] - x[0]) / n
    return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())


def g_adiabatic_oracle(tau, gamma=1.0, n=3, omega_c=10.0, beta0=1.0,
                       panels=1_200_000, cut_mult=60.0):
    """Composite-Simpson evaluation of the dephasing exponent."""
    if tau == 0.0 or gamma == 0.0:
        return 0.0
    x = np.linspace(0.0, cut_mult * omega_c, panels + 1)
    y = np.zeros_like(x)
    pos = x > 0
    w = x[pos]
    y[pos] = w ** (n - 2) * np.exp(-w / omega_c) * (1.0 - np.cos(w * tau)) * _coth(0.5 * beta0 * w)
    if n == 1:
        y[~pos] = tau * tau / beta0
    return gamma * _simpson(y, x)


def g_thermal_oracle(tau, gamma=1.0, omega_c=10.0, beta0=1.0, omega12=1.0,
                     panels=1_200_000, cut_mult=60.0, window=5e-4):
    """Singularity-split Simpson evaluation of the dissipation exponent."""
    if tau == 0.0 or gamma == 0.0:
        return 0.0
    cut = cut_mult * omega_c

    def smooth(w):
        return w ** 3 * _coth(0.5 * beta0 * w) * np.exp(-w / omega_c)

    def outside(a, b, np_):
        x = np.linspace(a, b, np_ + 1)
        y = np.zeros_like(x)
        pos = x > 0
        w = x[pos]
        d = omega12 - w
        y[pos] = 2.0 * np.sin(0.5 * d * tau) ** 2 / (d * d) * smooth(w)   # 1 - cos, without cancellation
        return _simpson(y, x)

    lo = omega12 - window
    hi = omega12 + window
    n_lo = max(2000, int(panels * lo / cut) // 2 * 2)
    n_hi = max(2000, int(panels * (cut - hi) / cut) // 2 * 2)
    total = outside(0.0, lo, n_lo) + outside(hi, cut, n_hi)

    # window contribution via the Taylor expansion of the singular factor
    x = np.linspace(lo, hi, 4001)
    d = omega12 - x
    series = tau ** 2 / 2.0 - d ** 2 * tau ** 4 / 24.0 + d ** 4 * tau ** 6 / 720.0
    total += _simpson(series * smooth(x), x)
    return gamma * total


def spectral_moment(m, omega_c=10.0, beta0=1.0, panels=1_200_000, cut_mult=60.0):
    """Composite-Simpson moment int_0^inf w^m e^(-w/omega_c) coth(beta0 w/2) dw, m >= 1.

    Expanding the cosines in tau, the dephasing kernel is
    gamma * (tau^2/2 M_n - tau^4/24 M_(n+2) + ...) and the dissipation kernel
    gamma * (tau^2/2 M_3 - tau^4/24 (M_5 - 2 omega12 M_4 + omega12^2 M_3) + ...).
    """
    x = np.linspace(0.0, cut_mult * omega_c, panels + 1)
    y = np.zeros_like(x)
    pos = x > 0
    w = x[pos]
    y[pos] = w ** m * np.exp(-w / omega_c) * _coth(0.5 * beta0 * w)
    if m == 1:
        y[~pos] = 2.0 / beta0
    return _simpson(y, x)
