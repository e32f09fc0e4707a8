"""Independent brute-force oracles for the decoherence kernels and the evolution maps.

The kernel oracles are deliberately written against the raw integrand
definitions with composite Simpson on dense fixed grids, sharing no code with
the package's Matsubara series. The thermal kernel is split around its
removable singularity: plain Simpson on both sides of a small symmetric
window, plus the window's Taylor-series contribution.

The map oracles take the initial state as a 2x2 complex array and return the
evolved 2x2 matrix: one as the matrix product U D_g(rho0) U^dagger, the other
as the folded thermal variant's formula, element by element.
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


def controlled_matrix_oracle(rho0, g, pulse_area, thermal=False):
    """U D_g(rho0) U^dagger with U = exp(i I sigma_x) = cos I + i sin I sigma_x.

    D_g multiplies the coherences by e^-g; with `thermal` it also relaxes the
    population difference about 1/2 by e^-2g (the consistent thermal variant).
    """
    m = np.array(rho0, dtype=complex)
    m[0, 1] *= np.exp(-g)
    m[1, 0] *= np.exp(-g)
    if thermal:
        half_difference = 0.5 * (m[0, 0] - m[1, 1]) * np.exp(-2.0 * g)
        m[0, 0], m[1, 1] = 0.5 + half_difference, 0.5 - half_difference
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    u = np.cos(pulse_area) * np.eye(2) + 1j * np.sin(pulse_area) * sigma_x
    return u @ m @ u.conj().T


def folded_thermal_oracle(rho0, g, pulse_area):
    """The folded thermal variant as first written, element by element: Im rho12(0)
    enters the real part of rho12 through cos 2I."""
    c2, s2 = np.cos(2.0 * pulse_area), np.sin(2.0 * pulse_area)
    eg, e2g = np.exp(-g), np.exp(-2.0 * g)
    (r11, r12), (r21, r22) = np.array(rho0, dtype=complex)
    d = r11 - r22
    n11 = 0.5 * (1.0 + d * e2g * c2 - 1j * (r12 - r21) * eg * s2)
    n22 = 0.5 * (1.0 - d * e2g * c2 + 1j * (r12 - r21) * eg * s2)
    n12 = (r12.real + r12.imag * c2) * eg - 0.5j * d * e2g * s2
    n21 = (r21.real + r21.imag * c2) * eg + 0.5j * d * e2g * s2
    return np.array([[n11, n12], [n21, n22]])
