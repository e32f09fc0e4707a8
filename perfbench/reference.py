"""Decoherence kernels computed apart from the program, for checking its tables.

Both kernels are written from the bath's Matsubara series,
coth(x/2) = 1 + 2 * sum_k exp(-k x), so that every frequency integral is in
closed form with a_k = 1/omega_c + k*beta0 and weights w_0 = 1, w_k = 2:

- adiabatic (n = 3): the kernel itself is the series
  g(tau) = gamma * sum_k w_k [a_k^-2 - Re (a_k - i tau)^-2];
- thermal (n = 3): the bath correlation function
  C(s) = sum_k w_k 6 / (a_k - i s)^4 enters
  g(tau) = gamma * int_0^tau (tau - s) Re[exp(-i omega12 s) C(s)] ds,
  integrated with Gauss-Legendre panels no wider than a quarter of C's local
  scale max(a_0, s) or a quarter period of exp(-i omega12 s).

Each series is summed to K terms and closed with its midpoint-rule integral
tail; K grows with the largest tau so the tail stays far below 1e-12
relative. Nothing here shares code with the package's quadrature.
"""

from __future__ import annotations

import math

import numpy as np

_GL_X, _GL_W = np.polynomial.legendre.leggauss(24)
_BLOCK = 64   # series terms per vectorized block, to keep temporaries small


def _terms(smax: float, beta0: float) -> int:
    return 256 + 64 * math.ceil(smax / beta0)


def _weights(k: np.ndarray) -> np.ndarray:
    return np.where(k == 0, 1.0, 2.0)


def g_adiabatic_matsubara(taus, gamma: float, n: int, omega_c: float,
                          beta0: float) -> np.ndarray:
    """Closed-form Matsubara sum of the dephasing kernel at each tau."""
    if n != 3:
        raise ValueError(f"reference kernel written for n = 3 only, got n = {n}")
    tau2 = np.asarray(taus, dtype=float) ** 2
    total = np.zeros_like(tau2)
    K = _terms(math.sqrt(tau2.max(initial=0.0)), beta0)
    for k0 in range(0, K, _BLOCK):
        k = np.arange(k0, min(k0 + _BLOCK, K), dtype=float)
        a2 = (1.0 / omega_c + beta0 * k)[None, :] ** 2
        t2 = tau2[:, None]
        # a^-2 - Re (a - i tau)^-2, written without cancellation at small tau
        total += (t2 * (3.0 * a2 + t2) / (a2 * (a2 + t2) ** 2)) @ _weights(k)
    A = 1.0 / omega_c + beta0 * (K - 0.5)
    total += 2.0 / beta0 * tau2 / (A * (A * A + tau2))
    return gamma * total


def _correlation(s: np.ndarray, omega_c: float, beta0: float) -> np.ndarray:
    """C(s) = sum_k w_k * 6 / (a_k - i s)^4, with its integral tail."""
    z = (1.0 / omega_c - 1j * s).ravel()
    total = np.zeros(z.shape, dtype=complex)
    K = _terms(float(np.max(s, initial=0.0)), beta0)
    for k0 in range(0, K, _BLOCK):
        k = np.arange(k0, min(k0 + _BLOCK, K), dtype=float)
        total += (6.0 / (z[:, None] + beta0 * k[None, :]) ** 4) @ _weights(k)
    total += 4.0 / (beta0 * (z + beta0 * (K - 0.5)) ** 3)
    return total.reshape(s.shape)


def g_thermal_correlation(taus, gamma: float, n: int, omega_c: float, beta0: float,
                          omega12: float) -> np.ndarray:
    """Dissipation kernel on an increasing tau grid from the bath correlation function."""
    if n != 3:
        raise ValueError(f"thermal kernel is defined for n = 3 only, got n = {n}")
    taus = np.asarray(taus, dtype=float)
    edges = [0.0]
    for tau in taus[taus > 0]:
        while edges[-1] < tau:
            s = edges[-1]
            width = min(0.25 * max(1.0 / omega_c, s), 0.5 * math.pi / omega12)
            edges.append(min(tau, s + width))
    edges = np.asarray(edges)
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (0.5 * (edges[1:] + edges[:-1]))[:, None] + half[:, None] * _GL_X[None, :]
    h = np.real(np.exp(-1j * omega12 * nodes) * _correlation(nodes, omega_c, beta0))
    w = half[:, None] * _GL_W[None, :] * h
    h0 = np.concatenate([[0.0], np.cumsum(w.sum(axis=1))])
    h1 = np.concatenate([[0.0], np.cumsum((w * nodes).sum(axis=1))])
    at = np.searchsorted(edges, taus)
    return gamma * (taus * h0[at] - h1[at])


def g_reference(regime: str, taus, gamma: float, n: int, omega_c: float, beta0: float,
                omega12: float) -> np.ndarray:
    """The kernel of either regime on a tau grid."""
    if regime == "adiabatic":
        return g_adiabatic_matsubara(taus, gamma, n, omega_c, beta0)
    return g_thermal_correlation(taus, gamma, n, omega_c, beta0, omega12)
