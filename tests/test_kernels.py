import math

import numpy as np
import pytest

from bangbang import (
    ModelParams,
    QuadratureConfig,
    QuadratureError,
    Regime,
    g_adiabatic,
    g_kernel,
    g_thermal,
    spectral_function,
    tabulate_kernel,
)
from bangbang.kernels import oscillation_factor, thermal_integrand
from oracles import g_thermal_oracle

# Frozen reference values from an independent composite-Simpson evaluation
# (4.8M panels, upper cut 80*omega_c; successive refinements agree to ~1e-15).
FROZEN_AD = {
    (1.0, 1.0): 102.85153020475079,
    (0.5, 1.0): 104.3985422575509,
    (2.0, 1.0): 102.82376245061647,
    (1.0, 2.0): 101.21706729868731,
    (0.25, 0.5): 112.53846780112588,
}
FROZEN_TH = {
    (1.0, 1.0): 128.4346038426769,
    (0.5, 1.0): 125.67134743505277,
    (2.0, 1.0): 134.85823931465737,
    (1.0, 2.0): 126.03928622169703,
    (0.25, 0.5): 128.49553336366512,
}


def params(regime=Regime.ADIABATIC, **kw):
    base = dict(gamma=1.0, n=3, omega_c=10.0, beta0=1.0, omega12=1.0)
    base.update(kw)
    return ModelParams(regime=regime, **base)


def test_spectral_function_examples():
    assert spectral_function(0.0, 3, 10.0) == 0.0
    wc = 7.5
    assert spectral_function(wc, 3, wc) == pytest.approx(wc * math.exp(-1.0), rel=1e-15)
    assert spectral_function(2.0, 2, 1.0) == pytest.approx(math.exp(-2.0), rel=1e-15)
    assert spectral_function(0.0, 2, 1.0) == 1.0


def test_spectral_function_domain_errors():
    with pytest.raises(ValueError, match="diverges"):
        spectral_function(0.0, 1, 1.0)
    with pytest.raises(ValueError, match="omega"):
        spectral_function(-1.0, 3, 1.0)


def test_zero_tau_and_zero_gamma_short_circuit():
    assert g_adiabatic(0.0, params()) == 0.0
    assert g_thermal(0.0, params(Regime.THERMAL)) == 0.0
    assert g_adiabatic(1.7, params(gamma=0.0)) == 0.0
    assert g_thermal(1.7, params(Regime.THERMAL, gamma=0.0)) == 0.0


def test_negative_tau_rejected():
    with pytest.raises(ValueError):
        g_adiabatic(-0.1, params())


def test_adiabatic_matches_frozen_oracle():
    for (tau, beta0), expected in FROZEN_AD.items():
        got = g_adiabatic(tau, params(beta0=beta0))
        assert got == pytest.approx(expected, rel=1e-8)


def test_thermal_matches_frozen_oracle():
    for (tau, beta0), expected in FROZEN_TH.items():
        got = g_thermal(tau, params(Regime.THERMAL, beta0=beta0))
        assert got == pytest.approx(expected, rel=1e-8)


def test_thermal_matches_simpson_oracle_at_small_tau():
    # the live-control grids use tau down to 1e-5, where 1 - cos(d tau) would
    # cancel; the oracle writes it as 2 sin^2(d tau / 2)
    for tau in (1e-5, 1e-4):
        got = g_thermal(tau, params(Regime.THERMAL))
        assert got == pytest.approx(g_thermal_oracle(tau), rel=1e-10)


def test_gamma_linearity_is_exact():
    for tau in (0.3, 1.0):
        g1 = g_adiabatic(tau, params(gamma=0.7))
        g2 = g_adiabatic(tau, params(gamma=1.4))
        assert g2 == pytest.approx(2.0 * g1, rel=1e-12)
        t1 = g_thermal(tau, params(Regime.THERMAL, gamma=0.7))
        t2 = g_thermal(tau, params(Regime.THERMAL, gamma=1.4))
        assert t2 == pytest.approx(2.0 * t1, rel=1e-12)


def test_kernels_nonnegative():
    for tau in (1e-4, 0.01, 0.1, 0.5, 1.0, 3.0, 10.0):
        assert g_adiabatic(tau, params()) >= 0.0
        assert g_thermal(tau, params(Regime.THERMAL)) >= 0.0


def test_adiabatic_monotone_rise_at_small_tau():
    taus = [0.0, 0.002, 0.005, 0.01, 0.02, 0.04, 0.06, 0.08]
    vals = [g_adiabatic(t, params()) for t in taus]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_thermal_integrand_limit_at_resonance():
    p = params(Regime.THERMAL)
    tau = 1.3
    limit = (
        p.omega12 ** 3
        * (1.0 / math.tanh(0.5 * p.beta0 * p.omega12))
        * math.exp(-p.omega12 / p.omega_c)
        * tau ** 2
        / 2.0
    )
    got = thermal_integrand(np.array([p.omega12]), tau, p)[0]
    assert got == pytest.approx(limit, rel=1e-14)


def test_singular_factor_continuity():
    # the (1 - cos x tau)/x^2 factor approaches tau^2/2 as x -> 0
    tau = 1.3
    limit = tau * tau / 2.0
    for eps in (1e-4, 1e-6):
        for sign in (+1.0, -1.0):
            val = oscillation_factor(np.array([sign * eps]), tau, halfwidth=1e-3)[0]
            assert val == pytest.approx(limit, rel=1e-6)


def test_series_window_splices_continuously():
    # direct and series branches agree at the window boundary
    tau, h = 2.0, 1e-3
    for x in (h * (1 + 1e-9), h * (1 - 1e-9)):
        direct = 2.0 * math.sin(0.5 * x * tau) ** 2 / (x * x)
        spliced = oscillation_factor(np.array([x]), tau, halfwidth=h)[0]
        assert spliced == pytest.approx(direct, rel=1e-9)


def test_tabulate_kernel():
    p = params()
    assert tabulate_kernel([0.0], p) == [0.0]
    assert tabulate_kernel([], p) == []
    taus = [0.0, 0.5, 1.0, 1.5]
    table = tabulate_kernel(taus, p)
    assert table == [g_kernel(t, p) for t in taus]
    with pytest.raises(ValueError, match="strictly increasing"):
        tabulate_kernel([0.0, 0.5, 0.5], p)
    with pytest.raises(ValueError, match="tau"):
        tabulate_kernel([-0.5, 0.0], p)


def test_quadrature_error_carries_estimate():
    from bangbang.kernels import _integrate_oscillatory

    # an oscillation far faster than the declared tau starves the panel rule
    f = lambda w: np.sin(300.0 * w) ** 2
    quad = QuadratureConfig(max_doublings=1)
    with pytest.raises(QuadratureError) as err:
        _integrate_oscillatory(f, 0.0, 400.0, tau=0.01, omega_c=10.0, quad=quad)
    assert math.isfinite(err.value.estimate)
    assert err.value.error_bound > 0.0
    assert "estimate" in str(err.value)


def test_param_validation():
    with pytest.raises(ValueError, match="gamma"):
        ModelParams(gamma=-0.1)
    with pytest.raises(ValueError, match="omega_c"):
        ModelParams(omega_c=0.0)
    with pytest.raises(ValueError, match=">= 1"):
        ModelParams(n=0)
    with pytest.raises(ValueError, match="beta0"):
        ModelParams(beta0=-1.0)
    with pytest.raises(ValueError, match="rel_tol"):
        QuadratureConfig(rel_tol=0.0)
    with pytest.raises(ValueError, match="singular_halfwidth"):
        QuadratureConfig(singular_halfwidth=-1e-3)
