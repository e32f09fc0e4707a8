import pytest

from bangbang import (
    ModelParams,
    Regime,
    g_adiabatic,
    g_thermal,
    tabulate_kernel,
)
from oracles import g_adiabatic_oracle, g_thermal_oracle, spectral_moment

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


@pytest.mark.parametrize("regime, tau", [
    (Regime.ADIABATIC, 8.0), (Regime.ADIABATIC, 40.0), (Regime.ADIABATIC, 160.0),
    (Regime.THERMAL, 8.0), (Regime.THERMAL, 40.0), (Regime.THERMAL, 80.0),
])
def test_matches_simpson_oracle_over_preset_tau_range(regime, tau):
    # the figure presets reach tau = 160 (adiabatic) and 80 (thermal)
    oracle = g_adiabatic_oracle if regime is Regime.ADIABATIC else g_thermal_oracle
    assert tabulate_kernel([tau], params(regime))[0] == pytest.approx(oracle(tau), rel=1e-10)


@pytest.mark.parametrize("n", [1, 2, 4, 5])
def test_adiabatic_other_dimensions_match_simpson_oracle(n):
    for tau in (0.5, 4.0):
        got = g_adiabatic(tau, params(n=n))
        assert got == pytest.approx(g_adiabatic_oracle(tau, n=n), rel=1e-10)


@pytest.mark.parametrize("regime, n", [
    (Regime.ADIABATIC, 1), (Regime.ADIABATIC, 3), (Regime.ADIABATIC, 5), (Regime.THERMAL, 3),
])
def test_small_tau_limit_is_the_correlation_at_zero(regime, n):
    # g = gamma (tau^2/2 C(0) - tau^4/24 C4 + O(tau^6)), C(0) the spectral moment M_n;
    # at tau = 1e-6, tau * omega_c = 1e-5: a difference of nearby values would lose ten digits
    p = params(regime, n=n, gamma=0.7)
    if regime is Regime.ADIABATIC:
        c0, c4 = spectral_moment(n), spectral_moment(n + 2)
    else:
        c0 = spectral_moment(3)
        c4 = spectral_moment(5) - 2.0 * p.omega12 * spectral_moment(4) + p.omega12 ** 2 * c0
    for tau in (1e-6, 1e-5):
        got = tabulate_kernel([tau], p)[0] / tau ** 2
        assert got == pytest.approx(p.gamma * (c0 / 2.0 - tau ** 2 * c4 / 24.0), rel=1e-12)


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


def test_tabulate_kernel():
    p = params()
    assert tabulate_kernel([0.0], p) == [0.0]
    assert tabulate_kernel([], p) == []
    taus = [0.0, 0.5, 1.0, 1.5]
    table = tabulate_kernel(taus, p)
    assert table == [tabulate_kernel([t], p)[0] for t in taus]
    with pytest.raises(ValueError, match="strictly increasing"):
        tabulate_kernel([0.0, 0.5, 0.5], p)
    with pytest.raises(ValueError, match="tau"):
        tabulate_kernel([-0.5, 0.0], p)


def test_thermal_values_do_not_depend_on_the_grid():
    # the s-partition is fixed by the model, so a table entry equals the lone value
    p = params(Regime.THERMAL)
    taus = [0.7 * k for k in range(40)]
    table = tabulate_kernel(taus, p)
    assert table == [tabulate_kernel([t], p)[0] for t in taus]
    assert tabulate_kernel(taus[17::5], p) == table[17::5]


def test_param_validation():
    with pytest.raises(ValueError, match="gamma"):
        ModelParams(gamma=-0.1)
    with pytest.raises(ValueError, match="omega_c"):
        ModelParams(omega_c=0.0)
    with pytest.raises(ValueError, match=">= 1"):
        ModelParams(n=0)
    with pytest.raises(ValueError, match="beta0"):
        ModelParams(beta0=-1.0)
