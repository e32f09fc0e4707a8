import math

import numpy as np
import pytest

from bangbang import NoiseConfig, PulseNoise
from bangbang.noise import RNG_ALGORITHM


def test_zero_noise_passthrough_exact():
    noise = PulseNoise(NoiseConfig(delta_I=0.0, seed=1))
    for value in (0.0, -0.75, 1.25e-9, math.pi):
        assert noise.perturb(value) == value


def test_identical_seeds_identical_streams():
    a = PulseNoise(NoiseConfig(delta_I=0.1, seed=999))
    b = PulseNoise(NoiseConfig(delta_I=0.1, seed=999))
    sa = [a.perturb(0.3) for _ in range(64)]
    sb = [b.perturb(0.3) for _ in range(64)]
    assert sa == sb


def test_different_seeds_differ():
    a = PulseNoise(NoiseConfig(delta_I=0.1, seed=1))
    b = PulseNoise(NoiseConfig(delta_I=0.1, seed=2))
    assert [a.perturb(0.0) for _ in range(8)] != [b.perturb(0.0) for _ in range(8)]


def test_sample_statistics():
    n = 100_000
    delta = 0.1
    noise = PulseNoise(NoiseConfig(delta_I=delta, seed=20240214))
    draws = np.array([noise.perturb(0.0) for _ in range(n)])
    assert abs(draws.mean()) <= 3.0 * delta / math.sqrt(n)
    assert draws.std() == pytest.approx(delta, rel=0.01)


def test_noise_is_additive_not_relative():
    cfg = NoiseConfig(delta_I=0.1, seed=5)
    offsets = []
    for solved in (0.0, 1e-12, 1.0):
        stream = PulseNoise(cfg)
        offsets.append(stream.perturb(solved) - solved)
    # the additive perturbation is the same draw regardless of pulse size
    assert offsets[0] == pytest.approx(offsets[1], abs=1e-15)
    assert offsets[0] == pytest.approx(offsets[2], abs=1e-15)


def _normal_cdf(x, sigma):
    return 0.5 * (1.0 + math.erf(x / (sigma * math.sqrt(2.0))))


def test_kolmogorov_smirnov_against_normal():
    # fixed seed keeps this a regression check, not a flaky statistical test
    n = 10_000
    delta = 0.1
    noise = PulseNoise(NoiseConfig(delta_I=delta, seed=777))
    draws = sorted(noise.perturb(0.0) for _ in range(n))
    d_stat = 0.0
    for i, x in enumerate(draws):
        cdf = _normal_cdf(x, delta)
        d_stat = max(d_stat, abs(cdf - i / n), abs(cdf - (i + 1) / n))
    # asymptotic critical value at the 0.1% level
    d_crit = math.sqrt(-0.5 * math.log(0.0005)) / math.sqrt(n)
    assert d_stat < d_crit


def test_config_validation():
    with pytest.raises(ValueError, match="delta_I"):
        NoiseConfig(delta_I=-0.1)
    with pytest.raises(ValueError, match="delta_I"):
        NoiseConfig(delta_I=math.nan)
    with pytest.raises(ValueError, match="seed"):
        NoiseConfig(seed=-1)
    for seed in (True, 2.7, 7.0, "7"):
        with pytest.raises(ValueError, match="seed"):
            NoiseConfig(seed=seed)
    assert NoiseConfig(seed=np.uint64(2 ** 64 - 1)).seed == 2 ** 64 - 1


def test_algorithm_name_documented():
    assert RNG_ALGORITHM == "numpy-PCG64"
