"""Additive Gaussian pulse noise with reproducible seeding.

Noise is absolute (radians of pulse area), not relative to the solved pulse:
solved controls can be arbitrarily small, so relative noise would vanish with
them. One draw is consumed per control pulse regardless of delta_I, keeping
the stream alignment independent of the noise amplitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

RNG_ALGORITHM = "numpy-PCG64"


@dataclass(frozen=True)
class NoiseConfig:
    delta_I: float = 0.0     # standard deviation of additive pulse noise (radians)
    seed: int = 12345

    def __post_init__(self):
        if not math.isfinite(self.delta_I) or self.delta_I < 0:
            raise ValueError(f"delta_I must be finite and >= 0, got {self.delta_I!r}")
        if (isinstance(self.seed, bool) or not isinstance(self.seed, Integral)
                or not 0 <= self.seed < 2 ** 64):
            raise ValueError(f"seed must be an integer that fits in 64 unsigned bits, "
                             f"got {self.seed!r}")


class PulseNoise:
    """Per-run noise stream; identical (config, seed) gives identical draws."""

    def __init__(self, config: NoiseConfig):
        self.config = config
        self._gen = np.random.Generator(np.random.PCG64(config.seed))

    def perturb(self, solved_I: float) -> float:
        xi = self._gen.standard_normal()
        return solved_I + self.config.delta_I * xi
