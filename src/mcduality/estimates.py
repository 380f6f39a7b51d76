"""Monte Carlo point estimates with standard errors."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Estimate:
    """Sample mean with standard error over a known number of paths.

    ``mean`` may be ``-inf`` when any contributing sample is ``-inf`` (the
    convention for utility estimates that leave the utility's domain); in
    that case ``stderr`` is ``inf``.
    """

    mean: float
    stderr: float
    paths: int

    def __str__(self) -> str:
        if not math.isfinite(self.mean):
            return f"{self.mean} (n={self.paths})"
        return f"{self.mean:.6g} +/- {self.stderr:.2g} (n={self.paths})"


def mc_estimate(samples: np.ndarray) -> Estimate:
    """Build an :class:`Estimate` from a 1-D array of per-path samples.

    Standard error uses the unbiased sample variance (``ddof=1``).  Any
    ``-inf`` sample makes the whole estimate ``-inf``.
    """
    samples = np.asarray(samples, dtype=float).ravel()
    n = samples.size
    if n == 0:
        raise ValueError("cannot estimate from zero samples")
    if np.any(np.isneginf(samples)):
        return Estimate(-math.inf, math.inf, n)
    if np.any(~np.isfinite(samples)):
        raise ValueError("samples contain nan or +inf")
    mean = float(samples.mean())
    se = float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else math.inf
    return Estimate(mean, se, n)


def combined_se(*estimates: Estimate) -> float:
    """Standard error of a difference/sum of independent estimates."""
    return math.sqrt(sum(e.stderr**2 for e in estimates))
