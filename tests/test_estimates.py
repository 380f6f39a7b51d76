"""Estimate container semantics, including the -inf convention."""

import math

import numpy as np
import pytest

from mcduality.estimates import Estimate, combined_se, mc_estimate


def test_mean_and_stderr_match_numpy():
    rng = np.random.default_rng(0)
    x = rng.normal(size=500)
    est = mc_estimate(x)
    assert est.mean == pytest.approx(float(x.mean()), abs=0.0)
    assert est.stderr == pytest.approx(float(x.std(ddof=1) / math.sqrt(500)))
    assert est.paths == 500


def test_neginf_sample_poisons_estimate():
    est = mc_estimate(np.array([1.0, -math.inf, 2.0]))
    assert est.mean == -math.inf
    assert est.stderr == math.inf


def test_nan_and_posinf_rejected():
    with pytest.raises(ValueError):
        mc_estimate(np.array([1.0, math.nan]))
    with pytest.raises(ValueError):
        mc_estimate(np.array([1.0, math.inf]))
    with pytest.raises(ValueError):
        mc_estimate(np.array([]))


def test_single_sample_has_infinite_stderr():
    est = mc_estimate(np.array([3.0]))
    assert est.mean == 3.0
    assert est.stderr == math.inf


def test_combined_se_is_quadrature_sum():
    a = Estimate(0.0, 0.3, 10)
    b = Estimate(0.0, 0.4, 10)
    assert combined_se(a, b) == pytest.approx(0.5)
    assert combined_se(a) == pytest.approx(0.3)
