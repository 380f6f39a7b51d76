"""Riccati moment oracle vs the closed-form bond route and frozen values."""

import math

import numpy as np
import pytest

from mcduality.affine import (AffineMomentQuery, MomentExplosionError,
                              affine_exponential_moment, cir_bond_price,
                              density_moment)
from mcduality.market import TimeGrid, simulate_heston_market
from mcduality.rng import RandomStream

from conftest import BASE_PARAMS


def test_query_validation():
    with pytest.raises(ValueError):
        AffineMomentQuery(a=0.0, b=0.0, horizon=0.0)


def test_trivial_moment_is_one():
    val = affine_exponential_moment(BASE_PARAMS,
                                    AffineMomentQuery(0.0, 0.0, 1.0))
    assert val == pytest.approx(1.0, abs=1e-12)
    assert cir_bond_price(BASE_PARAMS, 0.0, 1.0) == 1.0


def test_ode_route_matches_closed_form_bond():
    for u in (0.1, 0.5, 0.8, 2.0, 5.0):
        ode = affine_exponential_moment(BASE_PARAMS,
                                        AffineMomentQuery(0.0, -u, 1.0))
        closed = cir_bond_price(BASE_PARAMS, u, 1.0)
        assert ode == pytest.approx(closed, rel=1e-8)
    # and on a longer horizon
    ode = affine_exponential_moment(BASE_PARAMS,
                                    AffineMomentQuery(0.0, -1.0, 3.0))
    assert ode == pytest.approx(cir_bond_price(BASE_PARAMS, 1.0, 3.0),
                                rel=1e-8)


def test_frozen_bond_value():
    assert cir_bond_price(BASE_PARAMS, 0.8, 1.0) == pytest.approx(
        0.455879923191898, rel=1e-12)


def test_frozen_affine_values():
    assert affine_exponential_moment(
        BASE_PARAMS, AffineMomentQuery(0.4, -1.0, 1.0)) == pytest.approx(
            0.556728061918691, rel=1e-9)
    assert affine_exponential_moment(
        BASE_PARAMS, AffineMomentQuery(-0.5, 0.0, 1.0)) == pytest.approx(
            0.615366648600572, rel=1e-9)


def test_density_moment_martingale_and_frozen():
    # q = 1 must recover E[Z_T] = 1 through the full reduction
    assert density_moment(BASE_PARAMS, 1.0, 1.0) == pytest.approx(1.0,
                                                                   rel=1e-8)
    assert density_moment(BASE_PARAMS, 0.0, 1.0) == pytest.approx(1.0,
                                                                   rel=1e-12)
    assert density_moment(BASE_PARAMS, -1.0, 1.0) == pytest.approx(
        1.321776890724879, rel=1e-9)
    assert density_moment(BASE_PARAMS, 0.5, 1.0) == pytest.approx(
        0.970697614370144, rel=1e-9)
    assert density_moment(BASE_PARAMS, 2.0, 1.0) == pytest.approx(
        1.231803660068557, rel=1e-9)


def test_density_moment_against_simulation():
    b = simulate_heston_market(BASE_PARAMS, TimeGrid(1.0, 256), 40_000,
                               RandomStream(19))
    samples = b.z[:, -1] ** 0.5
    se = samples.std(ddof=1) / math.sqrt(samples.size)
    target = density_moment(BASE_PARAMS, 0.5, 1.0)
    # allow an O(dt) bias term on top of the 3-sigma band
    assert abs(samples.mean() - target) <= 3.0 * se + 2e-3


def test_explosive_query_raises():
    with pytest.raises(MomentExplosionError):
        affine_exponential_moment(BASE_PARAMS,
                                  AffineMomentQuery(0.0, 50.0, 1.0))
    with pytest.raises(MomentExplosionError):
        affine_exponential_moment(BASE_PARAMS,
                                  AffineMomentQuery(0.0, 5.0, 30.0))


def test_bond_rejects_negative_u():
    with pytest.raises(ValueError):
        cir_bond_price(BASE_PARAMS, -0.1, 1.0)
