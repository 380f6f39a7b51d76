"""Riccati moment oracle vs the bond closed form, an ODE reference and
frozen values."""

import math

import numpy as np
import pytest

from mcduality.affine import (EXPLOSION_THRESHOLD, AffineMomentQuery,
                              MomentExplosionError, affine_exponential_moment,
                              cir_bond_price, density_moment)
from mcduality.market import HestonParams, TimeGrid, simulate_heston_market
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
        assert ode == pytest.approx(closed, rel=1e-12)
    # and on a longer horizon
    ode = affine_exponential_moment(BASE_PARAMS,
                                    AffineMomentQuery(0.0, -1.0, 3.0))
    assert ode == pytest.approx(cir_bond_price(BASE_PARAMS, 1.0, 3.0),
                                rel=1e-12)


# sigma = 1 makes Delta = kappa**2 - 2 b, so b = 2 gives Delta == 0 exactly
_UNIT_SIGMA = HestonParams(mu=0.5, kappa=2.0, theta=1.0, sigma=1.0, v0=1.0)


def _ode_moment(params, a, b, horizon):
    """The Riccati pair integrated by DOP853 at rtol 1e-13, or ``None`` once
    ``|psi|`` or ``|phi|`` reaches the explosion threshold."""
    from scipy.integrate import solve_ivp
    kappa, theta, sigma = params.kappa, params.theta, params.sigma

    def rhs(_s, y):
        return (0.5 * sigma**2 * y[0]**2 - kappa * y[0] + b,
                kappa * theta * y[0])

    def blown(_s, y):
        return EXPLOSION_THRESHOLD - max(abs(y[0]), abs(y[1]))

    blown.terminal = True
    sol = solve_ivp(rhs, (0.0, horizon), (a, 0.0), method="DOP853",
                    rtol=1e-13, atol=1e-14, events=blown)
    if sol.t_events[0].size > 0 or not sol.success:
        return None
    return math.exp(sol.y[1, -1] + sol.y[0, -1] * params.v0)


# poles of psi: t* solves C(t*) + k S(t*) = 0 for k = kappa - a
_POLES = {
    "delta_pos": (5.0, 0.0, math.atanh(2.0 / 3.0)),
    "delta_zero": (3.0, 2.0, 2.0),
    "delta_neg": (0.0, 3.0, 2.0 * math.atan2(math.sqrt(2.0), -2.0)
                  / math.sqrt(2.0)),
}


@pytest.mark.parametrize("a", [-1.0, 0.0, 0.5, 1.5])
@pytest.mark.parametrize("b", [-3.0, -0.5, 0.0, 1.0, 2.0, 2.5])
@pytest.mark.parametrize("horizon", [0.25, 1.0, 2.0])
def test_closed_form_matches_ode_reference(a, b, horizon):
    # b < 2, b == 2 and b > 2 cover Delta > 0, Delta == 0 and Delta < 0
    ref = _ode_moment(_UNIT_SIGMA, a, b, horizon)
    query = AffineMomentQuery(a, b, horizon)
    if ref is None:
        with pytest.raises(MomentExplosionError):
            affine_exponential_moment(_UNIT_SIGMA, query)
    else:
        assert affine_exponential_moment(_UNIT_SIGMA, query) == \
            pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("case", sorted(_POLES))
def test_closed_form_pole_inside_and_outside_horizon(case):
    a, b, pole = _POLES[case]
    inside = AffineMomentQuery(a, b, 0.99 * pole)
    ref = _ode_moment(_UNIT_SIGMA, a, b, inside.horizon)
    assert ref is not None
    assert affine_exponential_moment(_UNIT_SIGMA, inside) == \
        pytest.approx(ref, rel=1e-9)
    assert _ode_moment(_UNIT_SIGMA, a, b, 1.01 * pole) is None
    with pytest.raises(MomentExplosionError):
        affine_exponential_moment(_UNIT_SIGMA,
                                  AffineMomentQuery(a, b, 1.01 * pole))


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
    samples = b.z ** 0.5
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
