"""Utility families, conjugates, constrained conjugates and claim tables."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcduality.utility import (ClaimSpec, ConjugatePair, UtilitySpec,
                               constant_claim, constrained_conjugate,
                               digital_claim, load_claim_table,
                               logistic_claim)

from conftest import exp_identity_errors, v_prime

# ---------------------------------------------------------------------------
# utility evaluation
# ---------------------------------------------------------------------------


def test_power_utility_values():
    u = UtilitySpec.power(0.5)
    assert u.u(4.0) == pytest.approx(4.0)          # 4**0.5 / 0.5
    assert u.u(0.0) == 0.0
    assert u.u(-1.0) == -math.inf
    assert u.is_halfline


def test_log_utility_values():
    u = UtilitySpec.log()
    assert u.u(math.e) == pytest.approx(1.0)
    assert u.u(0.0) == -math.inf
    assert u.marginal(2.0) == pytest.approx(0.5)


def test_negative_power_utility():
    u = UtilitySpec.power(-1.0)
    assert u.u(2.0) == pytest.approx(-0.5)          # x**-1 / -1
    assert u.u(0.0) == -math.inf


def test_exponential_utility_values():
    u = UtilitySpec.exponential(2.0)
    assert u.u(0.0) == pytest.approx(-1.0)
    assert u.u(-3.0) == pytest.approx(-math.exp(6.0))
    assert not u.is_halfline


def _masked_power(p, x):
    """Power utility through the domain mask: ``-inf`` outside it, the
    formula on the gathered in-domain values, scattered back."""
    xa = np.asarray(x, dtype=float)
    out = np.full(xa.shape, -math.inf)
    ok = xa >= 0 if p > 0 else xa > 0
    with np.errstate(divide="ignore"):
        out[ok] = np.log(xa[ok]) if p == 0.0 else np.power(xa[ok], p) / p
    return out


_WEALTH = {
    "in_domain": np.random.default_rng(3).uniform(1e-6, 40.0, 1001),
    "mixed": np.random.default_rng(4).uniform(-2.0, 3.0, 1001),
    "exact_zero": np.array([0.0, 1.5, 2.0, 0.0, 1e-300, 7.25]),
    "negative_zero": np.array([-0.0, 1.5, 2.0]),
    "nan": np.array([1.0, math.nan, 2.0]),
    "strided": np.random.default_rng(5).uniform(0.1, 9.0, 2002)[::2],
    "scalar": 2.75,
    "scalar_zero": 0.0,
    "scalar_negative": -1.0,
    "empty": np.array([]),
}


@pytest.mark.parametrize("p", [0.5, 0.0, -1.0])
@pytest.mark.parametrize("case", sorted(_WEALTH))
def test_power_utility_is_bitwise_masked(p, case):
    # the formula's bits on the domain, -inf at every other wealth (NaN,
    # and -0.0 where p <= 0), and no warning for wealth outside the domain
    x = _WEALTH[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = UtilitySpec.power(p).u(x)
    ref = _masked_power(p, x)
    if np.ndim(x) == 0:
        assert isinstance(got, float)
        ref = float(ref)
    else:
        assert got.shape == np.shape(x)
    assert np.array_equal(got, ref, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(ref))


def test_constructor_validation():
    with pytest.raises(ValueError):
        UtilitySpec.power(1.0)
    with pytest.raises(ValueError):
        UtilitySpec.exponential(0.0)


def test_marginal_inverse_roundtrip():
    for spec in (UtilitySpec.power(0.5), UtilitySpec.power(-1.5),
                 UtilitySpec.log(), UtilitySpec.exponential(1.3)):
        for y in (0.2, 1.0, 5.0):
            x = spec.inverse_marginal(y)
            assert spec.marginal(x) == pytest.approx(y, rel=1e-12)


def test_inada_boundary():
    assert UtilitySpec.power(0.5).marginal(0.0) == math.inf
    assert math.isnan(UtilitySpec.power(0.5).marginal(-1.0))


# ---------------------------------------------------------------------------
# conjugates
# ---------------------------------------------------------------------------


def test_conjugate_closed_forms():
    assert ConjugatePair(UtilitySpec.power(0.5)).v(2.0) == pytest.approx(0.5)
    assert ConjugatePair(UtilitySpec.log()).v(1.0) == pytest.approx(-1.0)
    # p = -1: V(y) = -2 sqrt(y)
    assert ConjugatePair(UtilitySpec.power(-1.0)).v(4.0) == pytest.approx(-4.0)
    pair = ConjugatePair(UtilitySpec.exponential(2.0))
    # V(y) = (y/a)(log(y/a) - 1), frozen against direct evaluation
    assert pair.v(0.5) == pytest.approx(-0.596573590279973, abs=1e-14)
    assert pair.v(1.0) == pytest.approx(-0.846573590279973, abs=1e-14)
    assert pair.v(3.0) == pytest.approx(-0.891802337837753, abs=1e-14)


def test_conjugate_rejects_nonpositive_y():
    pair = ConjugatePair(UtilitySpec.power(0.5))
    with pytest.raises(ValueError):
        pair.v(0.0)
    with pytest.raises(ValueError):
        pair.v(np.array([1.0, -2.0]))


def _sup_oracle(spec, y, xs):
    """Brute-force sup_x [U(x) - x y] over a dense grid."""
    vals = np.asarray(spec.u(xs), dtype=float) - xs * y
    return float(vals[np.isfinite(vals)].max())


def test_conjugate_matches_grid_sup():
    xs = np.linspace(1e-6, 60.0, 400_000)
    for spec in (UtilitySpec.power(0.5), UtilitySpec.log()):
        pair = ConjugatePair(spec)
        for y in (0.3, 1.0, 2.5):
            assert pair.v(y) == pytest.approx(_sup_oracle(spec, y, xs), abs=1e-6)
    xs = np.linspace(-30.0, 30.0, 400_000)
    pair = ConjugatePair(UtilitySpec.exponential(1.0))
    for y in (0.3, 1.0, 2.5):
        assert pair.v(y) == pytest.approx(_sup_oracle(pair.utility, y, xs), abs=1e-6)


def test_fenchel_inequality_seeded_draws():
    rng = np.random.default_rng(123)
    for spec in (UtilitySpec.power(0.5), UtilitySpec.power(-0.7),
                 UtilitySpec.log(), UtilitySpec.exponential(1.7)):
        pair = ConjugatePair(spec)
        y = np.exp(rng.uniform(-3, 3, size=300))
        if spec.is_halfline:
            x = np.exp(rng.uniform(-3, 3, size=300))
        else:
            x = rng.uniform(-5, 5, size=300)
        assert np.all(spec.u(x) <= pair.v(y) + x * y + 1e-8)
        # equality at the maximizer x = I(y)
        xstar = spec.inverse_marginal(y)
        gap = pair.v(y) + xstar * y - np.asarray(spec.u(xstar))
        assert np.abs(gap).max() < 1e-8


@settings(max_examples=60, deadline=None)
@given(y=st.floats(1e-3, 1e3), x=st.floats(-20.0, 20.0))
def test_fenchel_inequality_exponential_property(y, x):
    pair = ConjugatePair(UtilitySpec.exponential(1.0))
    assert pair.utility.u(x) <= pair.v(y) + x * y + 1e-8


def test_v_prime_is_conjugate_slope():
    for spec in (UtilitySpec.power(0.5), UtilitySpec.exponential(2.0)):
        pair = ConjugatePair(spec)
        for y in (0.4, 1.0, 3.0):
            h = 1e-6 * y
            fd = (pair.v(y + h) - pair.v(y - h)) / (2 * h)
            assert v_prime(pair, y) == pytest.approx(fd, rel=1e-5)


def test_exp_identity_errors_machine_small():
    y = np.logspace(-2, 2, 25)
    c = np.logspace(-1, 1, 17)
    for alpha in (0.7, 1.0, 2.3):
        e1, e2 = exp_identity_errors(alpha, y, c)
        assert e1 < 1e-12
        assert e2 < 1e-12


# ---------------------------------------------------------------------------
# constrained conjugate
# ---------------------------------------------------------------------------


def test_constrained_conjugate_power_frozen():
    pair = ConjugatePair(UtilitySpec.power(0.5))
    # z = 1, phi_min = 0: switch at y* = U'(1) = 1
    assert constrained_conjugate(pair, 0.5, 1.0, 0.0) == pytest.approx(2.5)
    assert constrained_conjugate(pair, 2.0, 1.0, 0.0) == pytest.approx(2.0)


def test_constrained_conjugate_continuous_at_switch():
    for pair in (ConjugatePair(UtilitySpec.power(0.5)),
                 ConjugatePair(UtilitySpec.exponential(1.5))):
        z, m = 1.4, 0.25
        ystar = float(pair.utility.marginal(z - m))
        lo = constrained_conjugate(pair, ystar * (1 - 1e-9), z, m)
        hi = constrained_conjugate(pair, ystar * (1 + 1e-9), z, m)
        assert lo == pytest.approx(hi, rel=1e-7)


def _vc_oracle(pair, y, z, m):
    """Independent route: coarse grid plus local refinement of the sup."""
    lo = -m + 1e-12
    xs = np.linspace(lo, lo + 80.0, 200_001)
    vals = np.asarray(pair.utility.u(xs + z), dtype=float) - xs * y
    k = int(np.nanargmax(vals))
    a = xs[max(k - 2, 0)]
    b = xs[min(k + 2, xs.size - 1)]
    fine = np.linspace(a, b, 400_001)
    fv = np.asarray(pair.utility.u(fine + z), dtype=float) - fine * y
    return float(np.nanmax(fv))


def test_constrained_conjugate_matches_grid_oracle():
    cases = [
        (ConjugatePair(UtilitySpec.power(0.5)), 0.5, 1.0, 0.0),
        (ConjugatePair(UtilitySpec.power(0.5)), 2.0, 1.0, 0.0),
        (ConjugatePair(UtilitySpec.power(0.5)), 1.3, 0.7, 0.2),
        (ConjugatePair(UtilitySpec.log()), 0.8, 1.5, 0.5),
        (ConjugatePair(UtilitySpec.exponential(1.0)), 0.6, 0.4, -0.3),
        (ConjugatePair(UtilitySpec.exponential(2.0)), 3.0, 0.2, 0.0),
    ]
    for pair, y, z, m in cases:
        assert constrained_conjugate(pair, y, z, m) == pytest.approx(
            _vc_oracle(pair, y, z, m), abs=1e-6)


def test_constrained_conjugate_broadcasting_and_validation():
    pair = ConjugatePair(UtilitySpec.power(0.5))
    y = np.array([0.5, 1.0, 2.0])
    z = np.array([[0.5], [1.0]])
    out = constrained_conjugate(pair, y, z, 0.0)
    assert out.shape == (2, 3)
    with pytest.raises(ValueError):
        constrained_conjugate(pair, 1.0, -0.5, 0.0)  # z below phi_min
    with pytest.raises(ValueError):
        constrained_conjugate(pair, 0.0, 1.0, 0.0)


# ---------------------------------------------------------------------------
# claims
# ---------------------------------------------------------------------------


def test_claim_interp_and_extrapolation():
    c = ClaimSpec([-1.0, 0.0, 1.0], [0.0, 1.0, 0.5])
    assert c(-0.5) == pytest.approx(0.5)
    assert c(-5.0) == 0.0       # constant extrapolation left
    assert c(5.0) == 0.5        # constant extrapolation right
    assert c.phi_min == 0.0 and c.phi_max == 1.0 and c.spread == 1.0


def test_claim_validation():
    with pytest.raises(ValueError):
        ClaimSpec([0.0, 0.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        ClaimSpec([0.0, 1.0], [1.0, math.inf])
    with warnings.catch_warnings():     # rejected before any arithmetic
        warnings.simplefilter("error")
        for knots in ([0.0, math.inf], [math.inf, math.inf]):
            with pytest.raises(ValueError, match="knots must be finite"):
                ClaimSpec(knots, [1.0, 2.0])
    with pytest.raises(ValueError):
        ClaimSpec([0.0, 1.0], [0.0, 1.0], phi_min=0.5)   # does not bracket
    # declared bounds wider than the table are allowed
    c = ClaimSpec([0.0, 1.0], [0.25, 0.75], phi_min=0.0, phi_max=1.0)
    assert c.phi_min == 0.0 and c.phi_max == 1.0


def test_claim_table_roundtrip(tmp_path):
    c = logistic_claim(rate=2.0, scale=2.0)
    path = tmp_path / "claim.txt"
    path.write_text("".join(f"{z:.17g} {v:.17g}\n"
                            for z, v in zip(c.knots, c.values)))
    back = load_claim_table(path)
    assert np.array_equal(back.knots, c.knots)
    assert np.array_equal(back.values, c.values)
    # the reload infers bounds from the table, not the declared ones
    assert back.phi_min == pytest.approx(float(c.values.min()))


def test_claim_table_parsing(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("# header\n0, 1.5\n\n1  2.5  # trailing comment\n")
    c = load_claim_table(p)
    assert np.array_equal(c.knots, [0.0, 1.0])
    assert np.array_equal(c.values, [1.5, 2.5])
    p.write_text("0 1 2\n")
    with pytest.raises(ValueError):
        load_claim_table(p)


def test_claim_constructors():
    c = constant_claim(0.7)
    assert c(123.0) == 0.7 and c.spread == 0.0
    lg = logistic_claim(rate=2.0, scale=2.0)
    assert lg.phi_min == 0.0 and lg.phi_max == 2.0
    assert lg(0.0) == pytest.approx(1.0)
    dg = digital_claim(level=1.0, at=0.0)
    assert dg(-1.0) == 0.0 and dg(1.0) == 1.0 and dg.phi_max == 1.0


@pytest.mark.parametrize("rate", [1e3, -1e3])
def test_logistic_claim_steep_rate_is_silent(rate):
    # exp(-rate * z) overflows at one end of the table; scale / inf is the
    # payoff's limit 0 there, and no warning is raised on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lg = logistic_claim(rate=rate, scale=2.0)
    ends = (lg.values[0], lg.values[-1])
    assert ends == ((0.0, 2.0) if rate > 0 else (2.0, 0.0))


@settings(max_examples=60, deadline=None)
@given(z=st.floats(-50.0, 50.0))
def test_claim_values_stay_in_declared_range(z):
    lg = logistic_claim(rate=1.0, scale=1.0)
    assert lg.phi_min <= lg(z) <= lg.phi_max
