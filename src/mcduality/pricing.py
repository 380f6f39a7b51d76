"""Indifference prices and stability diagnostics across market families.

The indifference price ``p`` of a claim solves ``w(x + p) = u(x)`` where
``u`` is the claim problem's value and ``w`` the claim-free one.  Both sides
are replaced by family-restricted Monte Carlo bounds evaluated on common
random numbers, and ``p`` is found by bisection over the claim's range
``[phi_min, phi_max]``.  Iteration stops at a noise floor: once the bracket
midpoint's value gap is statistically indistinguishable from zero (within
three combined standard errors) further bisection only chases noise.

The correlation sweep drives the main stability exhibit.  For ``rho != 0``
the claim problem carries an endogenous wealth floor (terminal wealth cannot
fall below minus the claim's infimum); the sweep makes it the family's floor
(:func:`~mcduality.primal.with_claim_floor`), whose stopping rule enforces
it, and prices with that family on both sides.  As ``rho -> 0`` those
values converge to the *constrained* limit value, which sits strictly below
the unconstrained ``rho = 0`` value for non-constant claims.  The sweep
reports primal bounds, each row's density-based dual cap, prices and gaps
so the discontinuity is visible through bounds alone.

The degenerate benchmark reproduces the vanishing-volatility family
``dS_n = (1/n) dB`` with a step claim on the terminal driver, whose limit
values are known in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dual import dual_bound_mmm
from .estimates import Estimate, combined_se, mc_estimate
from .market import (GeneralMarketCoeffs, HestonParams, TimeGrid,
                     general_member, simulate_general_market,
                     simulate_heston_market)
from .primal import (ConstantFamily, HedgeMixFamily, PrimalOpt,
                     PrimalResult, _component_gains, _search,
                     _smoothed_delta, driver_levels, lsmc_hedge,
                     optimize_primal, with_claim_floor)
from .rng import RandomStream
from .utility import ClaimSpec, ConjugatePair, UtilitySpec, digital_claim

__all__ = [
    "PriceResult",
    "SweepRow",
    "SweepResult",
    "DegenerateRow",
    "DegenerateResult",
    "indifference_price",
    "rho_sweep",
    "degenerate_example",
]

#: bisection steps after the bracket endpoints before giving up
_MAX_BISECTIONS = 48


# ---------------------------------------------------------------------------
# indifference pricing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PriceResult:
    """An indifference price with the bisection's last evaluation.

    ``stderr`` converts the value-space noise into price units through a
    local secant slope of the claim-free value near the returned price.  At
    termination ``|w_estimate - u_estimate| <= 3 * combined SE`` (plus a
    machine-precision allowance for noise-free configurations) whenever
    ``converged`` is True.
    """

    price: float
    u_estimate: Estimate
    w_estimate: Estimate
    stderr: float
    iterations: int
    converged: bool
    diagnosis: str = ""


def _secant_slope(evals, p: float) -> float:
    """Local slope of the claim-free value in the price variable.

    Uses the two finite evaluations closest to ``p`` (a bracket endpoint can
    be ``-inf`` for half-line utilities at tiny capital, which would make
    the raw endpoint secant infinite and the price stderr spuriously zero).
    """
    finite = sorted({pv: est.mean for pv, est in evals
                     if math.isfinite(est.mean)}.items(),
                    key=lambda t: (abs(t[0] - p), t[0]))
    if len(finite) < 2:
        return math.nan
    (p1, v1), (p2, v2) = finite[0], finite[1]
    return (v2 - v1) / (p2 - p1)


def indifference_price(pair: ConjugatePair, x: float, family, bundle,
                       claim: ClaimSpec, u_opt: PrimalOpt,
                       w_budget: int = 40, *, _gains=None) -> PriceResult:
    """Solve ``w(x + p) = u(x)`` for ``p`` by noise-aware bisection.

    ``u_opt`` is the claim side's search: ``optimize_primal`` of ``family``
    with ``claim`` at ``x``.  The claim-free side searches the same family
    on the same bundle (common random numbers), so both sides stop at one
    floor and pathwise monotonicity in ``p`` makes the bracket ``[phi_min,
    phi_max]`` valid.  (``rho_sweep`` also passes the ``_component_gains``
    it built.)  The claim-free searches differ only in capital, and on
    common random numbers they retrace many of each other's points; they
    share the gains' memo of claim-free walks, so a retraced point is not
    walked again.
    """
    u_est = u_opt.result.estimate
    if not math.isfinite(u_est.mean):
        return PriceResult(price=math.nan, u_estimate=u_est, w_estimate=u_est,
                           stderr=math.nan, iterations=0, converged=False,
                           diagnosis="claim-side estimate is -inf")

    # the claim-free searches differ only in capital: one hedge evaluation
    gains = _component_gains(family, bundle) if _gains is None else _gains

    def w_value(capital: float) -> Estimate:
        return _search(pair, capital, family, bundle, None, w_budget,
                       gains).result.estimate

    lo, hi = claim.phi_min, claim.phi_max
    atol = 1e-12 * max(1.0, abs(u_est.mean))
    if hi - lo == 0.0:
        w_est = w_value(x + lo)
        ok = abs(w_est.mean - u_est.mean) <= max(
            3.0 * combined_se(w_est, u_est), atol)
        return PriceResult(price=lo, u_estimate=u_est,
                           w_estimate=w_est, stderr=0.0, iterations=1,
                           converged=ok,
                           diagnosis="" if ok else "degenerate bracket mismatch")

    w_lo = w_value(x + lo)
    w_hi = w_value(x + hi)
    g_lo = w_lo.mean - u_est.mean
    g_hi = w_hi.mean - u_est.mean
    evals = [(lo, w_lo), (hi, w_hi)]
    if g_lo > max(3.0 * combined_se(w_lo, u_est), atol):
        return PriceResult(price=lo, u_estimate=u_est,
                           w_estimate=w_lo, stderr=math.nan, iterations=2,
                           converged=False,
                           diagnosis="no sign change: w(x+phi_min) > u(x)")
    if g_hi < -max(3.0 * combined_se(w_hi, u_est), atol):
        return PriceResult(price=hi, u_estimate=u_est,
                           w_estimate=w_hi, stderr=math.nan, iterations=2,
                           converged=False,
                           diagnosis="no sign change: w(x+phi_max) < u(x)")

    p, w_p = lo, w_lo
    iters = 2
    converged = False
    for _ in range(_MAX_BISECTIONS):
        p = 0.5 * (lo + hi)
        w_p = w_value(x + p)
        evals.append((p, w_p))
        iters += 1
        g = w_p.mean - u_est.mean
        if abs(g) <= max(3.0 * combined_se(w_p, u_est), atol):
            converged = True
            break
        if g < 0.0:
            lo = p
        else:
            hi = p
    slope = _secant_slope(evals, p)
    se_price = (combined_se(w_p, u_est) / slope) if slope > 0 else math.nan
    return PriceResult(price=p, u_estimate=u_est,
                       w_estimate=w_p, stderr=se_price, iterations=iters,
                       converged=converged,
                       diagnosis="" if converged else
                       f"noise floor not reached in {_MAX_BISECTIONS} "
                       f"bisections (bracket width {hi - lo:.3g})")


# ---------------------------------------------------------------------------
# correlation sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    """All bounds for one correlation value.

    The dual cap is the row's own: ``cap_table`` holds ``(y, estimate)`` of
    :func:`~mcduality.dual.dual_bound_mmm` on the row's bundle for each
    ``y`` of the grid, and ``cap_value`` is the smallest ``mean + x y``
    (the first such ``y`` is ``y_star``), with ``cap_stderr`` its SE.
    """

    rho: float
    u_unconstrained: PrimalOpt
    u_constrained: PrimalOpt
    price: PriceResult
    headline_constrained: bool
    y_star: float
    cap_value: float
    cap_stderr: float
    cap_table: list = field(repr=False)

    @property
    def u_headline(self) -> PrimalResult:
        """The faithful estimate of the claim problem's value at this rho.

        For ``rho != 0`` and a half-line utility the endogenous floor is part
        of the problem, so the constrained search is the honest estimator.
        At ``rho = 0`` the claim is replicable and the problem carries no
        endogenous floor, and a real-line utility imposes no floor at any
        rho, so the unconstrained search is the right one there.
        """
        if self.headline_constrained:
            return self.u_constrained.result
        return self.u_unconstrained.result


@dataclass(frozen=True)
class SweepResult:
    """Sweep output: one row of bounds, cap and price per rho."""

    x: float
    rows: list = field(repr=False)

    def row(self, rho: float) -> SweepRow:
        for r in self.rows:
            if r.rho == rho:
                return r
        raise KeyError(f"no sweep row for rho={rho}")

    def price_gap(self, rho: float) -> tuple[float, float]:
        """Price gap ``p(x, 0) - p(x, rho)`` with its combined stderr."""
        p0 = self.row(0.0).price
        pr = self.row(rho).price
        se = math.hypot(p0.stderr, pr.stderr)
        return p0.price - pr.price, se


def rho_sweep(pair: ConjugatePair, x: float, claim: ClaimSpec,
              params: HestonParams, grid: TimeGrid, paths: int, seed: int,
              rho_values, y_grid, hedge_buckets: int = 8,
              budget: int = 120, w_budget: int = 40,
              workers: int | None = None) -> SweepResult:
    """Bounds, cap and prices across correlation values on a shared seed.

    Every row is one unit: it simulates its bundle from the shared seed,
    computes its own dual cap (the minimum over ``y_grid`` of the bundle's
    ``dual_bound_mmm`` plus ``x y``), fits its hedge, runs both claim
    searches (the constrained one on the family that
    :func:`~mcduality.primal.with_claim_floor` floors) and the price on the
    headline search's family, and drops the bundle on return, so rows
    share no state.  The streams are counter-based, so every row sees the
    same drivers; with today's density, a function of ``(B, V)`` alone,
    every row's cap equals the ``rho = 0`` row's.  A ``rho = 0`` row is added
    first when ``rho_values`` has none.  ``x + phi_min < FLOOR_SLACK`` raises
    ``with_claim_floor``'s ``ValueError`` before any row runs.
    """
    # the claim floor's rule reads x and the claim alone, so a negative
    # floor is refused before any row simulates
    with_claim_floor(ConstantFamily(), x, claim)
    rho_values = [float(r) for r in rho_values]
    if 0.0 not in rho_values:
        rho_values = [0.0] + rho_values
    y_values = [float(y) for y in np.asarray(y_grid, dtype=float).ravel()]
    stream = RandomStream(seed)

    def row(rho: float) -> SweepRow:
        bundle = simulate_heston_market(params.with_rho(rho), grid, paths,
                                        stream, workers)
        cap_table = [(y, dual_bound_mmm(pair, y, bundle, claim))
                     for y in y_values]
        # min keeps the first of equal values
        y_star, cap = min(cap_table, key=lambda t: t[1].mean + x * t[0])
        hedge = lsmc_hedge(claim, bundle, buckets=hedge_buckets)
        family = HedgeMixFamily(hedge=hedge.strategy,
                                scale_bounds=(-1.6, 0.4),
                                const_bounds=(-1.0, 3.5),
                                lin_bounds=(-1.0, 2.5), floor=6.0,
                                max_holding=25.0)
        floored = with_claim_floor(family, x, claim)
        # both claim searches run on one evaluation of the hedge, and the
        # price bisection's claim-free searches share its memo of walks
        gains = _component_gains(family, bundle)
        u_unc = _search(pair, x, family, bundle, claim, budget, gains)
        u_con = _search(pair, x, floored, bundle, claim, budget, gains)
        # the endogenous floor comes from half-line admissibility and from
        # subreplicating a claim with genuine spread; a constant claim is
        # replicable everywhere, and a real-line utility admits wealth below
        # any floor, so those problems stay unconstrained at every rho
        constrained_headline = (rho != 0.0 and claim.spread > 0.0
                                and pair.utility.is_halfline)
        head_family, u_head = ((floored, u_con) if constrained_headline
                               else (family, u_unc))
        price = indifference_price(pair, x, head_family, bundle, claim,
                                   u_head, w_budget=w_budget, _gains=gains)
        return SweepRow(rho=rho, u_unconstrained=u_unc, u_constrained=u_con,
                        price=price, headline_constrained=constrained_headline,
                        y_star=y_star, cap_value=cap.mean + x * y_star,
                        cap_stderr=cap.stderr, cap_table=cap_table)

    return SweepResult(x=x, rows=[row(rho) for rho in rho_values])


# ---------------------------------------------------------------------------
# degenerate benchmark family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DegenerateRow:
    n: float
    hedge_price: float
    hedge_price_stderr: float
    residual_sd: float
    bound: PrimalResult
    value_mc: float               # U(x + hedge price): replication value
    value_mc_stderr: float        # delta method through the marginal utility


@dataclass(frozen=True)
class DegenerateResult:
    """Hedged bounds along ``dS_n = (1/n) dB`` against the analytic limits."""

    rows: list
    analytic_value_n: float       # U(x + 1/2): value in every finite-n market
    analytic_value_limit: float   # E[U(x + f)] = (U(x) + U(x+1)) / 2
    limit_bound: Estimate         # H = 0 Monte Carlo value in the flat market
    x: float
    alpha: float

    @property
    def analytic_gap(self) -> float:
        return self.analytic_value_n - self.analytic_value_limit

    @property
    def mc_gap(self) -> tuple[float, float]:
        """The pipeline's gap estimate and stderr, from the largest n.

        The finite-n value comes through the replication identity
        ``u_n = U(x + price)`` (the claim is spanned there), the limit value
        from the flat-market Monte Carlo average.
        """
        row = max(self.rows, key=lambda r: r.n)
        gap = row.value_mc - self.limit_bound.mean
        se = math.hypot(row.value_mc_stderr, self.limit_bound.stderr)
        return gap, se


def degenerate_coeffs() -> GeneralMarketCoeffs:
    """The family ``sigma_n = 1/n`` (zero in the limit), no drift."""
    return GeneralMarketCoeffs(
        d=1, sigma=lambda n: (0.0 if math.isinf(n) else 1.0 / n,),
        lam=lambda _n: 0.0)


def degenerate_example(paths: int, seed: int, alpha: float = 1.0,
                       x: float = 0.0, n_values=(1, 2, 4, 8),
                       grid: TimeGrid | None = None,
                       buckets: int = 12, degree: int = 2,
                       budget: int = 60,
                       workers: int | None = None) -> DegenerateResult:
    """Short-hedge bounds for the step claim ``1{B_T >= 0}`` along the family.

    In every finite-n market the claim is replicable, so the optimal value is
    ``U(x + 1/2)`` independently of ``n``; in the limit market the price
    collapses and the value drops to ``E[U(x + f)]``.  The Monte Carlo bound
    shorts a least-squares hedge (scale and constant exposure fine-tuned by
    the primal search) and approaches the analytic value as the basis
    refines.

    The driver is drawn once, with the first member; every later member's
    price is formed on the same read-only levels
    (``market.general_member``).  The claim's delta is a function of those
    levels and the grid alone, so it is computed once and every member fits
    and searches its own hedge on it.  The indices ``n_values`` must be
    finite and positive.
    """
    n_values = list(n_values)
    if not n_values or not all(0.0 < float(n) < math.inf for n in n_values):
        raise ValueError("n_values must name at least one family member, "
                         f"each finite and positive: got {n_values}")
    if grid is None:
        grid = TimeGrid(horizon=1.0, steps=96)
    pair = ConjugatePair(UtilitySpec.exponential(alpha))
    claim = digital_claim(level=1.0, at=0.0)
    coeffs = degenerate_coeffs()
    rows, gp, delta = [], None, None
    for n in n_values:
        if gp is None:
            gp = simulate_general_market(coeffs, n, grid, paths,
                                         RandomStream(seed), workers)
            delta = _smoothed_delta(claim, gp)
        else:
            gp = general_member(coeffs, n, gp.times, gp.b)
        hedge = lsmc_hedge(claim, gp, buckets=buckets, degree=degree,
                           delta=delta)
        family = HedgeMixFamily(hedge=hedge.strategy,
                                scale_bounds=(-1.4, -0.6),
                                const_bounds=(-0.3, 0.3), floor=50.0,
                                max_holding=40.0 * float(n))
        opt = optimize_primal(pair, x, family, gp, claim=claim,
                              budget=budget)
        value_mc = float(pair.utility.u(x + hedge.price))
        value_se = abs(float(pair.utility.marginal(x + hedge.price))) \
            * hedge.price_stderr
        rows.append(DegenerateRow(n=float(n), hedge_price=hedge.price,
                                  hedge_price_stderr=hedge.price_stderr,
                                  residual_sd=hedge.residual_sd,
                                  bound=opt.result,
                                  value_mc=value_mc,
                                  value_mc_stderr=value_se))

    # the limit market has the members' driver, so its B_T is any member's
    f = np.asarray(claim(driver_levels(gp)[:, -1]), dtype=float)
    limit_bound = mc_estimate(pair.utility.u(x + f))
    u_exact = float(pair.utility.u(x + 0.5))
    u_limit = 0.5 * (float(pair.utility.u(x)) + float(pair.utility.u(x + 1.0)))
    return DegenerateResult(rows=rows, analytic_value_n=u_exact,
                            analytic_value_limit=u_limit,
                            limit_bound=limit_bound, x=x, alpha=alpha)
