"""Primal lower bounds from explicit trading strategies.

A strategy is a family and a coefficient vector ``theta``.  The family
supplies predictable component holdings ``C_k``, evaluated at left endpoints
of the grid, and its holdings at ``theta`` are ``clip(sum_k theta_k C_k)``:
truncated to the family's declared magnitude bound after summing.  Every
family is linear in ``theta``, so the components are computed once per
bundle and search.  The raw gains process is the Euler sum
``X = sum H dS``.  Before any utility is averaged, wealth is stopped at the
first node that lands below the family's declared floor ``-K - slack``.
The stop is a genuine stopping rule -- holdings are zeroed from the
crossing node onward, so the decision at each step uses only information
already revealed.  The frozen value retains any overshoot below the floor;
every node before the stop respects the floor by definition of a first
crossing.  (Freezing one node earlier would peek at the increment being
suppressed, and that one-step look-ahead acts as free insurance: it
demonstrably inflates optimized values past valid dual caps.)  In
constrained mode the wealth floor ``x + X >= -phi_min`` of the claim problem
is enforced the same way.

Expected utility of terminal wealth is then a genuine lower bound for the
value of the corresponding problem, reported with a standard error.  For
half-line utilities any path ending outside the domain makes the estimate
``-inf``; the number of such paths is reported as the violation count.
``primal_bound`` and every evaluation of ``optimize_primal`` are one
function: the family forms its gains increments a chunk of steps at a time,
and :func:`~mcduality.stopping.walk`, which the dual shares, sums them into
one buffer per search and stops them at the floor; an evaluation reads
terminal values only.

The hedging helper fits a variance-optimal holdings rule by least squares:
terminal claim values are regressed on gains of bucketed basis strategies,
giving both a replication-price intercept and a residual report.  The
fitted ``BucketStrategy`` is a raw holdings rule that a family uses as one
component; only a family truncates and stops.  A claim-adapted strategy
carries the claim's delta on its fitting bundle and computes it afresh on
any other bundle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .estimates import Estimate, mc_estimate
from .stopping import chunk_steps, walk
from .utility import ClaimSpec, ConjugatePair

__all__ = [
    "BucketStrategy",
    "EnforcedWealth",
    "PrimalResult",
    "HedgeResult",
    "PrimalOpt",
    "ConstantFamily",
    "HedgeMixFamily",
    "wealth_process",
    "enforce_admissibility",
    "primal_bound",
    "lsmc_hedge",
    "hedge_residual",
    "optimize_primal",
]


# ---------------------------------------------------------------------------
# state access shared by Heston and general bundles
# ---------------------------------------------------------------------------

def driver_levels(bundle) -> np.ndarray:
    """Scalar claim-driver path ``B`` as ``(paths, steps+1)``."""
    b = bundle.b
    if b.ndim == 3:
        return b[:, :, 0]
    return b


def variance_levels(bundle) -> np.ndarray | None:
    return getattr(bundle, "v", None)


_FEATURES = ("1", "b", "v", "b2", "bv", "v2", "delta", "deltav")

#: resolution of the payoff-derivative table behind the ``delta`` feature
_DELTA_GRID_N = 2001


def _smoothed_delta(claim: ClaimSpec, bundle) -> np.ndarray:
    """Gaussian-transition delta of the claim along the driver paths.

    Since the driver is a standard Brownian motion, the time-``t`` value of
    ``phi(B_T)`` is the heat-kernel smoothing of ``phi`` at variance
    ``T - t`` and its driver-delta is the same smoothing of ``phi'``.  The
    payoff derivative is tabulated on a uniform grid and convolved with the
    Gaussian kernel per step, which keeps sharp payoffs (digitals) honest:
    their delta is the correctly scaled near-expiry bump that no low-degree
    polynomial in ``B`` can represent.
    """
    times = bundle.times
    b = driver_levels(bundle)
    steps = times.size - 1
    horizon = float(times[-1])
    pad = 6.0 * math.sqrt(horizon) + 1.0
    lo = float(claim.knots[0]) - pad
    hi = float(claim.knots[-1]) + pad
    xs = np.linspace(lo, hi, _DELTA_GRID_N)
    h = xs[1] - xs[0]
    dphi = np.gradient(np.asarray(claim(xs), dtype=float), h)
    out = np.empty((b.shape[0], steps))
    for j in range(steps):
        tau = horizon - float(times[j])
        sd = math.sqrt(tau)
        half = min(int(6.0 * sd / h) + 1, xs.size // 2 - 1)
        k = np.arange(-half, half + 1) * h
        kern = np.exp(-0.5 * (k / sd) ** 2) * (h / (sd * math.sqrt(2.0 * math.pi)))
        table = np.convolve(dphi, kern, mode="same")
        out[:, j] = np.interp(b[:, j], xs, table)
    return out


def _feature(bundle, name: str, sl: slice,
             delta: np.ndarray | None) -> np.ndarray:
    b = driver_levels(bundle)[:, sl]
    if name == "1":
        return np.ones_like(b)
    if name == "b":
        return b
    if name == "b2":
        return b * b
    if name in ("delta", "deltav"):
        d = delta[:, sl]
        if name == "delta":
            return d
        v = variance_levels(bundle)
        if v is None:
            raise ValueError("feature 'deltav' needs a variance path")
        return d / np.sqrt(np.maximum(v[:, sl], 1e-12))
    v = variance_levels(bundle)
    if v is None:
        raise ValueError(f"feature {name!r} needs a variance path")
    v = v[:, sl]
    if name == "v":
        return v
    if name == "bv":
        return b * v
    if name == "v2":
        return v * v
    raise ValueError(f"unknown feature {name!r}")


def features_for(degree: int, with_variance: bool,
                 claim_adapted: bool = False) -> tuple[str, ...]:
    """Monomial feature names in ``(B, V)`` up to the given total degree.

    With ``claim_adapted`` the claim's smoothed driver-delta is appended
    (plus its ``1/sqrt(V)`` version when a variance path exists) in the
    usual least-squares-Monte-Carlo spirit of enriching the basis with
    problem-adapted functions.
    """
    if degree not in (1, 2):
        raise ValueError("supported basis degrees are 1 and 2")
    names = ["1", "b"] + (["v"] if with_variance else [])
    if degree == 2:
        names += ["b2"] + (["bv", "v2"] if with_variance else [])
    if claim_adapted:
        names += ["delta"] + (["deltav"] if with_variance else [])
    return tuple(names)


# ---------------------------------------------------------------------------
# the hedge's holdings rule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BucketStrategy:
    """Piecewise-in-time holdings from basis functions of the state.

    ``coeffs`` has shape ``(buckets, len(features))``; on time bucket ``j``
    the holdings are ``sum_i coeffs[j, i] * feature_i(state)``.  The claim's
    delta that ``lsmc_hedge`` carries is read only on a bundle whose ``b`` is
    the fitting bundle's array; otherwise each call computes it once.
    """

    coeffs: np.ndarray = field(default_factory=lambda: np.zeros((1, 2)))
    features: tuple[str, ...] = ("1", "b")
    claim: ClaimSpec | None = None
    # (driver array, smoothed delta) of the fitting bundle, set by lsmc_hedge
    _fitted: tuple = field(default=(None, None), init=False, repr=False,
                           compare=False)

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.coeffs, dtype=float))
        if c.shape[1] != len(self.features):
            raise ValueError("coeffs width must match the feature list")
        for f in self.features:
            if f not in _FEATURES:
                raise ValueError(f"unknown feature {f!r}")
            if f in ("delta", "deltav") and self.claim is None:
                raise ValueError(f"feature {f!r} needs a claim table")
        object.__setattr__(self, "coeffs", c)

    def holdings(self, bundle) -> np.ndarray:
        """Raw holdings per step, shape ``(paths, steps)``."""
        steps = bundle.times.size - 1
        buckets = self.coeffs.shape[0]
        edges = np.linspace(0, steps, buckets + 1).astype(int)
        fitted_b, delta = self._fitted
        if self.claim is not None and bundle.b is not fitted_b:
            delta = _smoothed_delta(self.claim, bundle)
        out = np.zeros((bundle.paths, steps))
        for j in range(buckets):
            sl = slice(edges[j], edges[j + 1])
            acc = np.zeros((bundle.paths, edges[j + 1] - edges[j]))
            for i, name in enumerate(self.features):
                cij = self.coeffs[j, i]
                if cij != 0.0:
                    acc += cij * _feature(bundle, name, sl, delta)
            out[:, sl] = acc
        return out


# ---------------------------------------------------------------------------
# strategy families
# ---------------------------------------------------------------------------

def _check_floor_rule(family) -> None:
    if family.floor < 0:
        raise ValueError("floor K must be >= 0")
    if family.slack <= 0:
        raise ValueError("slack must be > 0")
    if family.max_holding <= 0:
        raise ValueError("max_holding must be > 0")


@dataclass(frozen=True)
class ConstantFamily:
    """One-parameter family of constant holdings."""

    lo: float = -5.0
    hi: float = 5.0
    floor: float = 10.0        # K: declared wealth floor is -K - slack
    slack: float = 1e-9        # delta > 0
    max_holding: float = 100.0

    def __post_init__(self):
        _check_floor_rule(self)

    @property
    def bounds(self):
        return [(self.lo, self.hi)]

    def components(self, bundle) -> list:
        """Per-step component holdings: the constant 1."""
        return [1.0]


@dataclass(frozen=True)
class HedgeMixFamily:
    """Scaled hedge plus constant (and optionally B-linear) market exposure.

    The optional third coordinate weights a ``H = B`` rule whose gains are
    convex in the terminal driver; it lets the family reach the curved
    wealth profiles that a log/power optimum wants without touching the
    hedge component.
    """

    hedge: BucketStrategy = None
    scale_bounds: tuple = (-2.0, 2.0)
    const_bounds: tuple = (-2.0, 2.0)
    lin_bounds: tuple | None = None
    floor: float = 10.0
    slack: float = 1e-9
    max_holding: float = 100.0

    def __post_init__(self):
        _check_floor_rule(self)
        if self.hedge is None:
            raise ValueError("HedgeMixFamily needs a hedge")

    @property
    def bounds(self):
        out = [tuple(map(float, self.scale_bounds)),
               tuple(map(float, self.const_bounds))]
        if self.lin_bounds is not None:
            out.append(tuple(map(float, self.lin_bounds)))
        return out

    def components(self, bundle) -> list:
        """Per-step component holdings: hedge, scalar 1, driver."""
        comps = [self.hedge.holdings(bundle), 1.0]
        if self.lin_bounds is not None:
            comps.append(driver_levels(bundle)[:, :-1])
        return comps


# ---------------------------------------------------------------------------
# wealth and admissibility
# ---------------------------------------------------------------------------

def _component_gains(family, bundle):
    """The family's gains walk: ``(theta -> fill, path)``.

    ``path`` is the ``(steps+1, paths)`` buffer, from ``X_0 = 0``, that
    :func:`~mcduality.stopping.walk` sums the gains into; ``fill_at(theta)``
    is the walk's fill, writing a chunk of the increments
    ``clip(sum_k theta_k C_k) dS`` (zero weights skipped).  The component
    holdings are computed once and kept time-major, and the buffer and a
    chunk of scratch are allocated once, so an evaluation allocates nothing
    of size ``paths x steps``.
    """
    comps = [np.transpose(c).copy() for c in family.components(bundle)]
    ds = np.diff(bundle.s, axis=1).T.copy()
    steps, paths = ds.shape
    path = np.zeros((steps + 1, paths))
    term = np.empty((min(chunk_steps(paths), steps), paths))
    cap = family.max_holding

    def fill_at(theta):
        def fill(k0, k1, rows):
            rows.fill(0.0)
            for w, c in zip(theta, comps):
                if w != 0.0:
                    rows += (np.multiply(w, c[k0:k1], out=term[:k1 - k0])
                             if c.ndim else w * c)
            np.clip(rows, -cap, cap, out=rows)
            rows *= ds[k0:k1]

        return fill

    return fill_at, path


def wealth_process(family, theta, bundle) -> np.ndarray:
    """Raw gains paths ``(paths, steps+1)`` of the family at ``theta``."""
    fill_at, path = _component_gains(family, bundle)
    walk(fill_at(theta), path, -math.inf)
    return path.T.copy()


def _threshold(family, x: float, constrained: bool, phi_min: float) -> float:
    """Effective floor on ``X`` of a family's floor rule."""
    thr = -family.floor - family.slack
    if constrained:
        thr = max(thr, -x - phi_min)
    if thr >= 0.0:
        raise ValueError(
            f"effective wealth floor {thr:.6g} is not below the starting "
            "wealth 0; need x + phi_min > 0 in constrained mode")
    return thr


@dataclass(frozen=True)
class EnforcedWealth:
    """Stopped wealth paths with stopping diagnostics."""

    wealth: np.ndarray          # (paths, steps+1), floor respected everywhere
    stopped_fraction: float
    threshold: float            # the effective floor on X


def enforce_admissibility(family, theta, bundle, x: float = 0.0,
                          constrained: bool = False,
                          phi_min: float = 0.0) -> EnforcedWealth:
    """Stop the family's gains process at ``theta`` at its declared floor.

    The effective threshold on ``X`` is ``-K - slack``; in constrained mode
    the claim-problem floor ``x + X >= -phi_min`` is enforced as well, so the
    threshold is the larger of the two.  A path is frozen at the first node
    whose value falls below the threshold: holdings vanish from that node on,
    so the rule is predictable, and the frozen value keeps whatever overshoot
    the crossing step produced.  All nodes strictly before the stop satisfy
    the floor exactly (first-crossing definition); the overshoot is a loss
    the strategy genuinely suffered and is never repaired.
    """
    thr = _threshold(family, x, constrained, phi_min)
    fill_at, path = _component_gains(family, bundle)
    stop_at, _, crossed = walk(fill_at(theta), path, thr)
    raw = path.T
    idx = np.minimum(np.arange(raw.shape[1])[None, :], stop_at[:, None])
    stopped = np.take_along_axis(raw, idx, axis=1)
    return EnforcedWealth(wealth=stopped,
                          stopped_fraction=float(crossed.mean()),
                          threshold=thr)


@dataclass(frozen=True)
class PrimalResult:
    """A primal lower bound with admissibility diagnostics."""

    estimate: Estimate
    violations: int
    stopped_fraction: float


def _evaluation(pair: ConjugatePair, x: float, family, bundle,
                claim: ClaimSpec | None, constrained: bool, gains):
    """``theta -> primal_bound(pair, x, family, theta, bundle, claim,
    constrained)`` on the family's ``_component_gains``."""
    if claim is None:
        thr, f = _threshold(family, x, constrained, 0.0), None
    else:
        thr = _threshold(family, x, constrained, claim.phi_min)
        f = np.asarray(claim(driver_levels(bundle)[:, -1]), dtype=float)
    fill_at, path = gains

    def evaluate(theta) -> PrimalResult:
        _, xt, crossed = walk(fill_at(theta), path, thr)
        w = x + xt if f is None else (x + f) + xt
        samples = np.asarray(pair.utility.u(w), dtype=float)
        return PrimalResult(estimate=mc_estimate(samples),
                            violations=int(np.sum(np.isneginf(samples))),
                            stopped_fraction=float(crossed.mean()))

    return evaluate


def primal_bound(pair: ConjugatePair, x: float, family, theta, bundle,
                 claim: ClaimSpec | None = None,
                 constrained: bool = False) -> PrimalResult:
    """Expected utility of enforced terminal wealth ``x + X_T (+ f)``.

    Any path outside the utility's domain contributes ``-inf`` and the whole
    estimate is reported as ``-inf`` with the count of offending paths.  In
    constrained mode the stopping floor keeps ``x + X + phi_min >= 0`` at
    every pre-stop node; a crossing step can overshoot the floor, so a
    violation is still possible when the payoff sits near its minimum on the
    overshooting path.  Such estimates come back ``-inf`` and the optimizer
    treats the strategy as infeasible rather than silently repairing it.
    """
    return _evaluation(pair, x, family, bundle, claim, constrained,
                       _component_gains(family, bundle))(theta)


# ---------------------------------------------------------------------------
# regression hedge
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HedgeResult:
    """Variance-optimal hedge with its regression diagnostics."""

    strategy: BucketStrategy
    price: float                # regression intercept: implied initial cost
    residual_sd: float          # sd of f - price - gains
    r_squared: float
    price_stderr: float = math.nan   # OLS standard error of the intercept


def lsmc_hedge(claim: ClaimSpec, bundle, buckets: int = 8, degree: int = 2,
               claim_adapted: bool = True) -> HedgeResult:
    """Least-squares hedge of ``f = phi(B_T)`` by bucketed basis strategies.

    Regresses the terminal claim on the gains of every (bucket, feature)
    basis strategy plus an intercept; the coefficient vector is the
    holdings rule that minimizes the replication variance on the sample, and
    the intercept is the implied price.  Deterministic given the bundle.
    ``claim_adapted`` adds the claim's smoothed delta to the basis, which is
    what lets sharp payoffs replicate to their discretization floor; the
    strategy carries that delta for its holdings on this bundle.
    """
    feats = features_for(degree, variance_levels(bundle) is not None,
                         claim_adapted=claim_adapted)
    steps = bundle.times.size - 1
    if not 1 <= buckets <= steps:
        raise ValueError("buckets must lie between 1 and the step count")
    edges = np.linspace(0, steps, buckets + 1).astype(int)
    ds = np.diff(bundle.s, axis=1)
    f = np.asarray(claim(driver_levels(bundle)[:, -1]), dtype=float)
    delta = _smoothed_delta(claim, bundle) if claim_adapted else None

    ncols = 1 + buckets * len(feats)
    design = np.empty((bundle.paths, ncols))
    design[:, 0] = 1.0
    col = 1
    for j in range(buckets):
        sl = slice(edges[j], edges[j + 1])
        dsl = ds[:, sl]
        for name in feats:
            design[:, col] = (_feature(bundle, name, sl, delta)
                              * dsl).sum(axis=1)
            col += 1
    coef, *_ = np.linalg.lstsq(design, f, rcond=None)
    resid = f - design @ coef
    var_f = float(f.var(ddof=1)) if f.size > 1 else 0.0
    dof = max(bundle.paths - ncols, 1)
    gram_inv_00 = float(np.linalg.pinv(design.T @ design)[0, 0])
    price_se = math.sqrt(max(float(resid @ resid) / dof, 0.0) * gram_inv_00)
    strategy = BucketStrategy(coeffs=coef[1:].reshape(buckets, len(feats)),
                              features=feats,
                              claim=claim if claim_adapted else None)
    if claim_adapted:
        object.__setattr__(strategy, "_fitted", (bundle.b, delta))
    return HedgeResult(strategy=strategy, price=float(coef[0]),
                       residual_sd=float(resid.std(ddof=1)),
                       r_squared=1.0 - (float(resid.var(ddof=1)) / var_f
                                        if var_f > 0 else 0.0),
                       price_stderr=price_se)


def hedge_residual(hedge: BucketStrategy, price: float, bundle,
                   claim: ClaimSpec) -> float:
    """Replication residual sd of a hedge's holdings in a given market.

    Computes ``sd(price + X_T - f)`` with the raw (unstopped, untruncated)
    gains of the hedge's holdings on the bundle's price paths.  Lets a hedge
    fitted in one market be scored in another sharing the same drivers, with
    that market's own claim delta.
    """
    gains = np.multiply(hedge.holdings(bundle).T, np.diff(bundle.s, axis=1).T,
                        order="C").sum(axis=0)
    f = np.asarray(claim(driver_levels(bundle)[:, -1]), dtype=float)
    return float((price + gains - f).std(ddof=1))


# ---------------------------------------------------------------------------
# optimization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrimalOpt:
    """Outcome of a primal search over a strategy family."""

    theta: np.ndarray
    result: PrimalResult
    evaluations: int


_BAD = 1e30


class _BudgetSpent(Exception):
    """Raised by a simplex run's objective once ``maxfev`` calls are made."""


def _simplex(objective, x0: np.ndarray, lo: np.ndarray, hi: np.ndarray,
             maxfev: int) -> tuple[np.ndarray, float]:
    """One bounded Nelder-Mead run from ``x0``: best vertex and best value.

    Coefficients 1, 2, 1/2 and 1/2; the initial simplex steps each
    coordinate by 5% (or to 0.00025 from zero), reflects vertices above
    ``hi`` back into the box and clips; every trial point is clipped to
    ``[lo, hi]``.  A pass stops where the ``maxfev``-th call leaves it, even
    mid-shrink, and the simplex is re-sorted after each pass.  The run ends
    when the vertices lie within 1e-4 and their values within 1e-10 of the
    best.  These are the iterates of scipy's bounded, non-adaptive
    ``Nelder-Mead`` with the same operations in the same order, so the
    search keeps its bits.
    """
    x0 = np.clip(np.asarray(x0, dtype=float), lo, hi)
    n = x0.size
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = np.array(x0, copy=True)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    sim = np.clip(np.where(sim > hi, 2 * hi - sim, sim), lo, hi)
    fsim = np.full(n + 1, np.inf)
    calls = 0

    def f(x):
        nonlocal calls
        if calls >= maxfev:
            raise _BudgetSpent
        calls += 1
        return objective(np.copy(x))

    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _BudgetSpent:
        pass
    # sorted twice, as scipy does: argsort is not stable, so the second
    # sort may move tied vertices
    for _ in range(2):
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)

    while calls < maxfev:
        try:
            if (np.max(np.abs(sim[1:] - sim[0])) <= 1e-4 and
                    np.max(np.abs(fsim[0] - fsim[1:])) <= 1e-10):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = np.clip(2 * xbar - sim[-1], lo, hi)
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = np.clip(3 * xbar - 2 * sim[-1], lo, hi)
                fxe = f(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:      # outside contraction
                    xc = np.clip(1.5 * xbar - 0.5 * sim[-1], lo, hi)
                    fxc = f(xc)
                    shrink = not fxc <= fxr
                    if not shrink:
                        sim[-1], fsim[-1] = xc, fxc
                else:                   # inside contraction
                    xcc = np.clip(0.5 * xbar + 0.5 * sim[-1], lo, hi)
                    fxcc = f(xcc)
                    shrink = not fxcc < fsim[-1]
                    if not shrink:
                        sim[-1], fsim[-1] = xcc, fxcc
                if shrink:
                    for j in range(1, n + 1):
                        sim[j] = np.clip(sim[0] + 0.5 * (sim[j] - sim[0]),
                                         lo, hi)
                        fsim[j] = f(sim[j])
        except _BudgetSpent:
            pass
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    return sim[0], float(np.min(fsim))


def _nelder_mead(objective, starts, lo: np.ndarray, hi: np.ndarray,
                 budget: int) -> np.ndarray:
    """Best end point of bounded Nelder-Mead runs, one from each start.

    The runs share ``budget`` evaluations (at least ``dim + 2`` each); end
    points are clipped to the box ``[lo, hi]`` and ties in the objective go
    to the lexicographically smallest end point rounded to 12 decimals.
    The primal and the dual search both use this restart policy.
    """
    per_start = max(budget // len(starts), lo.size + 2)
    outcomes = []
    for s in starts:
        x, fun = _simplex(objective, s, lo, hi, per_start)
        theta = np.clip(x, lo, hi)
        outcomes.append((fun, tuple(np.round(theta, 12)), theta))
    outcomes.sort(key=lambda t: (t[0], t[1]))
    return outcomes[0][2]


def _search(pair: ConjugatePair, x: float, family, bundle,
            claim: ClaimSpec | None, constrained: bool, budget: int,
            gains) -> PrimalOpt:
    """``optimize_primal`` on the family's ``_component_gains``, which a
    caller running several searches on one bundle builds once."""
    lo = np.array([b[0] for b in family.bounds])
    hi = np.array([b[1] for b in family.bounds])
    evaluate = _evaluation(pair, x, family, bundle, claim, constrained, gains)
    evals = 0

    def objective(theta):
        nonlocal evals
        evals += 1
        m = evaluate(theta).estimate.mean
        return _BAD if m == -math.inf else -m

    starts = [0.5 * (lo + hi), 0.75 * lo + 0.25 * hi, 0.25 * lo + 0.75 * hi]
    theta = _nelder_mead(objective, starts, lo, hi, budget)
    return PrimalOpt(theta=theta, result=evaluate(theta), evaluations=evals)


def optimize_primal(pair: ConjugatePair, x: float, family, bundle,
                    claim: ClaimSpec | None = None, constrained: bool = False,
                    budget: int = 120) -> PrimalOpt:
    """Search the family for the best primal bound with Nelder-Mead.

    All evaluations reuse the bundle's paths (common random numbers), so the
    search is deterministic given seed, family and budget; each evaluation
    gives the bits of ``primal_bound`` of the family at ``theta``.  Three
    fixed starting points share the budget; ties between restarts are broken
    lexicographically by coefficient vector.
    """
    return _search(pair, x, family, bundle, claim, constrained, budget,
                   _component_gains(family, bundle))
