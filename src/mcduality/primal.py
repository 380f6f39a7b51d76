"""Primal lower bounds from explicit trading strategies.

A strategy is a family and a coefficient vector ``theta``.  The family
supplies predictable component holdings ``C_k``, evaluated at left endpoints
of the grid, and its holdings at ``theta`` are ``clip(sum_k theta_k C_k)``:
truncated to the family's declared magnitude bound after summing.  Every
family is linear in ``theta``, so the components are computed once per
bundle and search.  The raw gains process is the Euler sum
``X = sum H dS``.  Before any utility is averaged, wealth is stopped at the
first node that lands below the family's declared floor
``-K - FLOOR_SLACK``, the one floor rule: the claim problem's floor
``x + X >= -phi_min`` is a family's too (:func:`with_claim_floor`).
The stop is a genuine stopping rule -- holdings are zeroed from the
crossing node onward, so the decision at each step uses only information
already revealed.  The frozen value retains any overshoot below the floor;
every node before the stop respects the floor by definition of a first
crossing.  (Freezing one node earlier would peek at the increment being
suppressed, and that one-step look-ahead acts as free insurance: it
demonstrably inflates optimized values past valid dual caps.)

Expected utility of terminal wealth is then a genuine lower bound for the
value of the corresponding problem, reported with a standard error.  For
half-line utilities any path ending outside the domain makes the estimate
``-inf``; the number of such paths is reported as the violation count.
``primal_bound`` and every evaluation of ``optimize_primal`` are one
function, which reads terminal values only.  Once per family and bundle,
each component's gains ``G_k = cumsum(C_k dS)`` are summed and kept as the
``(paths, K)`` terminal gains ``G_k(T)`` and their per-path ranges.  Where
the cap cannot bind, ``X_t = sum_k theta_k G_k(t)``, and a per-path screen
on the ranges can prove that no path reaches the floor; such an evaluation
reads ``X_T = sum_k theta_k G_k(T)``, with nothing stopped.  Every other
evaluation (the cap may bind, or some path may reach the floor) walks: the
family forms its gains increments a chunk of steps at a time, and
:func:`~mcduality.stopping.walk`, which the dual shares, sums them into one
buffer per search and stops them at the floor.  ``optimize_primal`` hands
the negated mean and the family's bounds to
:func:`~mcduality.search.minimize`, the bounded Nelder-Mead search that the
dual uses too.

The hedging helper fits a variance-optimal holdings rule by least squares:
terminal claim values are regressed on gains of bucketed basis strategies,
giving both a replication-price intercept and a residual report.  The
fitted ``BucketStrategy`` is a raw holdings rule that a family uses as one
component; only a family truncates and stops.  Its basis includes the
claim's delta, which it carries on its fitting bundle and computes afresh
on any other bundle.
"""

from __future__ import annotations

import dataclasses
import math
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .estimates import Estimate, mc_estimate
from .search import max_calls, minimize
from .stopping import _time_major, chunk_steps, walk
from .utility import ClaimSpec, ConjugatePair

__all__ = [
    "FLOOR_SLACK",
    "BucketStrategy",
    "EnforcedWealth",
    "PrimalResult",
    "HedgeResult",
    "PrimalOpt",
    "ConstantFamily",
    "HedgeMixFamily",
    "with_claim_floor",
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

    Each node's column is ``np.interp(b, xs, np.convolve(dphi, kern,
    "same"))`` bit for bit, from less work (:func:`_interp_reached`): the
    grid is uniform, so a driver value's bin is found by arithmetic, and
    only the table entries between the lowest and highest bin reached are
    smoothed.
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
        col = _interp_reached(b[:, j].copy(), xs, dphi, kern)
        if col is None:
            col = np.interp(b[:, j], xs, np.convolve(dphi, kern, mode="same"))
        out[:, j] = col
    return out


def _interp_reached(x: np.ndarray, xs: np.ndarray, dphi: np.ndarray,
                    kern: np.ndarray) -> np.ndarray | None:
    """``np.interp(x, xs, np.convolve(dphi, kern, "same"))`` bit for bit
    on the uniform grid ``xs``, or None where numpy's rules for non-finite
    values decide.  ``x`` is a scratch copy.

    *Bins.*  numpy's search gives each ``x`` the largest ``i`` with
    ``xs[i] <= x``.  ``floor((x - xs[0]) / h)`` misses it by at most one
    place unless the grid lies far from zero (rounding of ``xs`` and
    ``h``); each pass moves every missed value one place toward it, until
    ``xs[i] <= x < xs[i + 1]`` holds on every path, taking ``xs[n]`` as
    ``inf``.  A value below the grid, or far above it, is clipped to the
    end node, whose entry numpy returns for it.

    *Table.*  An entry of ``"same"`` at least ``len(kern) // 2`` places
    from either end of ``dphi`` is the full-length dot product of
    ``"valid"`` on a window of ``dphi``, the same call on the same numbers.
    So only the entries from the lowest bin to the highest bin plus one are
    smoothed, unless that window reaches an end of ``dphi``; then the whole
    ``"same"`` table is.

    *Interpolation.*  numpy's formula, ``slope[i] * (x - xs[i]) + fp[i]``
    with ``slope[i] = (fp[i+1] - fp[i]) / (xs[i+1] - xs[i])``.  On a node
    numpy returns ``fp[i]`` itself, and so does the formula: the slope is
    finite, ``x - xs[i]`` is 0, and numpy's dot products start from
    ``+0.0``, so no entry is ``-0.0``.  numpy recomputes a NaN result from
    the right node; that needs a non-finite slope, so such tables return
    None.
    """
    n, half = xs.size, kern.size // 2
    right = np.append(xs[1:], np.inf)      # each bin's right node
    t = x - xs[0]
    t /= xs[1] - xs[0]
    np.floor(t, out=t)
    tmin, tmax = t.min(), t.max()
    if not (math.isfinite(tmin) and math.isfinite(tmax)):
        return None
    if tmin < 0.0 or tmax > n - 1.0:
        np.clip(x, xs[0], xs[-1], out=x)
        np.clip(t, 0.0, n - 1.0, out=t)
    g = t.astype(np.intp)
    while True:
        x0 = xs.take(g)
        down = x0 > x
        up = right.take(g) <= x
        if not (down.any() or up.any()):
            break
        g += up
        g -= down
    a, z = int(g.min()), min(int(g.max()) + 1, n - 1)
    if a >= half and z + half < n:
        tab = np.convolve(dphi[a - half:z + half + 1], kern, mode="valid")
    else:
        a, z = 0, n - 1
        tab = np.convolve(dphi, kern, mode="same")
    fp = np.empty(n)
    slope = np.zeros(n)     # 0 in the last bin, where numpy returns fp[-1]
    fp[a:z + 1] = tab
    np.divide(np.diff(tab), np.diff(xs[a:z + 1]), out=slope[a:z])
    if not np.isfinite(slope[a:z]).all():
        return None
    col = slope.take(g)
    col *= x - x0
    col += fp.take(g)
    return col


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


def features_for(degree: int, with_variance: bool) -> tuple[str, ...]:
    """The hedge's feature names: monomials in ``(B, V)`` up to the given
    total degree, then the claim's smoothed driver-delta (plus its
    ``1/sqrt(V)`` version when a variance path exists), in the usual
    least-squares-Monte-Carlo spirit of enriching the basis with
    problem-adapted functions.
    """
    if degree not in (1, 2):
        raise ValueError("supported basis degrees are 1 and 2")
    names = ["1", "b"] + (["v"] if with_variance else [])
    if degree == 2:
        names += ["b2"] + (["bv", "v2"] if with_variance else [])
    names += ["delta"] + (["deltav"] if with_variance else [])
    return tuple(names)


# ---------------------------------------------------------------------------
# the hedge's holdings rule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BucketStrategy:
    """Piecewise-in-time holdings from basis functions of the state.

    ``coeffs`` has shape ``(buckets, len(features))``; on time bucket ``j``
    the holdings are ``sum_i coeffs[j, i] * feature_i(state)``.  The delta
    of ``claim`` that ``lsmc_hedge`` carries is read only on a bundle whose
    ``b`` is the fitting bundle's array; otherwise each call computes it
    once.
    """

    coeffs: np.ndarray
    features: tuple[str, ...]
    claim: ClaimSpec
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
        if self.claim is None:
            raise ValueError("a bucket strategy needs its claim table")
        object.__setattr__(self, "coeffs", c)

    def holdings(self, bundle) -> np.ndarray:
        """Raw holdings per step, shape ``(paths, steps)``."""
        steps = bundle.times.size - 1
        buckets = self.coeffs.shape[0]
        edges = np.linspace(0, steps, buckets + 1).astype(int)
        fitted_b, delta = self._fitted
        if bundle.b is not fitted_b:
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

#: delta > 0 of every family's floor rule: the declared wealth floor is
#: ``-K - FLOOR_SLACK``
FLOOR_SLACK = 1e-9


def _check_floor_rule(family) -> None:
    if not family.floor >= 0:
        raise ValueError("floor K must be >= 0")
    if not family.max_holding > 0:
        raise ValueError("max_holding must be > 0")


def with_claim_floor(family, x: float, claim: ClaimSpec):
    """``family`` that also keeps the claim problem's wealth floor ``x + X
    >= -phi_min``: its floor is ``min(K, x + phi_min - FLOOR_SLACK)``.
    Raises ``ValueError`` when ``x + phi_min < FLOOR_SLACK`` (a negative
    floor)."""
    floor = x + claim.phi_min - FLOOR_SLACK
    if not floor >= 0.0:
        raise ValueError(
            f"effective wealth floor {-x - claim.phi_min:.6g} is not "
            f"{FLOOR_SLACK:g} below the starting wealth 0; need x + phi_min "
            f">= {FLOOR_SLACK:g}")
    return dataclasses.replace(family, floor=min(family.floor, floor))


@dataclass(frozen=True)
class ConstantFamily:
    """One-parameter family of constant holdings."""

    lo: float = -5.0
    hi: float = 5.0
    floor: float = 10.0        # K
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

@dataclass(frozen=True)
class _Gains:
    """A family's gains walk on one bundle (see :func:`_component_gains`)."""

    fill_at: object             # theta -> the walk's fill
    path: np.ndarray            # (steps+1, paths) buffer from X_0 = 0
    terminal_at: object         # (theta, threshold) -> X_T, or None: walk
    # (theta bytes, threshold) -> (read-only X_T at the stop, stopped
    # fraction) of the most recently used claim-free evaluations
    walks: OrderedDict = field(default_factory=OrderedDict)


#: the unit roundoff ``u`` and the smallest subnormal ``eta`` of float64, in
#: the terminal-gains screen's margin (see :func:`_component_gains`)
_U, _ETA = 2.0 ** -53, 2.0 ** -1074


def _component_gains(family, bundle) -> _Gains:
    """The family's gains walk on ``bundle``, and its terminal gains.

    ``path`` is the ``(steps+1, paths)`` buffer, from ``X_0 = 0``, that
    :func:`~mcduality.stopping.walk` sums the gains into; ``fill_at(theta)``
    is the walk's fill, writing a chunk of the increments
    ``clip(sum_k theta_k C_k) dS`` with zero weights skipped.  The first
    weighted component is written straight into the rows and the others
    are added in component order; ``0.0`` is added once when no non-zero
    scalar term is live, which turns a sum of ``-0.0`` terms into ``+0.0``
    exactly as summing from a zeroed row does.  The clip is skipped when
    the bound ``b = sum_k |theta_k| max|C_k|`` lies below ``max_holding (1
    - 1e-9)``: no entry can then reach the cap, and a NaN bound keeps the
    clip.  The component holdings are computed once and kept time-major
    (copied a tile of paths at a time, ``stopping._time_major``) with their
    largest magnitudes, ``dS`` is subtracted time-major from the
    transposed price levels, and the buffer and a chunk of scratch
    are allocated once, so an evaluation allocates nothing of size ``paths
    x steps``.

    *Terminal gains.*  Below the cap the gains are linear in ``theta``:
    ``X_t = sum_k theta_k G_k(t)`` with ``G_k = cumsum(C_k dS)`` from
    ``G_k(0) = 0``.  Each component's ``G_k`` is summed once, in ``path``
    (which the walks overwrite), and kept as three per-path vectors: its
    terminal value ``G_k(T)`` and its range ``[min_t G_k, max_t G_k]``.
    ``terminal_at(theta, thr)`` returns ``X_T = sum_k theta_k G_k(T)``,
    summed from zero in component order, when ``b`` is below the cap and
    every path's lower bound ``L = sum_k min(theta_k min G_k, theta_k max
    G_k) <= min_t X_t`` satisfies ``L - margin >= thr``; otherwise None, and
    the caller walks.

    *The margin.*  Take ``n`` steps, ``K`` components, ``S = max_paths
    sum_t |dS_t|`` and ``w = sum_k |theta_k|``; every path has ``sum_t
    sum_k |theta_k C_k dS_t| <= b S``.  Each term on either route is rounded at
    most ``r = n + K + 1`` times: the walk rounds ``K`` products and sums
    into the holding, one product with ``dS`` and the sums down the path;
    the terminal gains round one product with ``dS``, the sums down the
    path, one product with ``theta_k`` and ``K`` sums.  So each route's
    ``X_t``, and ``L``, is within ``g b S`` of its exact value, ``g = r u /
    (1 - r u)``.  A product that underflows adds at most ``eta / 2``
    instead; the two routes together hold fewer than ``r (1 + S) (1 + w)``
    such errors per path.  Both together are ``e``, and ``L - e >= thr``
    proves that the walk crosses at no node; the routes' ``X_T`` differ by
    at most ``e`` too.  The margin is ``4 r (u b S + eta (1 + S) (1 + w))``,
    at least twice ``e`` while ``r u`` is small, which also covers the
    rounding of ``b``, ``S``, the margin itself and the subtraction.  A NaN
    anywhere fails the test and walks.

    ``walks`` is the memo of :func:`_evaluation`'s claim-free walks on these
    gains, least recently used evicted first.  It belongs to this object
    alone: a sweep row builds one and every claim-free search of its price
    bisection shares it.
    """
    comps = [_time_major(c) if np.ndim(c) else np.array(c)
             for c in family.components(bundle)]
    sizes = [float(np.maximum(c.max(), -c.min())) for c in comps]
    s = bundle.s.T
    ds = np.subtract(s[1:], s[:-1], order="C")
    steps, paths = ds.shape
    path = np.zeros((steps + 1, paths))
    after = path[1:]
    np.abs(ds, out=after)
    variation = float(path.sum(axis=0).max())
    ends = []                   # per component: G_k(T), min G_k, max G_k
    for c in comps:
        np.multiply(c, ds, out=after)
        np.cumsum(after, axis=0, out=after)
        ends.append((path[-1].copy(), path.min(axis=0), path.max(axis=0)))
    rounds = steps + len(comps) + 1
    term = np.empty((min(chunk_steps(paths), steps), paths))
    cap = family.max_holding
    unclipped = cap * (1.0 - 1e-9)     # a bound below it never reaches cap

    def bound_at(theta) -> float:
        return sum(abs(w) * m for w, m in zip(theta, sizes) if w != 0.0)

    def terminal_at(theta, thr):
        bound = bound_at(theta)
        if not bound < unclipped:
            return None
        live = [(w, e) for w, e in zip(theta, ends) if w != 0.0]
        low = np.zeros(paths)
        for w, (_, lo, hi) in live:
            low += w * (lo if w > 0.0 else hi)
        weight = sum(abs(w) for w, _ in live)
        margin = 4.0 * rounds * (_U * bound * variation + (1.0 + variation)
                                 * (1.0 + weight) * _ETA)
        if not low.min() - margin >= thr:
            return None
        xt = np.zeros(paths)
        for w, (end, _, _) in live:
            xt += w * end
        return xt

    def fill_at(theta):
        live = [(w, c) for w, c in zip(theta, comps) if w != 0.0]
        # an all-zero theta fills zeros
        (w0, c0), *rest = live or [(0.0, np.zeros(()))]
        signed_zero = not any(c.ndim == 0 and w * c != 0.0 for w, c in live)
        clip = not bound_at(theta) < unclipped

        def fill(k0, k1, rows):
            if c0.ndim:
                np.multiply(w0, c0[k0:k1], out=rows)
            else:
                rows.fill(w0 * c0)
            for w, c in rest:
                rows += (np.multiply(w, c[k0:k1], out=term[:k1 - k0])
                         if c.ndim else w * c)
            if signed_zero:
                rows += 0.0
            if clip:
                np.clip(rows, -cap, cap, out=rows)
            rows *= ds[k0:k1]

        return fill

    return _Gains(fill_at, path, terminal_at)


def wealth_process(family, theta, bundle) -> np.ndarray:
    """Raw gains paths ``(paths, steps+1)`` of the family at ``theta``."""
    gains = _component_gains(family, bundle)
    walk(gains.fill_at(theta), gains.path, -math.inf)
    return gains.path.T.copy()


@dataclass(frozen=True)
class EnforcedWealth:
    """Stopped wealth paths with stopping diagnostics."""

    wealth: np.ndarray          # (paths, steps+1), floor respected everywhere
    stopped_fraction: float
    threshold: float            # the effective floor on X


def enforce_admissibility(family, theta, bundle) -> EnforcedWealth:
    """Stop the family's gains process at ``theta`` at its declared floor.

    The effective threshold on ``X`` is ``-K - FLOOR_SLACK``.  A path is
    frozen at the first node whose value falls below the threshold:
    holdings vanish from that node on, so the rule is predictable, and the
    frozen value keeps whatever overshoot the crossing step produced.  All
    nodes strictly before the stop satisfy the floor exactly
    (first-crossing definition); the overshoot is a loss the strategy
    genuinely suffered and is never repaired.
    """
    thr = -family.floor - FLOOR_SLACK
    gains = _component_gains(family, bundle)
    stop_at, _, crossed = walk(gains.fill_at(theta), gains.path, thr)
    raw = gains.path.T
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
                claim: ClaimSpec | None, gains: _Gains, kept: int):
    """``theta -> primal_bound(pair, x, family, theta, bundle, claim)`` on
    the family's ``_component_gains``.

    ``X_T`` comes from the terminal gains when the screen proves that no
    path reaches the floor (nothing is then stopped), else from a walk.
    Without a claim, ``X_T`` is looked up in the gains' memo before either,
    and the memo is then trimmed to the ``kept`` most recently used values.
    """
    thr = -family.floor - FLOOR_SLACK
    f = None if claim is None else np.asarray(
        claim(driver_levels(bundle)[:, -1]), dtype=float)
    walks = gains.walks

    def evaluate(theta) -> PrimalResult:
        key = (np.asarray(theta, dtype=float).tobytes(), thr)
        if f is None and key in walks:
            walks.move_to_end(key)
            xt, stopped = walks[key]
        else:
            xt, stopped = gains.terminal_at(theta, thr), 0.0
            if xt is None:
                _, xt, crossed = walk(gains.fill_at(theta), gains.path, thr)
                stopped = float(crossed.mean())
            if f is None:
                xt.flags.writeable = False
                walks[key] = xt, stopped
                if len(walks) > kept:
                    walks.popitem(last=False)
        w = x + xt if f is None else (x + f) + xt
        samples = np.asarray(pair.utility.u(w), dtype=float)
        return PrimalResult(estimate=mc_estimate(samples),
                            violations=int(np.sum(np.isneginf(samples))),
                            stopped_fraction=stopped)

    return evaluate


def primal_bound(pair: ConjugatePair, x: float, family, theta, bundle,
                 claim: ClaimSpec | None = None) -> PrimalResult:
    """Expected utility of enforced terminal wealth ``x + X_T (+ f)``.

    Any path outside the utility's domain contributes ``-inf`` and the whole
    estimate is reported as ``-inf`` with the count of offending paths.  A
    family floored by :func:`with_claim_floor` keeps ``x + X + phi_min >=
    0`` at every pre-stop node; a crossing step can overshoot the floor, so
    a violation is still possible when the payoff sits near its minimum on
    the overshooting path.  Such estimates come back ``-inf`` and the
    optimizer treats the strategy as infeasible rather than silently
    repairing it.
    """
    return _evaluation(pair, x, family, bundle, claim,
                       _component_gains(family, bundle), 0)(theta)


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


def lsmc_hedge(claim: ClaimSpec, bundle, buckets: int = 8,
               degree: int = 2, *, delta: np.ndarray | None = None
               ) -> HedgeResult:
    """Least-squares hedge of ``f = phi(B_T)`` by bucketed basis strategies.

    Regresses the terminal claim on the gains of every (bucket, feature)
    basis strategy plus an intercept; the coefficient vector is the
    holdings rule that minimizes the replication variance on the sample, and
    the intercept is the implied price.  Deterministic given the bundle.
    The basis holds the claim's smoothed delta (:func:`features_for`), which
    is what lets sharp payoffs replicate to their discretization floor; the
    strategy carries that delta for its holdings on this bundle.  A caller
    fitting several hedges of ``claim`` on one driver array and time grid
    passes the delta it computed for them as ``delta``; otherwise it is
    computed here.
    """
    feats = features_for(degree, variance_levels(bundle) is not None)
    steps = bundle.times.size - 1
    if not 1 <= buckets <= steps:
        raise ValueError("buckets must lie between 1 and the step count")
    edges = np.linspace(0, steps, buckets + 1).astype(int)
    ds = np.diff(bundle.s, axis=1)
    f = np.asarray(claim(driver_levels(bundle)[:, -1]), dtype=float)
    if delta is None:
        delta = _smoothed_delta(claim, bundle)

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
    dof = bundle.paths - ncols
    if dof > 0:
        gram_inv_00 = float(np.linalg.pinv(design.T @ design)[0, 0])
        price_se = math.sqrt(max(float(resid @ resid) / dof, 0.0)
                             * gram_inv_00)
        residual_sd = float(resid.std(ddof=1))
    else:   # the fit interpolates: no residual degree of freedom is left
        price_se, residual_sd = math.inf, math.nan
    strategy = BucketStrategy(coeffs=coef[1:].reshape(buckets, len(feats)),
                              features=feats, claim=claim)
    object.__setattr__(strategy, "_fitted", (bundle.b, delta))
    return HedgeResult(strategy=strategy, price=float(coef[0]),
                       residual_sd=residual_sd,
                       r_squared=1.0 - (float(resid.var(ddof=1)) / var_f
                                        if var_f > 0 else 0.0),
                       price_stderr=price_se)


def hedge_residual(hedge: BucketStrategy, price: float, bundle,
                   claim: ClaimSpec) -> float:
    """Replication residual sd of a hedge's holdings in a given market.

    Computes ``sd(price + X_T - f)`` with the raw (unstopped, untruncated)
    gains of the hedge's holdings on the bundle's price paths, each path's
    products summed in time order down time-major rows.  Lets a hedge
    fitted in one market be scored in another sharing the same drivers, with
    that market's own claim delta.
    """
    gains = hedge.holdings(bundle)
    gains *= np.diff(bundle.s, axis=1)
    gains = _time_major(gains).sum(axis=0)
    f = np.asarray(claim(driver_levels(bundle)[:, -1]), dtype=float)
    resid = price + gains - f
    return float(resid.std(ddof=1)) if resid.size > 1 else math.nan


# ---------------------------------------------------------------------------
# optimization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrimalOpt:
    """Outcome of a primal search over a strategy family."""

    theta: np.ndarray
    result: PrimalResult
    evaluations: int


def _search(pair: ConjugatePair, x: float, family, bundle,
            claim: ClaimSpec | None, budget: int, gains) -> PrimalOpt:
    """``optimize_primal`` on the family's ``_component_gains``, which a
    caller running several searches on one bundle builds once.  The gains'
    memo keeps as many claim-free walks as two searches of ``budget`` make:
    a price bisection's searches on common random numbers retrace the
    search before them."""
    lo = np.array([b[0] for b in family.bounds])
    hi = np.array([b[1] for b in family.bounds])
    evaluate = _evaluation(pair, x, family, bundle, claim, gains,
                           2 * max_calls(budget, lo.size))
    theta, evals = minimize(lambda t: -evaluate(t).estimate.mean, lo, hi,
                            budget)
    return PrimalOpt(theta=theta, result=evaluate(theta), evaluations=evals)


def optimize_primal(pair: ConjugatePair, x: float, family, bundle,
                    claim: ClaimSpec | None = None,
                    budget: int = 120) -> PrimalOpt:
    """Search the family for the best primal bound with Nelder-Mead.

    All evaluations reuse the bundle's paths (common random numbers), so the
    search is deterministic given seed, family and budget; each evaluation
    gives the bits of ``primal_bound`` of the family at ``theta``.  The
    search is :func:`~mcduality.search.minimize` of the negated mean over
    the family's bounds, so an infeasible ``theta`` (a ``-inf`` mean) scores
    as its one penalty.
    """
    return _search(pair, x, family, bundle, claim, budget,
                   _component_gains(family, bundle))
