"""Path simulation for stochastic-volatility and general Brownian markets.

The core market is an arithmetic price with square-root-process variance:

    dS = mu * V dt + sqrt(V) * (sqrt(1 - rho**2) dB + rho dW),   S_0 = 0,
    dV = kappa * (theta - V) dt + sigma * sqrt(V) dB,            V_0 = v0,

with independent Brownian drivers ``B`` and ``W``.  ``B`` drives the
variance; the correlation parameter ``rho`` only mixes how the two drivers
enter the price.  Variance paths are discretized with the full-truncation
Euler scheme (negative excursions are clipped when they feed drift and
diffusion), prices and densities with left-endpoint Euler sums.

The density process ``Z = StochExp(-mu * sqrt(V) . B)`` is a function of
``(B, V)`` alone and is therefore shared by every ``rho`` market simulated
from the same seed.

A light general-market family ``dS^n = lambda_n |sigma_n|^2 dt + sigma_n . dB``
with d-dimensional ``B`` supports degenerate-limit experiments, and
``semimartingale_distance`` estimates the gap between two price processes
against a small fixed family of predictable +/-1 adversaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .estimates import Estimate, mc_estimate
from .rng import BLOCK_SIZE, RandomStream

__all__ = [
    "HestonParams",
    "TimeGrid",
    "PathBundle",
    "GeneralMarketCoeffs",
    "GeneralPaths",
    "DistanceReport",
    "simulate_driver",
    "simulate_cir",
    "simulate_heston_market",
    "stochastic_exponential",
    "minimal_martingale_density",
    "simulate_general_market",
    "semimartingale_distance",
]


#: steps per time-major chunk of the variance recursion
_CHUNK = 16


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HestonParams:
    """Market parameters; the Feller condition is enforced at construction."""

    mu: float
    kappa: float
    theta: float
    sigma: float
    v0: float
    rho: float = 0.0
    horizon: float = 1.0

    def __post_init__(self):
        if self.kappa <= 0 or self.theta <= 0 or self.sigma <= 0:
            raise ValueError("kappa, theta, sigma must be positive")
        if self.v0 < 0:
            raise ValueError("v0 must be nonnegative")
        if not -1.0 < self.rho < 1.0:
            raise ValueError(f"need |rho| < 1, got rho={self.rho}")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if 2.0 * self.kappa * self.theta < self.sigma**2:
            raise ValueError(
                "Feller condition violated: need 2*kappa*theta >= sigma**2 "
                f"(got {2 * self.kappa * self.theta:.6g} < {self.sigma**2:.6g})")

    def with_rho(self, rho: float) -> "HestonParams":
        return HestonParams(self.mu, self.kappa, self.theta, self.sigma,
                            self.v0, rho, self.horizon)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid with ``steps`` intervals on ``[0, horizon]``."""

    horizon: float
    steps: int

    def __post_init__(self):
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.steps < 1:
            raise ValueError("need at least one time step")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)

    def node_index(self, t: float, tol: float = 1e-9) -> int:
        """Index of the grid node at time ``t`` (must land on the grid)."""
        k = round(t / self.dt)
        if not 0 <= k <= self.steps or abs(k * self.dt - t) > tol:
            raise ValueError(f"time {t} is not a node of the grid")
        return int(k)


@dataclass(frozen=True)
class PathBundle:
    """Simulated Heston-market paths on a shared grid.

    All path arrays have shape ``(paths, steps + 1)``: drivers ``b`` and
    ``w``, variance ``v`` (nonnegative), price ``s`` (starts at 0) and
    density ``z`` (starts at 1, strictly positive).
    """

    times: np.ndarray
    b: np.ndarray
    w: np.ndarray
    v: np.ndarray
    s: np.ndarray
    z: np.ndarray
    seed: int
    params: HestonParams

    @property
    def paths(self) -> int:
        return self.b.shape[0]

    @property
    def steps(self) -> int:
        return self.b.shape[1] - 1

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def increments(self, name: str) -> np.ndarray:
        return np.diff(getattr(self, name), axis=1)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def _cir_full_truncation(params: HestonParams, grid: TimeGrid,
                         db: np.ndarray) -> np.ndarray:
    """Variance paths ``(paths, steps+1)`` from driver increments ``db``.

    Full-truncation Euler: with ``x+ = max(x, 0)`` each step is
    ``(x + (kappa (theta - x+)) dt) + (sigma sqrt(x+)) dB``, and the stored
    path is the clipped ``max(x, 0)``.  The recursion walks the paths in
    blocks of ``rng.BLOCK_SIZE`` and the steps in chunks of ``_CHUNK``
    time-major rows, so that a chunk's increments and states stay in cache;
    every step runs in place in scratch of at most one block, in the order
    above, so the values do not depend on the blocking.
    """
    paths, steps = db.shape
    dt = grid.dt
    kappa, theta, sigma = params.kappa, params.theta, params.sigma
    # one scratch buffer: a chunk of increments and the states it reaches
    # (both time-major), the state entering the chunk and x+.  It comes
    # before the result: allocated after it, the freed scratch left about
    # 0.3 MiB of heap in use per small bundle.
    width = min(BLOCK_SIZE, paths)
    scratch = np.empty((2 * _CHUNK + 2, width))
    dbt, xt = scratch[:_CHUNK], scratch[_CHUNK:2 * _CHUNK]
    x, xp = scratch[2 * _CHUNK], scratch[2 * _CHUNK + 1]
    raw = np.empty((paths, steps + 1))
    raw[:, 0] = params.v0
    for lo in range(0, paths, BLOCK_SIZE):
        hi = min(lo + BLOCK_SIZE, paths)
        m = hi - lo
        x[:m] = params.v0
        for k0 in range(0, steps, _CHUNK):
            k1 = min(k0 + _CHUNK, steps)
            n = k1 - k0
            dbt[:n, :m] = db[lo:hi, k0:k1].T
            prev = x[:m]
            for j in range(n):
                cur, pos = xt[j, :m], xp[:m]
                np.maximum(prev, 0.0, out=pos)
                np.subtract(theta, pos, out=cur)
                cur *= kappa
                cur *= dt
                cur += prev
                np.sqrt(pos, out=pos)
                pos *= sigma
                pos *= dbt[j, :m]
                cur += pos
                prev = cur
            x[:m] = prev
            raw[lo:hi, k0 + 1:k1 + 1] = xt[:n, :m].T
    return np.maximum(raw, 0.0, out=raw)


def _driver_increments(stream: RandomStream, grid: TimeGrid, paths: int,
                       workers: int | None = None,
                       d: int | None = None) -> np.ndarray:
    """``sqrt(dt)``-scaled standard normals of a substream.

    The shape is ``(paths, steps)``, or ``(paths, steps, d)`` for a
    ``d``-dimensional driver, whose ``d`` coordinates of one step are
    consecutive draws of a path's row.
    """
    cols = grid.steps if d is None else grid.steps * d
    z = stream.standard_normals(paths, cols, workers)
    z *= math.sqrt(grid.dt)
    return z if d is None else z.reshape(paths, grid.steps, d)


def _levels(inc: np.ndarray) -> np.ndarray:
    """Running sums of increments over axis 1 from a zero slice, so
    ``(paths, steps[, d])`` increments give ``(paths, steps+1[, d])``."""
    out = np.zeros((inc.shape[0], inc.shape[1] + 1) + inc.shape[2:])
    np.cumsum(inc, axis=1, out=out[:, 1:])
    return out


def simulate_driver(grid: TimeGrid, paths: int, stream: RandomStream,
                    workers: int | None = None) -> np.ndarray:
    """The variance driver ``B`` alone; a ``(paths, steps+1)`` array.

    ``B`` is the same for every market parameter and agrees bit for bit with
    the ``b`` of :func:`simulate_heston_market` from the same stream.
    """
    return _levels(_driver_increments(stream.split(0), grid, paths, workers))


def simulate_cir(params: HestonParams, grid: TimeGrid, paths: int,
                 stream: RandomStream, workers: int | None = None) -> np.ndarray:
    """Simulate variance paths alone; returns a ``(paths, steps+1)`` array.

    Draws the increments of ``B`` from the substream that
    :func:`simulate_heston_market` uses, so the variance paths agree bit for
    bit with a full market simulation from the same stream.
    """
    db = _driver_increments(stream.split(0), grid, paths, workers)
    return _cir_full_truncation(params, grid, db)


def stochastic_exponential(theta, d_m, d_qv) -> np.ndarray:
    """Discrete stochastic exponential of ``integral theta dM``.

    Per-step log increments are ``theta * dM - 0.5 * theta**2 * d_qv`` where
    ``d_qv`` is the driver's quadratic-variation increment per step (``dt``
    for a standard Brownian driver, ``V * dt`` for ``integral sqrt(V) dB``).
    Returns paths of shape ``(paths, steps + 1)`` starting at 1; the result
    is strictly positive by construction.
    """
    theta = np.asarray(theta, dtype=float)
    d_m = np.asarray(d_m, dtype=float)
    logs = theta * d_m - 0.5 * theta**2 * np.asarray(d_qv, dtype=float)
    if logs.ndim == 1:
        logs = logs[None, :]
    out = np.empty((logs.shape[0], logs.shape[1] + 1))
    out[:, 0] = 1.0
    np.cumsum(logs, axis=1, out=out[:, 1:])
    np.exp(out[:, 1:], out=out[:, 1:])
    return out


def minimal_martingale_density(mu: float, v: np.ndarray, db: np.ndarray,
                               dt: float) -> np.ndarray:
    """Density paths ``Z = StochExp(-mu * sqrt(V) . B)``.

    Left-endpoint variance values feed both the integrand and the bracket,
    so each factor has conditional mean one and ``E[Z_T] = 1`` exactly in
    distribution.  Depends only on ``(B, V)``: the same array serves every
    ``rho`` market built from the same drivers.
    """
    vleft = v[:, :-1]
    # integrand is -mu*sqrt(V) against B itself, so the bracket increment is
    # plain dt; the V-dependence already sits inside the integrand.
    return stochastic_exponential(-mu * np.sqrt(vleft), db, dt)


def simulate_heston_market(params: HestonParams, grid: TimeGrid, paths: int,
                           stream: RandomStream,
                           workers: int | None = None) -> PathBundle:
    """Simulate a full path bundle ``(B, W, V, S, Z)``.

    With a shared stream, ``B``, ``W``, ``V`` and ``Z`` are identical across
    ``rho`` values; only the price mixing changes.
    """
    if paths < 1:
        raise ValueError("need at least one path")
    db = _driver_increments(stream.split(0), grid, paths, workers)
    dw = _driver_increments(stream.split(1), grid, paths, workers)

    v = _cir_full_truncation(params, grid, db)
    vleft = v[:, :-1]
    sqv = np.sqrt(vleft)

    rho = params.rho
    mix = math.sqrt(1.0 - rho**2)
    ds = params.mu * vleft * grid.dt + sqv * (mix * db + rho * dw)

    z = minimal_martingale_density(params.mu, v, db, grid.dt)
    return PathBundle(times=grid.times, b=_levels(db), w=_levels(dw), v=v,
                      s=_levels(ds), z=z, seed=stream.seed, params=params)


# ---------------------------------------------------------------------------
# general Brownian market family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneralMarketCoeffs:
    """Coefficient family ``dS^n = lam_n |sigma_n|^2 dt + sigma_n . dB``.

    ``sigma(n, t, b)`` maps the family index, a node time and the driver
    levels ``b`` of shape ``(paths, d)`` to volatility vectors of the same
    shape; ``lam(n, t, b)`` returns per-path drift multipliers.  Constant
    coefficient families may simply broadcast.  Index ``math.inf`` selects
    the limit market.
    """

    d: int
    sigma: "callable"
    lam: "callable"

    def sigma_at(self, n, t, b) -> np.ndarray:
        out = np.asarray(self.sigma(n, t, b), dtype=float)
        return np.broadcast_to(out, b.shape)

    def lam_at(self, n, t, b) -> np.ndarray:
        out = np.asarray(self.lam(n, t, b), dtype=float)
        return np.broadcast_to(out, b.shape[:1])


@dataclass(frozen=True)
class GeneralPaths:
    """Paths of one member of a general market family."""

    times: np.ndarray
    b: np.ndarray        # (paths, steps+1, d)
    s: np.ndarray        # (paths, steps+1) price
    n: float             # family index (math.inf for the limit market)

    @property
    def paths(self) -> int:
        return self.b.shape[0]

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


def simulate_general_market(coeffs: GeneralMarketCoeffs, n, grid: TimeGrid,
                            paths: int, stream: RandomStream,
                            workers: int | None = None) -> GeneralPaths:
    """Simulate one member of the family on shared driver increments.

    Reusing the same ``stream`` across family indices gives common driver
    paths, which is what the convergence diagnostics assume.
    """
    db = _driver_increments(stream.split(0), grid, paths, workers,
                            d=coeffs.d)
    b = _levels(db)
    s = np.zeros((paths, grid.steps + 1))
    t = grid.times
    for k in range(grid.steps):
        sig = coeffs.sigma_at(n, t[k], b[:, k, :])
        lam = coeffs.lam_at(n, t[k], b[:, k, :])
        dm = np.einsum("pd,pd->p", sig, db[:, k, :])
        drift = lam * np.einsum("pd,pd->p", sig, sig) * grid.dt
        s[:, k + 1] = s[:, k] + drift + dm
    return GeneralPaths(times=t, b=b, s=s, n=float(n))


# ---------------------------------------------------------------------------
# semimartingale distance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistanceReport:
    """Adversarial distance estimate with the per-rule breakdown."""

    distance: Estimate
    best_rule: str
    by_rule: dict = field(repr=False)


def semimartingale_distance(x_paths: np.ndarray,
                            y_paths: np.ndarray) -> DistanceReport:
    """Estimate ``sup_theta E[ |(theta . (X - Y))_T| ^ 1 ]`` over a fixed family.

    The adversaries are predictable with values in {-1, +1}: the two constant
    signs, the sign of the previous difference increment, and the sign of the
    adversary's own running gain (adaptive rules start at +1 and read
    ``sign(0)`` as +1).  Each adaptive rule is also run on the negated
    difference; with the family closed under mirroring this way, swapping the
    inputs permutes the rule values, so the reported distance is exactly
    symmetric.
    """
    dd = np.asarray(x_paths, dtype=float) - np.asarray(y_paths, dtype=float)
    if dd.ndim != 2 or dd.shape[1] < 2:
        raise ValueError("need path arrays of shape (paths, nodes)")
    inc = np.diff(dd, axis=1)
    n_steps = inc.shape[1]

    def clip1(total):
        return np.minimum(np.abs(total), 1.0)

    def prev_sign_total(d):
        sgn = np.where(d >= 0.0, 1.0, -1.0)
        theta = np.concatenate([np.ones((d.shape[0], 1)), sgn[:, :-1]], axis=1)
        return (theta * d).sum(axis=1)

    def running_sign_total(d):
        run = np.zeros(d.shape[0])
        for k in range(n_steps):
            theta = np.where(run >= 0.0, 1.0, -1.0)
            run = run + theta * d[:, k]
        return run

    rules: dict[str, Estimate] = {}
    rules["const+1"] = mc_estimate(clip1(inc.sum(axis=1)))
    rules["const-1"] = mc_estimate(clip1(-inc.sum(axis=1)))
    rules["prev-increment-sign"] = mc_estimate(clip1(prev_sign_total(inc)))
    rules["prev-increment-sign-mirror"] = mc_estimate(clip1(prev_sign_total(-inc)))
    rules["running-sign"] = mc_estimate(clip1(running_sign_total(inc)))
    rules["running-sign-mirror"] = mc_estimate(clip1(running_sign_total(-inc)))

    best = max(rules, key=lambda r: rules[r].mean)
    return DistanceReport(distance=rules[best], best_rule=best, by_rule=rules)
