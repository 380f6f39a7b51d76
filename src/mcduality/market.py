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

Every simulator works one path block at a time (:func:`rng.map_blocks`):
a block's driver increments are drawn just before they are used and its
paths are written into its own rows, so the bits do not depend on the
worker count and no ``(paths, steps)`` array of increments exists.

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
from .rng import RandomStream, map_blocks
from .stopping import chunk_steps

__all__ = [
    "HestonParams",
    "TimeGrid",
    "PathBundle",
    "GeneralMarketCoeffs",
    "GeneralPaths",
    "DistanceReport",
    "simulate_driver",
    "simulate_cir",
    "simulate_cir_blocks",
    "simulate_heston_market",
    "stochastic_exponential",
    "minimal_martingale_density",
    "simulate_general_market",
    "semimartingale_distance",
]


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HestonParams:
    """Market parameters; finiteness and the Feller condition are enforced
    at construction."""

    mu: float
    kappa: float
    theta: float
    sigma: float
    v0: float
    rho: float = 0.0
    horizon: float = 1.0

    def __post_init__(self):
        values = (self.mu, self.kappa, self.theta, self.sigma, self.v0,
                  self.rho, self.horizon)
        if not all(math.isfinite(x) for x in values):
            raise ValueError("market parameters must be finite numbers")
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

def _cir_scratch(width: int) -> np.ndarray:
    """Scratch of :func:`_cir_block` for blocks of up to ``width`` paths."""
    return np.empty((2 * chunk_steps(width) + 2, width))


def _cir_block(params: HestonParams, grid: TimeGrid, db: np.ndarray,
               out: np.ndarray, scratch: np.ndarray) -> None:
    """Variance paths of one path block from its driver increments.

    ``db`` holds the block's ``(m, steps)`` increments of ``B``, with ``m``
    at most the width of ``scratch`` (:func:`_cir_scratch`), and ``out``
    receives the ``(m, steps+1)`` paths.  Full-truncation Euler: with
    ``x+ = max(x, 0)`` each step is
    ``(x + (kappa (theta - x+)) dt) + (sigma sqrt(x+)) dB``, and the stored
    path is the clipped ``max(x, 0)``.  The steps are walked in chunks of
    time-major rows, ``stopping.chunk_steps`` of the block width, so that a
    chunk's increments and states stay in cache; every step runs in place
    in ``scratch``, in the order above, so the values depend neither on the
    chunking nor on how the paths are split into blocks.
    """
    m, steps = db.shape
    dt = grid.dt
    kappa, theta, sigma = params.kappa, params.theta, params.sigma
    c = chunk_steps(scratch.shape[1])
    # a chunk of increments and the states it reaches (both time-major),
    # the state entering the chunk and x+
    dbt, xt = scratch[:c, :m], scratch[c:2 * c, :m]
    x, xp = scratch[2 * c, :m], scratch[2 * c + 1, :m]
    out[:, 0] = params.v0
    x[:] = params.v0
    for k0 in range(0, steps, c):
        k1 = min(k0 + c, steps)
        n = k1 - k0
        dbt[:n] = db[:, k0:k1].T
        prev = x
        for j in range(n):
            cur = xt[j]
            np.maximum(prev, 0.0, out=xp)
            np.subtract(theta, xp, out=cur)
            cur *= kappa
            cur *= dt
            cur += prev
            np.sqrt(xp, out=xp)
            xp *= sigma
            xp *= dbt[j]
            cur += xp
            prev = cur
        x[:] = prev
        out[:, k0 + 1:k1 + 1] = xt[:n].T
    np.maximum(out, 0.0, out=out)


def _increment_blocks(stream: RandomStream, grid: TimeGrid, cols: int,
                      spans):
    """Yield ``(lo, hi, db)`` for each path block ``(block, lo, hi)`` of
    ``spans``: its ``(hi - lo, cols)`` normals of ``stream`` times
    ``sqrt(dt)``, in one buffer that the next block overwrites.  A step of a
    ``d``-dimensional driver is ``d`` consecutive draws of a row."""
    buf = np.empty((spans[0][2] - spans[0][1], cols))
    scale = math.sqrt(grid.dt)
    for block, lo, hi in spans:
        db = stream.fill_normals(block, buf[:hi - lo])
        db *= scale
        yield lo, hi, db


def _driver_levels(stream: RandomStream, grid: TimeGrid, paths: int,
                   workers: int | None = None,
                   d: int | None = None) -> np.ndarray:
    """Driver levels ``(paths, steps+1[, d])`` from a zero slice; each
    block's increments are summed straight into its rows."""
    trail = () if d is None else (d,)
    out = np.zeros((paths, grid.steps + 1) + trail)
    cols = grid.steps * (1 if d is None else d)

    def work(spans):
        for lo, hi, db in _increment_blocks(stream, grid, cols, spans):
            np.cumsum(db.reshape((hi - lo, grid.steps) + trail), axis=1,
                      out=out[lo:hi, 1:])

    map_blocks(work, paths, workers)
    return out


def simulate_driver(grid: TimeGrid, paths: int, stream: RandomStream,
                    workers: int | None = None) -> np.ndarray:
    """The variance driver ``B`` alone; a ``(paths, steps+1)`` array.

    ``B`` is the same for every market parameter and agrees bit for bit with
    the ``b`` of :func:`simulate_heston_market` from the same stream.
    """
    return _driver_levels(stream.split(0), grid, paths, workers)


def simulate_cir_blocks(params: HestonParams, grid: TimeGrid, paths: int,
                        stream: RandomStream, visit,
                        workers: int | None = None) -> None:
    """Simulate variance paths one path block at a time.

    The paths are those of :func:`simulate_cir`, bit for bit.  A block's
    ``(hi - lo, steps+1)`` variance is written to a block buffer that the
    next block overwrites; ``visit(lo, hi, v)`` reads it in between.  With
    several workers the blocks run on threads, so ``visit`` may write only
    to rows ``lo:hi`` of what it fills.
    """
    sub = stream.split(0)

    def work(spans):
        width = spans[0][2] - spans[0][1]
        scratch = _cir_scratch(width)
        buf = np.empty((width, grid.steps + 1))
        for lo, hi, db in _increment_blocks(sub, grid, grid.steps, spans):
            v = buf[:hi - lo]
            _cir_block(params, grid, db, v, scratch)
            visit(lo, hi, v)

    map_blocks(work, paths, workers)


def simulate_cir(params: HestonParams, grid: TimeGrid, paths: int,
                 stream: RandomStream, workers: int | None = None) -> np.ndarray:
    """Simulate variance paths alone; returns a ``(paths, steps+1)`` array.

    Draws the increments of ``B`` from the substream that
    :func:`simulate_heston_market` uses, so the variance paths agree bit for
    bit with a full market simulation from the same stream.
    """
    v = np.empty((paths, grid.steps + 1))

    def store(lo, hi, block):
        v[lo:hi] = block

    simulate_cir_blocks(params, grid, paths, stream, store, workers)
    return v


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
                               dt: float, out: np.ndarray | None = None
                               ) -> np.ndarray:
    """Density paths ``Z = StochExp(-mu * sqrt(V) . B)``.

    Left-endpoint variance values feed both the integrand and the bracket,
    so each factor has conditional mean one and ``E[Z_T] = 1`` exactly in
    distribution.  Depends only on ``(B, V)``: the same array serves every
    ``rho`` market built from the same drivers.  Written to ``out`` (new if
    None) by way of the log increments, so the integrand is the only
    temporary; the bits are those of :func:`stochastic_exponential`.
    """
    if out is None:
        out = np.empty(v.shape)
    # integrand is -mu*sqrt(V) against B itself, so the bracket increment is
    # plain dt; the V-dependence already sits inside the integrand.
    theta = np.sqrt(v[:, :-1])
    theta *= -mu
    logs = out[:, 1:]
    np.multiply(theta, db, out=logs)
    theta *= theta
    theta *= 0.5
    theta *= dt
    logs -= theta
    out[:, 0] = 1.0
    np.cumsum(logs, axis=1, out=logs)
    np.exp(logs, out=logs)
    return out


def simulate_heston_market(params: HestonParams, grid: TimeGrid, paths: int,
                           stream: RandomStream,
                           workers: int | None = None) -> PathBundle:
    """Simulate a full path bundle ``(B, W, V, S, Z)``.

    With a shared stream, ``B``, ``W``, ``V`` and ``Z`` are identical across
    ``rho`` values; only the price mixing changes.  A path block draws its
    increments of ``B`` (substream 0) and ``W`` (substream 1) and computes
    all five paths from them in its own rows.
    """
    b, w, v, s, z = (np.zeros((paths, grid.steps + 1)) for _ in range(5))
    mu, rho, dt = params.mu, params.rho, grid.dt
    mix = math.sqrt(1.0 - rho**2)

    def work(spans):
        scratch = _cir_scratch(spans[0][2] - spans[0][1])
        b_blocks = _increment_blocks(stream.split(0), grid, grid.steps, spans)
        w_blocks = _increment_blocks(stream.split(1), grid, grid.steps, spans)
        for (lo, hi, db), (_, _, dw) in zip(b_blocks, w_blocks):
            _cir_block(params, grid, db, v[lo:hi], scratch)
            minimal_martingale_density(mu, v[lo:hi], db, dt, out=z[lo:hi])
            np.cumsum(db, axis=1, out=b[lo:hi, 1:])
            np.cumsum(dw, axis=1, out=w[lo:hi, 1:])
            # dS = mu V dt + sqrt(V) (mix dB + rho dW), built in place in
            # the increment buffers, operation by operation as written
            vleft = v[lo:hi, :-1]
            db *= mix
            dw *= rho
            db += dw
            np.sqrt(vleft, out=dw)
            db *= dw
            np.multiply(mu, vleft, out=dw)
            dw *= dt
            db += dw
            np.cumsum(db, axis=1, out=s[lo:hi, 1:])

    map_blocks(work, paths, workers)
    return PathBundle(times=grid.times, b=b, w=w, v=v, s=s, z=z,
                      seed=stream.seed, params=params)


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
    paths, which is what the convergence diagnostics assume.  A path block
    draws its increments of ``B`` (substream 0) and walks the steps of
    ``S``, so the coefficients see one block of driver levels at a time.
    """
    d, steps, t = coeffs.d, grid.steps, grid.times
    b, s = np.zeros((paths, steps + 1, d)), np.zeros((paths, steps + 1))

    def work(spans):
        for lo, hi, flat in _increment_blocks(stream.split(0), grid,
                                              steps * d, spans):
            db = flat.reshape(hi - lo, steps, d)
            bb, sb = b[lo:hi], s[lo:hi]
            np.cumsum(db, axis=1, out=bb[:, 1:])
            for k in range(steps):
                sig = coeffs.sigma_at(n, t[k], bb[:, k, :])
                lam = coeffs.lam_at(n, t[k], bb[:, k, :])
                dm = np.einsum("pd,pd->p", sig, db[:, k, :])
                drift = lam * np.einsum("pd,pd->p", sig, sig) * grid.dt
                sb[:, k + 1] = sb[:, k] + drift + dm

    map_blocks(work, paths, workers)
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
