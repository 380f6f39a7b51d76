"""Dual upper bounds from candidate martingale densities.

Every admissible wealth stream satisfies a Fenchel-type inequality against a
positive density, so Monte Carlo averages of the conjugate evaluated at
``y * (density)`` give upper bounds on the maximal expected utility.  The
baseline density is the bundle's ``Z`` (a function of ``(B, V)`` only, hence
shared across ``rho`` markets).  Perturbed candidates multiply ``Z`` by a
stochastic exponential driven by the direction orthogonal to the price
driver,

    W_perp = sqrt(1 - rho**2) W - rho B,

with a piecewise-constant-in-time integrand ``nu`` built from the basis
``(1, V, B)``.  The exponential is truncated by stopping: its log, the
running sum of ``nu dW_perp - nu**2 dt / 2``, is frozen at the node before
its first crossing above ``log(cap)``, which keeps the path in ``(0, cap]``
at every node.  That is the first crossing of the negated sum below
``-log(cap)``, found by the kernel that also stops primal wealth.

What a candidate does not choose -- ``dW_perp`` and the left-endpoint ``V``
and ``B``, each a contiguous time-major copy, ``Z_T``, the claim values, the
log buffer and a few rows of scratch -- is built once per bundle, and
``minimize_dual`` builds it once per search.  An evaluation forms only the
log increments: a chunk of steps at a time it forms ``nu`` in the scratch
rows and writes the increments into their rows of the log buffer, and
:func:`~mcduality.stopping.walk`, which the primal shares, sums and stops
them while the chunk is in cache.  It allocates nothing of size
``paths x steps`` and takes ``exp`` of the terminal values only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .estimates import Estimate, mc_estimate
from .market import HestonParams, PathBundle, TimeGrid
from .primal import _nelder_mead
from .stopping import chunk_steps, walk
from .utility import ClaimSpec, ConjugatePair, constrained_conjugate

__all__ = [
    "DualCandidate",
    "DualOpt",
    "SubrepReport",
    "perturbation_exponential",
    "dual_bound_mmm",
    "dual_bound_perturbed",
    "minimize_dual",
    "subreplication_estimate",
]

#: ``minimize_dual``'s search box, ``|coefficient| <= _BOX`` on every basis
#: slot and time bucket, and the cap of every candidate it builds
_BOX = 0.6
_CAP = 8.0


@dataclass(frozen=True)
class DualCandidate:
    """Integrand specification for a perturbed density.

    ``coeffs`` has shape ``(buckets, 3)``; on time bucket ``j`` the integrand
    is ``coeffs[j] . (1, V_t, B_t)`` evaluated at left endpoints.  ``cap``
    bounds the stochastic exponential (must be >= 1 so the starting value is
    inside the allowed range).
    """

    coeffs: np.ndarray
    cap: float = 8.0
    label: str = ""

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.coeffs, dtype=float))
        if c.ndim != 2 or c.shape[1] != 3:
            raise ValueError("coeffs must have shape (buckets, 3)")
        if self.cap < 1.0:
            raise ValueError("cap must be >= 1 (the exponential starts at 1)")
        object.__setattr__(self, "coeffs", c)

    def integrand(self, v: np.ndarray, b: np.ndarray, out: np.ndarray,
                  start: int = 0) -> np.ndarray:
        """Integrand of the ``len(out)`` steps from ``start`` on, written
        into ``out``.

        ``v`` and ``b`` hold the left-endpoint ``V`` and ``B`` of every step,
        so the time buckets split all of them; all three arrays are laid out
        time-major ``(steps, paths)``.
        """
        buckets = self.coeffs.shape[0]
        edges = np.linspace(0, v.shape[0], buckets + 1).astype(int)
        edges = np.clip(edges, start, start + out.shape[0])
        for j, (c0, cv, cb) in enumerate(self.coeffs):
            sl = slice(edges[j], edges[j + 1])
            rows = out[edges[j] - start:edges[j + 1] - start]
            np.multiply(v[sl], cv, out=rows)
            rows += c0
            rows += cb * b[sl]
        return out


def _perturbed_logs(bundle: PathBundle):
    """``candidate ->`` (negated log of its capped exponential, read nodes).

    The negated log is the running sum laid out ``(steps + 1, paths)`` from a
    zero first row, in a buffer that the next call overwrites; each path is
    read at the node before its first crossing, else at the last.  The
    increments are the walk's fill (:func:`~mcduality.stopping.walk`), a
    chunk of steps at a time, with the operations of a whole-array
    evaluation in its order, so the bits do not depend on the chunking.
    """
    rho = bundle.params.rho
    mix = math.sqrt(1.0 - rho**2)
    dwp = np.ascontiguousarray(
        (mix * bundle.increments("w") - rho * bundle.increments("b")).T)
    v = np.ascontiguousarray(bundle.v[:, :-1].T)
    b = np.ascontiguousarray(bundle.b[:, :-1].T)
    steps, dt = dwp.shape[0], bundle.dt
    scratch = np.empty((min(chunk_steps(dwp.shape[1]), steps), dwp.shape[1]))
    logs = np.zeros((steps + 1, dwp.shape[1]))

    def negated_logs(candidate: DualCandidate):
        def fill(k0, k1, inc):
            nu = candidate.integrand(v, b, scratch[:k1 - k0], start=k0)
            np.multiply(nu, nu, out=inc)
            inc *= 0.5
            inc *= dt
            np.multiply(nu, dwp[k0:k1], out=nu)
            inc -= nu           # exactly -(nu dW_perp - 0.5 nu**2 dt)

        stop, _, crossed = walk(fill, logs, -math.log(candidate.cap))
        return logs, stop - crossed

    return negated_logs


def perturbation_exponential(candidate: DualCandidate,
                             bundle: PathBundle) -> np.ndarray:
    """Capped stochastic exponential of the orthogonal-direction integral.

    Returns paths of shape ``(paths, steps + 1)`` with values in
    ``(0, cap]`` at every node, exact: a path whose next increment would
    exceed the cap is frozen from that step on (the offending increment is
    suppressed, so the stopped value is the last compliant one).
    """
    logs, node = _perturbed_logs(bundle)(candidate)
    idx = np.minimum(np.arange(logs.shape[0])[:, None], node)
    return np.exp(-np.take_along_axis(logs, idx, axis=0)).T


def _claim_values(claim: ClaimSpec | None, bundle: PathBundle):
    return None if claim is None else np.asarray(claim(bundle.b[:, -1]),
                                                 dtype=float)


def _conjugate_samples(pair: ConjugatePair, y: float, density_t: np.ndarray,
                       claim: ClaimSpec | None,
                       f: np.ndarray | None) -> np.ndarray:
    if y <= 0:
        raise ValueError("dual bounds require y > 0")
    yz = y * density_t
    if claim is None:
        return np.asarray(pair.v(yz), dtype=float)
    if pair.utility.is_halfline:
        return np.asarray(
            constrained_conjugate(pair, yz, f, claim.phi_min), dtype=float)
    return np.asarray(pair.v(yz), dtype=float) + yz * f


def dual_bound_mmm(pair: ConjugatePair, y: float, bundle: PathBundle,
                   claim: ClaimSpec | None = None) -> Estimate:
    """Dual bound from the baseline density ``Z``.

    Without a claim this is the mean of ``V(y Z_T)``.  With a claim it is
    the mean of the constrained conjugate ``V_c(y Z_T, f)`` for half-line
    utilities and of ``V(y Z_T) + y Z_T f`` for whole-line ones.  Because
    ``Z`` depends only on ``(B, V)``, the estimate is identical across
    ``rho`` markets simulated from a shared seed.
    """
    samples = _conjugate_samples(pair, y, bundle.z[:, -1], claim,
                                 _claim_values(claim, bundle))
    return mc_estimate(samples)


def _perturbed_bound(pair: ConjugatePair, y: float, bundle: PathBundle,
                     claim: ClaimSpec | None):
    """``candidate -> dual_bound_perturbed(pair, y, bundle, candidate,
    claim)`` with the bundle's inputs built once."""
    negated_logs = _perturbed_logs(bundle)
    z_t = bundle.z[:, -1]
    f = _claim_values(claim, bundle)

    def bound(candidate: DualCandidate) -> Estimate:
        logs, node = negated_logs(candidate)
        elt = np.exp(-logs[node, np.arange(node.size)])
        return mc_estimate(_conjugate_samples(pair, y, z_t * elt, claim, f))

    return bound


def dual_bound_perturbed(pair: ConjugatePair, y: float, bundle: PathBundle,
                         candidate: DualCandidate,
                         claim: ClaimSpec | None = None) -> Estimate:
    """Dual bound from the perturbed density ``Z * StochExp(nu . W_perp)``."""
    return _perturbed_bound(pair, y, bundle, claim)(candidate)


@dataclass(frozen=True)
class DualOpt:
    """Outcome of a dual minimization over a coefficient box."""

    best: DualCandidate
    estimate: Estimate
    table: list = field(repr=False)
    evaluations: int = 0


def minimize_dual(pair: ConjugatePair, y: float, bundle: PathBundle,
                  claim: ClaimSpec | None = None, buckets: int = 1,
                  budget: int = 60) -> DualOpt:
    """Minimize the perturbed bound over a coefficient box with Nelder-Mead.

    Each of the ``3 * buckets`` coefficients (basis ``(1, V, B)`` on each
    time bucket) ranges over ``[-_BOX, _BOX]``, and every candidate is
    capped at ``_CAP``.  The baseline ``nu = 0`` bound is evaluated first
    and retained whenever the search cannot improve on it, so the result is
    never worse than the unperturbed density.  Common
    random numbers (one shared bundle) make the search deterministic for a
    fixed seed and budget; the restarts follow the primal search's policy,
    ties breaking lexicographically on the rounded coefficient vector.
    Each evaluation gives the bits of ``dual_bound_perturbed`` on the
    search's inputs, built once.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    lo = np.full(3 * buckets, -_BOX)
    hi = np.full(3 * buckets, _BOX)
    evals = 0

    def make(theta, label=""):
        return DualCandidate(np.asarray(theta).reshape(buckets, 3), cap=_CAP,
                             label=label)

    def objective(theta):
        nonlocal evals
        evals += 1
        m = bound(make(theta)).mean
        return 1e30 if not math.isfinite(m) else m

    base = dual_bound_mmm(pair, y, bundle, claim)
    table: list[tuple[str, Estimate]] = [("mmm", base)]
    bound = _perturbed_bound(pair, y, bundle, claim)
    starts = [np.zeros(lo.size), 0.5 * (lo + hi), 0.25 * lo + 0.75 * hi]
    best_theta = _nelder_mead(objective, starts, lo, hi, budget)
    del bound   # free the search's buffers before the reported evaluation
    best_cand = make(best_theta, "nm")
    best_est = dual_bound_perturbed(pair, y, bundle, best_cand, claim)
    table.append(("nm", best_est))
    if base.mean <= best_est.mean:
        best_cand = DualCandidate(np.zeros((buckets, 3)), cap=_CAP,
                                  label="mmm")
        best_est = base
    return DualOpt(best=best_cand, estimate=best_est, table=table,
                   evaluations=evals + 1)


# ---------------------------------------------------------------------------
# subreplication
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubrepReport:
    """Shifted-expectation table for the subreplication construction."""

    t_prime: float
    rows: list            # [(shift, Estimate)]
    min_shift: float
    minimum: Estimate


def subreplication_estimate(claim: ClaimSpec, params: HestonParams,
                            grid: TimeGrid, b: np.ndarray, t_prime: float,
                            shifts) -> SubrepReport:
    """Estimate ``E[phi(B_T - B_{T'} + x)]`` over a grid of shifts ``x``.

    These are the conditional claim prices under the measures that
    concentrate the driver's remaining motion after ``T'``; their infimum
    over ``x`` approaches the claim's infimum as ``T' -> T``, which is the
    mechanism forcing the wealth floor.  Only the driver paths ``b``
    (``(paths, steps+1)`` on ``grid``, e.g. from
    :func:`~mcduality.market.simulate_driver`) are read.  Only meaningful
    in markets with ``params.rho != 0`` (the construction needs a driver
    direction the price does not span), and ``T'`` must be a grid node
    strictly before the horizon.
    """
    if params.rho == 0.0:
        raise ValueError("subreplication construction requires rho != 0")
    k = grid.node_index(t_prime)
    if k == grid.steps:
        raise ValueError(f"T'={t_prime} must be a grid node before the horizon")
    tail = b[:, -1] - b[:, k]
    rows = []
    for x in np.asarray(shifts, dtype=float).ravel():
        rows.append((float(x), mc_estimate(np.asarray(claim(tail + x)))))
    imin = min(range(len(rows)), key=lambda i: rows[i][1].mean)
    return SubrepReport(t_prime=float(t_prime), rows=rows,
                        min_shift=rows[imin][0], minimum=rows[imin][1])
