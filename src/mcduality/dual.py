"""Dual upper bounds from candidate martingale densities.

Every admissible wealth stream satisfies a Fenchel-type inequality against a
positive density, so Monte Carlo averages of the conjugate evaluated at
``y * (density)`` give upper bounds on the maximal expected utility.  The
baseline density is the bundle's ``Z_T`` (a function of ``(B, V)`` only,
hence shared across ``rho`` markets).  Perturbed candidates multiply ``Z``
by a stochastic exponential driven by the direction orthogonal to the price
driver,

    W_perp = sqrt(1 - rho**2) W - rho B,

with a piecewise-constant-in-time integrand ``nu`` built from the basis
``(1, V, B)``.  The exponential is truncated by stopping: its log, the
running sum of ``nu dW_perp - nu**2 dt / 2``, is frozen at the node before
its first crossing above ``log(cap)``, which keeps the path in ``(0, cap]``
at every node.  That is the first crossing of the negated sum below
``-log(cap)``, found by the kernel that also stops primal wealth.

A candidate's capped exponential at the horizon depends on the bundle and
the candidate alone, not on ``y`` or the claim, so it is shared per bundle:
the bundle memoises the last ``steps + 1`` candidates' terminal values,
and the searches of a ``y`` grid, with and without a claim, walk each
candidate they share once.  What a candidate does not choose --
``dW_perp`` and the left-endpoint ``V`` and ``B``, each a contiguous
time-major copy, the log buffer and a chunk of scratch rows -- is built per
bundle, not per search: at the bundle's first perturbed evaluation, beside
the memo, in one :class:`_BundleWalks` that lives as long as the bundle.
A walk forms only the log increments: a chunk of
steps at a time it forms ``nu`` in the scratch rows and writes the
increments into their rows of the log buffer, and
:func:`~mcduality.stopping.walk`, which the primal shares, sums and stops
them while the chunk is in cache.  It allocates nothing of size
``paths x steps`` and takes ``exp`` of the terminal values only.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .estimates import Estimate, mc_estimate
from .market import HestonParams, PathBundle, TimeGrid, driver_blocks
from .rng import RandomStream
from .search import minimize
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
#: slot and time bucket, and a candidate's default cap, which the search's
#: candidates keep
_BOX = 0.6
_CAP = 8.0


@dataclass(frozen=True)
class DualCandidate:
    """Integrand specification for a perturbed density.

    ``coeffs`` has shape ``(buckets, 3)``; on time bucket ``j`` the integrand
    is ``coeffs[j] . (1, V_t, B_t)`` evaluated at left endpoints.  ``cap``
    (default :data:`_CAP`) bounds the stochastic exponential (must be >= 1
    so the starting value is inside the allowed range).
    """

    coeffs: np.ndarray
    cap: float = _CAP
    label: str = ""

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.coeffs, dtype=float))
        if c.ndim != 2 or c.shape[1] != 3:
            raise ValueError("coeffs must have shape (buckets, 3)")
        if not self.cap >= 1.0:
            raise ValueError("cap must be >= 1 (the exponential starts at 1)")
        object.__setattr__(self, "coeffs", c)

    def integrand(self, v: np.ndarray, b: np.ndarray, out: np.ndarray,
                  start: int, edges: list, tmp: np.ndarray) -> np.ndarray:
        """Integrand of the ``len(out)`` steps from ``start`` on, written
        into ``out``.

        ``v`` and ``b`` hold the left-endpoint ``V`` and ``B`` of every step,
        all three arrays laid out time-major ``(steps, paths)``; ``edges``
        lists the first step of each time bucket, then ``steps``, and
        ``tmp`` is scratch shaped as ``out``.
        """
        stop = start + out.shape[0]
        for j, (c0, cv, cb) in enumerate(self.coeffs):
            k0, k1 = max(edges[j], start), min(edges[j + 1], stop)
            if k0 >= k1:
                continue
            rows = out[k0 - start:k1 - start]
            np.multiply(v[k0:k1], cv, out=rows)
            rows += c0
            rows += np.multiply(b[k0:k1], cb, out=tmp[:k1 - k0])
        return out


class _BundleWalks:
    """The perturbed walks of one bundle: their inputs, buffers and memo.

    Built at the bundle's first perturbed evaluation and kept in
    ``PathBundle._walks``, it holds what a candidate does not choose:
    ``dW_perp`` and the left-endpoint ``V`` and ``B``, each laid out
    time-major ``(steps, paths)``, and ``dt``; the ``(steps + 1, paths)``
    log buffer and one chunk of scratch rows; and the memo, the terminal
    capped exponentials of the ``steps + 1`` candidates walked most
    recently, each a row of one ``(steps + 1, paths)`` slab, keyed by the
    candidate's coefficients, bit for bit, and cap.  A new candidate takes
    the next unused row, else the least recently used candidate's row.
    Two threads must not walk one bundle at once.
    """

    def __init__(self, bundle: PathBundle):
        steps, paths, rho = bundle.steps, bundle.paths, bundle.params.rho
        self.logs = np.zeros((steps + 1, paths))
        # mix * diff(w) - rho * diff(b), an elementwise operation at a time,
        # time-major from the levels; rho * diff(b) is formed in the log
        # rows, which every walk overwrites
        w, b = bundle.w.T, bundle.b.T
        self.dwp = np.subtract(w[1:], w[:-1], order="C")
        self.dwp *= math.sqrt(1.0 - rho**2)
        db = np.subtract(b[1:], b[:-1], out=self.logs[1:])
        db *= rho
        self.dwp -= db
        self.v = np.ascontiguousarray(bundle.v[:, :-1].T)
        self.b = np.ascontiguousarray(bundle.b[:, :-1].T)
        self.dt = bundle.dt
        self.scratch = np.empty((min(chunk_steps(paths), steps), paths))
        self.slab = np.empty((steps + 1, paths))
        self.rows: OrderedDict = OrderedDict()      # key -> row index

    @classmethod
    def of(cls, bundle: PathBundle) -> "_BundleWalks":
        """The bundle's walks, built at the first call."""
        if bundle._walks is None:
            object.__setattr__(bundle, "_walks", cls(bundle))
        return bundle._walks

    @staticmethod
    def key(candidate: DualCandidate):
        c = candidate.coeffs
        return c.shape, c.tobytes(), candidate.cap

    def negated_logs(self, candidate: DualCandidate):
        """(Negated log of the candidate's capped exponential, read nodes).

        The negated log is the running sum laid out ``(steps + 1, paths)``
        from a zero first row, in the log buffer, which the next walk
        overwrites; each path is read at the node before its first
        crossing, else at the last.  The increments are the walk's fill
        (:func:`~mcduality.stopping.walk`), a chunk of steps at a time, with
        the operations of a whole-array evaluation in its order, so the
        bits do not depend on the chunking.
        """
        v, b, dwp, scratch = self.v, self.b, self.dwp, self.scratch
        dt, steps = self.dt, dwp.shape[0]
        edges = np.linspace(0, steps, candidate.coeffs.shape[0] + 1
                            ).astype(int).tolist()

        def fill(k0, k1, inc):
            # the rows of increments are the integrand's scratch until the
            # increments are written
            nu = candidate.integrand(v, b, scratch[:k1 - k0], k0, edges, inc)
            np.multiply(nu, nu, out=inc)
            inc *= 0.5
            inc *= dt
            np.multiply(nu, dwp[k0:k1], out=nu)
            inc -= nu           # exactly -(nu dW_perp - 0.5 nu**2 dt)

        stop, _, crossed = walk(fill, self.logs, -math.log(candidate.cap))
        return self.logs, stop - crossed

    def terminal(self, candidate: DualCandidate) -> np.ndarray:
        """The candidate's capped exponential at the horizon, read-only.

        A candidate in the memo is now its most recently used; one that is
        not is walked and its values are written to a row, so every search
        on the bundle shares them whatever its ``y`` or claim, and an
        evicted candidate is walked again to the same bits.  The row holds
        the candidate's values until the memo gives it to another.
        """
        key = self.key(candidate)
        i = self.rows.get(key)
        if i is None:
            logs, node = self.negated_logs(candidate)
            full = len(self.rows) == self.slab.shape[0]
            i = self.rows.popitem(last=False)[1] if full else len(self.rows)
            self.rows[key] = i
            np.exp(-logs[node, np.arange(node.size)], out=self.slab[i])
        self.rows.move_to_end(key)
        row = self.slab[i]
        row.flags.writeable = False
        return row


def perturbation_exponential(candidate: DualCandidate,
                             bundle: PathBundle) -> np.ndarray:
    """Capped stochastic exponential of the orthogonal-direction integral.

    Returns paths of shape ``(paths, steps + 1)`` with values in
    ``(0, cap]`` at every node, exact: a path whose next increment would
    exceed the cap is frozen from that step on (the offending increment is
    suppressed, so the stopped value is the last compliant one).
    """
    logs, node = _BundleWalks.of(bundle).negated_logs(candidate)
    idx = np.minimum(np.arange(logs.shape[0])[:, None], node)
    return np.exp(-np.take_along_axis(logs, idx, axis=0)).T


def _claim_values(claim: ClaimSpec | None, bundle: PathBundle):
    return None if claim is None else np.asarray(claim(bundle.b[:, -1]),
                                                 dtype=float)


def _conjugate_samples(pair: ConjugatePair, y: float, density_t: np.ndarray,
                       claim: ClaimSpec | None,
                       f: np.ndarray | None) -> np.ndarray:
    if not 0.0 < y < math.inf:
        raise ValueError("dual bounds require a finite y > 0")
    yz = y * density_t
    if claim is None:
        return np.asarray(pair.v(yz), dtype=float)
    if pair.utility.is_halfline:
        return np.asarray(
            constrained_conjugate(pair, yz, f, claim.phi_min), dtype=float)
    return np.asarray(pair.v(yz), dtype=float) + yz * f


def dual_bound_mmm(pair: ConjugatePair, y: float, bundle: PathBundle,
                   claim: ClaimSpec | None = None) -> Estimate:
    """Dual bound from the baseline density ``Z_T`` of ``bundle``.

    Without a claim this is the mean of ``V(y Z_T)``.  With a claim it is
    the mean of the constrained conjugate ``V_c(y Z_T, f)`` for half-line
    utilities and of ``V(y Z_T) + y Z_T f`` for whole-line ones.  The bound
    reads only the bundle it is given; each row of
    :func:`~mcduality.pricing.rho_sweep` passes its own.  Today's ``Z``
    depends only on ``(B, V)``, so the estimate is identical across ``rho``
    markets simulated from a shared seed.
    """
    samples = _conjugate_samples(pair, y, bundle.z, claim,
                                 _claim_values(claim, bundle))
    return mc_estimate(samples)


def _perturbed_bound(pair: ConjugatePair, y: float, bundle: PathBundle,
                     claim: ClaimSpec | None):
    """``candidate -> dual_bound_perturbed(pair, y, bundle, candidate,
    claim)`` with the claim values formed once."""
    terminal = _BundleWalks.of(bundle).terminal
    f = _claim_values(claim, bundle)

    def bound(candidate: DualCandidate) -> Estimate:
        return mc_estimate(_conjugate_samples(
            pair, y, bundle.z * terminal(candidate), claim, f))

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
    never worse than the unperturbed density.  Common random numbers (one
    shared bundle) make the search deterministic for a fixed seed and
    budget.  The search is :func:`~mcduality.search.minimize`, the primal's
    too: runs from the box's midpoint ``nu = 0`` and its two quarter points,
    a non-finite bound scoring ``1e30``.  Each evaluation gives the bits of
    ``dual_bound_perturbed``; a candidate already walked on the bundle, by
    this search or an earlier one, is read from the bundle's memo, so the
    reported evaluation of the best candidate walks nothing.
    ``evaluations`` counts the search's calls and the reported evaluation,
    not walks.  ``buckets`` must lie between 1 and the bundle's step count,
    which is checked before any work.
    """
    if not 1 <= buckets <= bundle.steps:
        raise ValueError("buckets must lie between 1 and the step count")
    lo = np.full(3 * buckets, -_BOX)
    hi = np.full(3 * buckets, _BOX)

    def make(theta, label=""):
        return DualCandidate(np.asarray(theta).reshape(buckets, 3),
                             label=label)

    base = dual_bound_mmm(pair, y, bundle, claim)
    table: list[tuple[str, Estimate]] = [("mmm", base)]
    bound = _perturbed_bound(pair, y, bundle, claim)
    best_theta, evals = minimize(lambda t: bound(make(t)).mean, lo, hi,
                                 budget)
    best_cand = make(best_theta, "nm")
    best_est = dual_bound_perturbed(pair, y, bundle, best_cand, claim)
    table.append(("nm", best_est))
    if base.mean <= best_est.mean:
        best_cand = DualCandidate(np.zeros((buckets, 3)), label="mmm")
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
                            grid: TimeGrid, paths: int, stream: RandomStream,
                            t_prime: float, shifts) -> SubrepReport:
    """Estimate ``E[phi(B_T - B_{T'} + x)]`` over a grid of shifts ``x``.

    These are the conditional claim prices under the measures that
    concentrate the driver's remaining motion after ``T'``; their infimum
    over ``x`` approaches the claim's infimum as ``T' -> T``, which is the
    mechanism forcing the wealth floor.  The driver of ``paths`` paths on
    ``grid`` is drawn from ``stream`` one path block at a time
    (:func:`~mcduality.market.driver_blocks`), and each block is reduced to
    its tails ``B_T - B_{T'}``, so only that ``(paths,)`` vector is held:
    the bits of ``b[:, -1] - b[:, k]`` on a bundle's whole driver from the
    same stream.  Only meaningful in
    markets with ``params.rho != 0`` (the construction needs a driver
    direction the price does not span), and ``T'`` must be a grid node
    strictly before the horizon; both are checked before anything is drawn.
    """
    if params.rho == 0.0:
        raise ValueError("subreplication construction requires rho != 0")
    k = grid.node_index(t_prime)
    if k == grid.steps:
        raise ValueError(f"T'={t_prime} must be a grid node before the horizon")
    tail = np.empty(paths)

    def reduce(lo, hi, b):
        np.subtract(b[:, -1], b[:, k], out=tail[lo:hi])

    driver_blocks(grid, paths, stream, reduce)
    rows = []
    for x in np.asarray(shifts, dtype=float).ravel():
        rows.append((float(x), mc_estimate(np.asarray(claim(tail + x)))))
    imin = min(range(len(rows)), key=lambda i: rows[i][1].mean)
    return SubrepReport(t_prime=float(t_prime), rows=rows,
                        min_shift=rows[imin][0], minimum=rows[imin][1])
