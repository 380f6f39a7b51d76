"""Bounded Nelder-Mead search shared by the primal and the dual.

Both sides hand :func:`minimize` an objective of the coefficient vector and
a box; this module alone decides where the runs start, how they share the
budget, how ties between them break, how calls are counted and what an
infeasible point scores.  The simplex itself reproduces scipy's bounded,
non-adaptive ``Nelder-Mead`` bit for bit, so the package imports no scipy.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["max_calls", "minimize"]

#: the value of a point whose objective is not finite (``-inf`` expected
#: utility on the primal side, an overflowing conjugate on the dual side)
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


def max_calls(budget: int, dim: int) -> int:
    """The most objective calls :func:`minimize` makes with ``budget`` on a
    box of ``dim`` coordinates: three runs of at most ``budget // 3`` calls,
    and at least ``dim + 2``, each."""
    return 3 * max(budget // 3, dim + 2)


def minimize(objective, lo: np.ndarray, hi: np.ndarray,
             budget: int) -> tuple[np.ndarray, int]:
    """Best point of the box ``[lo, hi]`` and the number of objective calls.

    Three bounded Nelder-Mead runs start at the box's midpoint, then at its
    lower and upper quarter points, and share ``budget`` calls (at least
    ``dim + 2`` each).  A non-finite objective value scores ``1e30``.  End
    points are clipped to the box, and ties in the objective go to the
    lexicographically smallest end point rounded to 12 decimals.  A
    ``budget`` below 1 raises ``ValueError`` before any call.
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    calls = 0

    def counted(theta):
        nonlocal calls
        calls += 1
        value = objective(theta)
        return value if math.isfinite(value) else _BAD

    starts = (0.5 * (lo + hi), 0.75 * lo + 0.25 * hi, 0.25 * lo + 0.75 * hi)
    per_start = max_calls(budget, lo.size) // len(starts)
    outcomes = []
    for s in starts:
        x, fun = _simplex(counted, s, lo, hi, per_start)
        theta = np.clip(x, lo, hi)
        outcomes.append((fun, tuple(np.round(theta, 12)), theta))
    outcomes.sort(key=lambda t: (t[0], t[1]))
    return outcomes[0][2], calls
