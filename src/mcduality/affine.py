"""Exact exponential moments of the square-root variance process.

For the variance dynamics ``dV = kappa (theta - V) dt + sigma sqrt(V) dB``
the moment ``E[exp(a V_T + b int_0^T V_t dt)]`` equals
``exp(phi(T) + psi(T) V_0)`` where, in time-to-go form,

    psi' = 0.5 sigma^2 psi^2 - kappa psi + b,   psi(0) = a,
    phi' = kappa theta psi,                     phi(0) = 0.

The pair is integrated with an adaptive Runge-Kutta scheme; queries whose
Riccati solution blows up before the horizon raise
:class:`MomentExplosionError`.

Two by-products are exposed: the classical closed form for
``E[exp(-u int V dt)]`` (the square-root-process bond price), used as an
independent cross-check of the ODE route, and the reduction of density
moments ``E[Z_T**q]`` for ``Z = StochExp(-mu sqrt(V) . B)`` to an affine
query via ``int sqrt(V) dB = (V_T - V_0 - kappa theta T + kappa int V dt) / sigma``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import solve_ivp

from .market import HestonParams

__all__ = [
    "AffineMomentQuery",
    "MomentExplosionError",
    "affine_exponential_moment",
    "cir_bond_price",
    "density_moment",
]

#: magnitude at which the Riccati solution is declared exploded
EXPLOSION_THRESHOLD = 1e8


class MomentExplosionError(RuntimeError):
    """The requested exponential moment is infinite (Riccati blow-up)."""


@dataclass(frozen=True)
class AffineMomentQuery:
    """A single moment request ``E[exp(a V_T + b int V dt)]``."""

    a: float
    b: float
    horizon: float

    def __post_init__(self):
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")


def affine_exponential_moment(params: HestonParams, query: AffineMomentQuery,
                              rtol: float = 1e-10) -> float:
    """Evaluate the moment by integrating the Riccati pair.

    Raises :class:`MomentExplosionError` when ``|psi|`` or ``|phi|`` crosses
    ``EXPLOSION_THRESHOLD`` before the horizon.
    """
    kappa, theta, sigma = params.kappa, params.theta, params.sigma

    def rhs(_s, y):
        psi, _phi = y
        return (0.5 * sigma**2 * psi**2 - kappa * psi + query.b,
                kappa * theta * psi)

    def blown(_s, y):
        return EXPLOSION_THRESHOLD - max(abs(y[0]), abs(y[1]))

    blown.terminal = True
    sol = solve_ivp(rhs, (0.0, query.horizon), (float(query.a), 0.0),
                    method="RK45", rtol=rtol, atol=1e-12, events=blown)
    if sol.t_events[0].size > 0 or not sol.success:
        raise MomentExplosionError(
            f"moment query a={query.a}, b={query.b} explodes before "
            f"T={query.horizon} (at t={sol.t[-1]:.6g})")
    psi_T, phi_T = sol.y[0, -1], sol.y[1, -1]
    return float(math.exp(phi_T + psi_T * params.v0))


def cir_bond_price(params: HestonParams, u: float, horizon: float) -> float:
    """Closed form for ``E[exp(-u int_0^T V_t dt)]`` with ``u >= 0``.

    Independent of the ODE route: uses the textbook square-root-process
    bond formula with ``gamma = sqrt(kappa**2 + 2 sigma**2 u)``.
    """
    if u < 0:
        raise ValueError("closed form requires u >= 0")
    kappa, theta, sigma = params.kappa, params.theta, params.sigma
    if u == 0.0:
        return 1.0
    gamma = math.sqrt(kappa**2 + 2.0 * sigma**2 * u)
    eg = math.expm1(gamma * horizon)          # e^{gamma T} - 1, exact near 0
    denom = (gamma + kappa) * eg + 2.0 * gamma
    bcoef = 2.0 * u * eg / denom
    acoef = (2.0 * gamma * math.exp(0.5 * (gamma + kappa) * horizon)
             / denom) ** (2.0 * kappa * theta / sigma**2)
    return acoef * math.exp(-bcoef * params.v0)


def density_moment(params: HestonParams, q: float, horizon: float,
                   rtol: float = 1e-10) -> float:
    """Exact ``E[Z_T**q]`` for the density ``Z = StochExp(-mu sqrt(V) . B)``.

    Substituting ``int sqrt(V) dB`` by its variance-dynamics expression turns
    ``q log Z_T`` into an affine functional of ``(V_T, int V dt)``:

        E[Z_T**q] = exp(q mu (v0 + kappa theta T) / sigma)
                    * E[exp(a V_T + b int V dt)],
        a = -q mu / sigma,      b = -q mu kappa / sigma - q mu**2 / 2.
    """
    mu, kappa, theta, sigma = params.mu, params.kappa, params.theta, params.sigma
    a = -q * mu / sigma
    b = -q * mu * kappa / sigma - 0.5 * q * mu**2
    pref = math.exp(q * mu * (params.v0 + kappa * theta * horizon) / sigma)
    return pref * affine_exponential_moment(
        params, AffineMomentQuery(a=a, b=b, horizon=horizon), rtol=rtol)
