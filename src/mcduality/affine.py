"""Exact exponential moments of the square-root variance process.

For the variance dynamics ``dV = kappa (theta - V) dt + sigma sqrt(V) dB``
the moment ``E[exp(a V_T + b int_0^T V_t dt)]`` equals
``exp(phi(T) + psi(T) V_0)`` where, in time-to-go form,

    psi' = 0.5 sigma^2 psi^2 - kappa psi + b,   psi(0) = a,
    phi' = kappa theta psi,                     phi(0) = 0.

The pair has a closed form (Cox, Ingersoll & Ross, 1985): substituting
``psi = -u' / (alpha u)`` with ``alpha = sigma^2 / 2`` turns the Riccati
equation into the linear ``u'' + kappa u' + alpha b u = 0``; queries whose
``u`` vanishes by the horizon, where ``psi`` has a pole, raise
:class:`MomentExplosionError`.

Two by-products are exposed: the classical closed form for
``E[exp(-u int V dt)]`` (the square-root-process bond price), an
independent textbook cross-check of the Riccati route, and the reduction of
density moments ``E[Z_T**q]`` for ``Z = StochExp(-mu sqrt(V) . B)`` to an
affine query via
``int sqrt(V) dB = (V_T - V_0 - kappa theta T + kappa int V dt) / sigma``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def affine_exponential_moment(params: HestonParams,
                              query: AffineMomentQuery) -> float:
    """Evaluate the moment from the closed-form Riccati solution.

    With ``alpha = sigma**2 / 2``, ``Delta = kappa**2 - 4 alpha b`` and
    ``k = kappa - 2 alpha a``, the linearising ``u`` is
    ``exp(-kappa t / 2) (C(t) + k S(t))`` where ``(C, S)`` is
    ``(cosh(g t / 2), sinh(g t / 2) / g)`` with ``g = sqrt(Delta)`` when
    ``Delta > 0``, ``(cos(w t / 2), sin(w t / 2) / w)`` with
    ``w = sqrt(-Delta)`` when ``Delta < 0`` and ``(1, t / 2)`` when
    ``Delta = 0``.  Then ``phi(T) = -(kappa theta / alpha) ln u(T)`` and
    ``psi(T) = (a C + (2 b - kappa a) S) / (C + k S)``.

    Raises :class:`MomentExplosionError` when ``u`` vanishes on ``(0, T]``
    (for ``Delta < 0`` its first zero is ``2 atan2(w, -k) / w``) or when
    ``|psi(T)|`` or ``|phi(T)|`` reaches ``EXPLOSION_THRESHOLD``; ``psi``
    solves a scalar autonomous ODE and is monotone, so its end point stands
    for its whole path.
    """
    kappa, theta, sigma = params.kappa, params.theta, params.sigma
    a, b, t = float(query.a), float(query.b), query.horizon
    alpha = 0.5 * sigma**2
    delta = kappa**2 - 4.0 * alpha * b
    k = kappa - 2.0 * alpha * a
    if delta > 0.0:
        # C and S scaled by exp(-g t / 2), which keeps both finite
        g = math.sqrt(delta)
        c = 0.5 * (1.0 + math.exp(-g * t))
        s = -0.5 * math.expm1(-g * t) / g
        log_scale = 0.5 * (g - kappa) * t
        pole = False
    elif delta < 0.0:
        w = math.sqrt(-delta)
        c, s = math.cos(0.5 * w * t), math.sin(0.5 * w * t) / w
        log_scale = -0.5 * kappa * t
        pole = 2.0 * math.atan2(w, -k) / w <= t
    else:
        c, s, log_scale, pole = 1.0, 0.5 * t, -0.5 * kappa * t, False
    u = c + k * s
    if not pole and u > 0.0:
        psi = (a * c + (2.0 * b - kappa * a) * s) / u
        phi = -(kappa * theta / alpha) * (log_scale + math.log(u))
        if abs(psi) < EXPLOSION_THRESHOLD and abs(phi) < EXPLOSION_THRESHOLD:
            return math.exp(phi + psi * params.v0)
    raise MomentExplosionError(
        f"moment query a={query.a}, b={query.b} explodes before "
        f"T={query.horizon}")


def cir_bond_price(params: HestonParams, u: float, horizon: float) -> float:
    """Closed form for ``E[exp(-u int_0^T V_t dt)]`` with ``u >= 0``.

    Independent of the Riccati route: uses the textbook square-root-process
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


def density_moment(params: HestonParams, q: float, horizon: float) -> float:
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
        params, AffineMomentQuery(a=a, b=b, horizon=horizon))
