"""Utility functions, Fenchel conjugates, and bounded claim payoffs.

Two utility families are supported: power ``U(x) = x**p / p`` with ``p < 1``
(``p = 0`` is read as logarithmic utility) and exponential
``U(x) = -exp(-a*x)``.  Power and log utilities live on the positive half
line and evaluate to ``-inf`` for negative wealth; exponential utility lives
on the whole line.

The conjugate ``V(y) = sup_x [U(x) - x*y]`` has closed forms for both
families.  The constrained variant

    ``V_c(y, z) = sup_{x > -m} [U(x + z) - x*y]``

(with ``m`` the claim's infimum) switches between an interior branch
``V(y) + y*z`` and a boundary branch ``U(z - m) + y*m`` depending on whether
the unconstrained maximizer respects the wealth floor.

Claim payoffs are bounded continuous functions of the terminal driver level,
stored as tables with linear interpolation between knots and constant
extrapolation outside them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "UtilitySpec",
    "ConjugatePair",
    "ClaimSpec",
    "constrained_conjugate",
    "exp_identity_check",
    "load_claim_table",
    "constant_claim",
    "logistic_claim",
    "digital_claim",
]


def _as_float_array(x):
    return np.asarray(x, dtype=float)


def _maybe_scalar(arr, *inputs):
    """Return a python float when every input was scalar."""
    if all(np.ndim(v) == 0 for v in inputs):
        return float(arr)
    return arr


# ---------------------------------------------------------------------------
# utility specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UtilitySpec:
    """One utility function.

    Use the classmethod constructors: :meth:`power`, :meth:`log`,
    :meth:`exponential`.
    """

    kind: str
    p: float = 0.0
    alpha: float = 0.0

    # -- constructors -------------------------------------------------------

    @classmethod
    def power(cls, p: float) -> "UtilitySpec":
        """Power utility ``x**p / p`` (``p = 0`` selects log utility)."""
        if not (math.isfinite(p) and p < 1.0):
            raise ValueError(
                f"power exponent must be finite with p < 1, got {p}")
        return cls(kind="power", p=float(p))

    @classmethod
    def log(cls) -> "UtilitySpec":
        return cls.power(0.0)

    @classmethod
    def exponential(cls, alpha: float) -> "UtilitySpec":
        """Exponential utility ``-exp(-alpha * x)`` on the whole line."""
        if not (math.isfinite(alpha) and alpha > 0.0):
            raise ValueError(
                f"exponential coefficient must be finite and > 0, got {alpha}")
        return cls(kind="exponential", alpha=float(alpha))

    # -- basic properties ---------------------------------------------------

    @property
    def is_halfline(self) -> bool:
        """True when the utility is ``-inf`` somewhere on the left."""
        return self.kind == "power"

    # -- evaluation ---------------------------------------------------------

    def u(self, x):
        """Evaluate the utility; ``-inf`` outside the domain."""
        xa = _as_float_array(x)
        if self.kind == "power":
            p = self.p
            out = np.full(xa.shape, -math.inf)
            if p == 0.0:
                pos = xa > 0
                out[pos] = np.log(xa[pos])
            elif p > 0:
                ok = xa >= 0
                out[ok] = np.power(xa[ok], p) / p
            else:
                pos = xa > 0
                out[pos] = np.power(xa[pos], p) / p
            return _maybe_scalar(out, x)
        return _maybe_scalar(-np.exp(-self.alpha * xa), x)

    def marginal(self, x):
        """Marginal utility U'(x); ``+inf`` at the Inada boundary."""
        xa = _as_float_array(x)
        if self.kind == "power":
            p = self.p
            out = np.full(xa.shape, math.inf)
            pos = xa > 0
            if p == 0.0:
                out[pos] = 1.0 / xa[pos]
            else:
                out[pos] = np.power(xa[pos], p - 1.0)
            out[xa < 0] = np.nan
            return _maybe_scalar(out, x)
        return _maybe_scalar(self.alpha * np.exp(-self.alpha * xa), x)

    def inverse_marginal(self, y):
        """Inverse of the marginal utility on y > 0."""
        ya = _as_float_array(y)
        if np.any(ya <= 0):
            raise ValueError("inverse marginal requires y > 0")
        if self.kind == "power":
            if self.p == 0.0:
                out = 1.0 / ya
            else:
                out = np.power(ya, 1.0 / (self.p - 1.0))
            return _maybe_scalar(out, y)
        return _maybe_scalar(-np.log(ya / self.alpha) / self.alpha, y)


# ---------------------------------------------------------------------------
# conjugates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConjugatePair:
    """A utility together with its Fenchel conjugate ``V`` in closed form."""

    utility: UtilitySpec

    def v(self, y):
        ya = _as_float_array(y)
        if np.any(ya <= 0):
            raise ValueError("conjugate requires y > 0")
        u = self.utility
        if u.kind == "power":
            p = u.p
            if p == 0.0:
                out = -np.log(ya) - 1.0
            else:
                q = p / (p - 1.0)
                out = ((1.0 - p) / p) * np.power(ya, q)
            return _maybe_scalar(out, y)
        a = u.alpha
        out = (ya / a) * (np.log(ya / a) - 1.0)
        return _maybe_scalar(out, y)

    def v_prime(self, y):
        """Derivative V'(y) = -inverse_marginal(y)."""
        ya = _as_float_array(y)
        if np.any(ya <= 0):
            raise ValueError("conjugate requires y > 0")
        out = -_as_float_array(self.utility.inverse_marginal(ya))
        return _maybe_scalar(out, y)


def constrained_conjugate(pair: ConjugatePair, y, z, phi_min: float):
    """Evaluate ``V_c(y, z) = sup_{x > -phi_min} [U(x + z) - x*y]``.

    Branch formula: the interior branch ``V(y) + y*z`` applies when
    ``y < U'(z - phi_min)``; otherwise the supremum sits at the wealth floor
    and equals ``U(z - phi_min) + y*phi_min``.  ``y`` and ``z`` broadcast.
    """
    ya = _as_float_array(y)
    za = _as_float_array(z)
    if np.any(ya <= 0):
        raise ValueError("constrained conjugate requires y > 0")
    u = pair.utility
    edge = za - phi_min
    if u.is_halfline and np.any(edge < -1e-12):
        raise ValueError("claim value below declared infimum (z < phi_min)")
    ya, za = np.broadcast_arrays(ya, za)
    edge = za - phi_min
    with np.errstate(divide="ignore", over="ignore"):
        mprime = _as_float_array(u.marginal(np.maximum(edge, 0.0) if u.is_halfline else edge))
    interior = ya < mprime
    out = np.empty(ya.shape)
    if np.any(interior):
        out[interior] = _as_float_array(pair.v(ya[interior])) + ya[interior] * za[interior]
    if np.any(~interior):
        bd = ~interior
        out[bd] = _as_float_array(u.u(edge[bd])) + ya[bd] * phi_min
    return _maybe_scalar(out, y, z)


def exp_identity_check(alpha: float, y_grid, c_grid) -> tuple[float, float]:
    """Max absolute error of two exact exponential-conjugate identities.

    Identity 1: ``V'(c*y) = V'(y) + log(c)/alpha`` for ``c > 0``.
    Identity 2: ``V(y) + y*c = y * (V'(y * exp(alpha*c)) - 1/alpha)``.

    Returns the pair of maximal absolute errors over the grids; both are at
    machine-epsilon scale for any valid ``alpha``.
    """
    pair = ConjugatePair(UtilitySpec.exponential(alpha))
    y = _as_float_array(y_grid).ravel()
    c = _as_float_array(c_grid).ravel()
    if np.any(y <= 0):
        raise ValueError("identity check requires y > 0")
    Y, C = np.meshgrid(y, c, indexing="ij")
    err1 = np.abs(pair.v_prime(C * Y) - (pair.v_prime(Y) + np.log(C) / alpha))
    lhs = pair.v(Y) + Y * C
    rhs = Y * (pair.v_prime(Y * np.exp(alpha * C)) - 1.0 / alpha)
    err2 = np.abs(lhs - rhs)
    return float(err1.max()), float(err2.max())


# ---------------------------------------------------------------------------
# claims
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClaimSpec:
    """Bounded continuous payoff of the terminal driver level.

    Stored as knots with values; evaluation interpolates linearly between
    knots and extrapolates with the nearest value outside them.  ``phi_min``
    and ``phi_max`` are the declared infimum/supremum of the payoff; they
    must bracket every tabulated value.
    """

    knots: np.ndarray
    values: np.ndarray
    phi_min: float
    phi_max: float

    def __init__(self, knots, values, phi_min=None, phi_max=None):
        knots = _as_float_array(knots).ravel()
        values = _as_float_array(values).ravel()
        if knots.size != values.size or knots.size < 2:
            raise ValueError("claim table needs >= 2 matching knots")
        if not np.all(np.diff(knots) > 0):
            raise ValueError("claim knots must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ValueError("claim values must be finite (bounded payoff)")
        lo = float(values.min()) if phi_min is None else float(phi_min)
        hi = float(values.max()) if phi_max is None else float(phi_max)
        if lo > values.min() + 1e-15 or hi < values.max() - 1e-15:
            raise ValueError("phi_min/phi_max must bracket all claim values")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "phi_min", lo)
        object.__setattr__(self, "phi_max", hi)

    def __call__(self, z):
        out = np.interp(_as_float_array(z), self.knots, self.values)
        return _maybe_scalar(out, z)

    @property
    def spread(self) -> float:
        return self.phi_max - self.phi_min


def load_claim_table(path) -> ClaimSpec:
    """Read a claim from two-column text (whitespace or comma separated).

    Lines that are blank or start with ``#`` are skipped.
    """
    knots, values = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            row = line.split("#", 1)[0].strip()
            if not row:
                continue
            parts = row.replace(",", " ").split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected two columns, got {row!r}")
            knots.append(float(parts[0]))
            values.append(float(parts[1]))
    return ClaimSpec(knots, values)


def constant_claim(c: float, lo: float = -1.0, hi: float = 1.0) -> ClaimSpec:
    """The constant payoff ``phi(z) = c``."""
    return ClaimSpec([lo, hi], [c, c])


def logistic_claim(rate: float = 1.0, scale: float = 1.0,
                   lo: float = -10.0, hi: float = 10.0, n: int = 801) -> ClaimSpec:
    """Tabulated logistic payoff ``scale / (1 + exp(-rate * z))``.

    ``phi_min`` is declared as 0 and ``phi_max`` as ``scale`` (the payoff's
    infimum and supremum over the whole line, slightly outside the tabulated
    range).
    """
    z = np.linspace(lo, hi, n)
    vals = scale / (1.0 + np.exp(-rate * z))
    return ClaimSpec(z, vals, phi_min=0.0, phi_max=scale)


def digital_claim(level: float = 1.0, at: float = 0.0,
                  width: float = 1e-12) -> ClaimSpec:
    """A numerically sharp step payoff ``level * 1{z >= at}``.

    The step is realized as a linear ramp of the given (tiny) width so that
    the payoff remains a continuous table.
    """
    return ClaimSpec([at - width, at + width], [0.0, level],
                     phi_min=0.0, phi_max=level)
