"""Bounded loss functions for robust estimation.

The bisquare (Tukey biweight) family is built in; user-supplied losses can
be wrapped as long as they provide the loss and its first two derivatives.
A loss here is an even, bounded function rising from 0 at the origin to 1
outside a finite tuning window ``[-k, k]``, so its derivative (the score)
redescends to zero for large residuals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy import integrate, optimize

from .exceptions import DomainError

__all__ = [
    "RhoFunction",
    "bisquare",
    "custom_rho",
    "rho_from_config",
    "verify_r1",
    "k_for_breakdown",
    "k_for_efficiency",
    "DEFAULT_K0",
    "DEFAULT_K1",
    "DEFAULT_DELTA",
]

# Bisquare tuning constants, frozen from the solvers below:
# k_for_breakdown(0.5) = 1.5476449837..., k_for_efficiency(0.95) = 4.6850649485...
DEFAULT_K0 = 1.5476
DEFAULT_K1 = 4.685
DEFAULT_DELTA = 0.5

_SQRT_2PI = np.sqrt(2.0 * np.pi)


@dataclass(frozen=True)
class RhoFunction:
    """A bounded loss with derivatives, normalized to sup value 1.

    ``kind`` is "bisquare" for the built-in family or "custom" for a
    user-supplied (rho, psi, psi') triple. ``k`` is the tuning constant:
    the loss saturates at 1 for |t| >= k and the score vanishes there.
    Instances are immutable and all evaluations are pure.
    """

    kind: str
    k: float
    rho_fn: Optional[Callable] = field(default=None, repr=False)
    psi_fn: Optional[Callable] = field(default=None, repr=False)
    psi_prime_fn: Optional[Callable] = field(default=None, repr=False)

    def __post_init__(self):
        if not np.isfinite(self.k) or self.k <= 0:
            raise ValueError(f"tuning constant k must be positive and finite, got {self.k}")
        if self.kind == "custom":
            if self.rho_fn is None or self.psi_fn is None or self.psi_prime_fn is None:
                raise ValueError("custom rho requires rho_fn, psi_fn and psi_prime_fn")
        elif self.kind != "bisquare":
            raise ValueError(f"unknown rho family {self.kind!r}")

    def _check(self, t):
        t = np.asarray(t, dtype=float)
        if not np.all(np.isfinite(t)):
            raise DomainError("rho evaluation requires finite input")
        return t

    def rho(self, t):
        """Loss value in [0, 1]; accepts scalars or arrays."""
        t = self._check(t)
        if self.kind == "bisquare":
            u2 = (np.minimum(np.abs(t), self.k) / self.k) ** 2
            v = 1.0 - u2
            out = 1.0 - v * v * v
        else:
            out = np.asarray(self.rho_fn(t), dtype=float)
        return out if out.ndim else float(out)

    def psi(self, t):
        """First derivative of the loss (the score); 0 outside [-k, k]."""
        t = self._check(t)
        if self.kind == "bisquare":
            u = np.clip(t, -self.k, self.k) / self.k
            v = 1.0 - u * u
            out = np.where(np.abs(t) <= self.k, (6.0 / self.k) * u * v * v, 0.0)
        else:
            out = np.asarray(self.psi_fn(t), dtype=float)
        return out if out.ndim else float(out)

    def psi_prime(self, t):
        """Second derivative of the loss; 0 outside [-k, k]."""
        t = self._check(t)
        if self.kind == "bisquare":
            u2 = (np.minimum(np.abs(t), self.k) / self.k) ** 2
            v = 1.0 - u2
            out = np.where(np.abs(t) <= self.k, (6.0 / self.k**2) * v * (1.0 - 5.0 * u2), 0.0)
        else:
            out = np.asarray(self.psi_prime_fn(t), dtype=float)
        return out if out.ndim else float(out)

    def weight(self, t):
        """IRWLS weight psi(t)/t with the removable singularity at t = 0
        filled by psi'(0)."""
        t = self._check(t)
        if self.kind == "bisquare":
            # |t| clipped to k: v is 0 outside the window, and squaring cannot overflow
            u2 = (np.minimum(np.abs(t), self.k) / self.k) ** 2
            v = 1.0 - u2
            out = (6.0 / self.k**2) * v * v
        else:
            t_arr = np.atleast_1d(t)
            small = np.abs(t_arr) < 1e-12
            safe = np.where(small, 1.0, t_arr)
            out = np.where(small,
                           np.asarray(self.psi_prime_fn(t_arr), dtype=float),
                           np.asarray(self.psi_fn(safe), dtype=float) / safe)
            out = out.reshape(np.shape(t))
        return out if np.ndim(out) else float(out)


def bisquare(k: float) -> RhoFunction:
    """Bisquare loss 1 - (1 - (t/k)^2)^3 on |t| <= k, 1 outside."""
    return RhoFunction(kind="bisquare", k=float(k))


def custom_rho(k: float, rho_fn, psi_fn, psi_prime_fn) -> RhoFunction:
    """Wrap a user-supplied loss triple. Callers should run ``verify_r1``
    before using the result anywhere Fisher consistency matters."""
    return RhoFunction(kind="custom", k=float(k), rho_fn=rho_fn,
                       psi_fn=psi_fn, psi_prime_fn=psi_prime_fn)


def rho_from_config(family: str, k: str) -> RhoFunction:
    """Build a loss from configuration strings (family name, decimal k)."""
    family = family.strip().lower()
    if family != "bisquare":
        raise ValueError(f"unknown rho family {family!r}; built-in families: bisquare")
    try:
        kval = float(k)
    except ValueError as exc:
        raise ValueError(f"invalid tuning constant {k!r}") from exc
    return bisquare(kval)


def verify_r1(f: RhoFunction, grid_size: int = 1001) -> bool:
    """Numerically check the shape conditions a loss must satisfy.

    Samples ``grid_size`` interior points of (-k, k) and accepts iff the
    second differences of log(1 - rho) are <= 1e-12 (concavity) and the
    loss equals 1 to 1e-15 on sampled points with |t| >= k.
    """
    if grid_size < 3:
        raise ValueError("grid_size must be at least 3")
    k = f.k
    t = np.linspace(-k, k, grid_size + 2)[1:-1]
    vals = np.asarray(f.rho(t), dtype=float)
    one_minus = 1.0 - vals
    if np.any(one_minus <= 0.0) or np.any(~np.isfinite(one_minus)):
        return False
    logv = np.log(one_minus)
    d2 = logv[2:] - 2.0 * logv[1:-1] + logv[:-2]
    if np.any(d2 > 1e-12):
        return False
    t_out = np.linspace(k, 3.0 * k, 64)
    t_out = np.concatenate([t_out, -t_out])
    if np.any(np.abs(np.asarray(f.rho(t_out)) - 1.0) > 1e-15):
        return False
    return True


def _normal_expectation(fn, lo=-np.inf, hi=np.inf) -> float:
    val, _ = integrate.quad(lambda t: fn(t) * np.exp(-0.5 * t * t) / _SQRT_2PI,
                            lo, hi, limit=200)
    return val


def k_for_breakdown(delta: float) -> float:
    """Bisquare tuning constant making the expected loss under N(0,1)
    equal to ``delta``; with the M-scale level set to the same delta this
    pins the scale estimate to 1 at the standard normal."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")

    def gap(k):
        f = bisquare(k)
        return _normal_expectation(lambda t: f.rho(t)) - delta

    return optimize.brentq(gap, 1e-2, 50.0, xtol=1e-12)


def k_for_efficiency(efficiency: float) -> float:
    """Bisquare tuning constant achieving the given asymptotic efficiency
    relative to least squares at normal errors, (E psi')^2 / E psi^2."""
    if not 0.0 < efficiency < 1.0:
        raise ValueError("efficiency must lie in (0, 1)")

    def gap(k):
        f = bisquare(k)
        a = _normal_expectation(lambda t: f.psi_prime(t), -k, k)
        b = _normal_expectation(lambda t: f.psi(t) ** 2, -k, k)
        return a * a / b - efficiency

    return optimize.brentq(gap, 1.0, 40.0, xtol=1e-12)
