"""Influence functions and asymptotic covariance for the joint S/MM fit.

The joint parameter theta = (xi_S, xi_MM, sigma) solves a stacked system
of 2q+3 score equations. Everything here follows from that system: its
per-observation score vector Psi (``PsiSystem``, whose mean is also the
fit's certificate), the Jacobian dPsi/dtheta with its fixed sparsity
pattern, the expected Jacobian D0 in closed block form, the
per-observation influence vectors -D0^{-1} Psi, and the sandwich
covariance V = E[I I'] whose diagonal yields standard errors.

Plug-in constants are empirical means over the fitted residuals and
design. The one closed-form influence function, ``influence_full``, and
the generic route -D0^{-1} Psi are kept side by side as cross-checks of
each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from .exceptions import SingularityError
from .model import (AugmentedParam, Dataset, RegressionModel,
                    augmented_grad_rows, augmented_hess_rows, residuals)
from .rho import RhoFunction

if TYPE_CHECKING:  # estimators imports this module
    from .estimators import FitConfig, FitResult

__all__ = [
    "InferenceConstants",
    "InferenceReport",
    "PsiSystem",
    "plugin_constants",
    "closed_form_c0_inv",
    "closed_form_d0",
    "closed_form_d0_inv",
    "d0_determinant_factor",
    "influence_full",
    "asymptotic_cov",
]

#: constants smaller than this trigger a SingularityError instead of a
#: silent near-singular inversion
SINGULARITY_TOL = 1e-10


@dataclass(frozen=True)
class InferenceConstants:
    """Plug-in (or population) constants feeding the closed-form algebra.

    a00/a01 are mean score derivatives at the S and MM residuals, e00/e01
    the residual-weighted score derivatives, d0 the residual-weighted S
    score, b0 and A0 the design gradient mean and centered second moment.
    C0 is assembled as [[A0 + b0 b0', b0], [b0', 1]].
    """

    a00: float
    a01: float
    e00: float
    e01: float
    d0: float
    b0: np.ndarray
    A0: np.ndarray
    sigma0: float
    alpha00: float
    alpha01: float
    rho0: RhoFunction = field(repr=False, default=None)
    rho1: RhoFunction = field(repr=False, default=None)
    delta: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "b0", np.atleast_1d(np.asarray(self.b0, dtype=float)))
        object.__setattr__(self, "A0", np.asarray(self.A0, dtype=float).reshape(
            self.b0.size, self.b0.size))

    @property
    def q(self) -> int:
        return self.b0.size

    @property
    def b0_star(self) -> np.ndarray:
        return np.concatenate([self.b0, [1.0]])

    @property
    def C0(self) -> np.ndarray:
        q = self.q
        C = np.empty((q + 1, q + 1))
        C[:q, :q] = self.A0 + np.outer(self.b0, self.b0)
        C[:q, q] = self.b0
        C[q, :q] = self.b0
        C[q, q] = 1.0
        return C

    def require_regular(self):
        """Fail loudly on degenerate constants instead of near-singular
        inversion; names the offending factor."""
        for name in ("a00", "a01", "e00", "e01", "d0", "sigma0", "alpha00",
                     "alpha01", "b0", "A0", "C0"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise SingularityError(f"constant {name} is not finite", factor=name)
        for name in ("a00", "a01", "d0"):
            if abs(getattr(self, name)) < SINGULARITY_TOL:
                raise SingularityError(f"constant {name} is numerically zero", factor=name)
        if self.q and abs(np.linalg.det(self.A0)) < SINGULARITY_TOL * max(
                1.0, np.abs(self.A0).max() ** self.q):
            raise SingularityError("design second-moment matrix A0 is singular",
                                   factor="A0")
        if self.sigma0 <= 0.0:
            raise SingularityError("sigma0 must be positive", factor="sigma0")

    def to_dict(self):
        return {
            "a00": self.a00, "a01": self.a01, "e00": self.e00, "e01": self.e01,
            "d0": self.d0, "b0": self.b0.tolist(), "A0": self.A0.tolist(),
            "C0": self.C0.tolist(), "sigma0": self.sigma0,
            "alpha00": self.alpha00, "alpha01": self.alpha01, "delta": self.delta,
        }


def plugin_constants(d: Dataset, m: RegressionModel, fit: FitResult,
                     cfg: FitConfig) -> InferenceConstants:
    """Empirical constants at the fitted parameter (design statistics use
    the MM coefficient estimate)."""
    if fit.sigma <= 0.0:
        raise ValueError("plug-in constants require a positive fitted scale")
    rho0, rho1 = cfg.rho0, cfg.rho1
    t_s = residuals(d, m, fit.xi_s) / fit.sigma
    t_mm = residuals(d, m, fit.xi_mm) / fit.sigma
    G = m.grad_rows(d.x, fit.xi_mm.beta)
    b0 = G.mean(axis=0) if m.q else np.zeros(0)
    Gc = G - b0
    A0 = (Gc.T @ Gc) / d.n if m.q else np.zeros((0, 0))
    return InferenceConstants(
        a00=float(np.mean(rho0.psi_prime(t_s))),
        a01=float(np.mean(rho1.psi_prime(t_mm))),
        e00=float(np.mean(t_s * rho0.psi_prime(t_s))),
        e01=float(np.mean(t_mm * rho1.psi_prime(t_mm))),
        d0=float(np.mean(t_s * rho0.psi(t_s))),
        b0=b0, A0=A0, sigma0=fit.sigma,
        alpha00=fit.xi_s.alpha, alpha01=fit.xi_mm.alpha,
        rho0=rho0, rho1=rho1, delta=cfg.delta)


# ---------------------------------------------------------------------------
# stacked score system

class PsiSystem:
    """Per-observation score vector and Jacobian of the joint system."""

    def __init__(self, m: RegressionModel, rho0: RhoFunction, rho1: RhoFunction,
                 delta: float):
        self.m = m
        self.rho0 = rho0
        self.rho1 = rho1
        self.delta = delta

    @property
    def dim(self) -> int:
        return 2 * self.m.q + 3

    def split(self, theta: np.ndarray):
        q1 = self.m.q + 1
        theta = np.asarray(theta, dtype=float).reshape(-1)
        if theta.size != self.dim:
            raise ValueError(f"theta must have length {self.dim}, got {theta.size}")
        sigma = float(theta[-1])
        if sigma <= 0.0:
            raise ValueError("the scale component of theta must be positive")
        return (AugmentedParam.from_array(theta[:q1]),
                AugmentedParam.from_array(theta[q1:2 * q1]), sigma)

    def _evaluate(self, d: Dataset, theta) -> tuple:
        """(xi_S, xi_MM, sigma, t_S, t_MM, J_S, J_MM) at theta: the
        standardized residuals and augmented gradient rows of both blocks."""
        xi_s, xi_mm, sigma = self.split(theta)
        t_s = residuals(d, self.m, xi_s) / sigma
        t_mm = residuals(d, self.m, xi_mm) / sigma
        J_s = augmented_grad_rows(self.m, d.x, xi_s.beta)
        J_mm = augmented_grad_rows(self.m, d.x, xi_mm.beta)
        return xi_s, xi_mm, sigma, t_s, t_mm, J_s, J_mm

    def psi_matrix(self, d: Dataset, theta) -> np.ndarray:
        """(n, 2q+3) stack of score vectors over a dataset, one row
        [psi0(t_S) gdot(xi_S); psi1(t_MM) gdot(xi_MM); rho0(t_S) - delta]
        per observation."""
        _, _, _, t_s, t_mm, J_s, J_mm = self._evaluate(d, theta)
        return np.column_stack([
            self.rho0.psi(t_s)[:, None] * J_s,
            self.rho1.psi(t_mm)[:, None] * J_mm,
            self.rho0.rho(t_s) - self.delta,
        ])

    def empirical_d0(self, d: Dataset, theta) -> np.ndarray:
        """Mean of the per-observation Jacobians dPsi/dtheta over the dataset.

        The 3x3 block pattern is fixed: blocks (1,2), (2,1) and (3,2) are
        identically zero because the S rows do not involve xi_MM and the
        scale row does not involve xi_MM either.
        """
        xi_s, xi_mm, sigma, t_s, t_mm, J_s, J_mm = self._evaluate(d, theta)
        q1 = self.m.q + 1
        H_s = augmented_hess_rows(self.m, d.x, xi_s)
        H_mm = augmented_hess_rows(self.m, d.x, xi_mm)
        p0, p1 = self.rho0.psi(t_s), self.rho1.psi(t_mm)
        pp0, pp1 = self.rho0.psi_prime(t_s), self.rho1.psi_prime(t_mm)

        out = np.zeros((self.dim, self.dim))
        s, mm, sg = slice(0, q1), slice(q1, 2 * q1), 2 * q1
        n = d.n
        out[s, s] = (-np.einsum("i,ij,ik->jk", pp0, J_s, J_s) / sigma
                     + np.einsum("i,ijk->jk", p0, H_s)) / n
        out[mm, mm] = (-np.einsum("i,ij,ik->jk", pp1, J_mm, J_mm) / sigma
                       + np.einsum("i,ijk->jk", p1, H_mm)) / n
        out[s, sg] = -(pp0 * t_s) @ J_s / (n * sigma)
        out[mm, sg] = -(pp1 * t_mm) @ J_mm / (n * sigma)
        out[sg, s] = -p0 @ J_s / (n * sigma)
        out[sg, sg] = -np.mean(p0 * t_s) / sigma
        return out


# ---------------------------------------------------------------------------
# closed-form block algebra

def closed_form_c0_inv(c: InferenceConstants) -> np.ndarray:
    """[[A0^{-1}, -A0^{-1} b0], [-(A0^{-1} b0)', 1 + b0' A0^{-1} b0]]."""
    c.require_regular()
    q = c.q
    out = np.empty((q + 1, q + 1))
    if q:
        A_inv = np.linalg.inv(c.A0)
        Ab = A_inv @ c.b0
        out[:q, :q] = A_inv
        out[:q, q] = -Ab
        out[q, :q] = -Ab
        out[q, q] = 1.0 + c.b0 @ Ab
    else:
        out[0, 0] = 1.0
    return out


def closed_form_d0(c: InferenceConstants) -> np.ndarray:
    """-(1/sigma0) [[a00 C0, 0, e00 b0*], [0, a01 C0, e01 b0*], [0, 0, d0]]."""
    q1 = c.q + 1
    C0 = c.C0
    bstar = c.b0_star
    out = np.zeros((2 * q1 + 1, 2 * q1 + 1))
    out[:q1, :q1] = c.a00 * C0
    out[q1:2 * q1, q1:2 * q1] = c.a01 * C0
    out[:q1, -1] = c.e00 * bstar
    out[q1:2 * q1, -1] = c.e01 * bstar
    out[-1, -1] = c.d0
    return -out / c.sigma0


def closed_form_d0_inv(c: InferenceConstants) -> np.ndarray:
    """Block inverse of the closed-form expected Jacobian,
    -sigma0 [[C0^{-1}/a00, 0, -e00/(a00 d0) C0^{-1} b0*], ...]."""
    c.require_regular()
    q1 = c.q + 1
    C_inv = closed_form_c0_inv(c)
    cb = C_inv @ c.b0_star
    out = np.zeros((2 * q1 + 1, 2 * q1 + 1))
    out[:q1, :q1] = C_inv / c.a00
    out[q1:2 * q1, q1:2 * q1] = C_inv / c.a01
    out[:q1, -1] = -c.e00 / (c.a00 * c.d0) * cb
    out[q1:2 * q1, -1] = -c.e01 / (c.a01 * c.d0) * cb
    out[-1, -1] = 1.0 / c.d0
    return -c.sigma0 * out


def d0_determinant_factor(c: InferenceConstants) -> float:
    """det of the closed-form expected Jacobian via its factors:
    (-1/sigma0)^{2q+3} a00^{q+1} a01^{q+1} d0 |C0|^2."""
    q1 = c.q + 1
    detC = np.linalg.det(c.C0) if c.q else 1.0
    return ((-1.0 / c.sigma0) ** (2 * q1 + 1)
            * c.a00 ** q1 * c.a01 ** q1 * c.d0 * detC ** 2)


# ---------------------------------------------------------------------------
# influence functions (closed forms)

def influence_full(x, y, m: RegressionModel, beta, c: InferenceConstants) -> np.ndarray:
    """Closed-form influence of one point (x, y), stacked as (S block,
    MM block, scale) like theta.

    With t_S = (y - g(x, beta) - alpha00)/sigma0, t_MM likewise at
    alpha01, and the scale residual s = rho0(t_S) - delta, the scale
    entry is (sigma0/d0) s. The S block (psi0, a00, e00 at t_S) and the
    MM block (psi1, a01, e01 at t_MM) share one form: the coefficient
    part is (sigma0/a) psi(t) A0^{-1}(gdot - b0), and the intercept part
    is (sigma0/a) psi(t) (1 + b0' A0^{-1}(b0 - gdot)) minus the
    scale-route correction (sigma0 e/(a d0)) s, which vanishes for the
    MM block under symmetric errors (e01 = 0).
    """
    c.require_regular()
    X = np.atleast_2d(np.asarray(x, dtype=float))
    beta = np.asarray(beta, dtype=float)
    g = m.eval_batch(X, beta)[0]
    gdot = m.grad_rows(X, beta)[0]
    t_s = (y - g - c.alpha00) / c.sigma0
    t_mm = (y - g - c.alpha01) / c.sigma0
    scale = c.rho0.rho(t_s) - c.delta
    blocks = []
    for psi, t, a, e in ((c.rho0.psi, t_s, c.a00, c.e00), (c.rho1.psi, t_mm, c.a01, c.e01)):
        lead = c.sigma0 / a * psi(t)
        blocks += [lead * np.linalg.solve(c.A0, gdot - c.b0),
                   [lead * (1.0 + c.b0 @ np.linalg.solve(c.A0, c.b0 - gdot))
                    - (c.sigma0 * e / (a * c.d0)) * scale]]
    return np.concatenate([*blocks, [c.sigma0 / c.d0 * scale]])


# ---------------------------------------------------------------------------
# sandwich covariance

def _symmetric_mm_cov(c: InferenceConstants, mean_psi1_sq: float) -> np.ndarray:
    """Covariance of the MM block under symmetric errors,
    sigma0^2 E psi1^2 / a01^2 C0^{-1}, with E psi1' = a01 and the mean
    square of the MM score ``mean_psi1_sq`` (plug-in or population)."""
    s = c.sigma0
    return s * s * mean_psi1_sq / c.a01 ** 2 * closed_form_c0_inv(c)


@dataclass(frozen=True)
class InferenceReport:
    """Plug-in inference bundle for a converged fit.

    ``V`` is the covariance of the MM block (so standard errors are
    sqrt(diag(V)/n)); ``V_full`` covers the whole joint parameter.
    ``influence`` holds one row per observation. When the symmetric-error
    shortcut is requested, ``V_symmetric`` and the relative discrepancy
    between the two routes are filled in.
    """

    constants: InferenceConstants
    D0: np.ndarray
    V: np.ndarray
    V_full: np.ndarray
    std_errors: np.ndarray
    influence: np.ndarray
    V_symmetric: Optional[np.ndarray] = None
    symmetric_discrepancy: Optional[float] = None


def asymptotic_cov(d: Dataset, m: RegressionModel, fit: FitResult,
                   cfg: FitConfig, symmetric: bool = False) -> InferenceReport:
    """Plug-in sandwich covariance from per-observation influence vectors.

    Influence rows are computed as -D0^{-1} Psi(z_i, theta_hat) with the
    closed-form D0 assembled from the plug-in constants, solved by
    factorization. With ``symmetric=True`` the report also carries the
    symmetric-error shortcut (``_symmetric_mm_cov``) and the relative gap
    between the two routes.
    """
    if fit.sigma <= 0.0:
        raise ValueError("inference requires a positive fitted scale (no exact fit)")
    if not m.certified_derivatives:
        import warnings
        warnings.warn("model derivatives are finite-difference approximations; "
                      "the expected-Jacobian matrix and standard errors are "
                      "not certified", stacklevel=2)
    c = plugin_constants(d, m, fit, cfg)
    c.require_regular()
    D0 = closed_form_d0(c)
    Psi = PsiSystem(m, cfg.rho0, cfg.rho1, cfg.delta).psi_matrix(d, fit.theta_vector())
    influence = -np.linalg.solve(D0, Psi.T).T
    V_full = influence.T @ influence / d.n
    V_full = 0.5 * (V_full + V_full.T)
    q1 = m.q + 1
    V = V_full[q1:2 * q1, q1:2 * q1]
    std_errors = np.sqrt(np.diag(V) / d.n)

    V_sym = None
    gap = None
    if symmetric:
        # psi1(t_MM) is the MM-intercept column of Psi, its gradient being 1
        V_sym = _symmetric_mm_cov(c, np.mean(Psi[:, 2 * q1 - 1] ** 2))
        gap = float(np.linalg.norm(V - V_sym) / max(np.linalg.norm(V), 1e-300))
    return InferenceReport(constants=c, D0=D0, V=V, V_full=V_full,
                           std_errors=std_errors, influence=influence,
                           V_symmetric=V_sym, symmetric_discrepancy=gap)
