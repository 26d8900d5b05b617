"""Regression model abstraction, parameter containers and data handling.

A model is the mean function g(x, beta) with analytic first and second
derivatives in beta. Estimation always works with the intercept-augmented
parameter xi = (beta, alpha) and mean function g(x, beta) + alpha, which
identifies the slopes without any centering assumption on the errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .exceptions import DomainError

__all__ = [
    "RegressionModel",
    "AugmentedParam",
    "Dataset",
    "linear_model",
    "location_model",
    "exp_model",
    "fd_model",
    "residuals",
    "augmented_grad_rows",
    "augmented_hess_rows",
    "check_identifiability",
    "IdentifiabilityReport",
    "load_csv",
]


@dataclass(frozen=True)
class RegressionModel:
    """Mean function with derivatives, evaluated over a whole design.

    ``value``, ``grad`` and ``hess`` take the (n, p) design X and a
    coefficient vector beta (shape (q,)) and return shapes (n,), (n, q)
    and (n, q, q); each ``hess`` row must be symmetric. ``value`` and
    ``grad`` also take a stack of vectors, shape (..., q), and return
    (..., n) and (..., n, q), each slice as for its own beta; ``value``
    returns a new array. ``bounds`` is an optional (q, 2) compact box
    used to generate and project candidates for nonlinear fits.
    ``shared_jacobian`` declares that ``grad`` does not depend on beta,
    as for the linear and location models; the quick refine then builds
    every candidate's weighted normal equations from one Jacobian.
    Instances are immutable; evaluation is pure.
    """

    name: str
    q: int
    value: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray, np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray, np.ndarray], np.ndarray]
    bounds: Optional[np.ndarray] = None
    certified_derivatives: bool = True
    shared_jacobian: bool = False

    def eval_batch(self, X: np.ndarray, beta: np.ndarray) -> np.ndarray:
        shape = np.shape(beta)[:-1] + (len(X),)
        return np.asarray(self.value(X, beta), dtype=float).reshape(shape)

    def grad_rows(self, X: np.ndarray, beta: np.ndarray) -> np.ndarray:
        shape = np.shape(beta)[:-1] + (len(X), self.q)
        return np.asarray(self.grad(X, beta), dtype=float).reshape(shape)

    def project(self, beta: np.ndarray) -> np.ndarray:
        """Clip beta into the bounds box (identity when unbounded)."""
        if self.bounds is None:
            return beta
        return np.clip(beta, self.bounds[:, 0], self.bounds[:, 1])


@dataclass(frozen=True)
class AugmentedParam:
    """Coefficients beta plus the additive centering intercept alpha."""

    beta: np.ndarray
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "beta", np.atleast_1d(np.asarray(self.beta, dtype=float)))
        object.__setattr__(self, "alpha", float(self.alpha))

    @property
    def dim(self) -> int:
        return self.beta.size + 1

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.beta, [self.alpha]])

    @classmethod
    def from_array(cls, xi: np.ndarray) -> "AugmentedParam":
        xi = np.asarray(xi, dtype=float).reshape(-1)
        return cls(beta=xi[:-1], alpha=float(xi[-1]))


@dataclass(frozen=True)
class Dataset:
    """n observations (x_i, y_i); x has shape (n, p), y has shape (n,)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float).reshape(-1)
        if x.ndim != 2:
            x = x.reshape(len(y), -1)
        if x.shape[0] != y.shape[0]:
            raise ValueError(f"x has {x.shape[0]} rows but y has {y.shape[0]}")
        if not np.all(np.isfinite(x)):
            row = int(np.argwhere(~np.isfinite(x).all(axis=1))[0, 0])
            raise DomainError(f"non-finite predictor in row {row}")
        if not np.all(np.isfinite(y)):
            row = int(np.argwhere(~np.isfinite(y))[0, 0])
            raise DomainError(f"non-finite response in row {row}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]


def linear_model(p: int) -> RegressionModel:
    """Linear mean function beta'x without intercept (alpha provides it)."""
    if p < 1:
        raise ValueError(f"linear model needs p >= 1, got {p}")
    return RegressionModel(
        name="linear",
        q=p,
        # a stacked gemv: each slice equals X @ beta bit for bit
        value=lambda X, beta: (X @ beta[..., None])[..., 0],
        grad=lambda X, beta: np.broadcast_to(X, beta.shape[:-1] + X.shape),
        hess=lambda X, beta: np.zeros((len(X), p, p)),
        shared_jacobian=True,
    )


def location_model() -> RegressionModel:
    """Degenerate model with no regressors: the mean is alpha alone."""
    return RegressionModel(
        name="location",
        q=0,
        value=lambda X, beta: np.zeros(np.shape(beta)[:-1] + (len(X),)),
        grad=lambda X, beta: np.zeros(np.shape(beta)[:-1] + (len(X), 0)),
        hess=lambda X, beta: np.zeros((len(X), 0, 0)),
        shared_jacobian=True,
    )


def exp_model(bounds: Sequence[Sequence[float]] = ((-100.0, 100.0), (-4.0, 4.0))) -> RegressionModel:
    """Built-in nonlinear example g(x, beta) = beta1 * exp(beta2 * x).

    x is scalar (p = 1). The default box keeps the exponent moderate so
    candidate search cannot overflow.
    """

    def value(X, beta):
        # in place, so a stack of C vectors needs one (C, n) array
        g = np.multiply(beta[..., 1, None], X[:, 0])
        return np.multiply(beta[..., 0, None], np.exp(g, out=g), out=g)

    def grad(X, beta):
        e = np.exp(beta[..., 1, None] * X[:, 0])
        return np.stack([e, beta[..., 0, None] * X[:, 0] * e], axis=-1)

    def hess(X, beta):
        x = X[:, 0]
        xe = x * np.exp(beta[1] * x)
        H = np.zeros((len(X), 2, 2))
        H[:, 0, 1] = H[:, 1, 0] = xe
        H[:, 1, 1] = beta[0] * x * xe
        return H

    return RegressionModel(name="exp", q=2, value=value, grad=grad, hess=hess,
                           bounds=np.asarray(bounds, dtype=float))


def fd_model(name: str, q: int, value, bounds=None, h: float = 1e-6) -> RegressionModel:
    """Wrap a per-row mean function ``value(x, beta) -> float`` whose
    derivatives are not available.

    Gradient and Hessian come from central differences over the whole
    design, which is fine for fitting but degrades the accuracy of the
    expected-Jacobian matrix, so the model is marked as not certified for
    inference. A stack of coefficient vectors is evaluated one by one.
    """
    if q < 1:
        raise ValueError("fd_model needs at least one coefficient")

    def value_rows(X, beta):
        beta = np.asarray(beta, dtype=float)
        out = [[value(x, b) for x in X] for b in beta.reshape(-1, q)]
        return np.array(out, dtype=float).reshape(beta.shape[:-1] + (len(X),))

    def central(fn, X, beta):
        """Central differences of fn over the coefficients, stacked on
        a new last axis."""
        beta = np.asarray(beta, dtype=float)
        cols = []
        for j in range(q):
            e = np.zeros(q)
            e[j] = h
            cols.append((fn(X, beta + e) - fn(X, beta - e)) / (2.0 * h))
        return np.stack(cols, axis=-1)

    def grad(X, beta):
        return central(value_rows, X, beta)

    def hess(X, beta):
        H = central(grad, X, beta)
        return 0.5 * (H + H.transpose(0, 2, 1))

    return RegressionModel(name=name, q=q, value=value_rows, grad=grad, hess=hess,
                           bounds=None if bounds is None else np.asarray(bounds, dtype=float),
                           certified_derivatives=False)


def residuals(d: Dataset, m: RegressionModel, xi: AugmentedParam) -> np.ndarray:
    """r_i = y_i - g(x_i, beta) - alpha."""
    if xi.beta.size != m.q:
        raise ValueError(f"beta has dimension {xi.beta.size}, model expects {m.q}")
    fitted = m.eval_batch(d.x, xi.beta) + xi.alpha
    r = d.y - fitted
    if not np.all(np.isfinite(r)):
        row = int(np.argwhere(~np.isfinite(r))[0, 0])
        raise DomainError(f"model evaluation produced a non-finite value at row {row}")
    return r


def augmented_grad_rows(m: RegressionModel, X: np.ndarray, xi: AugmentedParam) -> np.ndarray:
    """(n, q+1) gradients of g(x_i, beta) + alpha in xi: (grad_beta g, 1)."""
    G = m.grad_rows(X, xi.beta)
    return np.concatenate([G, np.ones(G.shape[:-1] + (1,))], axis=-1)


def augmented_hess_rows(m: RegressionModel, X: np.ndarray, xi: AugmentedParam) -> np.ndarray:
    """(n, q+1, q+1) Hessians of g(x_i, beta) + alpha in xi: the beta block
    is hess g, the alpha row and column are zero."""
    H = np.zeros((len(X), m.q + 1, m.q + 1))
    H[:, :m.q, :m.q] = np.reshape(m.hess(X, xi.beta), (len(X), m.q, m.q))
    return H


@dataclass(frozen=True)
class IdentifiabilityReport:
    rank: int
    required_rank: int
    max_duplicate_fraction: float
    constant_columns: tuple
    at_risk: bool
    messages: tuple

    def to_dict(self):
        return {
            "rank": self.rank,
            "required_rank": self.required_rank,
            "max_duplicate_fraction": self.max_duplicate_fraction,
            "constant_columns": list(self.constant_columns),
            "at_risk": self.at_risk,
            "messages": list(self.messages),
        }


def check_identifiability(d: Dataset) -> IdentifiabilityReport:
    """Heuristic slope-identifiability diagnostics for the linear model.

    Checks the rank of the design augmented with an intercept column and
    the largest fraction of identical predictor rows. These are necessary
    conditions only: they flag a constant predictor column (which would
    collide with the intercept) and designs concentrated on few points,
    but cannot certify that no hyperplane carries probability one.
    """
    msgs = []
    design = np.column_stack([d.x, np.ones(d.n)])
    rank = int(np.linalg.matrix_rank(design))
    required = d.p + 1

    const_cols = tuple(int(j) for j in range(d.p)
                       if np.ptp(d.x[:, j]) == 0.0)
    for j in const_cols:
        msgs.append(f"predictor column {j} is constant and collides with the intercept")

    if d.n:
        _, counts = np.unique(d.x, axis=0, return_counts=True)
        dup_frac = float(counts.max()) / d.n
    else:
        dup_frac = 0.0
    if dup_frac > 0.5:
        msgs.append(f"{dup_frac:.0%} of predictor rows are identical")

    if rank < required:
        msgs.append(f"design with intercept has rank {rank} < {required}")

    at_risk = bool(msgs)
    return IdentifiabilityReport(rank=rank, required_rank=required,
                                 max_duplicate_fraction=dup_frac,
                                 constant_columns=const_cols,
                                 at_risk=at_risk, messages=tuple(msgs))


def _parse_cell(token: str, row: int, col: int) -> float:
    try:
        v = float(token)
    except ValueError as exc:
        raise ValueError(f"row {row}, column {col}: cannot parse {token!r} as a number") from exc
    if not np.isfinite(v):
        raise DomainError(f"row {row}, column {col}: non-finite value {token!r}")
    return v


def load_csv(path, y_col, x_cols=None) -> Dataset:
    """Read a dataset from a comma-separated file.

    The dialect is deliberately narrow: comma separator, '.' decimal
    point, optional single header row, no quoting (a '\"' anywhere is
    rejected). ``y_col`` and ``x_cols`` may be column names (requires a
    header) or 0-based indices; ``x_cols`` defaults to every non-response
    column. Non-finite and unparseable cells are reported with their row
    and column.
    """
    text = Path(path).read_text()
    if '"' in text:
        raise ValueError("quoted CSV fields are not supported")
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError(f"{path}: empty input")

    first = [tok.strip() for tok in lines[0].split(",")]

    def _all_numeric(tokens):
        try:
            [float(t) for t in tokens]
            return True
        except ValueError:
            return False

    has_header = not _all_numeric(first)
    header = first if has_header else None
    data_lines = lines[1:] if has_header else lines
    if not data_lines:
        raise ValueError(f"{path}: no data rows")
    ncol = len(first)

    def _resolve(col, what):
        if isinstance(col, str) and not col.lstrip("-").isdigit():
            if header is None:
                raise ValueError(f"{what} {col!r} requires a header row")
            if col not in header:
                raise ValueError(f"{what} {col!r} not found in header {header}")
            return header.index(col)
        idx = int(col)
        if not 0 <= idx < ncol:
            raise ValueError(f"{what} index {idx} out of range for {ncol} columns")
        return idx

    y_idx = _resolve(y_col, "response column")
    if x_cols is None:
        x_idx = [j for j in range(ncol) if j != y_idx]
    else:
        x_idx = [_resolve(c, "predictor column") for c in x_cols]
        if y_idx in x_idx:
            raise ValueError("response column cannot also be a predictor")

    cells = [line.split(",") for line in data_lines]
    try:
        table = np.array([[float(tok) for tok in row] for row in cells])
    except ValueError:  # a cell that is not a number, or a ragged table
        table = None
    if table is None or table.shape != (len(cells), ncol) or not np.isfinite(table).all():
        start = 2 if has_header else 1
        for i, row in enumerate(cells):  # raise the first error in row order
            if len(row) != ncol:
                raise ValueError(f"row {start + i}: expected {ncol} fields, got {len(row)}")
            for j, tok in enumerate(row):
                _parse_cell(tok.strip(), start + i, j)
    return Dataset(x=table[:, x_idx], y=table[:, y_idx])
