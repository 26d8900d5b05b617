"""Monte Carlo harness for the estimators' asymptotic claims.

Four kinds of runs, each producing a report with explicit pass/fail
claims whose thresholds are scenario data, not code constants:

* ``consistency``: the MM slope error shrinks at the root-n rate across
  a ladder of sample sizes, with or without symmetric errors.
* ``expansion``: the centered estimate matches the averaged influence
  function up to a remainder that is small and shrinking, using
  population constants obtained by quadrature.
* ``normality``: the empirical covariance of the root-n-scaled MM block
  matches the integration-oracle covariance, and the efficiency relative
  to least squares at normal errors comes out as tuned.
* ``contamination``: point contamination up to 40 percent with outliers
  of growing magnitude moves the MM slope by a bounded, non-exploding
  amount.

Replications run on independent counter-based substreams, so serial and
parallel execution produce bit-identical reports.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Optional, get_args, get_origin, get_type_hints

import numpy as np
from scipy import integrate, optimize, special

from .estimators import FitConfig, fit
from .exceptions import RobustmmError, ScenarioError
from .inference import (InferenceConstants, PsiSystem, asymptotic_cov, closed_form_c0_inv,
                        closed_form_d0)
from .model import Dataset, RegressionModel, exp_model, linear_model, location_model
from .rho import RhoFunction, bisquare

__all__ = [
    "ErrorLaw",
    "make_error_law",
    "SimScenario",
    "SimReport",
    "Claim",
    "load_scenario",
    "run_scenario",
    "run_consistency",
    "run_expansion_check",
    "run_normality",
    "run_contamination",
    "population_centers",
    "population_constants",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _require(*checks) -> None:
    """Raise a ScenarioError naming the key of the first failed
    (key, ok, requirement) check."""
    for key, ok, requirement in checks:
        if not ok:
            raise ScenarioError(f"{key} {requirement}", key=key)


# ---------------------------------------------------------------------------
# error laws

def _normal_pdf(u, w, loc, s):
    z = (u - loc) / s
    return w * np.exp(-0.5 * z * z) / (s * _SQRT_2PI)


class _Family(NamedTuple):
    """Base law of a mixture component (w, loc, s): the law shifted by
    loc and scaled by s, with mixture weight w."""

    pdf: Callable     # (u, w, loc, s) -> w times the component density
    cdf: Callable     # (u, loc, s)
    draw: Callable    # (rng, size) -> draws of the base law
    window: Callable  # (loc, s) -> interval holding all but negligible mass
    lower: Callable   # loc -> lower end of the support
    symmetric: bool   # density symmetric about loc


# the cdfs are what scipy.stats.norm and expon compute, without the
# import and per-call cost of scipy.stats
_NORMAL = _Family(_normal_pdf, lambda u, loc, s: special.ndtr((u - loc) / s),
                  lambda rng, size: rng.standard_normal(size),
                  lambda loc, s: (-(12.0 * s + 3.0 * abs(loc)), 12.0 * s + 3.0 * abs(loc)),
                  lambda loc: -np.inf, True)
_EXPONENTIAL = _Family(
    lambda u, w, loc, s: w * np.where(u >= loc, (1.0 / s) * np.exp(-(1.0 / s) * (u - loc)), 0.0),
    lambda u, loc, s: -special.expm1(-np.maximum((u - loc) / s, 0.0)),
    lambda rng, size: rng.standard_exponential(size),
    lambda loc, s: (loc - 5.0 * s, loc + 25.0 * s), lambda loc: loc, False)

#: error law -> (family, strongly unimodal, its components (w, loc, s) as
#: a function of the ErrorLaw). A new law is one row. ``sample`` draws the
#: first component whose cumulative weight exceeds a uniform draw, so
#: reordering components changes the random stream.
_LAWS = {
    "normal": (_NORMAL, True, lambda e: ((1.0, 0.0, e.scale),)),
    "shifted-exponential": (_EXPONENTIAL, True, lambda e: ((1.0, e.shift, e.scale),)),
    "contaminated-normal": (_NORMAL, True, lambda e: ((e.eps, 0.0, e.outlier_scale),
                                                      (1.0 - e.eps, 0.0, e.scale))),
    "bimodal-normal": (_NORMAL, False, lambda e: ((0.5, e.shift, e.scale),
                                                  (0.5, -e.shift, e.scale))),
}


@dataclass(frozen=True)
class ErrorLaw:
    """Error distribution with everything the harness needs: density and
    distribution function for quadrature, a sampler, and the flags the
    uniqueness theory cares about. All of them derive from the law's row
    of ``_LAWS``."""

    name: str
    scale: float = 1.0
    shift: float = 0.0
    eps: float = 0.0
    outlier_scale: float = 10.0

    def __post_init__(self):
        _require(("errors", self.name in _LAWS, f"must be one of {tuple(_LAWS)}"),
                 ("error_scale", 0.0 < self.scale < math.inf, "must be positive and finite"),
                 ("error_shift", math.isfinite(self.shift), "must be finite"),
                 ("error_eps", 0.0 <= self.eps < 1.0, "must lie in [0, 1)"),
                 ("error_outlier_scale", 0.0 < self.outlier_scale < math.inf,
                  "must be positive and finite"))

    def _mixture(self) -> tuple:
        family, _, components = _LAWS[self.name]
        return family, components(self)

    @property
    def symmetric(self) -> bool:
        """Symmetric about 0: components closed under loc -> -loc."""
        family, comps = self._mixture()
        return family.symmetric and sorted(comps) == sorted((w, -loc, s) for w, loc, s in comps)

    @property
    def strongly_unimodal(self) -> bool:
        return _LAWS[self.name][1]

    @property
    def support(self) -> tuple:
        family, comps = self._mixture()
        return (min(family.lower(loc) for _, loc, _ in comps), np.inf)

    def plausible_range(self) -> tuple:
        family, comps = self._mixture()
        windows = [family.window(loc, s) for _, loc, s in comps]
        return (min(lo for lo, _ in windows), max(hi for _, hi in windows))

    def pdf(self, u):
        u = np.asarray(u, dtype=float)
        family, comps = self._mixture()
        return sum(family.pdf(u, w, loc, s) for w, loc, s in comps)

    def cdf(self, u):
        family, comps = self._mixture()
        return sum(w * family.cdf(u, loc, s) for w, loc, s in comps)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        family, comps = self._mixture()
        w, loc, s = (np.array(col) for col in zip(*comps))
        pick = (np.searchsorted(np.cumsum(w)[:-1], rng.random(size), side="right")
                if len(comps) > 1 else 0)
        return loc[pick] + s[pick] * family.draw(rng, size)


def make_error_law(name, scale=1.0, shift=0.0, eps=0.0, outlier_scale=10.0) -> ErrorLaw:
    return ErrorLaw(name=name, scale=float(scale), shift=float(shift),
                    eps=float(eps), outlier_scale=float(outlier_scale))


# ---------------------------------------------------------------------------
# population quantities by quadrature

def _window_mean(law: ErrorLaw, fn, t: float, s: float, k: float) -> float:
    """E fn((u - t)/s) with fn taken as zero outside the window
    [t - ks, t + ks]; quadrature over the window within the support."""
    lo = max(t - k * s, law.support[0])
    hi = min(t + k * s, law.support[1])
    if hi <= lo:
        return 0.0
    val, _ = integrate.quad(lambda u: fn((u - t) / s) * law.pdf(u), lo, hi, limit=200)
    return val


def _expected_rho(law: ErrorLaw, rho: RhoFunction, t: float, s: float) -> float:
    """E rho((u - t)/s): the loss is 1 outside the window [t-ks, t+ks]."""
    k = rho.k
    inside = _window_mean(law, rho.rho, t, s, k)
    lo_mass = law.cdf(t - k * s)
    hi_mass = 1.0 - law.cdf(t + k * s)
    return inside + lo_mass + hi_mass


def _scale_at(law: ErrorLaw, rho0: RhoFunction, delta: float, t: float) -> float:
    """Root s of E rho0((u - t)/s) = delta; the population scale equation
    at the candidate center t."""

    def gap(s):
        return _expected_rho(law, rho0, t, s) - delta

    s0 = max(law.scale, 1e-6)
    lo, hi = s0, s0
    for _ in range(200):
        if gap(lo) >= 0.0:
            break
        lo *= 0.5
    for _ in range(200):
        if gap(hi) <= 0.0:
            break
        hi *= 2.0
    return optimize.brentq(gap, lo, hi, xtol=1e-13, rtol=1e-13)


def _center_root(law: ErrorLaw, rho: RhoFunction, s: float, t0: float) -> float:
    """Zero of the expected score in t near t0. The score mean is strictly
    decreasing in t around the minimizer, so this pins the center far more
    precisely than the flat loss minimum itself."""

    def gap(t):
        return _window_mean(law, rho.psi, t, s, rho.k)

    width = 0.5 * s
    lo, hi = t0 - width, t0 + width
    for _ in range(60):
        if gap(lo) > 0.0:
            break
        lo -= width
    for _ in range(60):
        if gap(hi) < 0.0:
            break
        hi += width
    return float(optimize.brentq(gap, lo, hi, xtol=1e-13, rtol=8.9e-16))


def population_centers(law: ErrorLaw, rho0: RhoFunction, rho1: RhoFunction,
                       delta: float) -> tuple:
    """(sigma0, alpha00, alpha01): the population scale and the centers
    minimizing the expected losses at that scale.

    alpha00 minimizes the population scale itself; sigma0 is the attained
    minimum; alpha01 minimizes the expected fine loss at scale sigma0.
    For laws that are symmetric and strongly unimodal both centers equal
    the symmetry center 0 (Fisher consistency), so the polish starts
    there. For every other law a bounded scan localizes the coarse center
    first: a symmetric bimodal law can have its scale minimum off 0.
    Both centers are then polished to root-finder accuracy through their
    score equations.
    """
    if law.symmetric and law.strongly_unimodal:
        alpha00 = 0.0
        sigma0 = _scale_at(law, rho0, delta, alpha00)
    else:
        lo, hi = law.plausible_range()
        res0 = optimize.minimize_scalar(lambda t: _scale_at(law, rho0, delta, t),
                                        bounds=(lo, hi), method="bounded",
                                        options={"xatol": 1e-9})
        alpha00 = float(res0.x)
        sigma0 = float(res0.fun)
    # alternate the center's score equation with the scale equation; the
    # coupling is mild so a few sweeps reach quadrature accuracy
    for _ in range(3):
        alpha00 = _center_root(law, rho0, sigma0, alpha00)
        sigma0 = _scale_at(law, rho0, delta, alpha00)
    alpha01 = _center_root(law, rho1, sigma0, alpha00)
    return sigma0, alpha00, alpha01


def population_constants(law: ErrorLaw, rho0: RhoFunction, rho1: RhoFunction,
                         delta: float, b0: np.ndarray, A0: np.ndarray) -> InferenceConstants:
    """Quadrature versions of the plug-in constants, plus the design
    moments supplied by the caller. All centers are in the error-law
    frame; a true intercept on top of the law shifts only the joint
    parameter, never these moments."""
    sigma0, alpha00, alpha01 = population_centers(law, rho0, rho1, delta)
    at0, at1 = (alpha00, sigma0, rho0.k), (alpha01, sigma0, rho1.k)
    return InferenceConstants(
        a00=_window_mean(law, rho0.psi_prime, *at0),
        a01=_window_mean(law, rho1.psi_prime, *at1),
        e00=_window_mean(law, lambda t: t * rho0.psi_prime(t), *at0),
        e01=_window_mean(law, lambda t: t * rho1.psi_prime(t), *at1),
        d0=_window_mean(law, lambda t: t * rho0.psi(t), *at0),
        b0=b0, A0=A0, sigma0=sigma0,
        alpha00=alpha00, alpha01=alpha01,
        rho0=rho0, rho1=rho1, delta=delta)


def _oracle_mm_variance(law: ErrorLaw, c: InferenceConstants) -> np.ndarray:
    """Symmetric-error covariance of the MM block:
    sigma0^2 E psi1^2 / (E psi1')^2 C0^{-1} with C0 from the design."""
    rho1, s = c.rho1, c.sigma0
    num = _window_mean(law, lambda t: rho1.psi(t) ** 2, c.alpha01, s, rho1.k)
    return s * s * num / c.a01 ** 2 * closed_form_c0_inv(c)


# ---------------------------------------------------------------------------
# scenarios

class _Model(NamedTuple):
    build: Callable              # p -> RegressionModel
    design: Callable             # (rng, n, p) -> design matrix
    moments: Optional[Callable]  # p -> (b0, A0) of the predictor gradient; None if unknown
    width: Optional[int]         # design columns, which p must equal; None: p of them
    defaults: dict               # scenario-file defaults for p and beta0


#: scenario model -> its row; the design moments are those of the design
#: sampler (standard normal predictors for the linear model)
_MODELS = {
    "location": _Model(lambda p: location_model(), lambda rng, n, p: np.zeros((n, 0)),
                       lambda p: (np.zeros(0), np.zeros((0, 0))), 0, {"p": 0, "beta0": ()}),
    "linear": _Model(linear_model, lambda rng, n, p: rng.standard_normal((n, p)),
                     lambda p: (np.zeros(p), np.eye(p)), None, {}),
    "exp": _Model(lambda p: exp_model(), lambda rng, n, p: rng.uniform(0.0, 2.0, size=(n, 1)),
                  None, 1, {}),
}

_DEFAULT_THRESHOLDS = {
    "consistency": {"ratio_lo": 0.35, "ratio_hi": 0.72, "max_failure_rate": 0.01},
    "expansion": {"remainder_ratio_max": 0.2, "max_failure_rate": 0.01},
    "normality": {"variance_rel_tol": 0.15, "efficiency_target": 0.95,
                  "efficiency_tol": 0.05, "quantile_tol": 0.15,
                  "max_failure_rate": 0.01},
    "contamination": {"se_multiple_max": 100.0, "magnitude_growth_max": 1.1,
                      "max_failure_rate": 0.01},
}


@dataclass(frozen=True)
class SimScenario:
    """Plain-data description of a simulation run; picklable so that
    replications can be shipped to worker processes.

    The fields are the scenario file's keys, and their annotations are
    the value types ``load_scenario`` parses: ``tuple[T, ...]`` is a
    comma-separated list, and ``thresholds`` is written as dotted
    ``threshold.*`` keys."""

    kind: str
    model: str = "linear"
    p: int = 1
    beta0: tuple[float, ...] = (1.0,)
    alpha0: float = 0.0
    errors: str = "normal"
    error_scale: float = 1.0
    error_shift: float = 0.0
    error_eps: float = 0.0
    error_outlier_scale: float = 10.0
    sizes: tuple[int, ...] = (100, 400, 1600)
    replications: int = 200
    seed: int = 0
    name: str = ""
    delta: float = 0.5
    k0: float = 1.5476
    k1: float = 4.685
    n_subsamples: int = 30
    contamination_fractions: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4)
    outlier_magnitudes: tuple[float, ...] = (1e2, 1e4, 1e6)
    thresholds: dict = field(default_factory=dict)

    def __post_init__(self):
        _require(
            ("kind", self.kind in _RUNNERS, f"must be one of {tuple(_RUNNERS)}"),
            ("model", self.model in _MODELS, f"must be one of {tuple(_MODELS)}"),
            ("replications", self.replications >= 1, "must be at least 1"),
            ("sizes", bool(self.sizes) and min(self.sizes) >= 5, "must be at least 5"),
            ("sizes", self.kind != "consistency" or all(
                a < b for a, b in zip(self.sizes, self.sizes[1:])), "must be strictly increasing"),
            ("delta", 0.0 < self.delta < 1.0, "must lie in (0, 1)"),
            ("k0", 0.0 < self.k0 < math.inf, "must be positive and finite"),
            ("k1", self.k0 <= self.k1 < math.inf, "must be finite and at least k0"),
            ("n_subsamples", self.n_subsamples >= 1, "must be at least 1"),
            ("seed", 0 <= self.seed < 2 ** 128, "must lie in [0, 2**128)"),
            ("beta0", all(map(math.isfinite, self.beta0)), "must be finite"),
            ("alpha0", math.isfinite(self.alpha0), "must be finite"))
        width = _MODELS[self.model].width
        _require(("p", self.p >= 1, "must be at least 1") if width is None else
                 ("p", self.p == width, f"must be {width} for the {self.model} model"))
        q, law = self.q, self.error_law()
        _require(("beta0", len(self.beta0) == q, f"must have {q} entries"),
                 ("sizes", min(self.sizes) >= q + 2,
                  f"must be at least q + 2 = {q + 2} for {q} slope parameters"),
                 ("errors", self.kind != "normality" or law.symmetric,
                  "must be a symmetric law for normality runs"),
                 *((key, self.kind != "contamination" or bool(getattr(self, key)),
                    "must not be empty for contamination runs")
                   for key in ("contamination_fractions", "outlier_magnitudes")),
                 ("contamination_fractions", self.kind != "contamination" or all(
                     0.0 <= eps < 1.0 - self.delta for eps in self.contamination_fractions),
                  "must lie in [0, 1 - delta) for contamination runs"))
        if self.kind in ("expansion", "normality"):
            self.design_moments()
        merged = dict(_DEFAULT_THRESHOLDS[self.kind])
        for key, val in self.thresholds.items():
            if key not in merged:
                raise ScenarioError(f"unknown threshold {key!r} for kind "
                                    f"{self.kind!r}", key=f"threshold.{key}")
            merged[key] = float(val)
        object.__setattr__(self, "thresholds", merged)

    # --- derived objects ---------------------------------------------------

    def error_law(self) -> ErrorLaw:
        return make_error_law(self.errors, self.error_scale, self.error_shift,
                              self.error_eps, self.error_outlier_scale)

    def build_model(self) -> RegressionModel:
        return _MODELS[self.model].build(self.p)

    def fit_config(self, seed: int) -> FitConfig:
        return FitConfig(delta=self.delta, rho0=bisquare(self.k0),
                         rho1=bisquare(self.k1), n_subsamples=self.n_subsamples,
                         seed=seed)

    @property
    def q(self) -> int:
        return self.build_model().q

    def stream(self, index: int) -> np.random.Generator:
        """Independent substream: serial and parallel runs see the same one."""
        return np.random.Generator(np.random.Philox(key=self.seed).jumped(index))

    def fit_seed(self, index: int) -> int:
        return (self.seed * 1_000_003 + index) % (2 ** 63 - 1)

    def true_xi(self) -> np.ndarray:
        """The true (beta, alpha)."""
        return np.concatenate([np.asarray(self.beta0), [self.alpha0]])

    def design_moments(self) -> tuple:
        """(b0, A0) of the predictor gradient under the harness design."""
        moments = _MODELS[self.model].moments
        _require(("model", moments is not None, "must have known design moments for "
                  "expansion and normality runs"))
        return moments(self.p)

    def to_dict(self) -> dict:
        """Every field by name: the keys a scenario file can set."""
        return asdict(self)


#: scenario key -> value type, from SimScenario's annotations; the
#: thresholds dict is written as dotted keys instead
_KEY_TYPES = {name: hint for name, hint in get_type_hints(SimScenario).items()
              if hint is not dict}


def _parse_value(hint, value: str):
    if get_origin(hint) is tuple:
        conv = get_args(hint)[0]
        return tuple(conv(tok.strip()) for tok in value.split(",") if tok.strip() != "")
    return hint(value)


def load_scenario(path) -> SimScenario:
    """Parse the flat key = value scenario format.

    Lines are ``key = value``; '#' starts a comment; list values are
    comma separated; threshold overrides use dotted keys such as
    ``threshold.ratio_lo``. Unknown, repeated or ill-typed keys are
    reported with their name.
    """
    fields = {}
    thresholds = {}
    seen = set()
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected 'key = value'", key=line)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in seen:
            raise ScenarioError(f"line {lineno}: repeated key {key!r}", key=key)
        seen.add(key)
        try:
            if key.startswith("threshold."):
                thresholds[key[len("threshold."):]] = float(value)
            elif key in _KEY_TYPES:
                fields[key] = _parse_value(_KEY_TYPES[key], value)
            else:
                raise ScenarioError(f"unknown scenario key {key!r}", key=key)
        except (ValueError, TypeError) as exc:
            raise ScenarioError(f"line {lineno}: bad value for {key!r}: {exc}",
                                key=key) from exc
    if "kind" not in fields:
        raise ScenarioError("scenario must declare a kind", key="kind")
    if fields.get("model") in _MODELS:
        fields = {**_MODELS[fields["model"]].defaults, **fields}
    return SimScenario(thresholds=thresholds, **fields)


# ---------------------------------------------------------------------------
# reports

@dataclass(frozen=True)
class Claim:
    name: str
    passed: Optional[bool]
    value: object
    threshold: object = None
    detail: str = ""

    def to_dict(self):
        return asdict(self)


@dataclass(frozen=True)
class SimReport:
    kind: str
    scenario: dict
    claims: tuple
    summary: dict
    per_replication: tuple
    failures: int
    total_replications: int
    warnings: tuple = ()

    @property
    def passed(self) -> Optional[bool]:
        votes = [c.passed for c in self.claims]
        if any(v is False for v in votes):
            return False
        if any(v is None for v in votes):
            return None
        return True

    def to_json_dict(self) -> dict:
        """Every field but the per-replication table, plus the verdict."""
        out = asdict(self)
        del out["per_replication"]
        return {**out, "passed": self.passed}

    def csv_rows(self) -> tuple:
        """(header, rows) for the per-replication estimates table."""
        keys = list(dict.fromkeys(key for row in self.per_replication for key in row))
        rows = [[row.get(k, "") for k in keys] for row in self.per_replication]
        return keys, rows


# ---------------------------------------------------------------------------
# replication engine

def _worker_count(n_tasks: int) -> int:
    """Worker processes for ``n_tasks`` tasks: ROBUSTMM_THREADS (default 1,
    0 meaning one per CPU) clamped to the CPU count and the task count.
    Anything but a non-negative integer is a scenario input error."""
    raw = os.environ.get("ROBUSTMM_THREADS", "1")
    try:
        value = int(raw)
    except ValueError:
        value = -1
    if value < 0:
        raise ScenarioError(f"ROBUSTMM_THREADS must be a non-negative integer, got {raw!r}",
                            key="ROBUSTMM_THREADS")
    cpus = os.cpu_count() or 1
    return max(1, min(value or cpus, cpus, n_tasks))


def _parallel_map(fn, tasks):
    """Map preserving task order; parallel when ROBUSTMM_THREADS allows.
    Each task is independent and owns its substream, so scheduling cannot
    change any result."""
    workers = _worker_count(len(tasks))
    if workers == 1 or len(tasks) < 4:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=max(1, len(tasks) // (workers * 8))))


def _generate(scenario: SimScenario, n: int, rng: np.random.Generator) -> Dataset:
    X = _MODELS[scenario.model].design(rng, n, scenario.p)
    g = scenario.build_model().eval_batch(X, np.asarray(scenario.beta0))
    u = scenario.error_law().sample(rng, n)
    return Dataset(x=X, y=g + scenario.alpha0 + u)


def _fit_task(args):
    """One replication: generate, fit, return the joint estimate plus the
    plain least-squares estimate for efficiency comparisons."""
    scenario, size_idx, rep, n = args
    stream = size_idx * scenario.replications + rep
    rng = scenario.stream(stream)
    d = _generate(scenario, n, rng)
    m = scenario.build_model()
    cfg = scenario.fit_config(scenario.fit_seed(stream))
    try:
        res = fit(d, m, cfg)
    except (RobustmmError, np.linalg.LinAlgError) as exc:
        return {"size_idx": size_idx, "rep": rep, "n": n, "failed": True,
                "error": f"{type(exc).__name__}: {exc}"}
    if m.q == 0:
        ls = np.array([d.y.mean()])
    else:
        design = np.column_stack([d.x, np.ones(n)])
        ls, *_ = np.linalg.lstsq(design, d.y, rcond=None)
    return {"size_idx": size_idx, "rep": rep, "n": n, "failed": False,
            "theta": res.theta_vector(), "ls": ls,
            "certified": res.certified, "exact_fit": res.exact_fit}


def _run_grid(scenario: SimScenario, sizes) -> list:
    tasks = [(scenario, si, rep, n)
             for si, n in enumerate(sizes)
             for rep in range(scenario.replications)]
    return _parallel_map(_fit_task, tasks)


def _slope(q: int) -> slice:
    """The slope coordinates of xi = (beta, alpha): beta, or alpha for
    the location model (q = 0)."""
    return slice(0, q or 1)


def _report(scenario: SimScenario, results, claims, summary, per_rep) -> SimReport:
    """The run's report: the failure-rate claim over ``results``, then the
    run's own claims, and a warning when the law breaks the uniqueness
    hypotheses."""
    failures = sum(1 for r in results if r["failed"])
    rate = failures / max(1, len(results))
    cap = scenario.thresholds["max_failure_rate"]
    warnings = () if scenario.error_law().strongly_unimodal else (
        "error law is not strongly unimodal: uniqueness and "
        "Fisher-consistency hypotheses violated",)
    return SimReport(kind=scenario.kind, scenario=scenario.to_dict(),
                     claims=(Claim(name="failure_rate", passed=rate <= cap, value=rate,
                                   threshold=cap), *claims),
                     summary=summary, per_replication=tuple(per_rep), failures=failures,
                     total_replications=len(results), warnings=warnings)


def _size_medians(pairs, n_sizes: int) -> list:
    """Per size index, the median of the values in (size_idx, value)
    pairs; None for a size without values."""
    groups = [[] for _ in range(n_sizes)]
    for si, value in pairs:
        groups[si].append(value)
    return [float(np.median(g)) if g else None for g in groups]


def _theta_rows(results, prefix: str, block: slice = slice(None)) -> list:
    """Per-replication rows: n, rep, failed and, for a successful fit, the
    ``block`` of theta as ``prefix_0``, ``prefix_1``, ..."""
    return [{"n": r["n"], "rep": r["rep"], "failed": r["failed"],
             **({f"{prefix}_{j}": float(v) for j, v in enumerate(r["theta"][block])}
                if not r["failed"] else {})}
            for r in results]


# ---------------------------------------------------------------------------
# drivers

def run_consistency(scenario: SimScenario) -> SimReport:
    """Median MM slope error across a ladder of sizes; passes when each
    consecutive (quadrupled-n) ratio sits in the configured band."""
    if len(scenario.sizes) < 3:
        raise ScenarioError("consistency runs need at least 3 sizes", key="sizes")
    results = _run_grid(scenario, scenario.sizes)
    q = scenario.q
    q1 = q + 1
    target = scenario.true_xi()[_slope(q)]
    medians = _size_medians(
        ((r["size_idx"], float(np.linalg.norm(r["theta"][q1:2 * q1][_slope(q)] - target)))
         for r in results if not r["failed"]), len(scenario.sizes))

    lo = scenario.thresholds["ratio_lo"]
    hi = scenario.thresholds["ratio_hi"]
    claims = []
    ratios = []
    for i in range(len(medians) - 1):
        ratio = None if None in medians[i:i + 2] else medians[i + 1] / medians[i]
        ratios.append(ratio)
        claims.append(Claim(
            name=f"median_error_ratio_{scenario.sizes[i]}_to_{scenario.sizes[i + 1]}",
            passed=None if ratio is None else bool(lo <= ratio <= hi), value=ratio,
            threshold=[lo, hi]))

    summary = {"sizes": list(scenario.sizes), "median_slope_error": medians,
               "ratios": ratios}
    return _report(scenario, results, claims, summary, _theta_rows(results, "theta"))


def _population_theta(scenario: SimScenario):
    """True joint parameter and its closed-form expected Jacobian, via the
    quadrature oracles. The constants live in the error-law frame; the
    joint parameter adds the scenario's true intercept to both centers."""
    law = scenario.error_law()
    b0, A0 = scenario.design_moments()
    cfg = scenario.fit_config(0)
    consts = population_constants(law, cfg.rho0, cfg.rho1, scenario.delta, b0, A0)
    beta0 = np.asarray(scenario.beta0)
    theta0 = np.concatenate([beta0, [consts.alpha00 + scenario.alpha0], beta0,
                             [consts.alpha01 + scenario.alpha0],
                             [consts.sigma0]])
    return consts, theta0, closed_form_d0(consts)


def run_expansion_check(scenario: SimScenario) -> SimReport:
    """Remainder of the influence-function expansion.

    For each replication, compare the root-n-scaled estimation error with
    the root-n-scaled average of the population influence function; the
    leftover must shrink with n and be small relative to the leading term
    at the largest size.
    """
    consts, theta0, D0 = _population_theta(scenario)
    m = scenario.build_model()
    cfg = scenario.fit_config(0)
    system = PsiSystem(m, cfg.rho0, cfg.rho1, scenario.delta)

    results = _run_grid(scenario, scenario.sizes)
    rem_norms, total_norms = [], []
    per_rep = []
    for r in results:
        row = {"n": r["n"], "rep": r["rep"], "failed": r["failed"]}
        if not r["failed"]:
            n = r["n"]
            stream = r["size_idx"] * scenario.replications + r["rep"]
            d = _generate(scenario, n, scenario.stream(stream))
            Psi = system.psi_matrix(d, theta0)
            infl_mean = -np.linalg.solve(D0, Psi.mean(axis=0))
            lead = math.sqrt(n) * infl_mean
            total = math.sqrt(n) * (r["theta"] - theta0)
            rem = total - lead
            row["remainder_norm"] = float(np.linalg.norm(rem))
            row["scaled_error_norm"] = float(np.linalg.norm(total))
            rem_norms.append((r["size_idx"], row["remainder_norm"]))
            total_norms.append((r["size_idx"], row["scaled_error_norm"]))
        per_rep.append(row)

    med_rem = _size_medians(rem_norms, len(scenario.sizes))
    med_tot = _size_medians(total_norms, len(scenario.sizes))
    fits = np.bincount([si for si, _ in rem_norms], minlength=len(scenario.sizes))
    claims = []
    if fits.min() < 2:
        claims.append(Claim(name="expansion_remainder", passed=None,
                            value=med_rem, detail="insufficient replications"))
    else:
        decreasing = all(b < a for a, b in zip(med_rem, med_rem[1:]))
        claims.append(Claim(name="remainder_decreasing", passed=bool(decreasing),
                            value=med_rem))
        ratio = med_rem[-1] / med_tot[-1]
        cap = scenario.thresholds["remainder_ratio_max"]
        claims.append(Claim(name="remainder_ratio_at_largest_n",
                            passed=bool(ratio < cap), value=ratio, threshold=cap))

    summary = {"sizes": list(scenario.sizes), "median_remainder": med_rem,
               "median_scaled_error": med_tot,
               "theta0": [float(v) for v in theta0]}
    return _report(scenario, results, claims, summary, per_rep)


def run_normality(scenario: SimScenario) -> SimReport:
    """Empirical covariance of the root-n MM error against the
    integration-oracle covariance, plus the efficiency against least
    squares and a quantile check of coordinate-wise normality."""
    consts, theta0, _ = _population_theta(scenario)
    law = scenario.error_law()
    V_oracle = _oracle_mm_variance(law, consts)
    n = scenario.sizes[0]
    q = scenario.q
    q1 = q + 1
    xi0 = theta0[q1:2 * q1]

    results = _run_grid(scenario, (n,))
    per_rep = _theta_rows(results, "xi_mm", slice(q1, 2 * q1))
    summary = {"n": n, "empirical_cov": None, "oracle_cov": V_oracle.tolist(),
               "efficiency_empirical": None, "quantile_stats": None,
               "theta0": [float(v) for v in theta0]}
    ok = [r for r in results if not r["failed"]]
    if len(ok) < 2:
        claims = [Claim(name="normality", passed=None, value=len(ok), threshold=2,
                        detail="insufficient replications")]
        return _report(scenario, results, claims, summary, per_rep)

    mm = np.array([r["theta"][q1:2 * q1] for r in ok])
    ls = np.array([r["ls"] for r in ok])
    scaled = math.sqrt(n) * (mm - xi0)
    emp_cov = scaled.T @ scaled / len(scaled)

    claims = []
    tol = scenario.thresholds["variance_rel_tol"]
    for j in range(q1):
        rel = abs(emp_cov[j, j] - V_oracle[j, j]) / V_oracle[j, j]
        claims.append(Claim(name=f"variance_diag_{j}", passed=bool(rel <= tol),
                            value=rel, threshold=tol))

    # efficiency relative to least squares, slope coordinates at normal errors
    ls_scaled = math.sqrt(n) * (ls - scenario.true_xi())
    eff = float(np.mean([ls_scaled[:, j].var() / scaled[:, j].var()
                         for j in range(q1)[_slope(q)]]))
    target = scenario.thresholds["efficiency_target"]
    etol = scenario.thresholds["efficiency_tol"]
    claims.append(Claim(name="ls_efficiency", passed=bool(abs(eff - target) <= etol),
                        value=eff, threshold=[target - etol, target + etol]))

    # quantile comparison of each standardized coordinate
    deciles = np.arange(0.1, 0.91, 0.1)
    z = special.ndtri(deciles)
    qtol = scenario.thresholds["quantile_tol"]
    qstats = []
    for j in range(q1):
        s = scaled[:, j] / math.sqrt(V_oracle[j, j])
        qemp = np.quantile(s, deciles)
        qstats.append(float(np.abs(qemp - z).max()))
    worst = max(qstats)
    claims.append(Claim(name="quantile_normality", passed=bool(worst <= qtol),
                        value=qstats, threshold=qtol))

    summary.update(empirical_cov=emp_cov.tolist(), efficiency_empirical=eff,
                   quantile_stats=qstats)
    return _report(scenario, results, claims, summary, per_rep)


def _contamination_task(args):
    """One replication of the contamination sweep: a clean fit plus a
    refit for every (fraction, magnitude) pair, sharing the clean data."""
    scenario, rep = args
    n = scenario.sizes[0]
    rng = scenario.stream(rep)
    d = _generate(scenario, n, rng)
    m = scenario.build_model()
    cfg = scenario.fit_config(scenario.fit_seed(rep))
    try:
        clean = fit(d, m, cfg)
        rep_inf = asymptotic_cov(d, m, clean, cfg)
    except (RobustmmError, np.linalg.LinAlgError) as exc:
        return {"rep": rep, "failed": True, "error": f"{type(exc).__name__}: {exc}"}
    slope = _slope(m.q)
    clean_slope = clean.xi_mm.as_array()[slope]
    se_norm = float(np.linalg.norm(rep_inf.std_errors[slope]))

    contam_order = rng.permutation(n)
    deviations = {}
    for eps in scenario.contamination_fractions:
        n_bad = int(math.ceil(eps * n))
        idx = contam_order[:n_bad]
        for mag in scenario.outlier_magnitudes:
            y_bad = d.y.copy()
            if n_bad:
                y_bad[idx] = mag
            try:
                dirty = fit(Dataset(x=d.x, y=y_bad), m, cfg)
                dev = float(np.linalg.norm(dirty.xi_mm.as_array()[slope]
                                           - clean_slope))
            except (RobustmmError, np.linalg.LinAlgError):
                dev = float("inf")
            deviations[(eps, mag)] = dev
    return {"rep": rep, "failed": False, "se_norm": se_norm,
            "deviations": deviations}


def run_contamination(scenario: SimScenario) -> SimReport:
    """Bounded-deviation sweep over contamination fractions and outlier
    magnitudes, with the no-contamination case refitting identically."""
    tasks = [(scenario, rep) for rep in range(scenario.replications)]
    results = _parallel_map(_contamination_task, tasks)
    ok = [r for r in results if not r["failed"]]

    claims = []
    per_rep = []
    worst_multiple = 0.0
    mags = sorted(scenario.outlier_magnitudes)
    growth_worst = 0.0 if len(mags) >= 2 else None
    if ok:
        for r in ok:
            for (eps, mag), dev in r["deviations"].items():
                per_rep.append({"rep": r["rep"], "fraction": eps,
                                "magnitude": mag, "slope_deviation": dev,
                                "clean_se_norm": r["se_norm"]})
            worst_multiple = max(worst_multiple,
                                 max(dev / r["se_norm"]
                                     for dev in r["deviations"].values()))
            if growth_worst is not None:
                for eps in scenario.contamination_fractions:
                    lo_dev = r["deviations"][(eps, mags[-2])]
                    hi_dev = r["deviations"][(eps, mags[-1])]
                    growth = hi_dev / lo_dev if lo_dev > 1e-12 else 1.0
                    growth_worst = max(growth_worst, growth)

        cap = scenario.thresholds["se_multiple_max"]
        claims.append(Claim(name="max_deviation_vs_clean_se",
                            passed=bool(worst_multiple < cap),
                            value=worst_multiple, threshold=cap))
        gcap = scenario.thresholds["magnitude_growth_max"]
        if growth_worst is None:
            passed, detail = None, "needs two magnitudes"
        else:
            passed = bool(growth_worst <= gcap)
            detail = f"magnitudes {mags[-2]:g} to {mags[-1]:g}"
        claims.append(Claim(name="deviation_growth_large_magnitudes",
                            passed=passed, value=growth_worst, threshold=gcap,
                            detail=detail))
    summary = {"n": scenario.sizes[0], "worst_se_multiple": worst_multiple,
               "worst_magnitude_growth": growth_worst}
    return _report(scenario, results, claims, summary, per_rep)


_RUNNERS = {
    "consistency": run_consistency,
    "expansion": run_expansion_check,
    "normality": run_normality,
    "contamination": run_contamination,
}


def run_scenario(scenario: SimScenario) -> SimReport:
    return _RUNNERS[scenario.kind](scenario)
