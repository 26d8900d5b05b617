"""Robust regression with S and MM estimators.

High-breakdown, high-efficiency fitting of linear and nonlinear
regression models with random predictors, plus plug-in influence
functions, sandwich standard errors and a Monte Carlo harness that
checks the estimators' asymptotic behavior at desk scale.
"""

from .estimators import FitConfig, FitResult, fit
from .exceptions import (ConvergenceError, DomainError, FitError,
                         RobustmmError, ScenarioError, SingularityError)
from .inference import (InferenceConstants, InferenceReport, PsiSystem,
                        asymptotic_cov, closed_form_c0_inv, closed_form_d0,
                        closed_form_d0_inv, influence_full, plugin_constants)
from .model import (AugmentedParam, Dataset, RegressionModel,
                    check_identifiability, exp_model, fd_model, linear_model,
                    load_csv, location_model, residuals)
from .montecarlo import (SimReport, SimScenario, load_scenario,
                         run_consistency, run_contamination,
                         run_expansion_check, run_normality, run_scenario)
from .mscale import mscale, mscale_objective
from .rho import (DEFAULT_DELTA, DEFAULT_K0, DEFAULT_K1, RhoFunction, bisquare,
                  custom_rho, k_for_breakdown, k_for_efficiency,
                  rho_from_config, verify_r1)

__version__ = "0.1.0"

__all__ = [
    "AugmentedParam", "ConvergenceError", "Dataset", "DEFAULT_DELTA",
    "DEFAULT_K0", "DEFAULT_K1", "DomainError", "FitConfig", "FitError",
    "FitResult", "InferenceConstants", "InferenceReport", "PsiSystem",
    "RegressionModel", "RhoFunction", "RobustmmError",
    "ScenarioError", "SingularityError", "asymptotic_cov", "bisquare",
    "check_identifiability", "closed_form_c0_inv", "closed_form_d0",
    "closed_form_d0_inv", "custom_rho", "exp_model", "fd_model", "fit",
    "influence_full", "k_for_breakdown", "k_for_efficiency",
    "linear_model", "load_csv", "load_scenario", "location_model", "mscale",
    "mscale_objective", "plugin_constants", "residuals", "rho_from_config",
    "run_consistency", "run_contamination", "run_expansion_check",
    "run_normality", "run_scenario", "SimReport", "SimScenario", "verify_r1",
]
