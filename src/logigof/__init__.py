"""Goodness-of-fit tests for the logistic distribution.

The package provides:

* ``logistic_core`` — density, distribution, quantile, reproducible sampling,
  score and Fisher information for the logistic location-scale family;
* ``estimation`` — moment and maximum-likelihood fitting with scaled
  residuals;
* ``statistics`` — a weighted-L2 statistic built on a characterising
  transform (closed form and quadrature oracle), a finite-interval variant,
  a trigonometric-moment competitor, classical EDF statistics, and the
  asymptotic kernel/discrepancy machinery;
* ``alternatives`` — the alternative laws of size and power studies and
  their reproducible chunked draw;
* ``montecarlo`` — reproducible parallel critical values, power studies,
  contamination power curves, and simulated p-values;
* ``cli`` — the ``logigof`` command-line tool.
"""

from .alternatives import AlternativeSpec
from .estimation import (ConvergenceError, DegenerateSampleError, FitResult,
                         Method, SampleSizeError, ScaledResiduals, fit,
                         fit_mle, fit_moments, scaled_residuals)
from .logistic_core import (STANDARD, DomainError, LogisticParams, RngStream,
                            cdf, pdf, quantile, sample)
from .montecarlo import (CriticalValueTable, McConfig, McError, McRow,
                         StatSpec, calibrate, local_power_curve, power_study,
                         pvalues_simulated)
from .statistics import (NumericOverflowError, QuadratureError, TestOutcome,
                         WeightSpec, covariance_kernel, delta_alternative,
                         edf_stats, h_func, kappa, moment_identities, r_stat,
                         s_stat, s_stat_quadrature, t_stat_closed,
                         t_stat_quadrature)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "DomainError", "LogisticParams", "STANDARD", "RngStream",
    "pdf", "cdf", "quantile", "sample",
    # estimation
    "Method", "FitResult", "ScaledResiduals", "fit", "fit_moments", "fit_mle",
    "scaled_residuals", "ConvergenceError", "DegenerateSampleError",
    "SampleSizeError",
    # statistics
    "WeightSpec", "TestOutcome", "QuadratureError", "NumericOverflowError",
    "t_stat_closed", "t_stat_quadrature", "s_stat", "s_stat_quadrature",
    "r_stat", "edf_stats", "kappa", "h_func", "moment_identities",
    "covariance_kernel", "delta_alternative",
    # monte carlo
    "AlternativeSpec", "StatSpec", "McConfig", "McRow", "McError",
    "CriticalValueTable", "calibrate", "power_study",
    "local_power_curve", "pvalues_simulated",
]
