"""Parameter estimation for the logistic family and the scaled residuals that
every test statistic consumes.

Two estimators are provided: method of moments (sample mean plus a rescaled
standard deviation, ``fit_moments_batch`` on every row of a batch at once)
and maximum likelihood (damped Newton on the two likelihood equations, run
on every row of a batch at once from the moment fit, its one start).  One
sample is a batch of one.  Both are equivariant under x -> b*x + c, b > 0,
which makes all downstream statistics affine invariant, and both fit at
every data scale and location: a row whose variance leaves the normal range
is fitted again in units of the power of two of its largest |x|, Newton
solves its steps in units of the power of two of sigma, and the fit stops
at the rounding of its own likelihood equations, so neither a large |mu|
against sigma nor a large n asks for a tolerance it cannot meet.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .logistic_core import DomainError

SQRT3_OVER_PI = math.sqrt(3.0) / math.pi
# Newton's most steps and its tolerance on the likelihood equations, read at
# each call.
MAX_ITER = 100
TOL = 1e-10


class DegenerateSampleError(ValueError):
    """The sample carries no scale information (all values equal)."""


class SampleSizeError(ValueError):
    """Fewer observations than the estimator requires."""


class ConvergenceError(RuntimeError):
    """Iterative fit failed; carries the last iterate for diagnostics."""

    def __init__(self, message: str, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


class Method(enum.Enum):
    MOMENTS = "moments"
    MAX_LIKELIHOOD = "ml"

    @classmethod
    def parse(cls, text: str) -> "Method":
        key = text.strip().lower().replace("_", "").replace("-", "")
        if key in ("moments", "moment", "mom"):
            return cls.MOMENTS
        if key in ("ml", "mle", "maxlikelihood", "maximumlikelihood"):
            return cls.MAX_LIKELIHOOD
        raise DomainError(f"unknown estimation method: {text!r}")


@dataclass(frozen=True)
class FitResult:
    mu_hat: float
    sigma_hat: float
    method: Method
    iterations: int = 0


@dataclass(frozen=True)
class ScaledResiduals:
    """Standardized sample Y_j = (X_j - mu_hat) / sigma_hat with provenance."""

    values: np.ndarray
    fit: FitResult

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.ndim != 1 or self.values.size < 2:
            raise SampleSizeError("residual vector must hold at least 2 values")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("residuals must be finite")

    @property
    def n(self) -> int:
        return self.values.size


def _checked_data(data) -> np.ndarray:
    x = np.asarray(data, dtype=float)
    if x.ndim != 1:
        x = x.ravel()
    if x.size < 2:
        raise SampleSizeError(f"need at least 2 observations, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise DomainError("data must be finite")
    if np.all(x == x[0]):
        raise DegenerateSampleError("all observations are equal; scale is not identifiable")
    return x


def fit_moments_batch(x: np.ndarray, ddof: int = 0):
    """Moment fits of every row of x, shape (R, n): (mu, sigma), each of
    shape (R,), with mu the mean and sigma = (sqrt(3)/pi) * sd, the standard
    deviation taken with divisor n - ddof.

    A row whose variance overflows or falls below the smallest normal
    double (|x| outside about 1e-154 .. 1e154, or a constant row) is fitted
    again on x * 2^-e, where 2^(e-1) <= max|x| < 2^e, and its mu and sigma
    are scaled back by 2^e.  Scaling by a power of two is exact, so the
    residuals (x - mu) / sigma of x * 2^k are bit for bit those of x.  Every
    other row takes one pass.  sigma is 0 on a constant row whose mean is
    exact, and NaN on a row with NaN or inf.
    """
    with np.errstate(all="ignore"):
        mu, var = _mean_var(x, ddof)
        sigma = SQRT3_OVER_PI * np.sqrt(var)
        redo = np.flatnonzero(~(var >= np.finfo(float).tiny) | (var == np.inf))
        if redo.size:
            e = np.frexp(np.max(np.abs(x[redo]), axis=1))[1]
            mu_e, var_e = _mean_var(np.ldexp(x[redo], -e[:, None]), ddof)
            mu[redo] = np.ldexp(mu_e, e)
            sigma[redo] = np.ldexp(SQRT3_OVER_PI * np.sqrt(var_e), e)
    return mu, sigma


def _mean_var(x: np.ndarray, ddof: int):
    mu = np.mean(x, axis=1)
    centered = x - mu[:, None]
    return mu, np.sum(np.square(centered, out=centered), axis=1) / (x.shape[1] - ddof)


def fit_moments(data, unbiased: bool = False) -> FitResult:
    """Moment fit of one sample: ``fit_moments_batch`` on a batch of one.

    The standard deviation uses divisor n by default; ``unbiased=True``
    switches to divisor n - 1.
    """
    mu, sigma = fit_moments_batch(_checked_data(data)[None, :], ddof=int(unbiased))
    return FitResult(mu_hat=float(mu[0]), sigma_hat=float(sigma[0]), method=Method.MOMENTS)


def _loglik(x: np.ndarray, mu: np.ndarray, sigma: np.ndarray):
    """The log-likelihood sum(a_j) - n log sigma of each row, and the size
    sum(|a_j|) + n |log sigma| of its terms, which bounds its rounding."""
    z = (x - mu[:, None]) / sigma[:, None]
    # log f = -|z| - 2*log1p(exp(-|z|)) - log sigma  (stable for both tails)
    az = np.abs(z)
    terms = np.sum(-az - 2.0 * np.log1p(np.exp(-az)), axis=1)
    n_log_sigma = x.shape[1] * np.log(sigma)
    return terms - n_log_sigma, np.abs(n_log_sigma) - terms


def fit_mle(data) -> FitResult:
    """Maximum-likelihood fit of one sample: ``fit_mle_batch`` on a batch of
    one.  Non-convergence raises ConvergenceError carrying the last iterate."""
    x = _checked_data(data)
    mu, sigma, iterations, converged = (v[0] for v in fit_mle_batch(x[None, :]))
    if not converged:
        raise ConvergenceError("maximum-likelihood fit did not converge",
                               last_iterate=(float(mu), float(sigma)))
    return FitResult(float(mu), float(sigma), Method.MAX_LIKELIHOOD, int(iterations))


def fit_mle_batch(x: np.ndarray):
    """ML fits of every row of x, shape (R, n), by damped Newton on all rows
    at once from the moment fit.  Returns (mu, sigma, iterations, converged),
    each of shape (R,); a row that fails (a constant row, or one with NaN or
    inf) keeps its last iterate and reads -1 iterations.

    A row stops, checked before each of at most ``MAX_ITER`` steps, once
    both likelihood-equation residuals are within max(``TOL``, 16 n eps) +
    2n spacing(|mu|)/sigma: the rounding of their n-term sums (``TOL`` below
    n ~ 28000) plus their move when mu, which can be large against sigma,
    moves by about one ulp.  A step that would
    decrease the log-likelihood by more than 1e-13 + 8 eps (sum |a_j| +
    n |log sigma|), a_j the per-observation terms of ``_loglik`` (or that
    would leave the parameter domain), is halved, up to 40 times, before the
    row is given up.  Near the optimum a step gains less than the rounding
    of ll, which is set by the size of its terms, not by |ll|: below
    sigma = 1 the two parts of ll cancel.  The 2x2 systems are solved in
    closed form, so one singular row does not stop the others, in units of
    2^e, where 2^(e-1) <= sigma < 2^e: scaling by a power of two is exact,
    and the determinant then neither under- nor overflows at any sigma.
    """
    mu, sigma = fit_moments_batch(x)
    n, eps = x.shape[1], np.finfo(float).eps
    iterations = np.full(mu.size, -1)
    active = np.arange(mu.size)
    with np.errstate(all="ignore"):
        ll, size = _loglik(x, mu, sigma)  # at each row's iterate, taken from its accepted trial
        for iteration in range(MAX_ITER):
            xa, m, s = x[active], mu[active], sigma[active]
            z = (xa - m[:, None]) / s[:, None]
            t = np.tanh(z / 2.0)
            # The likelihood equations' residuals: sum 1/(1 + e^z) - n/2 as -sum(tanh(z/2))/2,
            # free of cancellation, and sum z tanh(z/2) - n.
            f1, f2 = -0.5 * np.sum(t, axis=1), np.sum(z * t, axis=1) - n
            # 16 n eps: an n-term sum's rounding; |df/dmu| <= n/sigma: f's move over 2 ulps of mu
            slack = max(TOL, 16 * n * eps) + 2 * n * np.spacing(np.abs(m)) / s
            done = np.maximum(np.abs(f1), np.abs(f2)) <= slack
            iterations[active[done]] = iteration
            if done.all():
                break
            active, f1, f2, xa, m, s, z, t = (v[~done] for v in (active, f1, f2, xa, m, s, z, t))
            unit, e = np.frexp(s)  # s = unit * 2^e, 0.5 <= unit < 1
            c = 1.0 - t * t  # sech^2(z/2)
            # 2^e times the Jacobian of (-sum tanh(z/2)/2, sum z*tanh(z/2) - n)
            # in (mu, sigma); d tanh(z/2)/dz = c/2 and dz/dmu = -1/sigma.
            j11 = np.sum(c, axis=1) / (4.0 * unit)
            j12 = np.sum(z * c, axis=1) / (4.0 * unit)
            j21 = -np.sum(t + z * c / 2.0, axis=1) / unit
            j22 = -np.sum(z * t + z * z * c / 2.0, axis=1) / unit
            det = j11 * j22 - j12 * j21
            step_mu = np.ldexp((j12 * f2 - j22 * f1) / det, e)
            step_sigma = np.ldexp((j21 * f1 - j11 * f2) / det, e)
            floor = ll[active] - (1e-13 + 8.0 * eps * size[active])
            pending = np.arange(active.size)
            for halving in range(40):
                mu_new = m[pending] + 0.5**halving * step_mu[pending]
                sigma_new = s[pending] + 0.5**halving * step_sigma[pending]
                ll_new, size_new = _loglik(xa[pending], mu_new, sigma_new)
                ok = (sigma_new > 0) & (ll_new >= floor[pending])
                rows = active[pending[ok]]
                mu[rows], sigma[rows] = mu_new[ok], sigma_new[ok]
                ll[rows], size[rows] = ll_new[ok], size_new[ok]
                pending = pending[~ok]
                if pending.size == 0:
                    break
            active = np.delete(active, pending)
    return mu, sigma, iterations, iterations >= 0


def fit(data, method: Method = Method.MOMENTS, unbiased: bool = False) -> FitResult:
    if method is Method.MOMENTS:
        return fit_moments(data, unbiased=unbiased)
    if unbiased:
        raise DomainError("the n - 1 divisor applies to the moment fit only")
    return fit_mle(data)


def scaled_residuals(data, method: Method = Method.MOMENTS) -> ScaledResiduals:
    """Standardize the sample with the chosen fit: Y_j = (X_j - mu_hat)/sigma_hat."""
    result = fit(data, method=method)
    x = np.asarray(data, dtype=float).ravel()
    return ScaledResiduals(values=(x - result.mu_hat) / result.sigma_hat, fit=result)


def psi1(x, method: Method = Method.MOMENTS):
    """First influence function of the fitted location (per estimator)."""
    arr = np.asarray(x, dtype=float)
    if method is Method.MOMENTS:
        out = arr
    else:
        out = 3.0 * np.tanh(arr / 2.0)
    return float(out) if np.isscalar(x) else out


def psi2(x, method: Method = Method.MOMENTS):
    """Second influence function of the fitted scale (per estimator)."""
    arr = np.asarray(x, dtype=float)
    if method is Method.MOMENTS:
        out = 0.5 * (3.0 * arr**2 / math.pi**2 - 1.0)
    else:
        out = 9.0 / (math.pi**2 + 3.0) * (arr * np.tanh(arr / 2.0) - 1.0)
    return float(out) if np.isscalar(x) else out
