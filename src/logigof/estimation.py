"""Parameter estimation for the logistic family and the scaled residuals that
every test statistic consumes.

Two estimators are provided: method of moments (sample mean plus a rescaled
standard deviation) and maximum likelihood (damped Newton on the two
likelihood equations).  Both are equivariant under x -> b*x + c, b > 0, which
makes all downstream statistics affine invariant.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .logistic_core import DomainError

SQRT3_OVER_PI = math.sqrt(3.0) / math.pi


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
        raise ValueError(f"unknown estimation method: {text!r}")


@dataclass(frozen=True)
class FitResult:
    mu_hat: float
    sigma_hat: float
    method: Method
    iterations: int = 0
    converged: bool = True


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


def fit_moments(data, unbiased: bool = False) -> FitResult:
    """Moment fit: mu_hat = mean, sigma_hat = (sqrt(3)/pi) * sd.

    The standard deviation uses divisor n by default; ``unbiased=True``
    switches to divisor n - 1.
    """
    x = _checked_data(data)
    mu = float(np.mean(x))
    ddof = 1 if unbiased else 0
    sd = float(np.std(x, ddof=ddof))
    if sd == 0.0:
        raise DegenerateSampleError("zero sample variance")
    return FitResult(mu_hat=mu, sigma_hat=SQRT3_OVER_PI * sd, method=Method.MOMENTS)


def _loglik(x: np.ndarray, mu: float, sigma: float) -> float:
    z = (x - mu) / sigma
    # log f = -|z| - 2*log1p(exp(-|z|)) - log sigma  (stable for both tails)
    az = np.abs(z)
    return float(np.sum(-az - 2.0 * np.log1p(np.exp(-az))) - x.size * math.log(sigma))


def _likelihood_equations(x: np.ndarray, mu: float, sigma: float) -> np.ndarray:
    """Residuals of the two likelihood equations at (mu, sigma).

    With z_j = (x_j - mu)/sigma these are sum(1/(1+exp(z_j))) - n/2 = 0 and
    sum(z_j * tanh(z_j/2)) - n = 0, i.e. the stationarity of the
    log-likelihood in mu and sigma.  The first is evaluated in the equal form
    -sum(tanh(z_j/2))/2, since 1/(1+exp(z)) = (1 - tanh(z/2))/2; it has no
    cancellation against n/2.
    """
    z = (x - mu) / sigma
    t = np.tanh(z / 2.0)
    return np.array([
        -0.5 * float(np.sum(t)),
        float(np.sum(z * t)) - x.size,
    ])


def fit_mle(data, max_iter: int = 100, tol: float = 1e-10) -> FitResult:
    """Maximum-likelihood fit via damped Newton.

    Starts at the moment fit and, should that basin fail (moment scale can be
    inflated by orders of magnitude under heavy contamination), retries from
    a median/MAD start.  Stops when both likelihood-equation residuals are
    below ``tol``.  Steps that would decrease the log-likelihood (or leave
    the parameter domain) are halved; non-convergence raises
    ConvergenceError carrying the last iterate.
    """
    x = _checked_data(data)
    start = fit_moments(x)
    starts = [(start.mu_hat, start.sigma_hat)]
    med = float(np.median(x))
    # For the logistic law the MAD equals sigma * log(3).
    mad = float(np.median(np.abs(x - med))) / math.log(3.0)
    if mad > 0:
        starts.append((med, mad))
    error: ConvergenceError | None = None
    for mu0, sigma0 in starts:
        try:
            return _newton_mle(x, mu0, sigma0, max_iter, tol)
        except ConvergenceError as exc:
            error = exc
    raise error


def _newton_mle(x: np.ndarray, mu: float, sigma: float,
                max_iter: int, tol: float) -> FitResult:
    for iteration in range(1, max_iter + 1):
        f = _likelihood_equations(x, mu, sigma)
        if np.max(np.abs(f)) <= tol:
            return FitResult(mu, sigma, Method.MAX_LIKELIHOOD,
                             iterations=iteration - 1, converged=True)
        z = (x - mu) / sigma
        t = np.tanh(z / 2.0)
        c = 1.0 - t * t  # sech^2(z/2)
        # Jacobian of (-sum tanh(z/2)/2, sum z*tanh(z/2) - n) in (mu, sigma);
        # d tanh(z/2)/dz = c/2 and dz/dmu = -1/sigma.
        j11 = np.sum(c) / (4.0 * sigma)
        j12 = np.sum(z * c) / (4.0 * sigma)
        j21 = -np.sum(t + z * c / 2.0) / sigma
        j22 = -np.sum(z * t + z * z * c / 2.0) / sigma
        jac = np.array([[j11, j12], [j21, j22]])
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            raise ConvergenceError("singular Jacobian in likelihood solve",
                                   last_iterate=(mu, sigma)) from None
        base_ll = _loglik(x, mu, sigma)
        scale = 1.0
        for _ in range(40):
            mu_new, sigma_new = mu + scale * step[0], sigma + scale * step[1]
            if sigma_new > 0 and _loglik(x, mu_new, sigma_new) >= base_ll - 1e-13:
                break
            scale *= 0.5
        else:
            raise ConvergenceError("step halving failed to improve the likelihood",
                                   last_iterate=(mu, sigma))
        mu, sigma = mu_new, sigma_new

    raise ConvergenceError(f"no convergence after {max_iter} iterations",
                           last_iterate=(mu, sigma))


def fit(data, method: Method = Method.MOMENTS, unbiased: bool = False) -> FitResult:
    if method is Method.MOMENTS:
        return fit_moments(data, unbiased=unbiased)
    return fit_mle(data)


def scaled_residuals(data, method: Method = Method.MOMENTS,
                     unbiased: bool = False) -> ScaledResiduals:
    """Standardize the sample with the chosen fit: Y_j = (X_j - mu_hat)/sigma_hat."""
    x = _checked_data(data)
    result = fit(x, method=method, unbiased=unbiased)
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
