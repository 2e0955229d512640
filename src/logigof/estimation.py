"""Parameter estimation for the logistic family and the scaled residuals that
every test statistic consumes.

Two estimators are provided: method of moments (sample mean plus a rescaled
standard deviation) and maximum likelihood (damped Newton on the two
likelihood equations, run on every row of a batch at once; one sample is a
batch of one).  Both are equivariant under x -> b*x + c, b > 0, which
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
        raise DomainError(f"unknown estimation method: {text!r}")


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


def _loglik(x: np.ndarray, mu: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    z = (x - mu[:, None]) / sigma[:, None]
    # log f = -|z| - 2*log1p(exp(-|z|)) - log sigma  (stable for both tails)
    az = np.abs(z)
    return np.sum(-az - 2.0 * np.log1p(np.exp(-az)), axis=1) - x.shape[1] * np.log(sigma)


def _likelihood_equations(x: np.ndarray, mu, sigma) -> np.ndarray:
    """Residuals of the two likelihood equations at (mu, sigma).

    With z_j = (x_j - mu)/sigma these are sum(1/(1+exp(z_j))) - n/2 = 0 and
    sum(z_j * tanh(z_j/2)) - n = 0, i.e. the stationarity of the
    log-likelihood in mu and sigma.  The first is evaluated in the equal form
    -sum(tanh(z_j/2))/2, since 1/(1+exp(z)) = (1 - tanh(z/2))/2; it has no
    cancellation against n/2.  On (R, n) rows with (R, 1) parameters: (2, R).
    """
    z = (x - mu) / sigma
    t = np.tanh(z / 2.0)
    return np.array([-0.5 * np.sum(t, axis=-1), np.sum(z * t, axis=-1) - x.shape[-1]])


def fit_mle(data, max_iter: int = 100, tol: float = 1e-10) -> FitResult:
    """Maximum-likelihood fit of one sample: ``fit_mle_batch`` on a batch of
    one.  Non-convergence raises ConvergenceError carrying the last iterate."""
    x = _checked_data(data)
    mu, sigma, iterations, converged = (v[0] for v in fit_mle_batch(x[None, :], max_iter, tol))
    if not converged:
        raise ConvergenceError("maximum-likelihood fit did not converge",
                               last_iterate=(float(mu), float(sigma)))
    return FitResult(float(mu), float(sigma), Method.MAX_LIKELIHOOD, int(iterations))


def fit_mle_batch(x: np.ndarray, max_iter: int = 100, tol: float = 1e-10):
    """ML fits of every row of x, shape (R, n), by damped Newton on all rows
    at once.  Starts at the moment fit and, for the rows where that basin
    fails (moment scale can be inflated by orders of magnitude under heavy
    contamination), retries from a median/MAD start.  Returns (mu, sigma,
    iterations, converged), each of shape (R,); a row that fails from both
    starts (a constant row, or one with NaN or inf) keeps its last iterate
    and reads -1 iterations.
    """
    with np.errstate(all="ignore"):
        fits = _newton(x, np.mean(x, axis=1), SQRT3_OVER_PI * np.std(x, axis=1),
                       max_iter, tol)
        failed = np.flatnonzero(~fits[3])
        med = np.median(x[failed], axis=1)
        # For the logistic law the MAD equals sigma * log(3).
        mad = np.median(np.abs(x[failed] - med[:, None]), axis=1) / math.log(3.0)
        retry = mad > 0
        again = _newton(x[failed[retry]], med[retry], mad[retry], max_iter, tol)
    for full, part in zip(fits, again):
        full[failed[retry]] = part
    return fits


def _newton(x: np.ndarray, mu: np.ndarray, sigma: np.ndarray, max_iter: int, tol: float):
    """Damped Newton from (mu, sigma), updated in place, on each row of x.

    A row stops when both likelihood-equation residuals are below ``tol``,
    checked before each of at most ``max_iter`` steps.  A step that would
    decrease the log-likelihood (or leave the parameter domain) is halved, up
    to 40 times, before the row is given up.  The 2x2 systems are solved in
    closed form, so one singular row does not stop the others.
    """
    iterations = np.full(mu.size, -1)
    active = np.arange(mu.size)
    for iteration in range(max_iter):
        f1, f2 = _likelihood_equations(x[active], mu[active, None], sigma[active, None])
        done = np.maximum(np.abs(f1), np.abs(f2)) <= tol
        iterations[active[done]] = iteration
        active, f1, f2 = active[~done], f1[~done], f2[~done]
        if active.size == 0:
            break
        xa, m, s = x[active], mu[active], sigma[active]
        z = (xa - m[:, None]) / s[:, None]
        t = np.tanh(z / 2.0)
        c = 1.0 - t * t  # sech^2(z/2)
        # Jacobian of (-sum tanh(z/2)/2, sum z*tanh(z/2) - n) in (mu, sigma);
        # d tanh(z/2)/dz = c/2 and dz/dmu = -1/sigma.
        j11 = np.sum(c, axis=1) / (4.0 * s)
        j12 = np.sum(z * c, axis=1) / (4.0 * s)
        j21 = -np.sum(t + z * c / 2.0, axis=1) / s
        j22 = -np.sum(z * t + z * z * c / 2.0, axis=1) / s
        det = j11 * j22 - j12 * j21
        step_mu, step_sigma = (j12 * f2 - j22 * f1) / det, (j21 * f1 - j11 * f2) / det
        base_ll = _loglik(xa, m, s)
        pending = np.arange(active.size)
        for halving in range(40):
            mu_new = m[pending] + 0.5**halving * step_mu[pending]
            sigma_new = s[pending] + 0.5**halving * step_sigma[pending]
            ok = (sigma_new > 0) & (_loglik(xa[pending], mu_new, sigma_new)
                                    >= base_ll[pending] - 1e-13)
            mu[active[pending[ok]]], sigma[active[pending[ok]]] = mu_new[ok], sigma_new[ok]
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
    x = _checked_data(data)
    result = fit(x, method=method)
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
