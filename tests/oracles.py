"""Scalar reference implementations that the vectorised code is checked
against: the per-sample damped Newton ML fit and the adaptive-quadrature
expectation under the standard logistic law."""

import math

import numpy as np

from logigof.estimation import SQRT3_OVER_PI, ConvergenceError
from logigof.logistic_core import pdf


def _loglik(x, mu, sigma):
    z = (x - mu) / sigma
    az = np.abs(z)
    return float(np.sum(-az - 2.0 * np.log1p(np.exp(-az))) - x.size * math.log(sigma))


def _equations(x, mu, sigma):
    z = (x - mu) / sigma
    t = np.tanh(z / 2.0)
    return np.array([-0.5 * float(np.sum(t)), float(np.sum(z * t)) - x.size])


def _newton(x, mu, sigma, max_iter, tol):
    for iteration in range(1, max_iter + 1):
        f = _equations(x, mu, sigma)
        if np.max(np.abs(f)) <= tol:
            return mu, sigma, iteration - 1
        z = (x - mu) / sigma
        t = np.tanh(z / 2.0)
        c = 1.0 - t * t
        j11 = np.sum(c) / (4.0 * sigma)
        j12 = np.sum(z * c) / (4.0 * sigma)
        j21 = -np.sum(t + z * c / 2.0) / sigma
        j22 = -np.sum(z * t + z * z * c / 2.0) / sigma
        try:
            step = np.linalg.solve(np.array([[j11, j12], [j21, j22]]), -f)
        except np.linalg.LinAlgError:
            raise ConvergenceError("singular Jacobian", last_iterate=(mu, sigma)) from None
        base_ll = _loglik(x, mu, sigma)
        scale = 1.0
        for _ in range(40):
            mu_new, sigma_new = mu + scale * step[0], sigma + scale * step[1]
            if sigma_new > 0 and _loglik(x, mu_new, sigma_new) >= base_ll - 1e-13:
                break
            scale *= 0.5
        else:
            raise ConvergenceError("step halving failed", last_iterate=(mu, sigma))
        mu, sigma = mu_new, sigma_new
    raise ConvergenceError("no convergence", last_iterate=(mu, sigma))


def scalar_fit_mle(x, max_iter=100, tol=1e-10):
    """(mu, sigma, iterations, start) of the one-sample damped Newton fit from
    the moment start, then from the median/MAD start; start is 0 or 1.
    Raises ConvergenceError when both fail."""
    starts = [(float(np.mean(x)), SQRT3_OVER_PI * float(np.std(x)))]
    med = float(np.median(x))
    mad = float(np.median(np.abs(x - med))) / math.log(3.0)
    if mad > 0:
        starts.append((med, mad))
    error = None
    for k, (mu0, sigma0) in enumerate(starts):
        try:
            return (*_newton(x, mu0, sigma0, max_iter, tol), k)
        except ConvergenceError as exc:
            error = exc
    raise error


def quad_expect(fun, epsabs=1e-11):
    """E[fun(X)] for X standard logistic, by adaptive quadrature split at 0."""
    from scipy.integrate import quad

    def integrand(x):
        return fun(x) * pdf(x)

    left = quad(integrand, -np.inf, 0.0, epsabs=epsabs, epsrel=1e-12, limit=400)
    right = quad(integrand, 0.0, np.inf, epsabs=epsabs, epsrel=1e-12, limit=400)
    return left[0] + right[0]
