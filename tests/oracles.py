"""Reference implementations that the production code is checked against:
the per-sample damped Newton ML fit, the adaptive-quadrature expectation
under the standard logistic law, logistic draws by inversion of a
Generator's uniforms, and the discrepancy Delta by nested adaptive
quadrature."""

import math

import numpy as np

from logigof.estimation import SQRT3_OVER_PI, ConvergenceError
from logigof.logistic_core import DomainError, pdf
from logigof.statistics import (_HERMITE_NODE_COUNTS, QuadratureError,
                                _hermgauss)


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
        # The margin grows with |log-likelihood|: near the optimum a step
        # gains less than one ulp of it, and rounding decides its sign.
        floor = base_ll - (1e-13 + 8.0 * np.finfo(float).eps * abs(base_ll))
        scale = 1.0
        for _ in range(40):
            mu_new, sigma_new = mu + scale * step[0], sigma + scale * step[1]
            if sigma_new > 0 and _loglik(x, mu_new, sigma_new) >= floor:
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


def draw_logistic(gen, n, mu=0.0, sigma=1.0):
    """n draws of L(mu, sigma) by inversion of ``gen.integers(0, 2**53)``
    uniforms centred in their bins, strictly inside (0, 1)."""
    u = (gen.integers(0, 2**53, size=n).astype(np.float64) + 0.5) * 2.0**-53
    return mu + sigma * (np.log(u) - np.log1p(-u))


def _effective_support(density, tail=1e-16):
    """Symmetric interval outside which the standardized density is below
    ``tail`` (expanded by doubling, so light tails stay cheap)."""
    r = 30.0
    while r <= 2.0e4:
        if float(density(-r)) < tail and float(density(r)) < tail:
            return -r, r
        r *= 2.0
    raise QuadratureError("no effective support below 2e4 found")


def quad_delta(alt, a=3.0):
    """Delta of ``statistics.delta_alternative`` as the weighted integral over
    t of |E[(it - tanh(Y/2)) exp(itY)]|^2: the four trigonometric moments by
    one adaptive ``quad_vec`` pass over the effective support for all
    Gauss-Hermite nodes t, refined until two node counts agree to 1e-9."""
    from scipy.integrate import quad_vec

    mean = float(alt.mean())
    std = float(alt.std())
    if not (math.isfinite(mean) and math.isfinite(std) and std > 0):
        raise DomainError("alternative must have a finite mean and positive finite variance")
    c = std * math.sqrt(3.0) / math.pi

    def q(y):
        return alt.pdf(mean + c * y) * c

    lo, hi = _effective_support(q)

    def g_squared(ts):
        def moment_rows(y):
            ty = ts * y
            cos, sin = np.cos(ty), np.sin(ty)
            m = math.tanh(y / 2.0)
            return q(y) * np.concatenate([cos, sin, m * cos, m * sin])

        rows, _ = quad_vec(moment_rows, lo, hi, epsabs=1e-13, epsrel=1e-11, limit=2000)
        e_cos, e_sin, e_mcos, e_msin = np.split(rows, 4)
        re = -(ts * e_sin + e_mcos)
        im = ts * e_cos - e_msin
        return re * re + im * im

    previous = None
    for k in _HERMITE_NODE_COUNTS:
        rule = _hermgauss(k)
        if rule is None:
            break
        nodes, weights = rule
        value = float(np.dot(weights, g_squared(nodes / math.sqrt(a)))) / math.sqrt(a)
        if previous is not None and abs(value - previous) <= max(1e-9 * abs(value), 1e-12):
            return value
        previous = value
    raise QuadratureError("Gauss-Hermite refinement did not stabilize")
