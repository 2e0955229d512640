"""Reference implementations that the production code is checked against:
the per-sample damped Newton ML fit, the adaptive-quadrature expectation
under the standard logistic law, the mean, eigenvalues and tail of T's null
limit, logistic draws by inversion of a Generator's uniforms, and the
discrepancy Delta by nested adaptive quadrature."""

import math

import numpy as np

from logigof.estimation import SQRT3_OVER_PI, ConvergenceError
from logigof.logistic_core import DomainError, pdf
from logigof.statistics import (_HERMITE_NODE_COUNTS, QuadratureError,
                                _hermgauss, covariance_kernel)


def _loglik(x, mu, sigma):
    """The log-likelihood and the size of its terms, which bounds its rounding."""
    z = (x - mu) / sigma
    az = np.abs(z)
    terms = np.sum(-az - 2.0 * np.log1p(np.exp(-az)))
    n_log_sigma = x.size * math.log(sigma)
    return float(terms - n_log_sigma), float(abs(n_log_sigma) - terms)


def _equations(x, mu, sigma):
    z = (x - mu) / sigma
    t = np.tanh(z / 2.0)
    return np.array([-0.5 * float(np.sum(t)), float(np.sum(z * t)) - x.size])


def scalar_fit_mle(x, max_iter=100, tol=1e-10):
    """(mu, sigma, iterations) of the one-sample damped Newton fit from the
    moment start.  It stops when the likelihood equations are within
    max(tol, 16 n eps), the rounding of their n-term sums, plus
    2n spacing(|mu|)/sigma, their move when mu moves by about one ulp.
    Raises ConvergenceError when it fails."""
    mu, sigma = float(np.mean(x)), SQRT3_OVER_PI * float(np.std(x))
    n = x.size
    tol = max(tol, 16 * n * np.finfo(float).eps)
    for iteration in range(max_iter):
        f = _equations(x, mu, sigma)
        if np.max(np.abs(f)) <= tol + 2 * n * np.spacing(abs(mu)) / sigma:
            return mu, sigma, iteration
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
        base_ll, size = _loglik(x, mu, sigma)
        # The margin grows with the size of the log-likelihood's terms: near
        # the optimum a step gains less than their rounding, and rounding
        # decides its sign.
        floor = base_ll - (1e-13 + 8.0 * np.finfo(float).eps * size)
        scale = 1.0
        for _ in range(40):
            mu_new, sigma_new = mu + scale * step[0], sigma + scale * step[1]
            if sigma_new > 0 and _loglik(x, mu_new, sigma_new)[0] >= floor:
                break
            scale *= 0.5
        else:
            raise ConvergenceError("step halving failed", last_iterate=(mu, sigma))
        mu, sigma = mu_new, sigma_new
    raise ConvergenceError("no convergence", last_iterate=(mu, sigma))


def quad_expect(fun, right=None, epsabs=1e-11):
    """E[fun(X)] for X standard logistic, by adaptive quadrature split at 0,
    for each component of a ``fun`` vectorised over x along its last axis:
    a float for a scalar-valued ``fun``, else an array of its leading shape.
    With ``right``, the matrix E[fun(X)_i right(X)_j], as ``_expect`` takes it."""
    from scipy.integrate import quad

    if right is not None:
        return quad_expect(lambda x: fun(x)[:, None] * right(x)[None, :], epsabs=epsabs)
    out = np.empty(np.shape(fun(np.zeros(1)))[:-1])
    for index in np.ndindex(out.shape):
        def integrand(x):
            return fun(np.array([x]))[index][0] * pdf(x)

        left = quad(integrand, -np.inf, 0.0, epsabs=epsabs, epsrel=1e-12, limit=400)
        right = quad(integrand, 0.0, np.inf, epsabs=epsabs, epsrel=1e-12, limit=400)
        out[index] = left[0] + right[0]
    return float(out) if out.ndim == 0 else out


def limit_mean(method, a=3.0, nodes=60):
    """E[T_inf] = integral of K(t, t) exp(-a t^2) dt, the mean of the null
    limit of T, from the diagonal of one ``covariance_kernel`` grid on the
    Gauss-Hermite nodes t = z / sqrt(a)."""
    z, w = _hermgauss(nodes)
    t = z / math.sqrt(a)
    return float(w @ np.diag(covariance_kernel(t, t, method))) / math.sqrt(a)


def limit_eigenvalues(method, a=3.0, nodes=60):
    """The eigenvalues, largest first, of the operator with kernel K on
    L^2(exp(-a t^2) dt), so that T's null limit is sum_j lambda_j chi^2_1:
    those of diag(sqrt v) K diag(sqrt v) for one ``covariance_kernel`` grid
    on the Gauss-Hermite nodes t = z / sqrt(a) with weights v = w / sqrt(a)."""
    z, w = _hermgauss(nodes)
    t, root = z / math.sqrt(a), np.sqrt(w / math.sqrt(a))
    gram = root[:, None] * covariance_kernel(t, t, method) * root[None, :]
    return np.linalg.eigvalsh(gram)[::-1]


def imhof_tail(lam, x, tol=1e-9):
    """P(sum_j lam_j chi^2_1 > x) by Imhof's inversion (Biometrika 1961):
    1/2 + (1/pi) times the integral over u > 0 of sin(theta(u)) / (u rho(u)),
    theta(u) = sum_j arctan(lam_j u) / 2 - x u / 2 and
    rho(u) = prod_j (1 + lam_j^2 u^2)^(1/4).  The part past U adds at most
    1 / (pi k U^k prod_{j <= 2k} sqrt(lam_j)) over the 2k largest positive
    lam_j, so ``quad`` stops at the least U where that bound, for some k, is
    ``tol``, and integrates up to it within ``tol``: an oscillating integrand
    on the whole half-line exhausts its subdivisions."""
    from scipy.integrate import quad

    lam = np.asarray(lam, dtype=float)
    top = np.sort(lam[lam > 0])[::-1]
    k = np.arange(1, top.size + 1) / 2.0
    cutoff = float(np.min(np.exp(-(np.log(math.pi * k * tol)
                                   + np.cumsum(0.5 * np.log(top))) / k)))

    def integrand(u):
        theta = 0.5 * (np.sum(np.arctan(lam * u)) - x * u)
        return math.sin(theta) / (u * math.exp(0.25 * np.sum(np.log1p((lam * u) ** 2))))

    value, _ = quad(integrand, 0.0, cutoff, epsabs=tol, epsrel=0.0, limit=2000)
    return 0.5 + value / math.pi


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
    mean = float(alt.mean())
    std = float(alt.std())
    if not (math.isfinite(mean) and math.isfinite(std) and std > 0):
        raise DomainError("alternative must have a finite mean and positive finite variance")
    c = std * math.sqrt(3.0) / math.pi

    def q(y):
        return alt.pdf(mean + c * y) * c

    lo, hi = _effective_support(q)
    return _hermite_delta(lambda y: (y, q(y)), lo, hi, a)


def quad_delta_beta(p, q, a=3.0):
    """Delta of beta(p, q) as ``quad_delta`` takes it, with X = sin(phi)^2
    for phi in (0, pi/2): the density times dX/dphi is
    2 sin(phi)^(2p - 1) cos(phi)^(2q - 1) / B(p, q), finite at both ends
    for p, q >= 1/2, where the density itself is infinite below 1."""
    from scipy.special import beta

    mean = p / (p + q)
    c = math.sqrt(p * q / ((p + q) ** 2 * (p + q + 1.0))) * math.sqrt(3.0) / math.pi

    def point(phi):
        s, co = math.sin(phi), math.cos(phi)
        return (s * s - mean) / c, 2.0 * s ** (2 * p - 1) * co ** (2 * q - 1) / beta(p, q)

    return _hermite_delta(point, 0.0, math.pi / 2.0, a)


def _hermite_delta(point, lo, hi, a):
    """The integral over t of |E[(it - tanh(Y/2)) exp(itY)]|^2 exp(-a t^2),
    where E is the integral over v in (lo, hi) of g(y) w with (y, w) =
    ``point(v)``: the four trigonometric moments by one adaptive
    ``quad_vec`` pass for all Gauss-Hermite nodes t, refined until two node
    counts agree to 1e-9."""
    from scipy.integrate import quad_vec

    def g_squared(ts):
        def moment_rows(v):
            y, w = point(v)
            ty = ts * y
            cos, sin = np.cos(ty), np.sin(ty)
            m = math.tanh(y / 2.0)
            return w * np.concatenate([cos, sin, m * cos, m * sin])

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
