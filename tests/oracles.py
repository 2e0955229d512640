"""Reference implementations that the production code is checked against:
the per-sample damped Newton ML fit, the adaptive-quadrature expectation
under the standard logistic law, the mean, eigenvalues and tail of T's null
limit, the drift of its local limit along contamination paths, logistic
draws by inversion of a Generator's uniforms, and the discrepancy Delta by
nested adaptive quadrature or, for gamma laws, by the trapezoid rule in
log x."""

import functools
import math

import numpy as np

from logigof._kernels import _pair_total
from logigof.estimation import SQRT3_OVER_PI, ConvergenceError, psi1, psi2
from logigof.logistic_core import DomainError, pdf
from logigof.statistics import (_HERMITE_NODE_COUNTS, QuadratureError, _expect,
                                _hermgauss, covariance_kernel, h_func, kappa)


def _loglik(x, mu, sigma):
    """The log-likelihood and the size of its terms, which bounds its rounding."""
    z = (x - mu) / sigma
    az = np.abs(z)
    terms = np.sum(-az - 2.0 * np.log1p(np.exp(-az)))
    n_log_sigma = x.size * math.log(sigma)
    return float(terms - n_log_sigma), float(abs(n_log_sigma) - terms)


def likelihood_equations(x, mu, sigma):
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
        f = likelihood_equations(x, mu, sigma)
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


def limit_eigenvalues(method, a=3.0, nodes=60, vectors=False):
    """The eigenvalues, largest first, of the operator with kernel K on
    L^2(exp(-a t^2) dt), so that T's null limit is sum_j lambda_j chi^2_1:
    those of diag(sqrt v) K diag(sqrt v) for one ``covariance_kernel`` grid
    on the Gauss-Hermite nodes t = z / sqrt(a) with weights v = w / sqrt(a).
    With ``vectors``, also the matching orthonormal eigenvectors U, column j
    for lambda_j."""
    z, w = _hermgauss(nodes)
    t, root = z / math.sqrt(a), np.sqrt(w / math.sqrt(a))
    gram = root[:, None] * covariance_kernel(t, t, method) * root[None, :]
    lam, u = np.linalg.eigh(gram)
    return (lam[::-1], u[:, ::-1]) if vectors else lam[::-1]


def local_drift(contaminant, method, a=3.0, nodes=60):
    """mu(t) = E_C[L_t(X)] on the Gauss-Hermite nodes t = z / sqrt(a) of
    ``limit_eigenvalues``, with L_t the summand of ``covariance_kernel``:
    along the mixtures (1 - delta/sqrt(n)) logistic + (delta/sqrt(n)) C,
    sqrt(n) times the empirical transform tends to Z(t) + delta mu(t).  E_C
    is scipy ``quad_vec`` over C's density, split at the finite ends of each
    part's support and at its kinks."""
    from scipy.integrate import quad_vec

    t = _hermgauss(nodes)[0][:, None] / math.sqrt(a)
    eh = _expect(lambda x: h_func(t, x))
    exh = _expect(lambda x: x * h_func(t, x))

    def summand(x):
        return (kappa(t[:, 0], x) + eh * psi1(x, method) + exh * psi2(x, method)) \
            * contaminant.pdf(x)

    breaks = {float(v) for _, law, kinks in contaminant.parts()
              for v in (*law.support(), *kinks) if math.isfinite(v)}
    edges = (-math.inf, *sorted(breaks), math.inf)
    return sum(quad_vec(summand, lo, hi, epsabs=1e-13, epsrel=1e-11, limit=2000)[0]
               for lo, hi in zip(edges[:-1], edges[1:]))


def imhof_tail(lam, x, tol=1e-9, nu=None):
    """P(sum_j lam_j (N_j + c_j)^2 > x), N_j iid standard normal, with the
    noncentralities nu_j = lam_j c_j^2 (0 when ``nu`` is None), by Imhof's
    inversion (Biometrika 1961): 1/2 + (1/pi) times the integral over u > 0
    of sin(theta(u)) / (u rho(u)), with
    theta(u) = sum_j [arctan(lam_j u) + nu_j u / (1 + lam_j^2 u^2)] / 2 - x u / 2
    and rho(u) = prod_j (1 + lam_j^2 u^2)^(1/4)
    exp(nu_j lam_j u^2 / (2 (1 + lam_j^2 u^2))).  Past U, the central part
    adds at most 1 / (pi k U^k prod_{j <= 2k} sqrt(lam_j)) over the 2k
    largest positive lam_j, and noncentralities only make rho larger, so
    ``quad`` stops at the least U where that bound, for some k, is ``tol``,
    and integrates up to it within ``tol``: an oscillating integrand on the
    whole half-line exhausts its subdivisions."""
    from scipy.integrate import quad

    lam = np.asarray(lam, dtype=float)
    nu = np.zeros_like(lam) if nu is None else np.asarray(nu, dtype=float)
    top = np.sort(lam[lam > 0])[::-1]
    k = np.arange(1, top.size + 1) / 2.0
    cutoff = float(np.min(np.exp(-(np.log(math.pi * k * tol)
                                   + np.cumsum(0.5 * np.log(top))) / k)))

    def integrand(u):
        s = lam * u
        d = 1.0 + s * s
        theta = 0.5 * (np.sum(np.arctan(s) + nu * u / d) - x * u)
        log_rho = np.sum(0.25 * np.log1p(s * s) + 0.5 * nu * s * u / d)
        return math.sin(theta) / (u * math.exp(log_rho))

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
    return _hermite_delta([(lambda y: (y, q(y)), lo, hi)], a)


def quad_delta_beta(p, q, a=3.0):
    """Delta of beta(p, q) as ``quad_delta`` takes it, in two halves where
    the integrand is finite at every shape, though the density is infinite
    at 0 for p < 1 and at 1 for q < 1: X <= 1/2 in t = X^p, where the
    density times dX/dt is (1 - X)^(q - 1) / (p B(p, q)), and X > 1/2 in its
    mirror s = (1 - X)^q."""
    from scipy.special import beta

    mean = p / (p + q)
    c = math.sqrt(p * q / ((p + q) ** 2 * (p + q + 1.0))) * math.sqrt(3.0) / math.pi

    def lower(t):
        x = t ** (1.0 / p)
        return (x - mean) / c, (1.0 - x) ** (q - 1.0) / (p * beta(p, q))

    def upper(s):
        x = 1.0 - s ** (1.0 / q)
        return (x - mean) / c, x ** (p - 1.0) / (q * beta(p, q))

    return _hermite_delta([(lower, 0.0, 0.5 ** p), (upper, 0.0, 0.5 ** q)], a)


def quad_delta_gamma(k, a=3.0):
    """Delta of gamma(k) as ``statistics.delta_alternative`` takes it, with
    the double expectation summed by ``_pair_total`` on the trapezoid rule in
    w = log x, where the density of w, exp(k w - e^w) / Gamma(k), is finite
    everywhere.  The nodes run from w0 = -40 to log(100 + 10 k); those below
    w0 (x < 4e-18, density exp(k w) / Gamma(k) to within e^-40) sum to one
    geometric series at x = 0.  The step is halved from 0.2 until two values
    agree to 1e-12."""
    c = math.sqrt(k) * math.sqrt(3.0) / math.pi
    w0 = -40.0
    previous, h = None, 0.2
    while h > 1e-3:
        w = w0 + h * np.arange(int((math.log(100.0 + 10.0 * k) - w0) / h) + 1)
        x = np.concatenate([[0.0], np.exp(w)])
        q = h * np.exp(np.concatenate([[k * w0 - math.log(math.expm1(k * h))], k * w - x[1:]])
                       - math.lgamma(k))
        y = (x - k) / c
        value = math.sqrt(math.pi / a) * float(_pair_total(y, np.tanh(y / 2.0), a, q))
        if previous is not None and abs(value - previous) <= 1e-12:
            return value
        previous, h = value, h / 2.0
    raise QuadratureError("trapezoid refinement in log x did not stabilize")


def _hermite_delta(pieces, a):
    """The integral over t of |E[(it - tanh(Y/2)) exp(itY)]|^2 exp(-a t^2),
    where E is the sum over the (point, lo, hi) of ``pieces`` of the
    integral over v in (lo, hi) of g(y) w with (y, w) = ``point(v)``: the
    four trigonometric moments by one adaptive ``quad_vec`` pass per piece
    for all Gauss-Hermite nodes t, refined until two node counts agree to
    1e-9."""
    from scipy.integrate import quad_vec

    def g_squared(ts):
        def moment_rows(point, v):
            y, w = point(v)
            ty = ts * y
            cos, sin = np.cos(ty), np.sin(ty)
            m = math.tanh(y / 2.0)
            return w * np.concatenate([cos, sin, m * cos, m * sin])

        rows = sum(quad_vec(functools.partial(moment_rows, point), lo, hi, epsabs=1e-13,
                            epsrel=1e-11, limit=2000)[0] for point, lo, hi in pieces)
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
