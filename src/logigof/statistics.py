"""Test statistics for logistic goodness-of-fit, plus the asymptotic objects
that validate them: the process kernel kappa, its derivative h, the limit's
covariance K(s, t) = E[L_s L_t] of the summand L, and the discrepancy Delta.

The primary statistic integrates, against a Gaussian weight exp(-a t^2), the
squared modulus of an empirical transform that vanishes exactly at the
logistic law.  ``t_stat_closed``, ``s_stat``, ``r_stat`` and ``edf_stats``
return the outcomes that ``_evaluate`` makes from the batch kernel on one
sample.  The kernel integrates S and R on fixed Gauss-Legendre
nodes and T by the trapezoid rule at every n; only samples whose span needs
more trapezoid nodes than the kernel's cap sum T's pairwise closed form
(Gaussian integrals evaluated analytically), which is also its oracle in
the tests and the term that ``delta_alternative`` integrates.
``t_stat_quadrature`` (adaptive Gauss-Hermite) and
``s_stat_quadrature`` (adaptive quadrature) evaluate the defining integrals
independently of the kernel and serve as oracles for both.

``moment_identities`` and ``covariance_kernel`` (a matrix for arrays s and
t) integrate on a fixed Gauss-Legendre rule, ``delta_alternative`` on fixed
double-exponential nodes in u = F(x).  Only ``s_stat_quadrature`` imports
scipy, on first call, so importing this module or computing a statistic
loads none.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from ._kernels import NumericOverflowError
from .estimation import Method, ScaledResiduals, psi1, psi2
from .logistic_core import DomainError, expit, pdf

__all__ = [
    "WeightSpec", "TestOutcome", "QuadratureError", "NumericOverflowError",
    "t_stat_closed", "t_stat_quadrature", "kappa", "h_func",
    "moment_identities", "covariance_kernel", "delta_alternative",
    "s_stat", "s_stat_quadrature", "r_stat", "edf_stats",
]


class QuadratureError(RuntimeError):
    """A quadrature refinement failed to stabilize at its tolerance."""


@dataclass(frozen=True)
class WeightSpec:
    """Gaussian weight rate: omega_a(t) = exp(-a t^2), for any rate other
    than None that ``_kernels.check_spec`` accepts for T, stored as the float
    it casts."""

    a: float = 3.0

    def __post_init__(self):
        if self.a is None:
            raise DomainError("weight rate must be a number, got None")
        object.__setattr__(self, "a", _kernels.check_spec("T", self.a)[1])


@dataclass(frozen=True)
class TestOutcome:
    name: str
    tuning: Optional[float]
    value: float
    n: int

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise NumericOverflowError(f"statistic {self.name} is not finite")


# ---------------------------------------------------------------------------
# adaptive Gauss-Hermite machinery (for the quadrature oracle of T)


# Node counts tried in turn: doubling up to 240, then steps of 60.  numpy's
# hermgauss loses its weights to overflow from about 380 nodes, so the
# refinement stops at the first count whose nodes or weights are not finite.
_HERMITE_NODE_COUNTS = (15, 30, 60, 120, 240, 300, 360, 420, 480)


@functools.lru_cache(maxsize=16)
def _hermgauss(k: int):
    """Gauss-Hermite nodes and weights of order k, or None where numpy's
    recurrence overflows and they are not all finite."""
    with np.errstate(all="ignore"):
        nodes, weights = np.polynomial.hermite.hermgauss(k)
    if not (np.isfinite(nodes).all() and np.isfinite(weights).all()):
        return None
    return nodes, weights


def gauss_weighted_integral(fun, a: float) -> float:
    """integral of fun(t) * exp(-a t^2) dt by Gauss-Hermite with node refinement.

    ``fun`` must be vectorized over t.  Node counts 15, 30, 60, 120, 240,
    300, ... are tried until two successive values agree to 1e-10 relative
    (or 1e-13 near zero); counts whose weights are not finite end the search.
    """
    sqrt_a = math.sqrt(a)
    previous = None
    for k in _HERMITE_NODE_COUNTS:
        rule = _hermgauss(k)
        if rule is None:
            break
        nodes, weights = rule
        value = float(np.dot(weights, fun(nodes / sqrt_a))) / sqrt_a
        if previous is not None and abs(value - previous) <= max(1e-10 * abs(value), 1e-13):
            return value
        previous = value
    raise QuadratureError("Gauss-Hermite refinement did not stabilize")


# ---------------------------------------------------------------------------
# the characterisation statistic


def t_stat_closed(res: ScaledResiduals, w: WeightSpec = WeightSpec()) -> TestOutcome:
    """The characterisation statistic T_{n,a}, by the batch kernel.

    The defining integral is taken by the trapezoid rule on fixed nodes,
    with exp(itY) stepped from node to node by a rotation.  A sample whose
    span needs more nodes than max(32, n) instead sums, over all (j, k)
    pairs, the analytically evaluated Gaussian-weight integral
    sqrt(pi/a) * exp(-(Y_j-Y_k)^2/4a) * [(2a - (Y_j-Y_k)^2)/4a^2 + m_j m_k -
    (Y_j-Y_k)(m_j-m_k)/2a] with m = tanh(Y/2), divided by n.  Agrees with
    ``t_stat_quadrature`` to quadrature accuracy.
    """
    return _evaluate(res, [("T", w.a)])[0]


def _evaluate(res: ScaledResiduals, specs) -> list[TestOutcome]:
    """One TestOutcome per (stat_id, tuning) pair of ``specs``, its tuning
    cast by ``_kernels.check_spec``, from the batch kernel on a batch of
    one.  Raises NumericOverflowError where the kernel set S or R to +inf
    past the exp range, and warns with the count of EDF probabilities that
    it clamped away from 0 and 1."""
    counts = {}
    specs = [_kernels.check_spec(*spec) for spec in specs]
    values = _kernels.evaluate_checked(res.values[None, :], specs, counts)[:, 0]
    if counts["overflow"]:
        raise NumericOverflowError(
            f"residual magnitude {np.max(np.abs(res.values)):.3g} exceeds the "
            "exp-safe range of the statistic")
    if counts["clamped"]:
        warnings.warn(f"{counts['clamped']} probability value(s) clamped away from 0/1",
                      RuntimeWarning, stacklevel=3)
    return [TestOutcome(sid, tuning, float(value), res.n)
            for (sid, tuning), value in zip(specs, values)]


def _t_transform_sq(y: np.ndarray):
    """|empirical transform|^2 as a vectorized function of t."""
    m = np.tanh(y / 2.0)

    def fun(t: np.ndarray) -> np.ndarray:
        phase = np.exp(1j * t[:, None] * y[None, :])
        g = np.mean((1j * t[:, None] - m[None, :]) * phase, axis=1)
        return g.real**2 + g.imag**2

    return fun


def t_stat_quadrature(res: ScaledResiduals, w: WeightSpec = WeightSpec()) -> TestOutcome:
    """Quadrature evaluation of the same statistic; oracle for the closed form."""
    y = np.asarray(res.values, dtype=float)
    value = res.n * gauss_weighted_integral(_t_transform_sq(y), w.a)
    return TestOutcome(name="T", tuning=w.a, value=float(value), n=res.n)


# ---------------------------------------------------------------------------
# process kernel and Taylor helper


def kappa(t, x):
    """Summand kernel of the empirical process behind the statistic.

    kappa(t, x) combines the weight-free integrand terms; it satisfies
    kappa(t, 0) = -t and kappa(0, x) = -tanh(x/2).  Evaluated with logistic
    sigmoids so large |x| cannot overflow.
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    ct, st = np.cos(x * t), np.sin(x * t)
    pos, neg = expit(x), expit(-x)
    out = neg * ((1.0 - t) * ct - (t + 1.0) * st) \
        - pos * ((t + 1.0) * ct + (t - 1.0) * st)
    return float(out) if out.ndim == 0 else out


def h_func(t, x):
    """Negative x-derivative of kappa; the first-order Taylor weight.

    Satisfies h(t, 0) = t^2 + 1/2 and h = -d kappa/dx; used in the limiting
    covariance kernel below.
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    ct, st = np.cos(x * t), np.sin(x * t)
    pos, neg = expit(x), expit(-x)
    out = t * ((t + 1.0) * ct - (t - 1.0) * st) * neg * neg \
        + 2.0 * (t * t + 1.0) * (ct - st) * pos * neg \
        + t * ((t - 1.0) * ct - (t + 1.0) * st) * pos * pos
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# expectations under the standard logistic law


def _expect(fun, right=None):
    """E[fun(X)] for X standard logistic, ``fun`` vectorised over x along its
    last axis: a float for a scalar-valued ``fun``, else an array of its
    leading shape; with ``right``, the Gram matrix E[fun(X)_i right(X)_j] of
    two functions with one leading axis, (fun sqrt(w)) @ (right sqrt(w))^T
    per sign, exactly symmetric for right = fun.  By 16-point Gauss-Legendre
    on the panels of width 2 that cover (0, 48), taken at +-x so that the
    kink of |x| at 0 is a panel edge; the mass beyond 48 is below 1e-20."""
    t, w = _kernels._legendre(16)
    x = (np.arange(1.0, 48.0, 2.0)[:, None] + t).ravel()
    w = np.tile(w, 24) * pdf(x)
    if right is None:
        value = fun(-x) @ w + fun(x) @ w
    else:
        r = np.sqrt(w)
        value = (fun(-x) * r) @ (right(-x) * r).T + (fun(x) * r) @ (right(x) * r).T
    return float(value) if np.ndim(value) == 0 else value


def moment_identities() -> tuple[float, float, float, float]:
    """Four sigmoid-moment expectations under the standard logistic law.

    Returns numeric values of E[expit(-X)^2], E[|X| expit(X) expit(-X)],
    E[expit(X) expit(-X)], E[|X| expit(-X)^2]; their exact values are
    1/3, log(2)/3 - 1/12, 1/6, and 2 log(2)/3 + 1/12.
    """
    first = _expect(lambda x: expit(-x) ** 2)
    second = _expect(lambda x: np.abs(x) * expit(x) * expit(-x))
    third = _expect(lambda x: expit(x) * expit(-x))
    fourth = _expect(lambda x: np.abs(x) * expit(-x) ** 2)
    return first, second, third, fourth


def covariance_kernel(s, t, method: Method = Method.MOMENTS):
    """Covariance K(s, t) = E[L_s(X) L_t(X)], X standard logistic, of the
    limiting Gaussian process of the statistic.  Its summand L_u(x) =
    kappa(u, x) + E[h(u, X)] psi1(x) + E[X h(u, X)] psi2(x) linearises the
    fitted location and scale through ``method``'s influence functions.
    Expectations are on a fixed Gauss-Legendre rule; scalars s and t give a
    float, arrays the (len(s), len(t)) matrix, a Gram product of the
    summands on its nodes that keeps O((len(s) + len(t)) nodes) values.
    """
    def summand(u):
        u = np.asarray(u, dtype=float).reshape(-1, 1)
        eh = _expect(lambda x: h_func(u, x))[:, None]
        exh = _expect(lambda x: x * h_func(u, x))[:, None]
        return lambda x: kappa(u, x) + eh * psi1(x, method) + exh * psi2(x, method)

    k = _expect(summand(s), summand(t))
    return float(k[0, 0]) if np.ndim(s) == np.ndim(t) == 0 else k


# ---------------------------------------------------------------------------
# consistency discrepancy against a fixed alternative


def delta_alternative(alt, w: WeightSpec = WeightSpec()) -> float:
    """Population discrepancy Delta of a fixed alternative distribution
    ``alt``, such as an ``AlternativeSpec``: its finite ``mean()`` and
    ``std()``, and its ``parts()``, each (weight, law with scipy's ``ppf``,
    ``isf``, ``cdf``, ``pdf`` and ``support``, kinks), are all it takes of it.

    The alternative is affinely standardized to mean 0 and variance pi^2/3
    (the limit of moment-fitted residuals), then
    Delta = integral over t of |E[(it - tanh(Y/2)) exp(itY)]|^2 exp(-a t^2);
    zero exactly when the standardized law is standard logistic.  The scaled
    statistic value/n converges to Delta, its V-statistic limit
    sqrt(pi/a) E[h(Y, Y')] with h the pair term of ``t_stat_closed``
    (Baringhaus, Ebner & Henze, AISM 2017).  That double expectation is one
    trapezoid sum q @ H @ q on the nodes of ``_quantile_nodes``, by the
    kernel's ``_pair_total``, which takes H in row blocks of at most
    ``_kernels._PAIR_BUDGET`` pairs.  Its step is halved
    from 1/2 to 1/256 until two values agree to 1e-11, against
    Delta <= sqrt(pi/a) (1 + 1/2a); QuadratureError if they never do.
    """
    mean = float(alt.mean())
    std = float(alt.std())
    if not (math.isfinite(mean) and math.isfinite(std) and std > 0):
        raise DomainError("alternative must have a finite mean and positive finite variance")
    c = std * math.sqrt(3.0) / math.pi
    a = w.a
    previous = None
    with np.errstate(all="ignore"):
        for level in range(1, 9):
            x, q = _quantile_nodes(alt.parts(), level)
            y = (x - mean) / c
            total = _kernels._pair_total(y, np.tanh(y / 2.0), a, q)
            value = math.sqrt(math.pi / a) * float(total)
            if previous is not None and abs(value - previous) <= 1e-11:
                return value
            previous = value
    raise QuadratureError("double-exponential refinement of the discrepancy did not stabilize")


def _u_shaped(law) -> bool:
    """Whether the density of ``law`` is infinite at both ends of a finite
    support, as beta(p, q)'s is for p, q < 1."""
    return all(math.isfinite(end) and math.isinf(law.pdf(end)) for end in law.support())


def _quantile_nodes(parts, level: int) -> tuple:
    """Nodes x and weights q of the double-exponential trapezoid rule
    (Takahasi & Mori, 1974) for E f(X), the sum over ``parts`` of weight
    times the integral of f(F^-1(u)) over the pieces (lo, hi) of (0, 1) cut
    at F(kink), and at F(mean) for a ``_u_shaped`` law.  Nodes crowd at the
    ends of a piece, and a U-shaped law such as beta(0.01, 0.01) has its
    quantile function jump from near 0 to near 1 at F(mean), the middle of
    (0, 1); the cut costs other laws twice the nodes.  The node at
    v = k 2^-level, |v| <= 6, lies (hi - lo) expit(-pi sinh|v|) from lo
    (v < 0) or hi (v >= 0), and its x is ``ppf`` of lo or ``isf`` of 1 - hi
    plus that offset, so none rounds onto an end.  Nodes of weight at most
    1e-30 are skipped.  Quantiles never decrease, so a node that an
    inversion puts past its inner neighbour (scipy's beta ``ppf`` at tiny u)
    takes that neighbour's value."""
    v = np.arange((6 << level) + 1) * 2.0**-level
    share = expit(-math.pi * np.sinh(v))
    weight = math.pi * np.cosh(v) * share * expit(math.pi * np.sinh(v)) * 2.0**-level
    xs, qs = [], []
    for part, law, kinks in parts:
        cuts = (*kinks, law.mean()) if _u_shaped(law) else kinks
        ends = sorted({0.0, *map(law.cdf, cuts), 1.0})
        for lo, hi in zip(ends[:-1], ends[1:]):
            q = part * (hi - lo) * weight
            keep = q > 1e-30
            q, d = q[keep], (hi - lo) * share[keep]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                xs += [np.minimum.accumulate(law.ppf(lo + d[1:])),
                       np.maximum.accumulate(law.isf(1.0 - hi + d))]
            qs += [q[1:], q]
    return np.concatenate(xs), np.concatenate(qs)


# ---------------------------------------------------------------------------
# further statistics


def s_stat(res: ScaledResiduals) -> TestOutcome:
    """Finite-interval (moment generating function based) statistic: n times
    the integral over t in (-1, 1) of the squared empirical transform.

    The integral is taken by Gauss-Legendre at every n.  Its integrand is
    a square, so it does not cancel where the pairwise closed form does.
    """
    return _evaluate(res, [("S", None)])[0]


def s_stat_quadrature(res: ScaledResiduals) -> TestOutcome:
    """Direct 1-D quadrature of the finite-interval statistic (oracle)."""
    from scipy.integrate import quad

    y = np.asarray(res.values, dtype=float)
    m = np.tanh(y / 2.0)

    def integrand(t):
        return np.mean((t - m) * np.exp(t * y)) ** 2

    value, _ = quad(integrand, -1.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=200)
    return TestOutcome(name="S", tuning=None, value=res.n * value, n=res.n)


def r_stat(res: ScaledResiduals, v: int = 1) -> TestOutcome:
    """Moment-generating-function competitor statistic of order v (a
    positive integer; the kernel's spec check rejects anything else):
    R_v = n int_{-1}^{1} sin^2(pi v t) (M_n(t) - pi t / sin(pi t))^2 dt, the
    weighted distance between the residuals' empirical moment generating
    function M_n(t) = mean_j exp(t Y_j) and the standard logistic one."""
    return _evaluate(res, [("R", v)])[0]


def edf_stats(res: ScaledResiduals) -> dict[str, TestOutcome]:
    """Empirical-distribution-function statistics KS, CM, AD and WA.

    Sorted residuals are mapped through the standard logistic CDF; values at
    0 or 1 to machine precision are clamped to [1e-15, 1 - 1e-15] and a
    warning flags how many were clamped.
    """
    return {o.name: o for o in _evaluate(res, [(name, None) for name in _kernels.EDF_IDS])}
