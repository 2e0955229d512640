import functools
import math
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from logigof import statistics
from logigof.estimation import Method, ScaledResiduals, fit_moments, scaled_residuals
from logigof.logistic_core import RngStream, sample
from logigof.montecarlo import (AlternativeSpec, McConfig, StatSpec, calibrate,
                                local_power_curve, simulate_statistics)
from logigof.statistics import (DomainError, NumericOverflowError, WeightSpec,
                                covariance_kernel, delta_alternative, edf_stats,
                                gauss_weighted_integral, h_func, kappa,
                                moment_identities, r_stat, s_stat,
                                s_stat_quadrature, t_stat_closed,
                                t_stat_quadrature)
from oracles import (imhof_tail, limit_eigenvalues, limit_mean, local_drift, quad_delta,
                     quad_delta_beta, quad_delta_gamma, quad_expect)

residual_vectors = arrays(
    np.float64, st.integers(4, 16),
    elements=st.floats(-8, 8, allow_nan=False, width=64),
).filter(lambda v: v.std() > 1e-3)


def _residuals(values) -> ScaledResiduals:
    return scaled_residuals(np.asarray(values, dtype=float))


def _raw(values) -> ScaledResiduals:
    values = np.asarray(values, dtype=float)
    fit = fit_moments(np.array([-1.0, 1.0]))
    return ScaledResiduals(values=values, fit=fit)


# ---------------------------------------------------------------------------
# weighted-L2 statistic (Gaussian weight)


def test_weight_spec_validation():
    with pytest.raises(DomainError):
        WeightSpec(0.0)
    with pytest.raises(DomainError):
        WeightSpec(-2.0)
    with pytest.raises(DomainError):
        WeightSpec(math.inf)
    # The rate check is T's tuning check: a rate below 1e-100, a bool or
    # text is rejected, as in a StatSpec; None, which T's check reads as its
    # default rate, is no rate either.
    for bad in (1e-200, True, "3", None):
        with pytest.raises(DomainError):
            WeightSpec(bad)


def test_t_stat_at_zero_vector_has_closed_value():
    # With every residual zero the empirical transform is i*t, so the
    # statistic equals n * integral of t^2 exp(-a t^2) = n sqrt(pi)/(2 a^1.5).
    for n in (3, 10):
        for a in (1.0, 3.0, 5.0):
            res = _raw(np.zeros(n))
            expected = n * math.sqrt(math.pi) / (2.0 * a**1.5)
            assert t_stat_closed(res, WeightSpec(a)).value == pytest.approx(
                expected, rel=1e-12)


def test_t_stat_outcome_metadata():
    res = _residuals(sample(25, stream=RngStream(1)))
    out = t_stat_closed(res, WeightSpec(4.0))
    assert out.name == "T"
    assert out.tuning == 4.0
    assert out.n == 25
    assert out.value >= 0.0


def test_t_stat_matches_quadrature_oracle():
    for seed in range(5):
        res = _residuals(sample(12 + seed, stream=RngStream(1000 + seed)))
        for a in (1.0, 3.0, 5.0):
            closed = t_stat_closed(res, WeightSpec(a)).value
            quadrature = t_stat_quadrature(res, WeightSpec(a)).value
            assert closed == pytest.approx(quadrature, rel=1e-9)


@given(residual_vectors, st.sampled_from([0.5, 1.0, 3.0, 5.0, 10.0]))
@settings(max_examples=60, deadline=None)
def test_t_stat_nonnegative(values, a):
    res = _raw(values)
    assert t_stat_closed(res, WeightSpec(a)).value >= -1e-12


@given(residual_vectors)
@settings(max_examples=40, deadline=None)
def test_t_stat_decreasing_in_weight_rate(values):
    res = _raw(values)
    v1 = t_stat_closed(res, WeightSpec(1.0)).value
    v3 = t_stat_closed(res, WeightSpec(3.0)).value
    v5 = t_stat_closed(res, WeightSpec(5.0)).value
    assert v1 >= v3 >= v5


def test_t_stat_exactly_permutation_invariant():
    values = sample(30, stream=RngStream(2))
    res = _raw(values)
    shuffled = _raw(np.random.default_rng(0).permutation(values))
    assert t_stat_closed(res, WeightSpec(3.0)).value == \
        t_stat_closed(shuffled, WeightSpec(3.0)).value


def test_t_stat_affine_invariant_through_fitting():
    x = sample(35, stream=RngStream(44))
    v1 = t_stat_closed(scaled_residuals(x), WeightSpec(3.0)).value
    v2 = t_stat_closed(scaled_residuals(7.0 - 0.3 * x), WeightSpec(3.0)).value
    # The fitted scale is sign-less, and the statistic is symmetric under
    # reflecting the residuals, so a negative-slope map leaves it unchanged.
    assert v1 == pytest.approx(v2, rel=1e-10)


def test_gauss_weighted_integral_on_known_integrals():
    # integral exp(-a t^2) dt and integral t^2 exp(-a t^2) dt.
    for a in (0.5, 3.0):
        v0 = gauss_weighted_integral(lambda t: np.ones_like(t), a)
        v2 = gauss_weighted_integral(lambda t: t * t, a)
        assert v0 == pytest.approx(math.sqrt(math.pi / a), rel=1e-12)
        assert v2 == pytest.approx(math.sqrt(math.pi / a) / (2 * a), rel=1e-11)


@pytest.mark.filterwarnings("error")
def test_t_quadrature_converges_on_wide_t3_samples():
    # Residual spans of these t(3) samples reach ~58, where the oracle needs
    # more than 240 Gauss-Hermite nodes; refinement must stay on node counts
    # whose weights are finite, with no numpy warning on the way.
    from logigof.montecarlo import AlternativeSpec

    alt = AlternativeSpec("t", (3,))
    spans = []
    for r in range(20):
        res = scaled_residuals(alt.sample(2000, RngStream(11, r)))
        spans.append(np.ptp(res.values))
        assert t_stat_quadrature(res).value == pytest.approx(
            t_stat_closed(res).value, rel=1e-12)
    assert max(spans) > 55.0


# ---------------------------------------------------------------------------
# process kernel and asymptotic covariance


def test_kappa_special_values():
    for t in (-2.0, -0.5, 0.0, 1.0, 4.0):
        assert kappa(t, 0.0) == pytest.approx(-t, abs=1e-14)
    for x in (-3.0, 0.7, 11.0):
        assert kappa(0.0, x) == pytest.approx(-math.tanh(x / 2.0), rel=1e-12)


def test_kappa_centered_under_null():
    # The defining property: E[kappa(t, X)] = 0 when X is standard logistic.
    from logigof.logistic_core import pdf
    for t in (0.3, 1.0, 2.5):
        total, _ = scipy.integrate.quad(
            lambda x, t=t: kappa(t, x) * pdf(x), -np.inf, np.inf)
        assert abs(total) < 1e-9


def test_h_func_special_values():
    for t in (-1.0, 0.0, 0.7, 2.0):
        assert h_func(t, 0.0) == pytest.approx(t * t + 0.5, rel=1e-12)


def test_h_func_is_negative_x_derivative_of_kappa():
    eps = 1e-6
    for t in (0.4, 1.3):
        for x in (-2.0, -0.3, 0.9, 3.1):
            fd = (kappa(t, x + eps) - kappa(t, x - eps)) / (2 * eps)
            assert h_func(t, x) == pytest.approx(-fd, rel=1e-7, abs=1e-9)


def test_h_func_matches_location_scale_sensitivity():
    # Shifting location by d moves kappa(t, y) to kappa(t, y - d); its
    # derivative at d=0 recovers h, which is how the estimated parameters
    # enter the asymptotic expansion.
    eps = 1e-6
    t, y = 0.8, 1.7
    fd = (kappa(t, y - eps) - kappa(t, y + eps)) / (2 * eps)
    assert fd == pytest.approx(h_func(t, y), rel=1e-7)


def test_moment_identities_exact():
    i1, i2, i3, i4 = moment_identities()
    assert i1 == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert i2 == pytest.approx(math.log(2.0) / 3.0 - 1.0 / 12.0, abs=1e-10)
    assert i3 == pytest.approx(1.0 / 6.0, abs=1e-10)
    assert i4 == pytest.approx(2.0 * math.log(2.0) / 3.0 + 1.0 / 12.0, abs=1e-10)


def test_moment_identities_match_closed_forms_to_rounding():
    exact = (1.0 / 3.0, math.log(2.0) / 3.0 - 1.0 / 12.0, 1.0 / 6.0,
             2.0 * math.log(2.0) / 3.0 + 1.0 / 12.0)
    for got, want in zip(moment_identities(), exact):
        assert abs(got - want) <= 4e-15


@pytest.mark.parametrize("method", [Method.MOMENTS, Method.MAX_LIKELIHOOD])
def test_covariance_kernel_matches_the_quadrature_oracle(method, monkeypatch):
    points = [(0.5, 1.0), (3.0, 0.7), (6.0, 6.0)]
    fixed_rule = [covariance_kernel(s, t, method) for s, t in points]
    monkeypatch.setattr(statistics, "_expect", quad_expect)
    for (s, t), value in zip(points, fixed_rule):
        assert value == pytest.approx(covariance_kernel(s, t, method), rel=1e-13, abs=1e-12)


# K at four points, recorded from the twelve-expectation expansion that the
# summand form E[L_s L_t] replaced; K(0, t) is zero by ML in exact arithmetic.
KERNEL_PINS = {
    Method.MOMENTS: {(0.5, 1.0): 0.5593267254845641, (3.0, 0.7): 0.047380170136867995,
                     (6.0, 6.0): 36.33333333342989, (0.0, 1.0): 0.10819914154490641},
    Method.MAX_LIKELIHOOD: {(0.5, 1.0): 0.29626006068955346,
                            (3.0, 0.7): 0.03428790541192359,
                            (6.0, 6.0): 36.33333333324265, (0.0, 1.0): 5.551115123125783e-17},
}


@pytest.mark.parametrize("method", [Method.MOMENTS, Method.MAX_LIKELIHOOD])
def test_covariance_kernel_matches_its_recorded_values(method):
    for (s, t), want in KERNEL_PINS[method].items():
        got = covariance_kernel(s, t, method)
        assert type(got) is float
        assert abs(got - want) <= 1e-14 * max(1.0, abs(want))


def test_covariance_kernel_symmetry_and_positivity():
    for method in (Method.MOMENTS, Method.MAX_LIKELIHOOD):
        k_st = covariance_kernel(0.5, 1.0, method)
        k_ts = covariance_kernel(1.0, 0.5, method)
        assert k_st == pytest.approx(k_ts, rel=1e-9)
        assert covariance_kernel(0.8, 0.8, method) > 0.0
        # 2x2 Gram matrix of the Gaussian limit must be PSD.
        gram = np.array([[covariance_kernel(0.5, 0.5, method), k_st],
                         [k_st, covariance_kernel(1.0, 1.0, method)]])
        assert np.linalg.eigvalsh(gram).min() > -1e-10
        # A 40x40 grid in one call: the scalar values, symmetric and PSD.
        t = np.linspace(0.0, 4.0, 40)
        grid = covariance_kernel(t, t, method)
        assert grid.shape == (40, 40)
        scalar = np.array([[covariance_kernel(u, v, method) for v in t] for u in t])
        assert np.all(np.abs(grid - scalar) <= 1e-13 * np.maximum(1.0, np.abs(scalar)))
        np.testing.assert_array_equal(grid, grid.T)
        assert np.linalg.eigvalsh(grid).min() >= -1e-12


@pytest.mark.parametrize("method", [Method.MOMENTS, Method.MAX_LIKELIHOOD])
def test_covariance_grid_is_one_gram_product(method, monkeypatch):
    # A 160x160 grid keeps the summands on the nodes, not their 160*160
    # elementwise products over 384 nodes per sign (80 MB), and agrees with
    # those products reduced by _expect; entries that cancel are compared on
    # the scale of 1.
    import tracemalloc

    s, t = np.linspace(0.0, 4.0, 160), np.linspace(0.1, 6.0, 160)
    covariance_kernel(0.5, 1.0, method)
    tracemalloc.start()
    try:
        k = covariance_kernel(s, t, method)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5e6
    expect = statistics._expect

    def elementwise(fun, right=None):
        if right is None:
            return expect(fun)
        return expect(lambda x: fun(x)[:, None] * right(x)[None, :])

    monkeypatch.setattr(statistics, "_expect", elementwise)
    want = covariance_kernel(s, t, method)
    assert np.all(np.abs(k - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("method", [Method.MOMENTS, Method.MAX_LIKELIHOOD])
def test_mean_of_t_approaches_its_null_limit(method):
    # E[T_inf] = integral of K(t, t) exp(-3 t^2) dt is 0.2568 by moments and
    # 0.1256 by ML; the engine's mean of T:3 at n = 1000 lies within 4 SE.
    limit = limit_mean(method)
    cfg = McConfig(reps=2000, seed=8, workers=2, method=method)
    values, failures = simulate_statistics([StatSpec("T", 3)], 1000, cfg)
    t = values[0][~np.isnan(values[0])]
    se = float(np.std(t, ddof=1)) / math.sqrt(t.size)
    assert failures == 0
    assert abs(float(np.mean(t)) - limit) <= 4.0 * se, (float(np.mean(t)), se, limit)


@pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("method", [Method.MOMENTS, Method.MAX_LIKELIHOOD])
def test_critical_value_of_t_approaches_its_null_limit(method):
    # T_inf is sum_j lambda_j chi^2_1 over the eigenvalues of K, whose sum is
    # E[T_inf]; its 0.95 quantile, 0.7356 by moments and 0.3522 by ML, lies
    # within 3 SE of the engine's 5% critical value of T:3 at n = 1000.
    lam = limit_eigenvalues(method)
    assert abs(float(np.sum(lam)) - limit_mean(method)) <= 1e-9
    cfg = McConfig(reps=2000, seed=8, workers=2, method=method)
    (row,) = calibrate([StatSpec("T", 3)], 1000, [0.05], cfg).rows
    assert imhof_tail(lam, row.value - 3.0 * row.mc_std_error) >= 0.05
    assert imhof_tail(lam, row.value + 3.0 * row.mc_std_error) <= 0.05


LOGNORMAL_HALF = AlternativeSpec("lognormal", (0.5,))


@functools.lru_cache(maxsize=None)
def _local_limit(method):
    """T:3's null eigenvalues lambda_j and the b_j^2, b = U^T (sqrt(v) mu),
    of its local limit sum_j lambda_j (N_j + delta b_j / sqrt(lambda_j))^2
    along the mixtures (1 - delta/sqrt(n)) logistic + (delta/sqrt(n))
    lognormal(0.5); its noncentralities are delta^2 b_j^2."""
    lam, u = limit_eigenvalues(method, vectors=True)
    v = statistics._hermgauss(60)[1] / math.sqrt(3.0)
    b = u.T @ (np.sqrt(v) * local_drift(LOGNORMAL_HALF, method))
    return lam, b * b


@pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("method", [Method.MOMENTS, Method.MAX_LIKELIHOOD])
def test_mean_of_t_along_a_local_mixture_approaches_its_limit(method):
    # At delta = 3 the local limit's mean, sum(lambda) + 9 int mu^2
    # exp(-3 t^2) dt, is 0.8695 by moments and 0.4714 by ML; the engine's
    # mean of T:3 at n = 250 lies within 4 SE.
    lam, b2 = _local_limit(method)
    limit = float(np.sum(lam) + 9.0 * np.sum(b2))
    assert limit == pytest.approx({Method.MOMENTS: 0.8695,
                                   Method.MAX_LIKELIHOOD: 0.4714}[method], abs=1e-4)
    mix = AlternativeSpec("mixture", p=3.0 / math.sqrt(250), contaminant=LOGNORMAL_HALF)
    cfg = McConfig(reps=8000, seed=11, workers=2, method=method)
    values, failures = simulate_statistics([StatSpec("T", 3)], 250, cfg, mix)
    t = values[0][~np.isnan(values[0])]
    se = float(np.std(t, ddof=1)) / math.sqrt(t.size)
    assert failures == 0
    assert abs(float(np.mean(t)) - limit) <= 4.0 * se, (float(np.mean(t)), se, limit)


@pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("method", [Method.MOMENTS, Method.MAX_LIKELIHOOD])
def test_local_power_of_t_approaches_the_noncentral_tail(method):
    # The power of T:3 at 5% along p = delta / sqrt(250), delta = 1, 2, 3,
    # lies within 4 SE of the local limit's tail at the null limit's own 5%
    # critical value: 9.63%, 24.88% and 49.76% by moments, 10.59%, 28.95%
    # and 57.20% by ML.  The tails are taken within 1e-7, which moves them
    # by less than 1e-8 and costs a third of the default 1e-9.
    lam, b2 = _local_limit(method)
    cv = {Method.MOMENTS: 0.7355735, Method.MAX_LIKELIHOOD: 0.3521662}[method]
    assert imhof_tail(lam, cv, 1e-7) == pytest.approx(0.05, abs=1e-6)
    spec, n, deltas = StatSpec("T", 3), 250, (1.0, 2.0, 3.0)
    table = calibrate([spec], n, [0.05], McConfig(reps=10000, seed=8, workers=2, method=method))
    study = McConfig(reps=4000, seed=12, workers=2, method=method)
    rows = local_power_curve(LOGNORMAL_HALF, [d / math.sqrt(n) for d in deltas], [spec], n,
                             study, table)
    for delta, row in zip(deltas, rows):
        limit = 100.0 * imhof_tail(lam, cv, 1e-7, nu=delta**2 * b2)
        assert abs(row.value - limit) <= 4.0 * row.mc_std_error, (delta, row.value,
                                                                  row.mc_std_error, limit)


# ---------------------------------------------------------------------------
# population discrepancy


DELTA_NORMAL_GOLDEN = 0.0014988821170463  # frozen from two independent runs


def test_delta_zero_at_logistic():
    from logigof.montecarlo import AlternativeSpec
    assert abs(delta_alternative(AlternativeSpec("logistic"), WeightSpec(3.0))) \
        <= 1e-10


def test_a_non_finite_outcome_is_an_overflow():
    with pytest.raises(NumericOverflowError, match="^statistic T is not finite$"):
        statistics.TestOutcome("T", 3.0, math.inf, 10)


def test_delta_normal_matches_golden_value():
    from logigof.montecarlo import AlternativeSpec
    value = delta_alternative(AlternativeSpec("normal"), WeightSpec(3.0))
    assert value == pytest.approx(DELTA_NORMAL_GOLDEN, rel=1e-8)


def test_delta_positive_for_common_alternatives():
    from logigof.montecarlo import AlternativeSpec
    for alt in (AlternativeSpec("laplace"), AlternativeSpec("gamma", (2.0,))):
        assert delta_alternative(alt, WeightSpec(3.0)) > 1e-3


def test_delta_rejects_undefined_variance():
    from logigof.montecarlo import AlternativeSpec
    for label in ("cauchy", "t(2)", "mixture(1,cauchy)"):
        with pytest.raises(DomainError):
            delta_alternative(AlternativeSpec.parse(label), WeightSpec(3.0))


def test_delta_of_a_mixture_with_p_0_or_1_is_that_of_the_law_it_draws():
    # mixture(0, c) draws the logistic and mixture(1, c) draws c, whatever
    # the other part's mean or density.
    def delta(label):
        return delta_alternative(AlternativeSpec.parse(label), WeightSpec(3.0))

    assert abs(delta("mixture(0,cauchy)") - delta("logistic")) <= 1e-11
    assert delta("mixture(1,laplace)") == delta("laplace") == pytest.approx(0.0030777, abs=5e-8)


@pytest.mark.parametrize("label", ["t(5)", "gamma(2)", "lognormal(0.5)", "mixture(0.2,laplace)"])
def test_scaled_t_approaches_delta(label):
    # T/n tends to Delta with a bias of order 1/n, which the two-n
    # extrapolation (4 mean(T/800) - mean(T/200)) / 3 removes; it lies within
    # 4 SE of Delta.  The four laws take four different samplers.
    alt = AlternativeSpec.parse(label)
    means, variances = [], []
    for n, reps in ((200, 2000), (800, 1000)):
        values, failures = simulate_statistics([StatSpec("T", 3)], n,
                                               McConfig(reps=reps, seed=3, workers=2), alt)
        assert failures == 0
        means.append(float(np.mean(values[0] / n)))
        variances.append(float(np.var(values[0] / n, ddof=1)) / reps)
    estimate = (4.0 * means[1] - means[0]) / 3.0
    se = math.sqrt(16.0 * variances[1] + variances[0]) / 3.0
    delta = delta_alternative(alt, WeightSpec(3.0))
    assert abs(estimate - delta) <= 4.0 * se, (estimate, se, delta)


@pytest.mark.parametrize("label", ["normal", "laplace", "gamma(2)", "mixture(0.2,laplace)"])
def test_delta_matches_nested_adaptive_quadrature(label):
    # The oracle integrates over t by Gauss-Hermite and, at each node, over
    # the density by adaptive quadrature; Laplace and gamma(2) have a kink
    # or a support end that the fixed rule must cut at.
    from logigof.montecarlo import AlternativeSpec
    alt = AlternativeSpec.parse(label)
    assert delta_alternative(alt, WeightSpec(3.0)) == pytest.approx(quad_delta(alt, 3.0),
                                                                    rel=1e-10)


# Heavy tails that the nested adaptive rule could not resolve; the values
# agree to 11 digits with a trapezoid rule in u on x = 2 sinh u at 600, 1200
# and 2400 nodes.
DELTA_T_GOLDEN = {"t(3)": 1.07665117797e-2, "t(5)": 7.4332115946e-4}


@pytest.mark.parametrize("label", DELTA_T_GOLDEN)
def test_delta_student_t_matches_golden_value(label):
    from logigof.montecarlo import AlternativeSpec
    value = delta_alternative(AlternativeSpec.parse(label), WeightSpec(3.0))
    assert value == pytest.approx(DELTA_T_GOLDEN[label], rel=1e-9)


@pytest.mark.parametrize("left, right", [("chisquare(1)", "gamma(0.5)"),
                                         ("uniform", "uniform(-2,5)")])
def test_delta_is_affine_invariant(left, right):
    # chi-square(1) is gamma(0.5) scaled by 2; both uniforms are standardized
    # to the same law.  The density of gamma(0.5) is infinite at its break.
    from logigof.montecarlo import AlternativeSpec
    values = [delta_alternative(AlternativeSpec.parse(s), WeightSpec(3.0))
              for s in (left, right)]
    assert values[0] == pytest.approx(values[1], rel=1e-12)


def test_delta_at_an_infinite_density_on_an_upper_break():
    # The beta density is infinite at 1 when q < 1.  The nodes next to 1
    # are placed by the law's isf of their offset from u = 1, so none rounds
    # onto it, and no density is evaluated.  The oracle integrates in
    # t = x^p and s = (1 - x)^q, where no integrand is infinite.
    # A law and its mirror image have the same Delta.
    for p, q in ((0.5, 0.5), (2.0, 0.5)):
        value = delta_alternative(AlternativeSpec("beta", (p, q)), WeightSpec(3.0))
        assert value == pytest.approx(quad_delta_beta(p, q), rel=1e-9)
        mirrored = delta_alternative(AlternativeSpec("beta", (q, p)), WeightSpec(3.0))
        assert value == pytest.approx(mirrored, rel=1e-12)
    # gamma(0.5) has its infinite density at its lower break, 0.
    assert delta_alternative(AlternativeSpec("gamma", (0.5,))) == pytest.approx(0.06690, abs=5e-6)


def test_delta_nodes_of_tiny_weight_lie_next_to_the_ends_of_the_support():
    # scipy's beta(0.5, 2) ppf returns 0.5 for u in about (1.7e-16, 4.4e-16);
    # a node there takes its inner neighbour's value, which is near 0.  The
    # other nodes of tiny weight lie next to 1: only a law whose density is
    # infinite at both ends is cut at its mean.
    parts = AlternativeSpec("beta", (0.5, 2.0)).parts()
    for level in range(1, 9):
        x, q = statistics._quantile_nodes(parts, level)
        ends = np.array([0.0, 1.0])
        assert np.all(np.abs(x[q < 1e-12, None] - ends).min(axis=1) < 1e-5)


@pytest.mark.parametrize("shape", [0.01, 0.02])
def test_delta_of_a_u_shaped_beta(shape):
    # beta(0.01, 0.01) puts a quarter of its mass within 1e-30 of 0 and a
    # quarter within 1e-30 of 1, so its quantile function nearly jumps from
    # 0 to 1 at u = 1/2, F of the mean, where the rule cuts (0, 1).
    value = delta_alternative(AlternativeSpec("beta", (shape, shape)), WeightSpec(3.0))
    assert value == pytest.approx(quad_delta_beta(shape, shape), rel=1e-10)


def test_delta_cuts_only_a_u_shaped_law_at_its_mean():
    # The cut doubles a law's nodes: without it t(3) stops at 967 at level 7.
    from logigof.montecarlo import AlternativeSpec
    for label, cut in (("t(3)", False), ("gamma(0.1)", False), ("beta(0.5,2)", False),
                       ("uniform", False), ("beta(1,1)", False),
                       ("beta(0.5,0.5)", True), ("beta(0.01,0.01)", True)):
        (_, law, _), = AlternativeSpec.parse(label).parts()
        assert statistics._u_shaped(law) is cut, label
    x, _ = statistics._quantile_nodes(AlternativeSpec("t", (3,)).parts(), 7)
    assert x.size == 967


@pytest.mark.parametrize("k", [0.02, 0.05, 0.1, 0.5])
def test_delta_of_gamma_with_a_steep_density_at_zero(k):
    # gamma(k) puts mass x^k / Gamma(k + 1) below x: at k = 0.02, 45% of it
    # lies below 4e-18.  The oracle sums the trapezoid rule in log x, where
    # the density is finite, and takes no inverse CDF.
    value = delta_alternative(AlternativeSpec("gamma", (k,)), WeightSpec(3.0))
    assert value == pytest.approx(quad_delta_gamma(k), rel=1e-10)


# Delta by the rule that placed its nodes in x and weighted them by the
# density, cut at the support's ends and kinks, recorded to 17 digits.
# beta(10,2) fails to stabilize if nodes of weight below 1e-30 are inverted.
DELTA_RECORDED = {
    "normal": 0.0014988821170463301,
    "laplace": 0.0030776678385442255,
    "uniform": 0.016864383295153145,
    "t(3)": 0.010766511779691816,
    "t(5)": 0.00074332115946393633,
    "gamma(0.1)": 0.12761586038206993,
    "beta(0.5,0.5)": 0.030417820552454362,
    "beta(0.5,2)": 0.046956391194604416,
    "beta(2,10)": 0.016039117657108859,
    "beta(10,2)": 0.016039117657108845,
    "lognormal(1)": 0.070409035664764238,
    "lognormal(3)": 0.16873853566356239,
    "chisquare(2)": 0.041640791120732164,
    "mixture(0.2,laplace)": 0.00014186682713903629,
    "mixture(0.5,t(3))": 0.0026440688865058005,
}


@pytest.mark.parametrize("label", DELTA_RECORDED)
def test_delta_matches_its_recorded_values(label):
    recorded = DELTA_RECORDED[label]
    value = delta_alternative(AlternativeSpec.parse(label), WeightSpec(3.0))
    assert abs(value - recorded) <= max(1e-10 * abs(recorded), 1e-13), (value, recorded)


def test_delta_memory_is_bounded():
    # H is taken in row blocks of at most _kernels._PAIR_BUDGET pairs, so the
    # peak (0.8 MB) stays far below one whole H at the last level that t(3)
    # needs, 1926^2 doubles, 29.7 MB, and below the 7.5 MB of its 967 nodes
    # without the cut at the mean.
    import tracemalloc

    from logigof.montecarlo import AlternativeSpec
    alt = AlternativeSpec("t", (3,))
    alt.pdf(np.zeros(2))                        # load scipy.stats and the law
    tracemalloc.start()
    try:
        delta_alternative(alt, WeightSpec(3.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6


# ---------------------------------------------------------------------------
# finite-interval statistic


def test_s_stat_at_zero_vector():
    # Transform reduces to t; n * integral_{-1}^{1} t^2 dt = 2n/3.
    for n in (4, 9):
        res = _raw(np.zeros(n))
        assert s_stat(res).value == pytest.approx(2.0 * n / 3.0, rel=1e-12)


def test_s_stat_matches_quadrature_oracle():
    for seed in range(5):
        res = _residuals(sample(10 + 2 * seed, stream=RngStream(2000 + seed)))
        closed = s_stat(res).value
        quadrature = s_stat_quadrature(res).value
        assert closed == pytest.approx(quadrature, rel=1e-9)


def test_s_stat_series_handles_cancelling_pairs():
    # Pairs with Y_j = -Y_k make the pair argument exactly zero, which the
    # direct closed form cannot evaluate; the series branch must take over
    # seamlessly, including nearly-cancelling pairs.
    for delta in (0.0, 1e-9, 1e-5, 0.05):
        values = np.array([1.3, -1.3 + delta, 0.4, -0.2])
        res = _raw(values)
        closed = s_stat(res).value
        oracle = s_stat_quadrature(res).value
        assert closed == pytest.approx(oracle, rel=1e-9), delta


@given(residual_vectors)
@settings(max_examples=40, deadline=None)
def test_s_stat_nonnegative(values):
    assert s_stat(_raw(values)).value >= -1e-12


# ---------------------------------------------------------------------------
# trigonometric-moment statistic


def test_r_stat_validation():
    res = _raw(np.array([0.1, -0.4, 0.2]))
    with pytest.raises(DomainError):
        r_stat(res, 0)
    with pytest.raises(DomainError):
        r_stat(res, -1)


def test_r_stat_matches_high_precision_reference():
    # Independent slow implementation with 50-digit arithmetic.
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    mp.dps = 50

    def reference(values, v):
        n = len(values)
        pi2 = mpmath.pi**2
        total = mp.mpf(0)
        for yj in values:
            for yk in values:
                s = mp.mpf(yj) + mp.mpf(yk)
                sinhc = mpmath.sinh(s) / s if s != 0 else mp.mpf(1)
                total += sinhc / (4 * v**2 * pi2 + s**2)
        first = 4 * v**2 * pi2 / n * total
        second = mp.mpf(0)
        for y in values:
            x = mp.mpf(y)
            for k in range(1, v + 1):
                denom = x**2 + (2 * k - 1)**2 * pi2
                second += (2 * k - 1) * (denom * mpmath.cosh(x)
                                         - 2 * x * mpmath.sinh(x)) / denom**2
        third = n * (2 * v * pi2 / 3
                     + 2 * sum(mp.mpf(v - k) / k**2 for k in range(1, v)))
        return float(first - 4 * pi2 * second + third)

    values = [0.83, -1.91, 0.07, 2.44, -0.52]
    res = _raw(np.array(values))
    for v in (1, 2, 3):
        assert r_stat(res, v).value == pytest.approx(reference(values, v),
                                                     rel=1e-11)


def test_s_and_r_raise_past_the_exp_range():
    res = _raw(np.array([0.3, -0.2, 351.0]))
    with pytest.raises(NumericOverflowError):
        s_stat(res)
    with pytest.raises(NumericOverflowError):
        r_stat(res, 1)
    assert np.isfinite(t_stat_closed(res).value)


def test_r_stat_handles_exactly_cancelling_pair():
    res = _raw(np.array([2.0, -2.0, 0.5]))
    value = r_stat(res, 1).value
    assert np.isfinite(value)


def test_r_stat_permutation_invariant():
    values = sample(20, stream=RngStream(3))
    a = r_stat(_raw(values), 2).value
    b = r_stat(_raw(values[::-1].copy()), 2).value
    assert a == b


# ---------------------------------------------------------------------------
# distribution-function statistics


def _edf_reference(values):
    # Independent implementations straight from the order-statistic formulas.
    u = np.sort(scipy.stats.logistic.cdf(values))
    n = u.size
    j = np.arange(1, n + 1)
    d_plus = np.max(j / n - u)
    d_minus = np.max(u - (j - 1) / n)
    ks = max(d_plus, d_minus)
    cm = 1.0 / (12 * n) + np.sum((u - (2 * j - 1) / (2 * n))**2)
    ad = -n - np.mean((2 * j - 1) * (np.log(u) + np.log(1 - u[::-1])))
    wa = cm - n * (u.mean() - 0.5)**2
    return {"KS": ks, "CM": cm, "AD": ad, "WA": wa}


def test_edf_stats_match_reference_formulas():
    res = _residuals(sample(40, stream=RngStream(4)))
    expected = _edf_reference(res.values)
    outcomes = edf_stats(res)
    assert set(outcomes) == {"KS", "CM", "AD", "WA"}
    for name, out in outcomes.items():
        assert out.value == pytest.approx(expected[name], rel=1e-12), name
        assert out.name == name
        assert out.n == res.n


def test_ks_cm_match_library_implementations():
    res = _residuals(sample(60, stream=RngStream(5)))
    outcomes = edf_stats(res)
    ks_ref = scipy.stats.kstest(res.values, scipy.stats.logistic.cdf).statistic
    cm_ref = scipy.stats.cramervonmises(res.values,
                                        scipy.stats.logistic.cdf).statistic
    assert outcomes["KS"].value == pytest.approx(ks_ref, rel=1e-12)
    assert outcomes["CM"].value == pytest.approx(cm_ref, rel=1e-12)


def test_edf_warns_when_probabilities_clamp():
    # The logistic CDF leaves [1e-15, 1 - 1e-15] at |y| ~ 34.54 on either side.
    res = _raw(np.array([0.0, 0.5, -0.25, 800.0, -34.54, 34.54]))
    with pytest.warns(RuntimeWarning, match=r"^3 probability value\(s\) clamped"):
        edf_stats(res)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        edf_stats(_raw(np.array([-34.5, -34.0, 0.0, 34.0, 34.5])))


@given(residual_vectors)
@settings(max_examples=40, deadline=None)
def test_edf_ranges(values):
    outcomes = edf_stats(_raw(values))
    assert 0.0 <= outcomes["KS"].value <= 1.0
    assert outcomes["CM"].value >= 1.0 / (12 * values.size) - 1e-12
    assert outcomes["WA"].value <= outcomes["CM"].value + 1e-12
