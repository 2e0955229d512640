import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logigof import _kernels, estimation
from logigof.cli import bundled_data_path, load_dataset
from logigof.estimation import (ConvergenceError, DegenerateSampleError,
                                Method, SampleSizeError,
                                _likelihood_equations, _newton, fit, fit_mle,
                                fit_mle_batch, fit_moments, fit_moments_batch,
                                psi1, psi2, scaled_residuals)
from logigof.logistic_core import (STANDARD, DomainError, RngStream,
                                   fisher_info, pdf, sample, score)
from logigof.montecarlo import AlternativeSpec, _residuals_for_chunk
from oracles import scalar_fit_mle

SQRT3_OVER_PI = math.sqrt(3.0) / math.pi


def test_method_parse():
    assert Method.parse("moments") is Method.MOMENTS
    assert Method.parse("MOM") is Method.MOMENTS
    assert Method.parse("ml") is Method.MAX_LIKELIHOOD
    assert Method.parse("MLE") is Method.MAX_LIKELIHOOD
    assert Method.parse("maximum-likelihood") is Method.MAX_LIKELIHOOD
    with pytest.raises(ValueError):
        Method.parse("banana")


def test_moment_fit_two_point_sample():
    result = fit_moments(np.array([-1.0, 1.0]))
    assert result.mu_hat == pytest.approx(0.0, abs=1e-15)
    assert result.sigma_hat == pytest.approx(SQRT3_OVER_PI, rel=1e-15)


def test_moment_fit_formulas():
    x = sample(400, stream=RngStream(3))
    result = fit_moments(x)
    assert result.mu_hat == pytest.approx(x.mean(), rel=1e-14)
    assert result.sigma_hat == pytest.approx(x.std() * SQRT3_OVER_PI, rel=1e-14)
    unbiased = fit_moments(x, unbiased=True)
    assert unbiased.sigma_hat == pytest.approx(
        x.std(ddof=1) * SQRT3_OVER_PI, rel=1e-14)


@given(st.integers(0, 2**32), st.floats(-20, 20), st.floats(0.05, 20),
       st.integers(5, 60))
@settings(max_examples=60, deadline=None)
def test_moment_fit_affine_equivariance(seed, shift, scale, n):
    x = sample(n, stream=RngStream(seed))
    base = fit_moments(x)
    moved = fit_moments(shift + scale * x)
    assert moved.mu_hat == pytest.approx(shift + scale * base.mu_hat,
                                         rel=1e-9, abs=1e-9)
    assert moved.sigma_hat == pytest.approx(scale * base.sigma_hat, rel=1e-9)


def test_degenerate_and_short_samples():
    with pytest.raises(DegenerateSampleError):
        fit_moments(np.array([2.0, 2.0, 2.0]))
    with pytest.raises(SampleSizeError):
        fit_moments(np.array([1.0]))
    with pytest.raises(ValueError):
        fit_moments(np.array([1.0, math.nan, 2.0]))
    with pytest.raises(DegenerateSampleError):
        fit_mle(np.array([5.0, 5.0]))


def test_mle_satisfies_likelihood_equations():
    for seed in range(12):
        n = 10 + 40 * seed
        x = sample(max(n, 10), LogisticParams_like(seed), stream=RngStream(60 + seed))
        result = fit_mle(x)
        eq = _likelihood_equations(x, result.mu_hat, result.sigma_hat)
        assert np.all(np.abs(eq) < 1e-8), (seed, eq)
        assert result.converged
        assert result.method is Method.MAX_LIKELIHOOD


def LogisticParams_like(seed):
    from logigof.logistic_core import LogisticParams
    return LogisticParams(mu=-3.0 + seed, sigma=0.2 + 0.5 * seed)


def test_mle_is_consistent():
    from logigof.logistic_core import LogisticParams
    p = LogisticParams(2.5, 0.8)
    x = sample(200_000, p, stream=RngStream(1234))
    result = fit_mle(x)
    assert result.mu_hat == pytest.approx(p.mu, abs=0.02)
    assert result.sigma_hat == pytest.approx(p.sigma, rel=0.02)


def test_mle_affine_equivariance():
    x = sample(80, stream=RngStream(8))
    base = fit_mle(x)
    moved = fit_mle(1.5 + 3.0 * x)
    assert moved.mu_hat == pytest.approx(1.5 + 3.0 * base.mu_hat, abs=1e-7)
    assert moved.sigma_hat == pytest.approx(3.0 * base.sigma_hat, rel=1e-7)


def test_mle_handles_extreme_outlier():
    x = np.concatenate([sample(30, stream=RngStream(21)), [1.0e4]])
    result = fit_mle(x)
    eq = _likelihood_equations(x, result.mu_hat, result.sigma_hat)
    assert np.all(np.abs(eq) < 1e-6)


def test_fit_dispatch():
    x = sample(50, stream=RngStream(300))
    assert fit(x, Method.MOMENTS).method is Method.MOMENTS
    assert fit(x, Method.MAX_LIKELIHOOD).method is Method.MAX_LIKELIHOOD


def test_scaled_residuals_exact_standardization():
    x = sample(37, stream=RngStream(31))
    res = scaled_residuals(x, method=Method.MOMENTS)
    assert res.n == 37
    assert res.values.mean() == pytest.approx(0.0, abs=1e-13)
    # With the divisor-n moment fit, the mean square of the residuals is
    # exactly pi^2/3 by construction.
    assert np.mean(res.values**2) == pytest.approx(math.pi**2 / 3.0, rel=1e-12)


def test_scaled_residuals_affine_invariant():
    x = sample(40, stream=RngStream(77))
    a = scaled_residuals(x).values
    b = scaled_residuals(-2.0 + 0.04 * x).values
    np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-11)


def test_psi_functions_moments():
    x = np.linspace(-4, 4, 9)
    np.testing.assert_allclose(psi1(x, Method.MOMENTS), x, rtol=1e-14)
    np.testing.assert_allclose(
        psi2(x, Method.MOMENTS), (3.0 * x**2 / math.pi**2 - 1.0) / 2.0,
        rtol=1e-14)


def test_psi_functions_ml_are_information_weighted_scores():
    # For maximum likelihood the influence functions are the inverse Fisher
    # information applied to the score, evaluated at the standard parameters.
    info_inv = np.linalg.inv(fisher_info(STANDARD))
    for x in (-2.5, -0.4, 0.0, 1.1, 3.3):
        s = score(x, STANDARD)
        expected = info_inv @ s
        assert psi1(x, Method.MAX_LIKELIHOOD) == pytest.approx(expected[0],
                                                               rel=1e-12)
        assert psi2(x, Method.MAX_LIKELIHOOD) == pytest.approx(expected[1],
                                                               rel=1e-12)


def test_psi_functions_are_centered():
    import scipy.integrate
    for method in (Method.MOMENTS, Method.MAX_LIKELIHOOD):
        for fun in (psi1, psi2):
            total, _ = scipy.integrate.quad(
                lambda v, f=fun, m=method: f(v, m) * pdf(v), -np.inf, np.inf)
            assert abs(total) < 1e-9, (method, fun)


def test_psi_functions_track_estimator_fluctuations():
    # The linearization sqrt(n) (theta_hat - theta) ~ n^{-1/2} sum psi(X_j)
    # should hold to first order for both estimators on one large sample.
    x = sample(100_000, stream=RngStream(5150))
    n = x.size
    for method in (Method.MOMENTS, Method.MAX_LIKELIHOOD):
        result = fit(x, method)
        lin_mu = psi1(x, method).mean()
        lin_sigma = psi2(x, method).mean()
        assert result.mu_hat == pytest.approx(lin_mu, abs=6.0 / n**0.75)
        assert result.sigma_hat - 1.0 == pytest.approx(lin_sigma,
                                                       abs=6.0 / n**0.75)


def test_unknown_method_and_unbiased_ml_are_domain_errors():
    with pytest.raises(DomainError):
        Method.parse("banana")
    x = sample(30, stream=RngStream(4))
    with pytest.raises(DomainError):
        fit(x, Method.MAX_LIKELIHOOD, unbiased=True)


# ---------------------------------------------------------------------------
# the batched ML fit against the one-sample damped Newton it replaced


LAWS = ("logistic", "cauchy", "t(2)", "mixture(0.5,cauchy)", "lognormal(1)", "uniform")


def _rows(law, n, reps, seed):
    return AlternativeSpec.parse(law).sample(n, RngStream(seed, 0), reps=reps)


def _compare_with_scalar_reference(x):
    """Fit the rows of x by the batch and by tests/oracles.scalar_fit_mle,
    check that both converge on the same rows, to within 1e-15 of
    max(|mu|, sigma), the scale of the sample, and return (iterations,
    reference iterations, reference start), the start 0 (moments) or 1
    (median/MAD), and -1 where the reference fails."""
    mu, sigma, iterations, converged = fit_mle_batch(x)
    ref = []
    for row in x:
        try:
            ref.append(scalar_fit_mle(row))
        except ConvergenceError:
            ref.append((math.nan, math.nan, -1, -1))
    mu_ref, sigma_ref, iterations_ref, start = (np.array(v) for v in zip(*ref))
    assert converged.tolist() == (start >= 0).tolist()
    scale = np.maximum(np.abs(mu_ref), sigma_ref)[converged]
    assert np.all(np.abs(mu - mu_ref)[converged] <= 1e-15 * scale)
    assert np.all(np.abs(sigma - sigma_ref)[converged] <= 1e-15 * sigma_ref[converged])
    return iterations, iterations_ref, start


@pytest.mark.parametrize("n", [20, 50])
@pytest.mark.parametrize("law", LAWS)
def test_batch_fit_matches_the_scalar_reference(law, n):
    iterations, iterations_ref, start = _compare_with_scalar_reference(_rows(law, n, 128, 7))
    assert start.tolist() == [0] * 128
    assert iterations.tolist() == iterations_ref.tolist()


def test_batch_fit_restarts_rows_from_the_median_mad_start():
    # Rows of gamma(0.1) at n = 1000 whose steps from the moment start stall
    # near the optimum (no step passes before the residuals reach the
    # tolerance); both fits converge on them from the median/MAD start.
    x = _rows("gamma(0.1)", 1000, 256, 1)[[9, 56, 77, 83, 113, 116, 151]]
    with np.errstate(all="ignore"):
        moments = _newton(x, *fit_moments_batch(x))
    assert not moments[3].any()
    mu, sigma, iterations, converged = fit_mle_batch(x)
    assert converged.all()
    for i, row in enumerate(x):
        assert scalar_fit_mle(row) == (mu[i], sigma[i], iterations[i], 1)
        one = fit_mle(row)
        assert (one.mu_hat, one.sigma_hat, one.iterations) == (mu[i], sigma[i], iterations[i])


def test_no_failed_fit_on_logistic_rows_at_large_n():
    # Near the optimum a step changes the log-likelihood (~ -1.3 n) by less
    # than one ulp; with a fixed margin of 1e-13 rounding failed 4, 15 and 9
    # of these rows, and the engine exited on them.
    for n in (700, 1000, 2000):
        x = _rows("logistic", n, 2048, 8)
        mu, sigma, iterations, converged = fit_mle_batch(x)
        assert converged.all() and iterations.max() <= 10
        assert np.abs(_likelihood_equations(x, mu[:, None], sigma[:, None])).max() <= 1e-10


@pytest.mark.parametrize("n", [20, 50])
@pytest.mark.parametrize("law", ["cauchy", "t(2)", "mixture(0.5,cauchy)"])
def test_batch_fits_solve_the_likelihood_equations(law, n):
    x = _rows(law, n, 1024, 5)
    mu, sigma, _, converged = fit_mle_batch(x)
    assert converged.all()
    eq = _likelihood_equations(x, mu[:, None], sigma[:, None])
    assert eq.shape == (2, 1024)
    assert np.abs(eq).max() <= 1e-10


def test_batch_fit_gives_up_on_bad_rows_without_raising():
    good = _rows("logistic", 20, 3, 11)
    bad = np.array([np.full(20, np.nan), np.r_[np.inf, good[0, 1:]],
                    np.r_[-np.inf, good[0, 1:]], np.full(20, 2.5)])
    x = np.vstack([good[:1], bad, good[1:]])
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        mu, sigma, iterations, converged = fit_mle_batch(x)
        y, failures = _residuals_for_chunk(x, Method.MAX_LIKELIHOOD)
    assert converged.tolist() == [True, False, False, False, False, True, True]
    assert iterations[1:5].tolist() == [-1] * 4
    assert failures == 4
    assert np.isnan(y[1:5]).all() and np.isfinite(y[[0, 5, 6]]).all()
    alone = fit_mle_batch(good)
    for full, part in zip((mu, sigma, iterations), alone):
        assert full[[0, 5, 6]].tolist() == part.tolist()


def test_fit_mle_equals_its_row_of_any_batch_bit_for_bit():
    x = np.vstack([_rows(law, 50, 16, 3) for law in LAWS])
    mu, sigma, iterations, _ = fit_mle_batch(x)
    order = np.random.default_rng(0).permutation(len(x))[:37]
    for full, part in zip((mu, sigma, iterations), fit_mle_batch(x[order])):
        assert full[order].tolist() == part.tolist()
    for i in range(0, len(x), 5):
        one = fit_mle(x[i])
        assert (one.mu_hat, one.sigma_hat, one.iterations) == (mu[i], sigma[i], iterations[i])


def test_fit_mle_reports_the_last_iterate_when_both_starts_fail(monkeypatch):
    monkeypatch.setattr(estimation, "MAX_ITER", 2)
    x = sample(40, stream=RngStream(12))
    with pytest.raises(ConvergenceError) as info:
        fit_mle(x)
    mu, sigma = info.value.last_iterate
    assert math.isfinite(mu) and sigma > 0


# ---------------------------------------------------------------------------
# equivariance at every data scale


def _bits(a):
    return np.asarray(a).tobytes()


@pytest.mark.parametrize("source", ["bundled", *(f"{law}-{n}" for law in
                                                 ("logistic", "cauchy", "lognormal(1)")
                                                 for n in (20, 50))])
def test_moment_residuals_are_bit_equal_at_every_power_of_two_scale(source):
    # At 2^530 the variance overflows and at 2^-530 it underflows; such rows
    # are fitted again in units of a power of two, which is exact.
    if source == "bundled":
        x = load_dataset(str(bundled_data_path())).values[None, :]
    else:
        law, n = source.rsplit("-", 1)
        x = _rows(law, int(n), 64, 23)
    want = _kernels.moment_residuals_batch(x)
    assert np.isfinite(want).all()
    for scale in (2.0**530, 2.0**-530):
        assert _bits(_kernels.moment_residuals_batch(x * scale)) == _bits(want)
        for row, y in zip(x, want):
            assert _bits(scaled_residuals(row * scale).values) == _bits(y)


def test_ml_fits_rows_of_scale_1e155_from_the_moment_start():
    # Their variance overflows; the moment start is finite all the same, and
    # the fit converges from it, equivariantly.
    x = _rows("logistic", 800, 2, 97)
    big = x * 1e155
    mu, sigma, iterations, converged = fit_mle_batch(big)
    start = fit_moments_batch(big)
    assert np.isfinite(start).all()
    assert [_bits(v) for v in _newton(big, *start)] == [_bits(v) for v in
                                                        (mu, sigma, iterations, converged)]
    assert converged.all()
    base = fit_mle_batch(x)
    np.testing.assert_allclose(mu, 1e155 * base[0], rtol=1e-12)
    np.testing.assert_allclose(sigma, 1e155 * base[1], rtol=1e-12)
