import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from logigof.logistic_core import (STANDARD, DomainError, LogisticParams,
                                   RngStream, cdf, expit, fill_logistic,
                                   fisher_info, pdf, quantile,
                                   random_doubles, sample, score)
from logigof.alternatives import _KINDS
from logigof.montecarlo import AlternativeSpec
from logigof.statistics import h_func, kappa
from oracles import draw_logistic

params_strategy = st.builds(
    LogisticParams,
    mu=st.floats(-50, 50, allow_nan=False),
    sigma=st.floats(0.01, 50, allow_nan=False, exclude_min=True),
)
finite_x = st.floats(-200, 200, allow_nan=False)


def test_params_validation():
    with pytest.raises(DomainError):
        LogisticParams(0.0, 0.0)
    with pytest.raises(DomainError):
        LogisticParams(0.0, -1.0)
    with pytest.raises(DomainError):
        LogisticParams(math.nan, 1.0)
    with pytest.raises(DomainError):
        LogisticParams(0.0, math.inf)


def test_pdf_matches_reference_implementation():
    p = LogisticParams(1.3, 2.4)
    x = np.linspace(-30, 30, 101)
    expected = scipy.stats.logistic.pdf(x, loc=p.mu, scale=p.sigma)
    np.testing.assert_allclose(pdf(x, p), expected, rtol=1e-12)


def test_cdf_matches_reference_implementation():
    p = LogisticParams(-0.7, 0.31)
    x = np.linspace(-20, 20, 101)
    expected = scipy.stats.logistic.cdf(x, loc=p.mu, scale=p.sigma)
    np.testing.assert_allclose(cdf(x, p), expected, rtol=1e-12)


EXPIT_EDGES = [0.0, 1e-300, 36.0, 709.0, 709.78, 709.79, 745.0, 800.0, math.inf]


def test_expit_equals_scipy_bit_for_bit():
    edges = np.array(EXPIT_EDGES + [-v for v in EXPIT_EDGES] + [math.nan])
    x = np.concatenate([edges, np.linspace(-750.0, 750.0, 30_001),
                        np.random.default_rng(5).logistic(size=100_000),
                        np.random.default_rng(6).standard_cauchy(size=100_000)])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = expit(x)
    np.testing.assert_array_equal(got, scipy.special.expit(x))
    assert np.array_equal(np.isnan(got), np.isnan(x))
    assert expit(0.0) == expit(-0.0) == 0.5
    assert expit(-math.inf) == 0.0 and expit(math.inf) == 1.0
    # On finite arguments 0 and 1 come only from rounding and, below
    # x = -709.78, from the overflow of exp(-x), as in scipy: the value
    # stays strictly inside (0, 1) from there to where 1 - expit(x) drops
    # below half an ulp of 1.
    inside = np.isfinite(x) & (x >= -709.78) & (x <= 36.0)
    assert np.all((got[inside] > 0.0) & (got[inside] < 1.0))
    assert np.all((got >= 0.0) & (got <= 1.0) | np.isnan(x))


def test_expit_scalar_arguments_stay_scalar():
    for value in (0.3, -2, np.float64(4.0), np.array(-1.5)):
        out = expit(value)
        assert np.ndim(out) == 0
        assert out == scipy.special.expit(value)
    for fun in (pdf, cdf):
        assert isinstance(fun(0.3), float)
    for fun in (kappa, h_func):
        assert isinstance(fun(0.5, 0.3), float)


def test_pdf_integrates_to_one():
    p = LogisticParams(2.0, 0.5)
    total, _ = scipy.integrate.quad(lambda x: pdf(x, p), -np.inf, np.inf)
    assert abs(total - 1.0) < 1e-9


def test_quantile_cdf_round_trip():
    p = LogisticParams(3.0, 1.7)
    u = np.linspace(0.001, 0.999, 57)
    np.testing.assert_allclose(cdf(quantile(u, p), p), u, rtol=1e-12)
    # Stay where 1 - cdf(x) is comfortably representable in double precision;
    # beyond |z| ~ 20 the round trip necessarily loses bits.
    x = np.linspace(-20, 26, 41)
    np.testing.assert_allclose(quantile(cdf(x, p), p), x, rtol=1e-9, atol=1e-9)


def test_quantile_domain():
    for bad in (0.0, 1.0, -0.2, 1.3, math.nan):
        with pytest.raises(DomainError):
            quantile(bad)


@given(params_strategy, finite_x)
@settings(max_examples=200, deadline=None)
def test_affine_standardization(p, x):
    z = (x - p.mu) / p.sigma
    assert cdf(x, p) == pytest.approx(cdf(z, STANDARD), rel=1e-12, abs=1e-300)
    assert pdf(x, p) * p.sigma == pytest.approx(pdf(z, STANDARD), rel=1e-12,
                                                abs=1e-300)


@given(st.floats(-700, 700, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_cdf_pdf_sane_over_wide_range(x):
    c = cdf(x)
    d = pdf(x)
    assert 0.0 <= c <= 1.0
    assert d >= 0.0
    assert np.isfinite(d)


def test_rng_stream_validation():
    with pytest.raises(DomainError):
        RngStream(-1)
    with pytest.raises(DomainError):
        RngStream(2**64)
    with pytest.raises(DomainError):
        RngStream(0, -5)


def test_rng_stream_rejects_fractional_values():
    # A fractional seed or substream used to be truncated, so RngStream(1.7,
    # 2.9) drew exactly what RngStream(1, 2) draws.
    for seed, substream in ((1.7, 2), (1, 2.9), (1.0, 2), (np.float64(3), 0),
                            ("1", 0), (True, 0), (None, 0)):
        with pytest.raises(DomainError, match="integer"):
            RngStream(seed, substream)
    stream = RngStream(np.uint64(2**64 - 1), np.int32(7))
    assert stream == RngStream(2**64 - 1, 7)
    assert type(stream.seed) is int and type(stream.substream) is int


NEAR_TOP = 2**64 - 8


def substream_words(seed, first, rows, n):
    """(rows, n) uint64 array whose row i holds the first n raw words of
    numpy's Philox keyed [seed, first + i]."""
    return np.array([np.random.Philox(key=np.array([seed, first + i], dtype=np.uint64))
                     .random_raw(n) for i in range(rows)], dtype=np.uint64)


@pytest.mark.parametrize("mu, sigma", [(0.0, 1.0), (0.5, 2.0)])
def test_fill_logistic_equals_one_generator_per_substream(mu, sigma):
    for seed, first in ((20260815, 0), (7, NEAR_TOP)):
        for n in (1, 3, 21, 50):
            got = fill_logistic(np.empty((8, n)), substream_words(seed, first, 8, n), mu, sigma)
            for i in range(8):
                gen = np.random.Generator(np.random.Philox(
                    key=np.array([seed, first + i], dtype=np.uint64)))
                np.testing.assert_array_equal(got[i], draw_logistic(gen, n, mu, sigma))


def test_random_doubles_equal_generator_random():
    for seed, first in ((20260815, 0), (7, NEAR_TOP)):
        for n in (1, 3, 21, 50):
            got = random_doubles(substream_words(seed, first, 8, n))
            for i in range(8):
                gen = np.random.Generator(np.random.Philox(
                    key=np.array([seed, first + i], dtype=np.uint64)))
                np.testing.assert_array_equal(got[i], gen.random(n))


def test_block_sampling_memory_is_bounded():
    # Every kind is drawn in row blocks of at most _kernels._PAIR_BUDGET
    # values.  Measured peak, in x.nbytes: 1.60 for logistic, 1.30 for
    # cauchy, 2.00 for lognormal, 1.20 for chisquare, 1.70 for the mixture
    # and at most 1.60 for the other kinds; without row blocks logistic read
    # 4.05, cauchy 4.00, lognormal 6.00, chisquare 2.00 and the mixture 8.0.
    specs = [AlternativeSpec(kind, rules.defaults or (2.0,) * rules.arity)
             for kind, rules in _KINDS.items()]
    for spec in specs + [AlternativeSpec.parse("mixture(0.5,cauchy)")]:
        label = spec.label()
        spec.sample(20, RngStream(1), reps=16)
        tracemalloc.start()
        try:
            x = spec.sample(20, RngStream(1), reps=4096)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert x.shape == (4096, 20)
        assert peak < 2.5 * x.nbytes, label


def test_sample_deterministic_and_streams_independent():
    a = sample(100, stream=RngStream(5, 0))
    b = sample(100, stream=RngStream(5, 0))
    c = sample(100, stream=RngStream(5, 1))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_has_no_infinities_and_respects_params():
    p = LogisticParams(4.0, 0.25)
    x = sample(200_000, p, stream=RngStream(17))
    assert np.all(np.isfinite(x))
    assert x.mean() == pytest.approx(p.mu, abs=0.01)
    assert x.var() == pytest.approx(math.pi**2 * p.sigma**2 / 3.0, rel=0.02)


def test_sample_distribution_matches_cdf():
    x = sample(50_000, stream=RngStream(99))
    stat = scipy.stats.kstest(x, lambda v: cdf(v)).statistic
    assert stat < 0.01


def test_pdf_rejects_non_finite_points():
    with pytest.raises(DomainError, match="^x must be finite$"):
        pdf(np.inf)


def test_sample_rejects_bad_size():
    with pytest.raises(DomainError):
        sample(0, stream=RngStream(1))


def test_score_matches_finite_differences():
    p = LogisticParams(0.8, 1.9)
    eps = 1e-6
    for x in (-3.0, -0.2, 0.0, 1.5, 8.0):
        analytic = score(x, p)
        d_mu = (math.log(pdf(x, LogisticParams(p.mu + eps, p.sigma)))
                - math.log(pdf(x, LogisticParams(p.mu - eps, p.sigma)))) / (2 * eps)
        d_sigma = (math.log(pdf(x, LogisticParams(p.mu, p.sigma + eps)))
                   - math.log(pdf(x, LogisticParams(p.mu, p.sigma - eps)))) / (2 * eps)
        assert analytic[0] == pytest.approx(d_mu, rel=1e-6, abs=1e-8)
        assert analytic[1] == pytest.approx(d_sigma, rel=1e-6, abs=1e-8)


def test_score_has_zero_expectation():
    for comp in range(2):
        total, _ = scipy.integrate.quad(
            lambda x, c=comp: score(x)[c] * pdf(x), -np.inf, np.inf)
        assert abs(total) < 1e-9


def test_fisher_info_values():
    info = fisher_info(LogisticParams(0.0, 1.0))
    assert info[0, 0] == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert info[1, 1] == pytest.approx((math.pi**2 + 3.0) / 9.0, rel=1e-12)
    assert info[0, 1] == 0.0
    scaled = fisher_info(LogisticParams(5.0, 2.0))
    np.testing.assert_allclose(scaled, info / 4.0, rtol=1e-12)


def test_fisher_info_is_score_covariance():
    # I = E[score score^T]: checked by quadrature component-wise.
    info = fisher_info(LogisticParams(0.0, 1.0))
    for i in range(2):
        for j in range(2):
            val, _ = scipy.integrate.quad(
                lambda x, i=i, j=j: score(x)[i] * score(x)[j] * pdf(x),
                -np.inf, np.inf)
            assert val == pytest.approx(info[i, j], abs=1e-9)
