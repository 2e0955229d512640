"""The batch kernel against a plain full-square reference.

The reference below evaluates every statistic of one residual row straight
from its pair formulas: it sums all n^2 ordered pairs, takes the interval
moments A_r(s) = integral over t in (-1, 1) of t^r exp(t s) from their power
series or from sinh/cosh, and maps sorted residuals through the logistic CDF
for the EDF statistics.  It shares no code with ``logigof._kernels``.
"""

import math

import numpy as np
import pytest
from scipy.special import expit

from logigof import _kernels, montecarlo
from logigof._kernels import _SPECTRAL_MIN_N, STATS, compute_batch
from logigof.estimation import Method
from logigof.logistic_core import DomainError

SPECS = (("T", 3.0), ("T", 4.0), ("T", 5.0), ("S", None), ("R", 1), ("R", 2),
         ("R", 3), ("KS", None), ("CM", None), ("AD", None), ("WA", None))
RTOL = 1e-11
EXP_LIMIT = 700.0
EDF_EPS = 1e-15


def _interval_moment(s, r):
    """A_r(s): its power series for |s| < 2 (every term has one sign), the
    sinh/cosh closed form elsewhere."""
    s = np.asarray(s, dtype=float)
    series = np.zeros_like(s)
    for k in range(40):
        if (r + k) % 2 == 0:
            series += 2.0 * s**k / (math.factorial(k) * (r + k + 1))
    with np.errstate(all="ignore"):
        sh, ch = np.sinh(s), np.cosh(s)
        closed = {0: 2.0 * sh / s,
                  1: 2.0 * ch / s - 2.0 * sh / s**2,
                  2: 2.0 * sh / s - 4.0 * ch / s**2 + 4.0 * sh / s**3}[r]
    return np.where(np.abs(s) < 2.0, series, closed)


def _reference_row(y, specs):
    y = np.asarray(y, dtype=float)
    n = y.size
    if np.isnan(y).any():
        return np.full(len(specs), np.nan)
    m = np.tanh(y / 2.0)
    d = y[:, None] - y[None, :]
    s = y[:, None] + y[None, :]
    mj, mk = m[:, None], m[None, :]
    overflow = 2.0 * np.max(np.abs(y)) > EXP_LIMIT
    u = np.clip(expit(np.sort(y)), EDF_EPS, 1.0 - EDF_EPS)
    j = np.arange(1, n + 1)
    cm = 1.0 / (12 * n) + np.sum((u - (2 * j - 1) / (2 * n)) ** 2)
    edf = {
        "KS": max(np.max(j / n - u), np.max(u - (j - 1) / n)),
        "CM": cm,
        "AD": -n - np.mean((2 * j - 1) * (np.log(u) + np.log(1 - u[::-1]))),
        "WA": cm - n * (np.mean(u) - 0.5) ** 2,
    }
    out = []
    for sid, tuning in specs:
        if sid == "T":
            a = float(tuning)
            pair = np.exp(-d * d / (4 * a)) * (
                (2 * a - d * d) / (4 * a * a) + mj * mk - d * (mj - mk) / (2 * a))
            out.append(math.sqrt(math.pi / a) / n * np.sum(pair))
        elif sid in ("S", "R") and overflow:
            out.append(math.inf)
        elif sid == "S":
            pair = (_interval_moment(s, 2) - (mj + mk) * _interval_moment(s, 1)
                    + mj * mk * _interval_moment(s, 0))
            out.append(np.sum(pair) / n)
        elif sid == "R":
            v = int(tuning)
            c = 4 * v * v * math.pi**2
            pair = (_interval_moment(s, 0) / 2.0) / (c + s * s)
            elem = 0.0
            for k in range(1, v + 1):
                q = y * y + (2 * k - 1) ** 2 * math.pi**2
                elem += np.sum((2 * k - 1) * (q * np.cosh(y) - 2 * y * np.sinh(y)) / q**2)
            const = 2 * v * math.pi**2 / 3 + 2 * sum((v - k) / k**2 for k in range(1, v))
            out.append(c / n * np.sum(pair) - 4 * math.pi**2 * elem + n * const)
        else:
            out.append(edf[sid])
    return np.array(out, dtype=float)


def reference(y, specs=SPECS):
    """(len(specs), C) values of every row of y, as compute_batch returns."""
    return np.stack([_reference_row(row, specs) for row in y], axis=1)


def _logistic_rows(rows, n, seed):
    return np.random.default_rng(seed).logistic(size=(rows, n)) * 1.3 - 0.2


# ---------------------------------------------------------------------------
# agreement with the reference


@pytest.mark.parametrize("n", [1, 2, 3, 50, 257])
def test_matches_full_square_reference(n):
    y = _logistic_rows(3, n, seed=n)
    np.testing.assert_allclose(compute_batch(y, SPECS), reference(y), rtol=RTOL, atol=0)


@pytest.mark.parametrize("row", [
    [0.5, 0.5, 0.5, -1.2, -1.2, 2.0, 0.5],          # ties
    [1.3, -1.25, 0.4, -0.2, 0.9, -2.1],              # a pair with |Y_j + Y_k| = 0.05
    [1.3, -1.3 + 1e-9, 0.4, -0.2, 0.03, 0.02],       # nearly cancelling pairs
    [2.0, -2.0, 0.5, 0.0, 3.1, -0.7],                # exactly cancelling pairs
    [0.0, 0.0, 0.0, 1e-12, -1e-12],                  # every pair near zero
])
def test_special_pairs_match_reference(row):
    y = np.array([row])
    np.testing.assert_allclose(compute_batch(y, SPECS), reference(y), rtol=RTOL, atol=0)


def test_nan_rows_give_nan_and_leave_other_rows_alone():
    y = _logistic_rows(4, 12, seed=5)
    y[1] = np.nan
    y[3] = np.nan
    got = compute_batch(y, SPECS)
    assert np.isnan(got[:, [1, 3]]).all()
    np.testing.assert_allclose(got[:, [0, 2]], reference(y[[0, 2]]), rtol=RTOL, atol=0)


def test_rows_past_the_exp_range_through_the_engine(monkeypatch):
    # Residual rows that reach past the exp range give +inf for S and R,
    # which exceeds any calibrated threshold; T and the EDF statistics stay
    # finite and exact.
    y = _logistic_rows(4, 9, seed=11)
    y[1, 4] = 400.0
    y[3, 0] = -360.0
    monkeypatch.setattr(montecarlo, "_residuals_for_chunk", lambda x, method: (y.copy(), 0))
    task = montecarlo._ChunkTask(seed=1, rep_lo=0, rep_hi=4, n=9, specs=SPECS,
                                 alternative=montecarlo.AlternativeSpec.logistic(),
                                 method=Method.MOMENTS)
    _, values, _ = montecarlo._run_chunk(task)
    want = reference(y)
    sr = [i for i, (sid, _) in enumerate(SPECS) if sid in ("S", "R")]
    assert np.isposinf(values[sr][:, [1, 3]]).all()
    assert np.isposinf(want[sr][:, [1, 3]]).all()
    assert np.isfinite(np.delete(values, sr, axis=0)).all()
    np.testing.assert_allclose(values, want, rtol=RTOL, atol=0)


# ---------------------------------------------------------------------------
# a row's values do not depend on the rest of the batch


def test_rows_are_independent_of_the_batch():
    y = np.concatenate([_logistic_rows(5, 40, seed=21),
                        np.full((1, 40), np.nan),
                        _logistic_rows(4, 40, seed=22) * 3.0])
    whole = compute_batch(y, SPECS)
    for i in range(y.shape[0]):
        np.testing.assert_array_equal(whole[:, i], compute_batch(y[i:i + 1], SPECS)[:, 0])


def test_rows_are_permutation_invariant():
    y = _logistic_rows(3, 30, seed=31)
    shuffled = np.random.default_rng(32).permuted(y, axis=1)
    np.testing.assert_array_equal(compute_batch(y, SPECS), compute_batch(shuffled, SPECS))


def test_rows_past_the_exp_range_give_inf_for_s_and_r():
    y = _logistic_rows(5, 9, seed=12)
    y[0, 2] = 351.0                                  # 2 max|Y| = 702
    y[2, 5] = -1e6
    y[3, 1] = 349.0                                  # 698: still in range
    y[4] = np.nan
    got = compute_batch(y, SPECS)
    sr = [i for i, (sid, _) in enumerate(SPECS) if sid in ("S", "R")]
    assert np.isposinf(got[sr][:, [0, 2]]).all()
    assert np.isfinite(got[:, [1, 3]]).all()
    assert np.isfinite(np.delete(got[:, :4], sr, axis=0)).all()
    assert np.isnan(got[:, 4]).all()
    # Row 3 is only checked for finiteness: at s = 698 the S pair term
    # cancels by a factor ~s^2, beyond what RTOL can resolve.
    np.testing.assert_allclose(got[:, :3], reference(y[:3]), rtol=RTOL, atol=0)
    for i in range(y.shape[0]):
        np.testing.assert_array_equal(got[:, i], compute_batch(y[i:i + 1], SPECS)[:, 0])


# ---------------------------------------------------------------------------
# the statistic registry


@pytest.mark.parametrize("stat_id", STATS)
def test_every_registered_statistic_round_trips_and_evaluates(stat_id):
    spec = montecarlo.StatSpec(stat_id)
    assert spec.tuning == STATS[stat_id].default
    assert montecarlo.StatSpec.parse(spec.label()) == spec
    values = compute_batch(_logistic_rows(5, 30, seed=17), [spec.key()])
    assert values.shape == (1, 5)
    assert np.isfinite(values).all()


@pytest.mark.parametrize("specs", [
    [("XX", None)], [("t", 3.0)], [("T", 3.0), ("ks", None)],
    [("R", 1.5)], [("T", 0.0)], [("KS", 2.0)],
])
def test_unknown_ids_and_bad_tunings_raise(specs):
    with pytest.raises(DomainError):
        compute_batch(_logistic_rows(2, 10, seed=3), specs)


# ---------------------------------------------------------------------------
# memory and large samples


def test_memory_stays_bounded_for_large_batches():
    # A (C, n, n) temporary would take 2 GB here; the kernel keeps a few
    # (C, n) arrays plus pair blocks of at most _PAIR_BUDGET elements.
    tracemalloc = pytest.importorskip("tracemalloc")
    from logigof._kernels import _PAIR_BUDGET

    y = _logistic_rows(64, 2000, seed=41)
    tracemalloc.start()
    try:
        compute_batch(y, (("T", 3.0), ("S", None), ("R", 1), ("KS", None)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert _PAIR_BUDGET <= 4_000_000
    assert peak < 12 * y.nbytes + 32 * 8 * _PAIR_BUDGET


def test_large_sample_matches_quadrature_oracles():
    from logigof.estimation import scaled_residuals
    from logigof.logistic_core import RngStream, sample
    from logigof.statistics import (WeightSpec, s_stat, s_stat_quadrature,
                                    t_stat_closed, t_stat_quadrature)

    res = scaled_residuals(sample(2048, stream=RngStream(2048)))
    w = WeightSpec(3.0)
    assert t_stat_closed(res, w).value == pytest.approx(
        t_stat_quadrature(res, w).value, rel=1e-8)
    assert s_stat(res).value == pytest.approx(s_stat_quadrature(res).value, rel=1e-8)


# ---------------------------------------------------------------------------
# the spectral path against the pair path


TSR = SPECS[:7]


def _pair_path(y, specs=SPECS):
    """compute_batch with every row on the pair path."""
    crossover = _kernels._SPECTRAL_MIN_N
    _kernels._SPECTRAL_MIN_N = math.inf
    try:
        return compute_batch(y, specs)
    finally:
        _kernels._SPECTRAL_MIN_N = crossover


def _residual_rows(kind, rows, n, seed):
    rng = np.random.default_rng([seed, n])
    x = {"logistic": rng.logistic, "laplace": rng.laplace,
         "t3": lambda size: rng.standard_t(3, size),
         "cauchy": rng.standard_cauchy}[kind](size=(rows, n))
    return _kernels.moment_residuals_batch(x)


def _spectral_rows(y):
    """Which rows of y the spectral path evaluates for T and for S and R."""
    y = np.sort(y, axis=1)
    n = y.shape[1]
    rates = [a for sid, a in TSR if sid == "T"]
    orders = [v for sid, v in TSR if sid == "R"]
    return (_kernels._t_counts(y, rates) <= n // 4,
            _kernels._sr_counts(y, orders) <= 2 * n)


@pytest.mark.parametrize("kind", ["logistic", "laplace", "t3", "cauchy"])
@pytest.mark.parametrize("n", [_SPECTRAL_MIN_N - 1, _SPECTRAL_MIN_N, 2048])
def test_spectral_path_matches_pair_path(kind, n):
    y = _residual_rows(kind, 4 if n < 2048 else 2, n, seed=61)
    got = compute_batch(y, SPECS)
    np.testing.assert_allclose(got, _pair_path(y), rtol=RTOL, atol=0)
    if n < 2048:
        np.testing.assert_allclose(got, reference(y), rtol=RTOL, atol=0)
    t_rows, sr_rows = _spectral_rows(y)
    if n >= _SPECTRAL_MIN_N:
        assert sr_rows.all()
    if n == 2048:
        assert t_rows.all()


def test_spectral_path_on_a_row_at_the_edge_of_the_exp_range():
    # 2 max|Y| = 698.  The pair form of S cancels by a factor ~s^2 here
    # (rel ~2e-11), so S is held to its quadrature oracle instead.
    from logigof.estimation import ScaledResiduals, fit_moments
    from logigof.statistics import s_stat_quadrature

    y = _logistic_rows(1, 2048, seed=62)
    y[0, 7] = 349.0
    assert all(rows.all() for rows in _spectral_rows(y))
    got = compute_batch(y, TSR)
    want = _pair_path(y, TSR)
    keep = [i for i, (sid, _) in enumerate(TSR) if sid != "S"]
    np.testing.assert_allclose(got[keep], want[keep], rtol=RTOL, atol=0)
    res = ScaledResiduals(values=y[0], fit=fit_moments(np.array([-1.0, 1.0])))
    assert got[TSR.index(("S", None)), 0] == pytest.approx(
        s_stat_quadrature(res).value, rel=RTOL)


def test_spectral_path_nan_and_exp_range_rows():
    n = max(_SPECTRAL_MIN_N, 128)
    y = _logistic_rows(5, n, seed=63)
    y[0, 2] = 351.0                                  # 2 max|Y| = 702
    y[2, 5] = -1e6                                   # T needs the pair path
    y[4, 9] = np.nan
    got = compute_batch(y, SPECS)
    sr = [i for i, (sid, _) in enumerate(SPECS) if sid in ("S", "R")]
    assert np.isposinf(got[sr][:, [0, 2]]).all()
    assert np.isfinite(np.delete(got[:, :4], sr, axis=0)).all()
    assert np.isnan(got[:, 4]).all()
    np.testing.assert_allclose(got[:, :4], _pair_path(y[:4]), rtol=RTOL, atol=0)


def test_spectral_rows_are_independent_of_the_batch_and_of_order():
    n = 160
    y = np.concatenate([_residual_rows("logistic", 3, n, seed=64),
                        _residual_rows("cauchy", 3, n, seed=65),
                        np.full((1, n), np.nan),
                        _residual_rows("t3", 2, n, seed=66) * 4.0])
    t_rows, sr_rows = _spectral_rows(y)
    assert t_rows.any() and not t_rows.all() and sr_rows.any()
    whole = compute_batch(y, SPECS)
    for i in range(y.shape[0]):
        np.testing.assert_array_equal(whole[:, i], compute_batch(y[i:i + 1], SPECS)[:, 0])
    np.testing.assert_array_equal(compute_batch(y[::-1], SPECS), whole[:, ::-1])
    shuffled = np.random.default_rng(67).permuted(y, axis=1)
    np.testing.assert_array_equal(compute_batch(shuffled, SPECS), whole)


@pytest.mark.parametrize("count", [4, 9, 40, 150, 543])
def test_gauss_legendre_rule(count):
    nodes, weights = _kernels._legendre(count)
    want_nodes, want_weights = np.polynomial.legendre.leggauss(count)
    np.testing.assert_allclose(nodes, want_nodes, rtol=0, atol=1e-14)
    np.testing.assert_allclose(weights, want_weights, rtol=1e-8)
    for degree in range(0, min(2 * count, 80), 2):    # exact to degree 2 count - 1
        assert np.dot(weights, nodes**degree) == pytest.approx(2.0 / (degree + 1), rel=1e-13)
    assert np.dot(weights, nodes**3) == pytest.approx(0.0, abs=1e-15)


def test_spectral_s_on_a_t3_sample_matches_quadrature():
    from logigof.estimation import scaled_residuals
    from logigof.logistic_core import RngStream
    from logigof.statistics import s_stat, s_stat_quadrature

    res = scaled_residuals(montecarlo.AlternativeSpec.student_t(3).sample(2048, RngStream(2048)))
    assert s_stat(res).value == pytest.approx(s_stat_quadrature(res).value, rel=1e-13)
