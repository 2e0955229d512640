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
from logigof._kernels import STATS, compute_batch
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


def r_stat_quadrature(y, v):
    """R of order v for one residual row, with its pair sum taken by
    adaptive quadrature: sum_jk (A_0(s)/2) / (4 v^2 pi^2 + s^2), s = Y_j + Y_k,
    is the integral over t in (-1, 1) of sin^2(pi v t) / (4 pi^2 v^2) times
    (sum_j exp(t Y_j))^2, since the integral of cos(2 pi v t) exp(ts) is
    A_0(s) s^2 / (s^2 + 4 pi^2 v^2)."""
    from scipy.integrate import quad

    y = np.asarray(y, dtype=float)
    n = y.size

    def integrand(t):
        return math.sin(math.pi * v * t) ** 2 * np.sum(np.exp(t * y)) ** 2

    pair, _ = quad(integrand, -1.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=400)
    elem = 0.0
    for k in range(1, v + 1):
        q = y * y + (2 * k - 1) ** 2 * math.pi**2
        elem += np.sum((2 * k - 1) * (q * np.cosh(y) - 2 * y * np.sinh(y)) / q**2)
    const = 2 * v * math.pi**2 / 3 + 2 * sum((v - k) / k**2 for k in range(1, v))
    return pair / n - 4 * math.pi**2 * elem + n * const


def s_quadrature(y):
    """``statistics.s_stat_quadrature`` of one residual row."""
    from logigof.estimation import ScaledResiduals, fit_moments
    from logigof.statistics import s_stat_quadrature as quadrature

    res = ScaledResiduals(values=np.asarray(y, dtype=float),
                          fit=fit_moments(np.array([-1.0, 1.0])))
    return quadrature(res).value


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
                                 alternative=montecarlo.AlternativeSpec("logistic"),
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


def _ml_residual_rows(label, rows, n, seed):
    x = montecarlo.AlternativeSpec.parse(label).sample(n, montecarlo.RngStream(seed), reps=rows)
    return montecarlo._residuals_for_chunk(x, Method.MAX_LIKELIHOOD)[0]


@pytest.mark.parametrize("y, overflows", [
    pytest.param(lambda: _ml_residual_rows("t(1)", 32, 1000, seed=13), True, id="ml-t1-n1000"),
    pytest.param(lambda: _ml_residual_rows("cauchy", 32, 200, seed=14), False,
                 id="ml-cauchy-n200"),
    pytest.param(lambda: np.array([[0.3, -0.2, 351.0, -351.0, 1.5]]), True, id="crafted-351")])
def test_counts_equal_a_recount_of_the_returned_values(y, overflows):
    # ML fits of Cauchy rows leave residuals past the EDF clamp, and at
    # n = 1000 past the exp range; the crafted row has residuals at +-351,
    # where 2 max|Y| = 702.
    y = y()
    counts = {}
    got = compute_batch(y, SPECS, counts)
    np.testing.assert_array_equal(got, compute_batch(y, SPECS))
    sr = [i for i, (sid, _) in enumerate(SPECS) if sid in ("S", "R")]
    past = np.isposinf(got[sr])
    assert (past == past[0]).all()
    u = expit(y[~np.isnan(y).any(axis=1)])
    clamped = np.count_nonzero((u < EDF_EPS) | (u > 1.0 - EDF_EPS))
    assert counts == {"overflow": int(past[0].sum()), "clamped": clamped}
    assert counts["clamped"] > 0 and (counts["overflow"] > 0) == overflows


def test_counts_are_zero_for_families_not_asked_for():
    y = np.array([[0.3, -0.2, 351.0, -351.0, 1.5]])
    for specs in ([("T", 3.0)], [("KS", None)], [("S", None)]):
        counts = {"overflow": 7}
        compute_batch(y, specs, counts)
        assert counts == {"overflow": int(specs[0][0] == "S"),
                          "clamped": 2 * (specs[0][0] == "KS")}


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


@pytest.mark.parametrize("rows, n", [(4096, 20), (1024, 50)])
def test_memory_on_engine_chunks(rows, n):
    # The Monte Carlo engine's chunk shapes at n = 20 and 50, all eleven
    # statistics.  The bound, 7 y.nbytes + 52 _PAIR_BUDGET bytes (5.44 and
    # 3.72 MB), is just above what T's pair path and the spectral S and R
    # need at n = 20 (5.1 MB); per-node temporaries of a whole chunk would
    # exceed it at n = 50.
    tracemalloc = pytest.importorskip("tracemalloc")
    from logigof._kernels import _PAIR_BUDGET

    y = _kernels.moment_residuals_batch(
        np.random.default_rng([rows, n]).logistic(size=(rows, n)))
    compute_batch(y, SPECS)                          # builds the cached rules
    tracemalloc.start()
    try:
        compute_batch(y, SPECS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 7 * y.nbytes + 52 * _PAIR_BUDGET


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
# the spectral path against the pair path and the quadrature oracles


TSR = SPECS[:7]


def _t_pair_path(y, specs=TSR[:3]):
    """T of every row of y, as compute_batch returns it, from the pair path."""
    y = np.sort(y, axis=1)
    rates = [a for _, a in specs]
    sums = _kernels._pair_sums(y, np.tanh(y / 2.0), rates)
    return np.array([math.sqrt(math.pi / a) / y.shape[1] * t for a, t in zip(rates, sums)])


def _residual_rows(kind, rows, n, seed):
    rng = np.random.default_rng([seed, n])
    x = {"logistic": rng.logistic, "laplace": rng.laplace,
         "t3": lambda size: rng.standard_t(3, size),
         "cauchy": rng.standard_cauchy}[kind](size=(rows, n))
    return _kernels.moment_residuals_batch(x)


def _t_spectral_rows(y):
    """Which rows of y the spectral path evaluates for T."""
    return _kernels._t_route(np.sort(y, axis=1), [a for sid, a in TSR if sid == "T"])[1]


def test_r_quadrature_oracle_matches_the_pair_reference():
    y = np.concatenate([_residual_rows("logistic", 2, 9, seed=60),
                        _residual_rows("cauchy", 2, 9, seed=60)])
    for row in y:
        want = _reference_row(row, [("R", v) for v in (1, 2, 3)])
        got = [r_stat_quadrature(row, v) for v in (1, 2, 3)]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


# Small n, where T's node count exceeds n but not _ANCHOR = 32, n = 31 and
# 32 on either side of it, n = 63 and 64, and one large n.  Every moment row
# takes the spectral path, and S and R do at every n.
@pytest.mark.parametrize("kind", ["logistic", "laplace", "t3", "cauchy"])
@pytest.mark.parametrize("n", [2, 3, 5, 11, 12, 23, 24, 31, 32, 63, 64, 2048])
def test_spectral_path_matches_pair_path(kind, n):
    y = _residual_rows(kind, 4 if n < 2048 else 2, n, seed=61)
    got = compute_batch(y, SPECS)
    np.testing.assert_allclose(got[:3], _t_pair_path(y), rtol=RTOL, atol=0)
    if n < 2048:
        np.testing.assert_allclose(got, reference(y), rtol=RTOL, atol=0)
    else:
        for i, row in enumerate(y):
            assert got[3, i] == pytest.approx(s_quadrature(row), rel=RTOL)
            for v in (1, 2, 3):
                assert got[3 + v, i] == pytest.approx(r_stat_quadrature(row, v), rel=RTOL)
    assert _t_spectral_rows(y).all()


@pytest.mark.parametrize("kind", ["logistic", "laplace"])
def test_pair_path_at_n_10000_matches_quadrature(kind):
    # Rows past T's node cap sum all n^2 pairs; at n = 10^4 these moment
    # rows stay within RTOL of the Gauss-Hermite oracle (3.4e-13 at most).
    from logigof.estimation import FitResult, ScaledResiduals
    from logigof.statistics import WeightSpec, t_stat_quadrature

    y = _residual_rows(kind, 2, 10_000, seed=7)
    got = _t_pair_path(y, [("T", 3.0)])[0]
    for value, row in zip(got, y):
        res = ScaledResiduals(row, FitResult(0.0, 1.0, Method.MOMENTS))
        assert value == pytest.approx(t_stat_quadrature(res, WeightSpec(3.0)).value, rel=RTOL)


def test_t_products_past_n_2048_carry_the_rotation():
    # Past n = 2048 a node block has fewer than 8 nodes and one product
    # stacks fewer than 32 nodes, so the anchor of a product's first block
    # is rotated from the last block of the product before it.
    n = 4096
    y = np.concatenate([_residual_rows("logistic", 2, n, seed=63),
                        _residual_rows("laplace", 1, n, seed=63)])
    block = _kernels._node_block(n)
    counts, fast = _kernels._t_route(np.sort(y, axis=1), [a for sid, a in TSR if sid == "T"])
    assert block * max(1, block // 2) < _kernels._ANCHOR and fast.all()
    assert (counts > block * max(1, block // 2)).all()
    got = compute_batch(y, TSR[:3])
    np.testing.assert_allclose(got, _t_pair_path(y), rtol=RTOL, atol=0)
    for i in range(y.shape[0]):
        np.testing.assert_array_equal(got[:, i], compute_batch(y[i:i + 1], TSR[:3])[:, 0])


def test_spectral_path_on_a_row_at_the_edge_of_the_exp_range():
    # 2 max|Y| = 698.  The pair form of S cancels by a factor ~s^2 here
    # (rel ~2e-11), so S and R are held to their quadrature oracles.
    y = _logistic_rows(1, 2048, seed=62)
    y[0, 7] = 349.0
    assert _t_spectral_rows(y).all()
    got = compute_batch(y, TSR)[:, 0]
    np.testing.assert_allclose(got[:3], _t_pair_path(y)[:, 0], rtol=RTOL, atol=0)
    assert got[3] == pytest.approx(s_quadrature(y[0]), rel=RTOL)
    for v in (1, 2, 3):
        assert got[3 + v] == pytest.approx(r_stat_quadrature(y[0], v), rel=RTOL)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_s_and_r_on_a_row_near_the_exp_limit(sign):
    # n = 20, 2 max|Y| = 698: the S pair term cancels by a factor ~s^2
    # here, the spectral integrand is a square and does not.
    y = _logistic_rows(1, 20, seed=68)
    y[0, 3] = sign * 349.0
    got = compute_batch(y, TSR[3:])[:, 0]
    assert got[0] == pytest.approx(s_quadrature(y[0]), rel=1e-12)
    for v in (1, 2, 3):
        assert got[v] == pytest.approx(r_stat_quadrature(y[0], v), rel=1e-12)


def test_spectral_path_nan_and_exp_range_rows():
    n = 128
    y = _logistic_rows(5, n, seed=63)
    y[0, 2] = 351.0                                  # 2 max|Y| = 702
    y[2, 5] = -1e6                                   # T needs the pair path
    y[4, 9] = np.nan
    got = compute_batch(y, SPECS)
    sr = [i for i, (sid, _) in enumerate(SPECS) if sid in ("S", "R")]
    assert np.isposinf(got[sr][:, [0, 2]]).all()
    assert np.isfinite(np.delete(got[:, :4], sr, axis=0)).all()
    assert np.isnan(got[:, 4]).all()
    np.testing.assert_allclose(got[:3, :4], _t_pair_path(y[:4]), rtol=RTOL, atol=0)
    np.testing.assert_allclose(got[:, :4], reference(y[:4]), rtol=RTOL, atol=0)


@pytest.mark.parametrize("n", [23, 24, 128])
def test_rows_past_the_exp_range_are_not_evaluated(monkeypatch, n):
    # Their S and R are +inf whatever the sums, and every statistic of a row
    # with NaN is NaN: no path sees those rows, T's pair path included.
    seen = {}

    def spy(name):
        fn = getattr(_kernels, name)

        def wrapped(y, *args):
            seen.setdefault(name, []).append(y.copy())
            return fn(y, *args)
        monkeypatch.setattr(_kernels, name, wrapped)

    for name in ("_pair_sums", "_t_spectral", "_sr_spectral"):
        spy(name)
    y = _logistic_rows(5, n, seed=69)
    y[1, 2] = 351.0
    y[3, 0] = -1e6                                   # T takes the pair path
    y[4, 1] = np.nan
    got = compute_batch(y, SPECS)
    assert np.isposinf(got[3:7, [1, 3]]).all()
    assert np.isnan(got[:, 4]).all()
    np.testing.assert_allclose(got[:, :4], reference(y[:4]), rtol=RTOL, atol=0)
    assert "_pair_sums" in seen and "_sr_spectral" in seen
    assert not any(np.isnan(rows).any() for calls in seen.values() for rows in calls)
    assert 2.0 * np.abs(np.concatenate(seen["_sr_spectral"])).max() <= EXP_LIMIT


def _widest_spectral_t_row(n, seed):
    """A sorted residual row scaled to the widest span whose T node count
    the cap still sends to the spectral path, and the same row 1% wider."""
    rates = [a for sid, a in TSR if sid == "T"]
    base = np.sort(_residual_rows("logistic", 1, n, seed), axis=1)
    lo, hi = 1.0, 64.0
    assert _kernels._t_route(base * lo, rates)[1].all()
    assert not _kernels._t_route(base * hi, rates)[1].any()
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _kernels._t_route(base * mid, rates)[1].all() else (lo, mid)
    return base * lo, base * (1.01 * lo)


def test_rotation_on_the_widest_spectral_t_row_matches_quadrature():
    # Every node of the row, up to the cap, is one rotation chain from a
    # direct value: the row needs at least one re-anchoring.  At n = 48 the
    # widest spectral row has 48 nodes, past _ANCHOR = 32.
    from logigof.estimation import ScaledResiduals, fit_moments
    from logigof.statistics import WeightSpec, t_stat_quadrature

    rates = [a for sid, a in TSR if sid == "T"]
    y, _ = _widest_spectral_t_row(48, seed=70)
    assert _kernels._t_route(y, rates)[0][0] > _kernels._ANCHOR
    got = compute_batch(y, TSR[:3])[:, 0]
    res = ScaledResiduals(values=y[0], fit=fit_moments(np.array([-1.0, 1.0])))
    for value, a in zip(got, rates):
        assert value == pytest.approx(t_stat_quadrature(res, WeightSpec(a)).value, rel=1e-11)


# The cap is _ANCHOR = 32 nodes up to n = 32 and n nodes past it.
@pytest.mark.parametrize("n", [5, 20, 32, 200])
def test_t_rows_past_the_node_cap_take_the_pair_path(n):
    inside, outside = _widest_spectral_t_row(n, seed=71)
    y = np.concatenate([inside, outside, _residual_rows("cauchy", 2, n, seed=72)])
    assert _t_spectral_rows(y).tolist() == [True, False, True, True]
    whole = compute_batch(y, SPECS)
    np.testing.assert_allclose(whole[:3], _t_pair_path(y), rtol=RTOL, atol=0)
    for i in range(y.shape[0]):
        np.testing.assert_array_equal(whole[:, i], compute_batch(y[i:i + 1], SPECS)[:, 0])


@pytest.mark.parametrize("n", [20, 50])
def test_r_orders_are_independent_of_each_other(n):
    # Every term of R comes from the call's Gauss-Legendre rule, whose node
    # count grows with the call's largest order, so an order's value alone
    # and beside other orders agree to quadrature accuracy.
    y = np.concatenate([_residual_rows("logistic", 48, n, seed=80),
                        _residual_rows("cauchy", 16, n, seed=81)])
    for specs in ([("R", 3), ("R", 1), ("R", 2)],
                  [("T", 3.0), ("R", 3), ("S", None), ("R", 1), ("R", 2)]):
        for row, (sid, v) in zip(compute_batch(y, specs), specs):
            if sid != "R":
                continue
            np.testing.assert_allclose(row, compute_batch(y, [("R", v)])[0], rtol=RTOL, atol=0)


def r_mgf_quadrature(y, v):
    """R of order v for one residual row as the weighted distance between
    the empirical and the logistic moment generating functions:
    n int_{-1}^{1} sin^2(pi v t) (mean_j exp(t Y_j) - pi t / sin(pi t))^2 dt,
    by adaptive quadrature."""
    from scipy.integrate import quad

    y = np.asarray(y, dtype=float)

    def integrand(t):
        logistic = 1.0 if t == 0.0 else math.pi * t / math.sin(math.pi * t)
        return math.sin(math.pi * v * t) ** 2 * (np.mean(np.exp(t * y)) - logistic) ** 2

    value, _ = quad(integrand, -1.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=400)
    return y.size * value


@pytest.mark.parametrize("n", [9, 20, 50])
def test_r_matches_the_moment_generating_function_distance(n):
    # An oracle that shares no term with the kernel's split of R into pair,
    # single-observation and constant parts.
    y = np.concatenate([_residual_rows("logistic", 3, n, seed=82),
                        _residual_rows("cauchy", 3, n, seed=83)])
    orders = (1, 2, 3, 10)
    got = compute_batch(y, [("R", v) for v in orders])
    want = [[r_mgf_quadrature(row, v) for row in y] for v in orders]
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=0)


def test_spectral_rows_are_independent_of_the_batch_and_of_order():
    n = 160
    y = np.concatenate([_residual_rows("logistic", 3, n, seed=64),
                        _residual_rows("cauchy", 3, n, seed=65),
                        np.full((1, n), np.nan),
                        _residual_rows("t3", 2, n, seed=66) * 4.0])
    t_rows = _t_spectral_rows(y)
    assert t_rows.any() and not t_rows.all()
    whole = compute_batch(y, SPECS)
    for i in range(y.shape[0]):
        np.testing.assert_array_equal(whole[:, i], compute_batch(y[i:i + 1], SPECS)[:, 0])
    np.testing.assert_array_equal(compute_batch(y[::-1], SPECS), whole[:, ::-1])
    shuffled = np.random.default_rng(67).permuted(y, axis=1)
    np.testing.assert_array_equal(compute_batch(shuffled, SPECS), whole)


@pytest.mark.parametrize("rows, n", [(48, 50), (16, 160)])
def test_t_rows_with_mixed_node_counts_are_independent_of_the_batch(rows, n):
    # T takes rows grouped by node count, in row blocks of _PAIR_BUDGET values
    # per node block; a group here spans more than one row block, and no
    # row's values may depend on which other rows share its group or block.
    rng = np.random.default_rng([94, n])
    t2 = _kernels.moment_residuals_batch(rng.standard_t(2, size=(rows // 2, n)))
    _, wide = _widest_spectral_t_row(n, seed=96)
    y = np.concatenate([_residual_rows("logistic", rows, n, seed=94),
                        _residual_rows("cauchy", rows // 2, n, seed=95), t2,
                        wide, np.full((1, n), np.nan)])
    rates = [a for sid, a in TSR if sid == "T"]
    counts, fast = _kernels._t_route(np.sort(y, axis=1), rates)
    assert fast[:-2].all() and not fast[-2:].any()
    sizes = np.unique(counts[fast], return_counts=True)[1]
    block_rows = _kernels._PAIR_BUDGET // (_kernels._node_block(n) * n)
    assert len(sizes) > 1 and sizes.max() > block_rows
    whole = compute_batch(y, SPECS)
    for i in range(y.shape[0]):
        np.testing.assert_array_equal(whole[:, i], compute_batch(y[i:i + 1], SPECS)[:, 0])
    assert np.isnan(whole[:, -1]).all()
    np.testing.assert_allclose(whole[:3, :-1], _t_pair_path(y[:-1]), rtol=RTOL, atol=0)


def test_r_orders_stop_at_100():
    # The Gauss-Legendre rule grows with the order and costs O(count^2) to
    # build: order 100 needs at most 984 nodes inside the exp range.
    assert _kernels.check_spec("R", 100) == ("R", 100)
    with pytest.raises(DomainError, match="at most 100"):
        _kernels.check_spec("R", 101)
    y = _logistic_rows(3, 20, seed=97)
    y[0, 4] = 349.0                                   # 2 max|Y| = 698
    assert _kernels._sr_counts(np.sort(y, axis=1), (100,)).max() <= 984
    np.testing.assert_allclose(compute_batch(y, [("R", 100)]), reference(y, [("R", 100)]),
                               rtol=RTOL, atol=0)


@pytest.mark.parametrize("n", [20, 50])
def test_t_rates_start_at_the_smallest_rate(n):
    # Below about 1e-153 the pair term's (0.5/a)^2 d^2 overflows while
    # exp(-d^2/4a) underflows, and T was NaN on every row.  At the smallest
    # rate T is finite on Cauchy moment rows, the widest the engine sees.
    least = STATS["T"].least
    assert _kernels.check_spec("T", least) == ("T", least)
    for rate in (least / 2, 1e-300):
        with pytest.raises(DomainError, match="at least"):
            _kernels.check_spec("T", rate)
    y = _residual_rows("cauchy", 64, n, seed=98)
    assert np.isfinite(compute_batch(y, [("T", least), ("T", 1e-50)])).all()


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

    res = scaled_residuals(montecarlo.AlternativeSpec("t", (3,)).sample(2048, RngStream(2048)))
    assert s_stat(res).value == pytest.approx(s_stat_quadrature(res).value, rel=1e-13)


@pytest.mark.parametrize("orders", [(), (1,), (1, 2, 3)])
def test_s_and_r_rules_are_exactly_symmetric(orders):
    # The S/R path takes exp(-t Y) as the reciprocal of exp(t Y), so every
    # even rule it can use must pair its nodes and weights exactly.
    for count in range(8, 545, 2):
        nodes, weights = _kernels._sr_rule(count, orders)
        assert nodes.shape == (count,) and weights.shape == (1 + 2 * len(orders), count)
        np.testing.assert_array_equal(nodes[::-1], -nodes)
        np.testing.assert_array_equal(weights[:, ::-1], weights)
        legendre = _kernels._legendre(count)
        np.testing.assert_array_equal(nodes[count // 2:], legendre[0][count // 2:])
        np.testing.assert_array_equal(weights[0, count // 2:], legendre[1][count // 2:])
        for degree in range(0, min(2 * count, 80), 2):    # exact to degree 2 count - 1
            assert np.dot(weights[0], nodes**degree) == pytest.approx(
                2.0 / (degree + 1), rel=1e-13)
        assert np.dot(weights[0], nodes**3) == pytest.approx(0.0, abs=1e-15)


def _mixed_count_rows(rows, n, seed):
    """Moment residuals of logistic, Cauchy and lognormal(1) samples and ML
    residuals of t(2) samples, rows of each, then one row past the exp range
    and one row with NaN."""
    rng = np.random.default_rng([seed, n])
    x = np.concatenate([rng.logistic(size=(rows, n)), rng.standard_cauchy(size=(rows, n)),
                        rng.lognormal(0.0, 1.0, size=(rows, n))])
    ml, _ = montecarlo._residuals_for_chunk(rng.standard_t(2, size=(rows, n)),
                                            Method.MAX_LIKELIHOOD)
    y = np.concatenate([_kernels.moment_residuals_batch(x), ml, x[:2] / x[:2].std()])
    y[-2, 3] = 351.0                                 # 2 max|Y| = 702
    y[-1, 5] = np.nan
    return y


@pytest.mark.parametrize("rows, n", [(96, 20), (48, 50), (3, 2048)])
def test_s_and_r_rows_with_mixed_node_counts_are_independent_of_the_batch(rows, n):
    # Rows are grouped by node count; a group spans several row blocks of
    # _SR_BUDGET values, and no row's values may depend on which other rows
    # share its group or block.
    y = _mixed_count_rows(rows, n, seed=90)
    live = ~np.isnan(y).any(axis=1) & (2.0 * np.abs(y).max(axis=1) <= EXP_LIMIT)
    assert not live[-2:].any() and np.isfinite(y[:-1]).all()
    orders = tuple(v for sid, v in SPECS if sid == "R")
    counts, sizes = np.unique(_kernels._sr_counts(np.sort(y[live], axis=1), orders),
                              return_counts=True)
    assert len(counts) > 1
    block = np.minimum(counts // 2, max(1, _kernels._SR_BUDGET // n))
    assert (sizes > np.maximum(1, _kernels._SR_BUDGET // (block * n))).any()
    whole = compute_batch(y, SPECS)
    for i in range(y.shape[0]):
        np.testing.assert_array_equal(whole[:, i], compute_batch(y[i:i + 1], SPECS)[:, 0])
    sr = [i for i, (sid, _) in enumerate(SPECS) if sid in ("S", "R")]
    assert np.isposinf(whole[sr, -2]).all() and np.isnan(whole[:, -1]).all()
    if n < 2048:
        np.testing.assert_allclose(whole[sr][:, live], reference(y[live], SPECS[3:7]),
                                   rtol=RTOL, atol=0)
    else:
        # The full-square reference takes about a minute per row here.
        for i in np.flatnonzero(live):
            assert whole[3, i] == pytest.approx(s_quadrature(y[i]), rel=RTOL)
            for v in (1, 2, 3):
                assert whole[3 + v, i] == pytest.approx(r_stat_quadrature(y[i], v), rel=RTOL)


@pytest.mark.parametrize("n", [20, 50])
def test_rows_in_blocks_of_the_s_and_r_budget_are_independent_of_the_batch(n):
    # S and R take up to _SR_BUDGET values per row block: a count group here
    # spans more than one block (about 160 rows at n = 20, 64 at n = 50).
    # Every live row takes T's spectral path, and at n = 50 some need more
    # than the _ANCHOR nodes that T stacks into one product per row (at
    # n = 20 the widest rows need 32).
    # Mixed counts, ML-fitted t(2) rows, a row past the exp range and a row
    # with NaN.
    y = _mixed_count_rows(96, n, seed=99)
    live = ~np.isnan(y).any(axis=1) & (2.0 * np.abs(y).max(axis=1) <= EXP_LIMIT)
    orders = tuple(v for sid, v in SPECS if sid == "R")
    counts, sizes = np.unique(_kernels._sr_counts(np.sort(y[live], axis=1), orders),
                              return_counts=True)
    block = np.minimum(counts // 2, max(1, _kernels._SR_BUDGET // n))
    assert len(counts) > 1 and (sizes > _kernels._SR_BUDGET // (block * n)).any()
    t_counts, fast = _kernels._t_route(np.sort(y[:-2], axis=1),
                                       [a for sid, a in TSR if sid == "T"])
    assert fast.all()
    if n == 50:
        assert t_counts.max() > _kernels._ANCHOR                  # two products on some rows
    whole = compute_batch(y, SPECS)
    for i in range(y.shape[0]):
        np.testing.assert_array_equal(whole[:, i], compute_batch(y[i:i + 1], SPECS)[:, 0])
    assert np.isposinf(whole[3:7, -2]).all() and np.isnan(whole[:, -1]).all()
    rows = np.flatnonzero(live)[::8]
    np.testing.assert_allclose(whole[:, rows], reference(y[rows]), rtol=RTOL, atol=0)


def test_s_and_r_past_the_node_block_budget():
    # Past n = 8192 a node block is one node, so node counts may be odd; the
    # S/R rule rounds them up to even, and above _PAIR_BUDGET observations
    # one row's block holds more than the budget.
    n = _kernels._PAIR_BUDGET + 116
    y = _logistic_rows(3, n, seed=91)
    for orders in ((), (1,), (1, 2)):
        assert (_kernels._sr_counts(np.sort(y, axis=1), orders) % 2 == 0).all()
    got = compute_batch(y, TSR[3:5])
    for i, row in enumerate(y):
        assert got[0, i] == pytest.approx(s_quadrature(row), rel=RTOL)
        assert got[1, i] == pytest.approx(r_stat_quadrature(row, 1), rel=RTOL)


def test_s_and_r_take_one_exponential_per_node_pair(monkeypatch):
    # exp(-t Y) is the reciprocal of exp(t Y): the S/R path evaluates the
    # exponential at the positive nodes only.
    y = np.sort(np.concatenate([_residual_rows("logistic", 40, 50, seed=92),
                                _residual_rows("cauchy", 9, 50, seed=93)]), axis=1)
    orders = (1, 2, 3)
    counts = _kernels._sr_counts(y, orders)
    assert len(np.unique(counts)) > 1
    evaluated = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def exp(self, x, *args, **kwargs):
            evaluated.append(np.size(x))
            return np.exp(x, *args, **kwargs)

    monkeypatch.setattr(_kernels, "np", CountingNumpy())
    _kernels._sr_spectral(y, np.tanh(y / 2.0), orders, True, counts)
    assert sum(evaluated) == int(np.sum(counts // 2)) * y.shape[1]
