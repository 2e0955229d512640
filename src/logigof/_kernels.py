"""Batch kernels for the test statistics, and the registry of statistics.

``STATS`` is the one place that names the statistics: each id maps to its
kernel family and to the default and type of its tuning parameter, and
``check_spec`` validates a (stat_id, tuning) pair against it.  One entry
point, ``compute_batch(y, specs)``, evaluates every requested statistic for
each row of a (C, n) residual batch; the single-sample functions of
``statistics`` call it with a batch of one.

Pair path.  Below ``_SPECTRAL_MIN_N`` T, S and R sum a term that is
symmetric in (j, k) over all n^2 ordered pairs; each unordered pair is
evaluated once.  Pairing each j with (j + o) mod n for the offsets
o = 1 .. (n-1)//2 meets every unordered pair exactly once; those offsets
carry weight 2.  For even n the offset n/2 meets each pair twice and
carries weight 1, and so does the diagonal, offset 0.  The shifted rows are
windows into [y, y], so no pair index arrays are built.  T computes d^2
once for all its weight rates.  S and R compute sinh and cosh of
s = Y_j + Y_k from one expm1 and share them: R's sinh(s)/s is S's A_0(s)/2.
Where |s| < 0.1 the closed forms of the interval moments cancel, and only
those pairs are re-evaluated by series.

Spectral path.  The pair sums are O(n^2); for n >= ``_SPECTRAL_MIN_N`` the
kernel evaluates T, S and R instead from the integrals that define them,
with K nodes per row at O(n K) cost.  With m = tanh(Y/2):

- T = (1/n) int |G(t)|^2 exp(-a t^2) dt over the real line, with
  G(t) = sum_j (it - m_j) exp(itY_j).  The integrand is even and entire, so
  the trapezoid rule on t = 0, h, 2h, ... converges geometrically.  |G|^2
  holds frequencies up to span = max Y - min Y, so the step
  h = 2 pi / (span + sqrt(156 a_max)) aliases only what the weight has
  damped by e^-39, and nodes stop at t_max = sqrt(39 / a_min), where every
  weight is below e^-39.  All T rates of a call share the nodes and one set
  of cos and sin values.
- S = (1/n) int_{-1}^{1} (sum_j (t - m_j) exp(tY_j))^2 dt, by
  Gauss-Legendre.  The integrand is a square, so S has none of the pair
  form's cancellation at large |Y_j + Y_k|.
- R: its pair sum of (A_0(s)/2) / (4 v^2 pi^2 + s^2), s = Y_j + Y_k, equals
  int_{-1}^{1} sin^2(pi v t) / (4 pi^2 v^2) (sum_j exp(tY_j))^2 dt, because
  int_{-1}^{1} cos(2 pi v t) exp(ts) dt = A_0(s) s^2 / (s^2 + 4 pi^2 v^2).
  S and every order share the values exp(t_k Y_j).  R's single-observation
  and constant terms are the same as on the pair path.

The Gauss-Legendre count is ceil(0.7 c + 4 c^(1/3) + 4) with
c = 2 max|Y| + 2 pi max(v), which bounds the rule's error on exp(c t) to
1e-17 of its integral; tables are built on first use and cached.  Node
counts depend only on the row and on the tunings of the call.  A row takes
the spectral path only while its nodes cost less than its pairs: at most
n/4 trapezoid nodes (each costs a cos and a sin per observation) and at
most 2n Gauss-Legendre nodes (one exp); wider rows and rows with NaN take
the pair path.  The crossover
``_SPECTRAL_MIN_N`` = 64 is measured: for all seven T, S and R
specifications on batches of logistic and Cauchy moment residuals the
spectral path is 1.5 to 2 times faster from n = 64, and at n = 50 the
null calibration measured no gain, so n = 20 and n = 50 stay on the pair
path.

Memory.  Offsets are taken in blocks whose size depends on n only, and rows
in groups, so that a block holds at most ``_PAIR_BUDGET`` pairs for any
batch size C (one offset row of n pairs when n exceeds the budget).  The
pair terms are computed in eight scratch buffers of one block each,
allocated once per call, so that the heap does not grow and shrink with
every block.  The spectral path takes nodes and rows in blocks of the same
budget, in three scratch buffers.  Besides them the kernel keeps O(C n)
arrays.

Overflow.  S and R are +inf on rows with 2 max|Y| > ``_EXP_LIMIT``: their
exponential terms leave double range, and the statistic then exceeds any
calibrated threshold.  T and the EDF statistics stay finite on those rows.
Rows containing NaN give NaN for every statistic.

Determinism.  Rows are sorted first, so every statistic is exactly invariant
under permutations of a sample.  Each row is reduced over blocks whose
lengths depend on n only, in a fixed order, so a row's values are
bit-identical whatever the other rows of the batch, and whatever the number
of workers.  On the spectral path each node's sum runs over the n values
of one row, and the node sums are added strictly in order, so the zero
terms that pad a row to the batch's largest node count change nothing.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import expit

from .logistic_core import DomainError

# Largest 2 max|Y| for which S and R are finite; beyond it they are +inf.
_EXP_LIMIT = 700.0
# Below this |Y_j + Y_k| the interval moments switch to series evaluation;
# the closed forms lose ~4e-16/s^3 to cancellation, so 0.1 keeps both
# branches accurate to better than 1e-12 in the overlap band.
_SERIES_CUT = 0.1
# Most pairs in one block, and the size of each pair scratch buffer.
_PAIR_BUDGET = 1 << 14
_EDF_EPS = 1e-15
# Smallest n evaluated by the spectral path (see the module docstring).
_SPECTRAL_MIN_N = 64
# The spectral rules leave out what is damped by exp(-_DECAY) ~ 1e-17.
_DECAY = 39.0


class NumericOverflowError(ArithmeticError):
    """A statistic's exponential terms exceed double-precision range."""


class Stat(NamedTuple):
    """Registry entry: the kernel family that evaluates a statistic, and the
    default and type of its tuning parameter (None when it takes none)."""

    family: str                       # "T", "SR" or "EDF"
    default: Optional[float] = None
    tuning: Optional[type] = None     # float (T's weight rate) or int (R's order)


STATS = {
    "T": Stat("T", 3.0, float),
    "S": Stat("SR"),
    "R": Stat("SR", 1, int),
    "KS": Stat("EDF"),
    "CM": Stat("EDF"),
    "AD": Stat("EDF"),
    "WA": Stat("EDF"),
}
EDF_IDS = tuple(sid for sid, stat in STATS.items() if stat.family == "EDF")


def check_spec(stat_id: str, tuning=None) -> tuple:
    """(stat_id, tuning) with the tuning defaulted and cast as the registry
    says; DomainError for an unknown id or a tuning the statistic cannot take."""
    stat = STATS.get(stat_id)
    if stat is None:
        raise DomainError(f"unknown statistic {stat_id!r}; valid: {', '.join(STATS)}")
    if stat.tuning is None:
        if tuning is not None:
            raise DomainError(f"statistic {stat_id} takes no tuning parameter")
        return stat_id, None
    value = float(stat.default if tuning is None else tuning)
    if not (math.isfinite(value) and value > 0):
        raise DomainError(f"tuning for {stat_id} must be positive and finite")
    if stat.tuning is int and not value.is_integer():
        raise DomainError(f"tuning for {stat_id} must be an integer, got {value:g}")
    return stat_id, stat.tuning(value)


def moment_residuals_batch(x: np.ndarray) -> np.ndarray:
    """Moment-fit residuals of each row of x; degenerate rows become NaN."""
    mu = np.mean(x, axis=1, keepdims=True)
    centered = x - mu
    sd = np.sqrt(np.mean(centered * centered, axis=1, keepdims=True))
    with np.errstate(divide="ignore", invalid="ignore"):
        y = centered / ((math.sqrt(3.0) / math.pi) * sd)
    y[np.broadcast_to(sd == 0.0, y.shape)] = np.nan
    return y


# ---------------------------------------------------------------------------
# pair terms


def _t_sums(yj, mj, yk, mk, rates, scratch) -> list:
    """Per (row, offset) sums over j of the T pair term of each rate a:
    exp(-d^2/4a) [(2a - d^2)/4a^2 + m_j m_k - d (m_j - m_k)/2a], with
    d = Y_j - Y_k and m = tanh(Y/2).

    yj, mj have shape (R, 1, n), yk, mk and each scratch buffer (R, B, n).
    """
    mm, d, dd, g, inner, e = scratch[:6]
    np.multiply(mj, mk, out=mm)
    np.subtract(yj, yk, out=d)
    np.multiply(d, d, out=dd)
    np.subtract(mj, mk, out=g)
    g *= d
    np.subtract(1.0, g, out=g)                    # 1 - d (m_j - m_k)
    sums = []
    for a in rates:
        np.multiply(dd, 0.5 / a, out=inner)
        np.subtract(g, inner, out=inner)
        inner *= 0.5 / a
        inner += mm
        np.multiply(dd, -0.25 / a, out=e)
        np.exp(e, out=e)
        e *= inner
        sums.append(e.sum(axis=2))
    return sums


def _sr_sums(yj, mj, yk, mk, orders, need_s, scratch) -> list:
    """Per (row, offset) sums over j of the S pair term (when ``need_s``)
    and of the R pair term of each order v.

    With s = Y_j + Y_k and A_r(s) the integral of t^r exp(t s) over
    t in (-1, 1), the S term is A_2(s) - (m_j + m_k) A_1(s) + m_j m_k A_0(s)
    and the R term is (A_0(s)/2) / (4 v^2 pi^2 + s^2).  sinh and cosh of |s|
    come from one expm1, which keeps sinh accurate as s nears 0; pairs with
    |s| < 0.1, where the closed forms cancel, are overwritten by the power
    series.  Shapes as in ``_t_sums``.
    """
    s, abs_s, em, e, inv_e, a0, a1, a2 = scratch[:8]
    np.add(yj, yk, out=s)
    np.abs(s, out=abs_s)
    np.expm1(abs_s, out=em)
    np.add(em, 1.0, out=e)
    np.divide(1.0, e, out=inv_e)
    np.multiply(em, inv_e, out=a0)
    a0 += em
    a0 /= abs_s                                   # 2 sinh(s) / s
    moments = [a0]
    if need_s:
        inv_s = np.divide(1.0, s, out=em)
        np.add(e, inv_e, out=a1)
        a1 -= a0
        a1 *= inv_s                               # (2 cosh(s) - A_0) / s
        np.multiply(a1, inv_s, out=a2)
        a2 *= -2.0
        a2 += a0                                  # A_0 - 2 A_1 / s
        moments += [a1, a2]
    small = np.flatnonzero(abs_s < _SERIES_CUT)
    if small.size:
        ss = np.take(s, small)
        s2 = ss * ss
        series = (
            2.0 * (1.0 + s2 * (1.0 / 6.0 + s2 * (
                1.0 / 120.0 + s2 * (1.0 / 5040.0 + s2 / 362880.0)))),
            2.0 * ss * (1.0 / 3.0 + s2 * (1.0 / 30.0 + s2 * (
                1.0 / 840.0 + s2 / 45360.0))),
            2.0 * (1.0 / 3.0 + s2 * (1.0 / 10.0 + s2 * (
                1.0 / 168.0 + s2 / 6480.0))),
        )
        for moment, value in zip(moments, series):
            np.put(moment, small, value)
    sums = []
    if need_s:
        pair = np.add(mj, mk, out=inv_e)
        pair *= a1
        np.subtract(a2, pair, out=pair)
        mm_a0 = np.multiply(mj, mk, out=e)
        mm_a0 *= a0
        pair += mm_a0
        sums.append(pair.sum(axis=2))
    ss = np.multiply(s, s, out=abs_s)
    for v in orders:
        den = np.add(ss, 4.0 * v * v * math.pi**2, out=s)
        np.divide(a0, den, out=den)
        sums.append(0.5 * den.sum(axis=2))
    return sums


def _pair_sums(y, m, rates, orders, need_s) -> list:
    """Sums over all ordered pairs of each T, S and R pair term, per row.

    Offset o pairs j with (j + o) mod n; see the module docstring for the
    weights.  Returns (C,) arrays: one per T rate, then S when ``need_s``,
    then one per R order.  Every block works in the same preallocated
    scratch buffers, so the heap does not grow and shrink once per block.
    """
    c, n = y.shape
    offsets = n // 2 + 1
    weights = np.full(offsets, 2.0)
    weights[0] = 1.0
    if n % 2 == 0:
        weights[-1] = 1.0
    per_block = max(1, min(offsets, _PAIR_BUDGET // n))
    rows = max(1, _PAIR_BUDGET // (per_block * n))
    y_win = sliding_window_view(np.concatenate([y, y], axis=1), n, axis=1)
    m_win = sliding_window_view(np.concatenate([m, m], axis=1), n, axis=1)
    scratch = np.empty((8, min(rows, c) * per_block * n))
    totals = np.zeros((len(rates) + need_s + len(orders), c))
    for r0 in range(0, c, rows):
        r1 = min(r0 + rows, c)
        yj, mj = y[r0:r1, None, :], m[r0:r1, None, :]
        for lo in range(0, offsets, per_block):
            hi = min(lo + per_block, offsets)
            yk, mk = y_win[r0:r1, lo:hi], m_win[r0:r1, lo:hi]
            block = scratch[:, :yk.size].reshape(8, *yk.shape)
            sums = []
            if rates:
                sums += _t_sums(yj, mj, yk, mk, rates, block)
            if need_s or orders:
                sums += _sr_sums(yj, mj, yk, mk, orders, need_s, block)
            for total, part in zip(totals, sums):
                total[r0:r1] += (part * weights[lo:hi]).sum(axis=1)
    return list(totals)


# ---------------------------------------------------------------------------
# the spectral path


def _t_step(y, rates):
    """Trapezoid step of T on each sorted row: the integrand's frequencies
    lie within the row's span, so this step aliases only content that the
    widest weight exp(-a t^2) has damped by exp(-_DECAY)."""
    span = y[:, -1] - y[:, 0]
    return 2.0 * math.pi / (span + math.sqrt(4.0 * _DECAY * max(rates)))


def _t_counts(y, rates):
    """Trapezoid node count t = 0, h, 2h, ... of T on each row: nodes up to
    t_max = sqrt(_DECAY / a_min), past which every weight is below
    exp(-_DECAY).  NaN for rows containing NaN."""
    return np.ceil(math.sqrt(_DECAY / min(rates)) / _t_step(y, rates)) + 1.0


def _sr_counts(y, orders):
    """Gauss-Legendre node count of S and R on each row.  The integrands are
    sums of exp(s t) with |s| <= c = 2 max|Y| (below the exp limit), times
    sin^2(pi v t) for R; ceil(0.7 c' + 4 c'^(1/3) + 4) nodes with
    c' = c + 2 pi max(v) bound the Gauss-Legendre error of exp(c' t) to
    1e-17 of its integral."""
    c = 2.0 * np.minimum(np.max(np.abs(y), axis=1), 0.5 * _EXP_LIMIT) \
        + 2.0 * math.pi * max(orders, default=0)
    return np.ceil(0.7 * c + 4.0 * np.cbrt(c) + 4.0)


@functools.lru_cache(maxsize=256)
def _legendre(count: int):
    """Gauss-Legendre nodes (ascending) and weights of order ``count``, built
    on first use and cached (residual rows with R orders up to 3 need fewer
    than 560 nodes); callers only read them.  Newton's method on the Legendre
    recurrence from the guesses cos(pi (k - 1/4) / (count + 1/2)) needs no
    eigensolver, so no LAPACK buffers, and keeps the weights next to +-1
    accurate, where numpy's leggauss loses ~1e-9 at count = 543."""
    x = np.cos(math.pi * (np.arange(count, 0, -1) - 0.25) / (count + 0.5))
    for _ in range(100):
        p_prev, p = np.ones_like(x), x
        for j in range(2, count + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        dp = count * (p_prev - x * p) / ((1.0 - x) * (1.0 + x))
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) < 1e-15:
            break
    return x, 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)


def _node_sums(y, m, t, funcs) -> np.ndarray:
    """Sums over j of f(t_k Y_j) and of m_j f(t_k Y_j) for each f in
    ``funcs``, for every row and node of the (C, K) node table t: an array
    of shape (2 len(funcs), C, K).  Nodes and rows are taken in blocks of at
    most ``_PAIR_BUDGET`` elements (one node of n when n exceeds it), in
    three scratch buffers allocated once per call."""
    c, n = y.shape
    nodes = t.shape[1]
    per_block = max(1, min(nodes, _PAIR_BUDGET // n))
    rows = max(1, _PAIR_BUDGET // (per_block * n))
    scratch = np.empty((3, min(rows, c) * per_block * n))
    out = np.empty((2 * len(funcs), c, nodes))
    for r0 in range(0, c, rows):
        r1 = min(r0 + rows, c)
        yr, mr = y[r0:r1, None, :], m[r0:r1, None, :]
        for lo in range(0, nodes, per_block):
            hi = min(lo + per_block, nodes)
            shape = (r1 - r0, hi - lo, n)
            phase, value, weighted = scratch[:, :math.prod(shape)].reshape(3, *shape)
            np.multiply(t[r0:r1, lo:hi, None], yr, out=phase)
            for i, f in enumerate(funcs):
                f(phase, out=value)
                out[2 * i, r0:r1, lo:hi] = value.sum(axis=2)
                np.multiply(value, mr, out=weighted)
                out[2 * i + 1, r0:r1, lo:hi] = weighted.sum(axis=2)
    return out


def _node_total(terms):
    """Sum over the node axis of a (C, K) array, strictly left to right.
    Rows with fewer nodes than K are padded with zero terms; a pairwise
    np.sum would group a row's terms by K, a running sum does not."""
    return np.cumsum(terms, axis=1)[:, -1]


def _t_spectral(y, m, rates, counts) -> list:
    """T pair sums of each rate from n int |g(t)|^2 exp(-a t^2) dt, where
    n g(t) = G(t) = sum_j (it - m_j) exp(itY_j): the integrand is even, so
    the trapezoid rule on t = 0, h, 2h, ... weights t = 0 by h and every
    other node by 2h.  All rates share the cos and sin values."""
    h = _t_step(y, rates)
    k = np.arange(counts.max())
    t = h[:, None] * k
    weight = np.where(k < counts[:, None], 2.0 * h[:, None], 0.0)
    weight[:, 0] = h
    cos, m_cos, sin, m_sin = _node_sums(y, m, t, (np.cos, np.sin))
    re = t * sin + m_cos
    im = t * cos - m_sin
    g2 = weight * (re * re + im * im)
    return [math.sqrt(a / math.pi) * _node_total(g2 * np.exp(-a * t * t)) for a in rates]


def _sr_spectral(y, m, orders, need_s, counts) -> list:
    """S and R pair sums from integrals over t in (-1, 1) by Gauss-Legendre:
    S from (sum_j (t - m_j) exp(tY_j))^2 and R of order v from
    sin^2(pi v t) / (4 pi^2 v^2) (sum_j exp(tY_j))^2, which equals R's pair
    sum of (A_0(s)/2) / (4 v^2 pi^2 + s^2).  S and every order share one
    exp(t_k Y_j) per node and row."""
    c = len(y)
    t = np.zeros((c, counts.max()))
    weight = np.zeros_like(t)
    for count in np.unique(counts):
        rows = counts == count
        t[rows, :count], weight[rows, :count] = _legendre(int(count))
    e, m_e = _node_sums(y, m, t, (np.exp,))
    sums = []
    if need_s:
        f = t * e - m_e
        sums.append(_node_total(weight * f * f))
    e2 = weight * e * e
    for v in orders:
        sums.append(_node_total(np.sin(math.pi * v * t) ** 2 * e2) / (4.0 * v * v * math.pi**2))
    return sums


def _routed(y, m, fast, spectral, rates=(), orders=(), need_s=False) -> list:
    """Pair sums of every row: ``spectral(fast)`` for the rows selected by
    the mask ``fast``, the pair path for the others."""
    out = np.empty((len(rates) + need_s + len(orders), len(y)))
    if fast.any():
        out[:, fast] = spectral(fast)
    if not fast.all():
        slow = ~fast
        out[:, slow] = _pair_sums(y[slow], m[slow], rates, orders, need_s)
    return list(out)


def _tsr_sums(y, m, rates, orders, need_s) -> list:
    """The pair sums of ``_pair_sums``, by the spectral path for n at least
    ``_SPECTRAL_MIN_N`` on the rows whose node count costs less than their
    pairs: at most n/4 nodes for T, at most 2n for S and R.  Rows with NaN
    have no node count and take the pair path."""
    n = y.shape[1]
    if n < _SPECTRAL_MIN_N:
        return _pair_sums(y, m, rates, orders, need_s)
    sums = []
    if rates:
        counts = _t_counts(y, rates)
        sums += _routed(y, m, counts <= n // 4, lambda rows: _t_spectral(
            y[rows], m[rows], rates, counts[rows].astype(int)), rates=rates)
    if need_s or orders:
        counts = _sr_counts(y, orders)
        sums += _routed(y, m, counts <= 2 * n, lambda rows: _sr_spectral(
            y[rows], m[rows], orders, need_s, counts[rows].astype(int)),
            orders=orders, need_s=need_s)
    return sums


def _r_elementwise(y, v: int):
    """Row sums of the single-observation part of R of order v."""
    ch, sh = np.cosh(y), np.sinh(y)
    y2 = y * y
    total = np.zeros(y.shape[0])
    for k in range(1, v + 1):
        q = y2 + (2 * k - 1) ** 2 * math.pi**2
        total += np.sum((2 * k - 1) * (q * ch - 2.0 * y * sh) / (q * q), axis=1)
    return total


def _r_constant(v: int) -> float:
    tail = sum((v - k) / k**2 for k in range(1, v))
    return 2.0 * v * math.pi**2 / 3.0 + 2.0 * tail


def edf_probabilities(y: np.ndarray):
    """Logistic CDF of each residual clamped into [eps, 1 - eps], and the
    number of values clamped per row."""
    u = expit(y)
    clamped = np.sum((u < _EDF_EPS) | (u > 1.0 - _EDF_EPS), axis=-1)
    return np.clip(u, _EDF_EPS, 1.0 - _EDF_EPS), clamped


def _edf_values(y) -> dict:
    """KS, CM, AD and WA of every row, keyed by (stat_id, None)."""
    n = y.shape[1]
    u, _ = edf_probabilities(y)
    j = np.arange(1, n + 1, dtype=float)
    d_plus = np.max(j / n - u, axis=1)
    d_minus = np.max(u - (j - 1.0) / n, axis=1)
    cm = 1.0 / (12.0 * n) + np.sum((u - (2.0 * j - 1.0) / (2.0 * n)) ** 2, axis=1)
    return {
        ("KS", None): np.maximum(d_plus, d_minus),
        ("CM", None): cm,
        ("AD", None):
            -n - np.mean((2.0 * j - 1.0) * (np.log(u) + np.log(1.0 - u[:, ::-1])), axis=1),
        ("WA", None): cm - n * (np.mean(u, axis=1) - 0.5) ** 2,
    }


# ---------------------------------------------------------------------------
# the batch kernel


def compute_batch(y: np.ndarray, specs) -> np.ndarray:
    """Evaluate statistics for every row of a (C, n) residual batch.

    ``specs`` is a sequence of (stat_id, tuning) pairs, e.g. ("T", 3.0),
    ("R", 1), ("KS", None), each checked by ``check_spec``.  Returns an
    array of shape (len(specs), C).  Rows containing NaN produce NaN for
    every statistic; S and R are +inf on rows past the exp range.
    """
    specs = [check_spec(sid, tuning) for sid, tuning in specs]
    y = np.sort(np.asarray(y, dtype=float), axis=1)
    c, n = y.shape
    rates = [a for sid, a in specs if sid == "T"]
    orders = [v for sid, v in specs if sid == "R"]
    need_s = ("S", None) in specs
    values = {}
    if rates or orders or need_s:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            sums = iter(_tsr_sums(y, np.tanh(y / 2.0), rates, orders, need_s))
            values = {("T", a): math.sqrt(math.pi / a) / n * next(sums) for a in rates}
            if need_s:
                values["S", None] = next(sums) / n
            for v in orders:
                values["R", v] = (4.0 * v * v * math.pi**2 / n) * next(sums) \
                    - 4.0 * math.pi**2 * _r_elementwise(y, v) + n * _r_constant(v)
        overflow = 2.0 * np.max(np.abs(y), axis=1, initial=0.0) > _EXP_LIMIT
        for (sid, _), value in values.items():
            if STATS[sid].family == "SR":
                value[overflow] = np.inf
    if any(STATS[sid].family == "EDF" for sid, _ in specs):
        values.update(_edf_values(y))
    return np.array([values[key] for key in specs]).reshape(len(specs), c)
