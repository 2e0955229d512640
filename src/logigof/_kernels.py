"""Batch kernels for the test statistics, and the registry of statistics.

``STATS`` is the one place that names the statistics: each id maps to its
kernel family and to the default, type and largest value of its tuning
parameter, and ``check_spec`` validates a (stat_id, tuning) pair against it.
R's order stops at 100: its Gauss-Legendre rule grows with the order (984
nodes at 100) and takes O(count^2) to build.  One entry
point, ``compute_batch(y, specs)``, evaluates every requested statistic for
each row of a (C, n) residual batch; the single-sample functions of
``statistics`` call it with a batch of one.

Pair path.  Below ``_T_MIN_N``, and on rows past its node cap, T sums a
term that is symmetric in (j, k) over all n^2 ordered pairs; each unordered
pair is evaluated once.  Pairing each j with (j + o) mod n for the offsets
o = 1 .. (n-1)//2 meets every unordered pair exactly once; those offsets
carry weight 2.  For even n the offset n/2 meets each pair twice and
carries weight 1, and so does the diagonal, offset 0.  The shifted rows are
windows into [y, y], so no pair index arrays are built, and d^2 is computed
once for all weight rates.  The pair path is the oracle of T's spectral
path in the tests.

Spectral path.  Pair sums are O(n^2); S and R at every n, and T from its
crossover on, are evaluated instead from the integrals that define them,
with K nodes per row at O(n K) cost.  With m = tanh(Y/2):

- T = (1/n) int |G(t)|^2 exp(-a t^2) dt over the real line, with
  G(t) = sum_j (it - m_j) exp(itY_j).  The integrand is even and entire, so
  the trapezoid rule on t = 0, h, 2h, ... converges geometrically.  |G|^2
  holds frequencies up to span = max Y - min Y, so the step
  h = 2 pi / (span + sqrt(156 a_max)) aliases only what the weight has
  damped by e^-39, and nodes stop at t_max = sqrt(39 / a_min), where every
  weight is below e^-39.  All T rates of a call share the nodes.
  exp(i k h Y_j) comes from a rotation, not from a cos and a sin per node:
  z_j = exp(i h Y_j) is computed once per row, a block of B nodes starting
  at k0 is exp(i k0 h Y_j) times z_j^0 .. z_j^(B-1), and exp(i k0 h Y_j) is
  evaluated directly every ``_ANCHOR`` = 32 nodes and multiplied by z^B in
  between.  No value is more than 32 complex products from a direct one,
  so the phase error stays within ~32 eps (Numerical Recipes, section 5.4,
  on trigonometric recurrences).  The interval is 32 and not shorter
  because a direct complex exp costs 20-45 times a complex product, and
  because the weight makes the longer chains harmless: on logistic rows at
  n = 50 (24 nodes), exp(-a t^2) is below about e^-22 from node 16 on, and
  on wider rows of 40 nodes (n = 48-128) T stays within 4e-15 of its
  quadrature.
- S = (1/n) int_{-1}^{1} (sum_j (t - m_j) exp(tY_j))^2 dt, by
  Gauss-Legendre.  The integrand is a square, so S has none of the
  cancellation that its pair form, A_2(s) - (m_j + m_k) A_1(s) +
  m_j m_k A_0(s) with A_r(s) the integral of t^r exp(ts) over (-1, 1) and
  s = Y_j + Y_k, suffers at large |s|.
- R: its pair sum of (A_0(s)/2) / (4 v^2 pi^2 + s^2), s = Y_j + Y_k, equals
  int_{-1}^{1} sin^2(pi v t) / (4 pi^2 v^2) (sum_j exp(tY_j))^2 dt, because
  int_{-1}^{1} cos(2 pi v t) exp(ts) dt = A_0(s) s^2 / (s^2 + 4 pi^2 v^2).
  S and every order share the values exp(t_k Y_j), and the weights
  w sin^2(pi v t) / (4 pi^2 v^2) are cached with each Gauss-Legendre table.
  R's single-observation and constant terms are closed forms in each Y_j.

Both sums over j of a node block, of f(t_k Y_j) and of m_j f(t_k Y_j), are
one matrix product per row with the two rows (1, m) (for T, (exp(i k0 h Y),
m exp(i k0 h Y)) against the powers of z).  The Gauss-Legendre count is
ceil(0.7 c + 4 c^(1/3) + 4) with c = 2 max|Y| + 2 pi max(v), which bounds
the rule's error on exp(c t) to 1e-17 of its integral; tables are built on
first use and cached.  Node counts are rounded up to whole blocks of
``_NODE_BLOCK`` = 8 nodes (fewer for n > 2048, see ``_node_block``),
S and R counts then to an even number, and depend only on the row and on
the tunings of the call.  An even Gauss-Legendre rule pairs each node t
with -t at the same weight; ``_sr_rule`` mirrors the positive half, so the
pairing is exact.  S and R therefore form t_k Y_j and exp(t_k Y_j) at the
positive nodes only, and take exp(-t_k Y_j) as the reciprocal of
exp(t_k Y_j): per observation and node pair one product, one exponential
and one reciprocal, where a reciprocal costs less than the exponential
alone (0.9 against 1.2 ns per value on a 2-vCPU x86-64 host).
Since 2 max|Y| <= ``_EXP_LIMIT`` on every row they see, |t Y| <= 350 and
neither value leaves the normal range.

Routing.  T's crossover and node cap were measured on the engine's chunk
shapes (4096 rows up to n = 25, 1024 up to 64) of logistic and Cauchy
moment residuals at three rates, on 2 vCPUs (median of 7 alternating rounds
of the best of 5 calls).  T (24-30 nodes on these rows) ties with its pair
sums at n = 20 (0.97-1.06 times their speed) and gains only 1.1-1.25 at
n = 22-28, within this host's noise; ``_T_MIN_N`` = 32 is the first n where
it wins clearly, 1.4-1.5 times (1.6 at 40, 2.0-2.2 at 50).  At n = 32 and
50 the spectral T breaks even with the pair sums at about 1.2 n nodes
(1.5-2 n at n = 128-256), so a row takes it only while its node count is at
most ``_T_NODES_PER_OBS`` n = n; wider rows take the pair path.  S and R
(40-49 nodes on such rows) take the spectral path on every row inside the
exp range, whatever its node count (at most 544 there for orders up to 3,
984 at order 100): on 4096 rows at
n = 20 it is 1.4 times faster than their pair sums on logistic rows and 1.3
times on Cauchy rows, and it breaks even near n = 14 (0.76-0.82 times their
speed at n = 10).  Rows with NaN take neither path.

Memory.  Offsets are taken in blocks whose size depends on n only, and rows
in groups, so that a block holds at most ``_PAIR_BUDGET`` pairs for any
batch size C (one offset row of n pairs when n exceeds the budget).  The
pair terms are computed in six scratch buffers of one block each, allocated
once per call, so that the heap does not grow and shrink with every block.
Both spectral paths take the rows of each node count in blocks
(``_count_blocks``) whose node block, ``_node_block(n)`` nodes for T and up
to ``_PAIR_BUDGET`` / n positive nodes for S and R, holds at most
``_PAIR_BUDGET`` values (one row when n exceeds the budget).  Those values
fill one scratch buffer allocated once per call, and a block keeps only
O(rows K) node sums.  The rows of a count are read block by block, so no
(rows, n) copy of a whole group is made, and R's single-observation terms
are also taken in row blocks of at most ``_PAIR_BUDGET`` elements.  Besides
them the kernel keeps O(C n) arrays.

Overflow.  S and R are +inf on rows with 2 max|Y| > ``_EXP_LIMIT``: their
exponential terms leave double range, and the statistic then exceeds any
calibrated threshold.  Their sums are not evaluated on those rows.  T and
the EDF statistics stay finite on them.  Rows containing NaN give NaN
for every statistic.

Determinism.  Rows are sorted first, so every statistic is exactly invariant
under permutations of a sample.  A row's values are bit-identical whatever
the other rows of the batch, and whatever the number of workers.  The pair
path reduces each row over offset blocks whose lengths depend on n only, in
a fixed order.  Both spectral paths group rows by node count, so no row is
evaluated past its own count, and a row's rule, node blocks and matrix
shapes follow from n and its own count only.  Every batched product is one
(2, n) by (n, nodes) product per row, however many rows a block holds,
since BLAS may round a product's rows differently when its shape changes
(that is why T's node blocks are computed whole), and each row's terms are
summed over its own nodes alone.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .logistic_core import DomainError, expit

# Largest 2 max|Y| for which S and R are finite; beyond it they are +inf.
_EXP_LIMIT = 700.0
# Most pairs or node values in one block, and the size of each scratch buffer.
_PAIR_BUDGET = 1 << 14
_EDF_EPS = 1e-15
# Up to this |Y| the logistic CDF lies inside [_EDF_EPS, 1 - _EDF_EPS]; it
# leaves it at |Y| ~ -log(_EDF_EPS) = 34.54.
_EDF_SAFE = 34.5
# Smallest n for which T takes the spectral path, and its largest node
# count per observation; both measured (see the module docstring).
_T_MIN_N = 32
_T_NODES_PER_OBS = 1
# Nodes per spectral block, and T's re-anchoring interval (a multiple of it).
_NODE_BLOCK = 8
_ANCHOR = 32
# The spectral rules leave out what is damped by exp(-_DECAY) ~ 1e-17.
_DECAY = 39.0


class NumericOverflowError(ArithmeticError):
    """A statistic's exponential terms exceed double-precision range."""


class Stat(NamedTuple):
    """Registry entry: the kernel family that evaluates a statistic, and the
    default, type (None when it takes none) and largest value of its tuning
    parameter."""

    family: str                       # "T", "SR" or "EDF"
    default: Optional[float] = None
    tuning: Optional[type] = None     # float (T's weight rate) or int (R's order)
    limit: float = math.inf           # largest tuning


STATS = {
    "T": Stat("T", 3.0, float),
    "S": Stat("SR"),
    "R": Stat("SR", 1, int, 100),
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
    if value > stat.limit:
        raise DomainError(f"tuning for {stat_id} must be at most {stat.limit:g}, got {value:g}")
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
# T's pair path


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


def _pair_sums(y, m, rates) -> np.ndarray:
    """T pair sums of each rate over all ordered pairs, (len(rates), C).

    Offset o pairs j with (j + o) mod n; see the module docstring for the
    weights.  Every block works in the same preallocated scratch buffers, so
    the heap does not grow and shrink once per block.
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
    scratch = np.empty((6, min(rows, c) * per_block * n))
    totals = np.zeros((len(rates), c))
    for r0 in range(0, c, rows):
        r1 = min(r0 + rows, c)
        yj, mj = y[r0:r1, None, :], m[r0:r1, None, :]
        for lo in range(0, offsets, per_block):
            hi = min(lo + per_block, offsets)
            yk, mk = y_win[r0:r1, lo:hi], m_win[r0:r1, lo:hi]
            block = scratch[:, :yk.size].reshape(6, *yk.shape)
            for total, part in zip(totals, _t_sums(yj, mj, yk, mk, rates, block)):
                total[r0:r1] += (part * weights[lo:hi]).sum(axis=1)
    return totals


# ---------------------------------------------------------------------------
# the spectral path


def _node_block(n: int) -> int:
    """Nodes per block for rows of n observations: ``_NODE_BLOCK``, or the
    largest power of two that keeps one row's block within ``_PAIR_BUDGET``
    elements.  It depends on n only and divides ``_ANCHOR``."""
    fit = max(1, _PAIR_BUDGET // n)
    return min(_NODE_BLOCK, 1 << (fit.bit_length() - 1))


def _count_blocks(counts, n, nodes):
    """(count, rows) for the rows of each distinct node count of ``counts``,
    in blocks of as many rows as fit ``nodes(count)`` nodes each into
    ``_PAIR_BUDGET`` values (one row when n exceeds it).  rows is a slice
    when every row has the same count, else an index array."""
    if (counts == counts[0]).all():
        groups = [(int(counts[0]), None)]
    else:
        groups = [(int(k), np.flatnonzero(counts == k)) for k in np.unique(counts)]
    for count, group in groups:
        size = len(counts) if group is None else group.size
        step = max(1, _PAIR_BUDGET // (nodes(count) * n))
        for r0 in range(0, size, step):
            yield count, slice(r0, r0 + step) if group is None else group[r0:r0 + step]


def _padded(counts, n):
    """Node counts rounded up to whole blocks of ``_node_block(n)`` nodes,
    T's and S/R's alike.  T computes its node blocks whole, so there the
    extra nodes cost nothing and only refine the rule.  S and R evaluate
    every node, extra ones included; the rounding bounds how many distinct
    counts, and so how many row groups, a batch can have."""
    block = _node_block(n)
    return np.ceil(counts / block) * block


def _t_step(y, rates):
    """Trapezoid step of T on each sorted row: the integrand's frequencies
    lie within the row's span, so this step aliases only content that the
    widest weight exp(-a t^2) has damped by exp(-_DECAY)."""
    span = y[:, -1] - y[:, 0]
    return 2.0 * math.pi / (span + math.sqrt(4.0 * _DECAY * max(rates)))


def _t_route(y, rates):
    """T's trapezoid node count t = 0, h, 2h, ... on each row, and which
    rows take the spectral path: from ``_T_MIN_N`` on, those with at most
    ``_T_NODES_PER_OBS`` nodes per observation.  Nodes reach
    t_max = sqrt(_DECAY / a_min), past which every weight is below
    exp(-_DECAY).  Rows with NaN have no count and are not selected."""
    c, n = y.shape
    if n < _T_MIN_N:
        return None, np.zeros(c, dtype=bool)
    counts = _padded(np.ceil(math.sqrt(_DECAY / min(rates)) / _t_step(y, rates)) + 1.0, n)
    return counts, counts <= _T_NODES_PER_OBS * n


def _abs_max(y):
    """max|Y| of each sorted row, read from its two ends; NaN on rows with NaN."""
    return np.maximum(np.abs(y[:, 0]), np.abs(y[:, -1]))


def _sr_counts(y, orders):
    """Gauss-Legendre node count of S and R on each sorted row.  The
    integrands are sums of exp(s t) with |s| <= c = 2 max|Y|, times
    sin^2(pi v t) for R; ceil(0.7 c' + 4 c'^(1/3) + 4) nodes with
    c' = c + 2 pi max(v) bound the Gauss-Legendre error of exp(c' t) to 1e-17
    of its integral.  Counts are rounded up to whole node blocks and then to
    an even number, so that the nodes pair as +-t.  Inside the exp range that
    is at most 544 nodes for orders up to 3, and 984 at order 100."""
    c = 2.0 * _abs_max(y) + 2.0 * math.pi * max(orders, default=0)
    counts = _padded(np.ceil(0.7 * c + 4.0 * np.cbrt(c) + 4.0), y.shape[1]).astype(int)
    return counts + counts % 2


@functools.lru_cache(maxsize=256)
def _legendre(count: int):
    """Gauss-Legendre nodes (ascending) and weights of order ``count``, built
    on first use and cached (rows inside the exp range need at most 544
    nodes with R orders up to 3, and 984 at the largest order, 100, a rule
    built in about 0.04 s); callers only read them.  Newton's method on the
    Legendre recurrence from the guesses cos(pi (k - 1/4) / (count + 1/2))
    needs no eigensolver, so no LAPACK buffers, and keeps the weights next to
    +-1 accurate, where numpy's leggauss loses ~1e-9 at count = 543."""
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


@functools.lru_cache(maxsize=256)
def _sr_rule(count: int, orders: tuple):
    """Gauss-Legendre nodes of the even order ``count`` and a
    (1 + len(orders), count) table of weights: S's, then
    w sin^2(pi v t) / (4 pi^2 v^2) for each R order v.  The positive half is
    ``_legendre``'s and the negative half its mirror image, so the rule is
    exactly symmetric.  Cached with the rule, so no call evaluates a sine."""
    x, w = _legendre(count)
    t, w = x[count // 2:], w[count // 2:]
    table = np.stack([w] + [w * np.sin(math.pi * v * t) ** 2 / (4.0 * v * v * math.pi**2)
                            for v in orders])
    return np.concatenate([-t[::-1], t]), np.concatenate([table[:, ::-1], table], axis=1)


def _t_spectral(y, m, rates, counts) -> np.ndarray:
    """T pair sums of each rate, (len(rates), C), from
    n int |g(t)|^2 exp(-a t^2) dt, where n g(t) = G(t) =
    sum_j (it - m_j) exp(itY_j): the integrand is even, so the trapezoid
    rule on t = 0, h, 2h, ... weights t = 0 by h and every other node by 2h.
    All rates share the node sums.  Rows are taken by node count, in blocks
    whose node block holds at most ``_PAIR_BUDGET`` values.

    exp(i t_k Y_j) comes from a rotation: with z_j = exp(i h Y_j) and the
    powers z^0 .. z^(B-1) of one node block, a block starting at node k0 is
    exp(i k0 h Y) times the powers, and both of its sums over j are one
    matrix product of the powers with (exp(i k0 h Y), m exp(i k0 h Y)).
    exp(i k0 h Y) is evaluated directly every ``_ANCHOR`` = 32 nodes and
    rotated by z^B in between, so no node is more than 32 complex products
    from a direct value, a phase error of ~32 eps.  On logistic rows at
    n = 50 the weight is below about e^-22 from node 16 on, so the chains
    past it change no value there, and a row of at most 32 nodes takes no
    complex exp besides the one that gives z."""
    c, n = y.shape
    block = _node_block(n)
    step = _t_step(y, rates)
    a = np.array(rates)
    scale = 2.0 * np.sqrt(a / math.pi)[:, None]
    powers = np.empty(max(_PAIR_BUDGET, block * n), dtype=complex)
    out = np.empty((len(a), c))
    for count, sel in _count_blocks(counts, n, lambda count: block):
        yr, mr, h = y[sel], m[sel], step[sel, None]
        p = powers[:yr.size * block].reshape(len(yr), block, n)
        z = np.exp(1j * (h * yr))
        p[:, 0] = 1.0
        for j in range(1, block):
            np.multiply(p[:, j - 1], z, out=p[:, j])
        z *= p[:, -1]                                 # z^B
        w = np.empty((len(yr), 2, n), dtype=complex)
        sums = np.empty((len(yr), 2, count), dtype=complex)
        for lo in range(0, count, block):
            if lo == 0:
                w[:, 0] = 1.0
            elif lo % _ANCHOR:
                w[:, 0] *= z
            else:
                np.exp(1j * ((h * lo) * yr), out=w[:, 0])
            np.multiply(w[:, 0], mr, out=w[:, 1])
            np.matmul(w, p.transpose(0, 2, 1), out=sums[:, :, lo:lo + block])
        e, m_e = sums[:, 0], sums[:, 1]
        t = h * np.arange(count)
        re = t * e.imag + m_e.real
        im = t * e.real - m_e.imag
        g2 = re * re + im * im
        g2[:, 0] *= 0.5                               # t = 0 has weight h, the others 2h
        out[:, sel] = scale * h.T * np.sum(g2 * np.exp(np.multiply.outer(-a, t * t)), axis=-1)
    return out


def _sr_spectral(y, m, orders, need_s, counts) -> np.ndarray:
    """S and R pair sums, (need_s + len(orders), C), from integrals over
    t in (-1, 1) by Gauss-Legendre: S from (sum_j (t - m_j) exp(tY_j))^2 and
    R of order v from sin^2(pi v t) / (4 pi^2 v^2) (sum_j exp(tY_j))^2,
    which equals R's pair sum of (A_0(s)/2) / (4 v^2 pi^2 + s^2).

    Rows are taken by node count, in blocks that hold at most
    ``_PAIR_BUDGET`` values exp(t_k Y_j).  The rule is symmetric, so only the
    positive nodes take an exponential: exp(-t_k Y_j) is its reciprocal.  S
    and every order share these values, and both sums over j of a node block
    are one matrix product with (1, m), once for +t and once for -t."""
    c, n = y.shape
    orders = tuple(orders)
    fit = max(1, _PAIR_BUDGET // n)
    out = np.empty((need_s + len(orders), c))
    values = np.empty(max(_PAIR_BUDGET, n))
    for count, sel in _count_blocks(counts, n, lambda count: min(count // 2, fit)):
        half = count // 2
        block = min(half, fit)
        t, wt = _sr_rule(count, orders)
        wt = wt[1 - need_s:]
        yr = y[sel]
        w = np.empty((len(yr), 2, n))
        w[:, 0] = 1.0
        w[:, 1] = m[sel]
        s = np.empty((len(yr), 2, count))
        for lo in range(half, count, block):
            hi = min(lo + block, count)
            g = values[:(hi - lo) * yr.size].reshape(hi - lo, *yr.shape)
            np.multiply.outer(t[lo:hi], yr, out=g)
            np.exp(g, out=g)
            np.matmul(w, g.transpose(1, 2, 0), out=s[:, :, lo:hi])
            np.reciprocal(g, out=g)
            np.matmul(w, g.transpose(1, 2, 0), out=s[:, :, lo - half:hi - half])
        # The first half holds the nodes -t[half:]; the rule lists them in reverse.
        s[:, :, :half] = s[:, :, half - 1::-1]
        e, m_e = s[:, 0], s[:, 1]
        terms = wt * (e * e)[:, None]
        if need_s:
            f = t * e - m_e
            terms[:, 0] = wt[0] * f * f
        out[:, sel] = np.sum(terms, axis=-1).T
    return out


def _routed(count, c, routes) -> np.ndarray:
    """(count, C) sums: ``evaluate(rows)`` for the rows that ``mask``
    selects, for each (mask, evaluate) of ``routes``, and NaN on every other
    row.  A mask that selects every row is passed on as a slice, so the rows
    are not copied."""
    out = np.full((count, c), np.nan)
    for mask, evaluate in routes:
        if mask.all():
            out[:] = evaluate(slice(None))
        elif mask.any():
            out[:, mask] = evaluate(mask)
    return out


def _r_elementwise(y, orders) -> dict:
    """Row sums of the single-observation part of R, keyed by each order v
    in ``orders``: the sum over k = 1 .. v of one row sum per k.  One pass
    takes k up to the largest order, and each order's total is added in the
    order of k, so it is the same whatever the other orders.  Rows are taken
    in blocks of at most ``_PAIR_BUDGET`` elements, whose temporaries stay in
    cache; each row sum is the same in any block."""
    c, n = y.shape
    totals = {k: np.empty(c) for k in range(1, max(orders) + 1)}
    rows = max(1, _PAIR_BUDGET // n)
    for r0 in range(0, c, rows):
        yr = y[r0:r0 + rows]
        ch, ysh = np.cosh(yr), 2.0 * yr * np.sinh(yr)
        y2 = yr * yr
        total = np.zeros(len(yr))
        for k, out in totals.items():
            q = y2 + (2 * k - 1) ** 2 * math.pi**2
            total = total + np.sum((2 * k - 1) * (q * ch - ysh) / (q * q), axis=1)
            out[r0:r0 + rows] = total
    return totals


def _r_constant(v: int) -> float:
    tail = sum((v - k) / k**2 for k in range(1, v))
    return 2.0 * v * math.pi**2 / 3.0 + 2.0 * tail


def edf_clamped(y: np.ndarray) -> int:
    """How many residuals of y have a logistic CDF that the EDF statistics
    clamp into [eps, 1 - eps].  Only |y| > ``_EDF_SAFE`` can clamp, so only
    those are mapped through expit."""
    u = expit(y[np.abs(y) > _EDF_SAFE])
    return int(np.count_nonzero((u < _EDF_EPS) | (u > 1.0 - _EDF_EPS)))


def _edf_values(y) -> dict:
    """KS, CM, AD and WA of every row, keyed by (stat_id, None); the
    logistic CDF of each residual is clamped into [eps, 1 - eps]."""
    n = y.shape[1]
    u = np.clip(expit(y), _EDF_EPS, 1.0 - _EDF_EPS)
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
        live = ~np.isnan(y).any(axis=1)
        overflow = 2.0 * _abs_max(y) > _EXP_LIMIT
        m = np.tanh(y / 2.0)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            if rates:
                counts, fast = _t_route(y, rates)
                sums = _routed(len(rates), c, [
                    (fast, lambda rows: _t_spectral(y[rows], m[rows], rates,
                                                    counts[rows].astype(int))),
                    (live & ~fast, lambda rows: _pair_sums(y[rows], m[rows], rates))])
                for a, t in zip(rates, sums):
                    values["T", a] = math.sqrt(math.pi / a) / n * t
            if need_s or orders:
                sums = _routed(need_s + len(orders), c, [
                    (live & ~overflow, lambda rows: _sr_spectral(
                        y[rows], m[rows], orders, need_s, _sr_counts(y[rows], orders)))])
                if need_s:
                    values["S", None] = sums[0] / n
                single = _r_elementwise(y, orders) if orders else {}
                for v, r in zip(orders, sums[need_s:]):
                    values["R", v] = (4.0 * v * v * math.pi**2 / n) * r \
                        - 4.0 * math.pi**2 * single[v] + n * _r_constant(v)
        for (sid, _), value in values.items():
            if STATS[sid].family == "SR":
                value[overflow] = np.inf
    if any(STATS[sid].family == "EDF" for sid, _ in specs):
        values.update(_edf_values(y))
    return np.array([values[key] for key in specs]).reshape(len(specs), c)
