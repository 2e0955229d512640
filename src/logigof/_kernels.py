"""Batch kernels for the test statistics, and the registry of statistics.

``STATS`` is the one place that names the statistics: each id maps to its
kernel family and to the default, type and largest value of its tuning
parameter, and ``check_spec`` validates a (stat_id, tuning) pair against it.
R's order stops at 100: its Gauss-Legendre rule grows with the order (984
nodes at 100) and takes O(count^2) to build.  T's rate starts at 1e-100: T
grows like a^(-3/2), about 1e150 there, and below about 1e-153 the pair
term's d^2/4a^2 overflows while exp(-d^2/4a) underflows to 0, so every
row would give 0 * inf = NaN.  One entry
point, ``compute_batch(y, specs)``, evaluates every requested statistic for
each row of a (C, n) residual batch; the single-sample functions of
``statistics`` check their specs once and call its body,
``evaluate_checked``, with a batch of one.

Pair path.  On rows past T's node cap, T sums its pair term over all n^2
ordered pairs, row by row and rate by rate (``_pair_total``), in blocks of
j of at most ``_PAIR_BUDGET`` pairs; ``statistics.delta_alternative`` sums
the same term with weights.  Only unbounded spans, such as ML-fitted heavy
tails, reach the cap, so no workload of the engine relies on the speed of
this path.  It is the oracle of T's spectral path in the tests.

Spectral path.  Pair sums are O(n^2); S and R on every row, and T on every
row within its node cap, are evaluated instead from the integrals that
define them, with K nodes per row at O(n K) cost.  With m = tanh(Y/2):

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
  between.  Direct values are written from ``np.cos`` and ``np.sin`` into
  the real and imaginary parts: the bits of np.exp(1j x) in less than half
  its time (17 against 39 ns per value on 2000-value arrays, 2-vCPU x86-64
  host).  No value is more than 32 complex products from a direct one, so
  the phase error stays within ~32 eps (Numerical Recipes, section 5.4, on
  trigonometric recurrences).  The interval is 32 and not shorter because a
  direct value costs about 10 times a complex product (1.6 ns on the
  contiguous planes of the powers), and because the weight makes the
  longer chains harmless: on logistic rows at
  n = 50 (24 nodes), exp(-a t^2) is below about e^-22 from node 16 on, and
  on wider rows of 40 nodes (n = 48-128) T stays within 4e-15 of its
  quadrature.
- S = (1/n) int_{-1}^{1} (sum_j (t - m_j) exp(tY_j))^2 dt, by
  Gauss-Legendre.  The integrand is a square, so S has none of the
  cancellation that its pair form, A_2(s) - (m_j + m_k) A_1(s) +
  m_j m_k A_0(s) with A_r(s) the integral of t^r exp(ts) over (-1, 1) and
  s = Y_j + Y_k, suffers at large |s|.
- R = n int_{-1}^{1} sin^2(pi v t) (M(t) - pi t / sin(pi t))^2 dt, where
  M(t) = E(t) / n is the residuals' empirical moment generating function,
  E(t) = sum_j exp(tY_j), and pi t / sin(pi t) the logistic one.  Expanded,
  its pair part int sin^2(pi v t) E^2 dt / n is R's pair sum of
  (4 v^2 pi^2 / n) (A_0(s)/2) / (4 v^2 pi^2 + s^2), s = Y_j + Y_k, because
  int_{-1}^{1} cos(2 pi v t) exp(ts) dt = A_0(s) s^2 / (s^2 + 4 pi^2 v^2);
  its cross part -2 int sin^2(pi v t) (pi t / sin(pi t)) E dt sums R's
  single-observation term over j; and the constant part is ``_r_constant``,
  a closed form.  The pair and cross parts are Gauss-Legendre sums of E^2
  and E, so S and every order share the values exp(t_k Y_j), and the weights
  of both parts are cached with each Gauss-Legendre table.  The whole square
  on the nodes, with n pi t / sin(pi t) subtracted from E, would need no
  constant, but on 48 logistic and Cauchy moment rows at n = 20 and 50 it
  was up to 1.8e-14 from 40-digit sums (R:1-3), where the expanded form is
  within 4.2e-15.

Both sums over j of a node block, of f(t_k Y_j) and of m_j f(t_k Y_j), are
one matrix product per row with the two rows (1, m).  For T those rows are
(exp(i k0 h Y), m exp(i k0 h Y)), one pair per node block, against the
powers of z, which are the same for every block.  T stacks the pairs of up
to 4 node blocks (32 nodes, all the nodes of most moment rows at n = 50)
into one left operand, so a row takes one
(2 nb, n) by (n, B) complex product where it took nb products of (2, n) by
(n, B).  Most of a small product's time is the call: at n = 50 one (2, n)
by (n, 8) product takes 0.73 us and one (6, n) by (n, 8) product 1.03 us
(2-vCPU x86-64 host, one BLAS thread).  S and R then weight and sum the
terms (t E - M)^2, E^2 and E of a row's node sums E and M over its nodes by
one (2 + s, count) by (count, q) product with the cached weight table
(s = 1 when S is asked for, q its columns).  The Gauss-Legendre count is
ceil(0.7 c + 4 c^(1/3) + 4) with c = 2 max|Y| + 2 pi max(v), which bounds
the rule's error on exp(c t) to 1e-17 of its integral; tables are built on
first use and cached.  Node counts are rounded up to whole blocks of
``_NODE_BLOCK`` = 8 nodes at every n, so S and R counts are even, and
depend only on the row and on the tunings of the call.  An even
Gauss-Legendre rule pairs each node t with -t at the same weight;
``_sr_rule`` mirrors the positive half, so the pairing is exact.  S and R
therefore form t_k Y_j and exp(t_k Y_j) at the positive nodes only, and
take exp(-t_k Y_j) as the reciprocal of exp(t_k Y_j): per observation and
node pair one product, one exponential and one reciprocal, where a
reciprocal costs less than the exponential alone (0.9 against 1.2 ns per
value on a 2-vCPU x86-64 host).
Since 2 max|Y| <= ``_EXP_LIMIT`` on every row they see, |t Y| <= 350 and
neither value leaves the normal range.

Routing.  T takes the spectral path on every row of at most
max(``_ANCHOR``, n) nodes, whatever n: up to ``_ANCHOR`` = 32 nodes a row
is one stacked product.  At rates 3 to 5 a moment row, whose span is at
most sqrt(2n) pi / sqrt(3), needs at most 32 nodes up to n = 100 (24 on
logistic rows at n = 20), and ML-fitted logistic, Cauchy and t(2) rows at
n = 20 need at most 32 as well.  Against the pair sums that T took below
n = 32 until it had one route, the spectral T on 4096 logistic and Cauchy
moment rows at rates 3, 4 and 5 (two runs, each the median of 15
alternating rounds of the best of 5 calls, 2-vCPU x86-64 host) costs
x0.44-0.52 at n = 20 and x0.59-0.72 at n = 16, and breaks even near n = 12
(x0.80-1.07).  Below that it costs more: x1.13-1.52 at n = 8, x1.7-1.9 at
n = 5 and x2.3-2.6 at n = 3, at 2 us per row or less; no workload and no
table of the paper runs there.  Past n = 32 the cap is n nodes: at n = 32
and 50 the spectral T breaks even with those pair sums at about 1.2 n
nodes (1.5-2 n at n = 128-256).  Wider rows take the pair path.  S and R
(40-49 nodes on the engine's moment rows) take the spectral path on every
row inside the exp range, whatever its node count (at most 544 there for
orders up to 3, 984 at order 100): on 4096 rows at n = 20 it is 1.4 times
faster than their pair sums on logistic rows and 1.3 times on Cauchy rows,
and it breaks even near n = 14 (0.76-0.82 times their speed at n = 10).
Rows with NaN take neither path.

Memory.  The pair path takes one row at a time, in blocks of j of at most
``_PAIR_BUDGET`` pairs (one j of n pairs when n exceeds the budget), and
keeps a few temporaries of one block.  Both spectral paths take the rows of
each node count in blocks (``_count_blocks``).  T's node block of
``_NODE_BLOCK`` nodes holds at most ``_PAIR_BUDGET`` complex powers, and
its stacked anchors as many: a row of more than ``_PAIR_BUDGET`` /
``_NODE_BLOCK`` = 2048 observations is summed over chunks of that many.
S and R's node block of up to ``_SR_BUDGET`` / n positive nodes holds at
most ``_SR_BUDGET`` = 4 ``_PAIR_BUDGET`` values exp(t Y), 512 KB: a quarter
of a 2 MB L2 cache, and about 64 rows at n = 50 where ``_PAIR_BUDGET`` held
16, so the ~17 numpy calls of a block serve 4 times as many rows.  T keeps
the smaller blocks: the same scale-up made T alone slower on 1024 rows at
n = 50 (median of 15 alternating rounds: 8.2 against 9.5 us per row on
logistic rows, 8.8 against 9.0 on Cauchy rows).  A block holds one row when n
exceeds its budget.  Those values fill one scratch buffer allocated once
per call, and a block keeps only O(rows K) node sums.  The rows of a count
are read block by block, so no (rows, n) copy of a whole group is made.
Besides them the kernel keeps O(C n) arrays.

Overflow.  S and R are +inf on rows with 2 max|Y| > ``_EXP_LIMIT``: their
exponential terms leave double range, and the statistic then exceeds any
calibrated threshold.  Their sums are not evaluated on those rows.  T and
the EDF statistics stay finite on them.  ``compute_batch`` counts these rows
and the EDF probabilities it clamps.  Rows with NaN give NaN throughout.

Determinism.  Rows are sorted first, so every statistic is exactly invariant
under permutations of a sample.  A row's values are bit-identical whatever
the other rows of the batch, and whatever the number of workers.  The pair
path sums each row on its own, over blocks of j whose lengths depend on n
only, in a fixed order.  Both spectral paths group rows by node count, so
no row is evaluated past its own count, and a row's rule, node blocks and
matrix shapes follow from n and its own count only.  Every batched
product is one product per row, however many rows a block holds, since BLAS
may round a product's rows differently when its shape changes (that is why
T's node blocks are computed whole): for T a (2 nb, n) by (n, B) product of
nb stacked node blocks per chunk of observations, for S and R one (2, n) by
(n, nodes) product per node block and sign and one (2 + s, count) by
(count, q) product of the weighted terms, so each row's terms are summed
over its own nodes alone.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Optional

import numpy as np

from .estimation import fit_moments_batch
from .logistic_core import DomainError, expit, is_number

# Largest 2 max|Y| for which S and R are finite; beyond it they are +inf.
_EXP_LIMIT = 700.0
# Most pairs or node values in one block, and the size of each scratch buffer.
_PAIR_BUDGET = 1 << 14
# S and R's one scratch buffer of values exp(t Y): 512 KB, a quarter of a
# 2 MB L2 cache, so that a block's ~17 numpy calls serve more rows.
_SR_BUDGET = 4 * _PAIR_BUDGET
_EDF_EPS = 1e-15
# Nodes per spectral block, and T's re-anchoring interval (a multiple of it).
_NODE_BLOCK = 8
_ANCHOR = 32
# The spectral rules leave out what is damped by exp(-_DECAY) ~ 1e-17.
_DECAY = 39.0


class NumericOverflowError(ArithmeticError):
    """A statistic's exponential terms exceed double-precision range."""


class Stat(NamedTuple):
    """Registry entry: the kernel family that evaluates a statistic, and the
    default, type (None when it takes none) and smallest and largest values
    of its tuning parameter."""

    family: str                       # "T", "SR" or "EDF"
    default: Optional[float] = None
    tuning: Optional[type] = None     # float (T's weight rate) or int (R's order)
    limit: float = math.inf           # largest tuning
    least: float = 0.0                # smallest tuning


STATS = {
    "T": Stat("T", 3.0, float, least=1e-100),
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
    if not (tuning is None or is_number(tuning)):
        raise DomainError(f"tuning for {stat_id} must be a number, got {tuning!r}")
    value = float(stat.default if tuning is None else tuning)
    if not (math.isfinite(value) and value > 0):
        raise DomainError(f"tuning for {stat_id} must be positive and finite")
    if stat.tuning is int and not value.is_integer():
        raise DomainError(f"tuning for {stat_id} must be an integer, got {value:g}")
    if value > stat.limit:
        raise DomainError(f"tuning for {stat_id} must be at most {stat.limit:g}, got {value:g}")
    if value < stat.least:
        raise DomainError(f"tuning for {stat_id} must be at least {stat.least:g}, got {value:g}")
    return stat_id, stat.tuning(value)


def moment_residuals_batch(x: np.ndarray) -> np.ndarray:
    """Residuals of each row of x on its ``estimation.fit_moments_batch``
    fit; rows of zero scale become NaN."""
    mu, sigma = fit_moments_batch(x)
    return (x - mu[:, None]) / np.where(sigma == 0.0, np.nan, sigma)[:, None]


# ---------------------------------------------------------------------------
# T's pair term


def _pair_total(y, m, a, q=None) -> float:
    """sum over j, k of q_j q_k h_jk on one row y, with m = tanh(y/2) and q = 1
    when None, for T's pair term of rate a:
    h_jk = exp(-d^2/4a) [(2a - d^2)/4a^2 + m_j m_k - d (m_j - m_k)/2a],
    d = Y_j - Y_k.  Rows j are taken in blocks of at most ``_PAIR_BUDGET``
    pairs."""
    rows = max(1, _PAIR_BUDGET // y.size)
    total = 0.0
    for lo in range(0, y.size, rows):
        d = y[lo:lo + rows, None] - y
        mj = m[lo:lo + rows, None]
        h = np.exp(d * d * (-0.25 / a)) * (
            (2.0 * a - d * d) / (4.0 * a * a) + mj * m - d * (mj - m) / (2.0 * a))
        total += h.sum() if q is None else q[lo:lo + rows] @ (h @ q)
    return total


def _pair_sums(y, m, rates) -> np.ndarray:
    """T pair sums of each rate over all ordered pairs, (len(rates), C):
    ``_pair_total`` of every row and rate."""
    return np.array([[_pair_total(yr, mr, a) for yr, mr in zip(y, m)]
                     for a in rates])


# ---------------------------------------------------------------------------
# the spectral path


def _count_blocks(counts, step):
    """(count, rows) for the rows of each distinct node count of ``counts``,
    in blocks of ``step(count)`` rows.  rows is a slice when every row has
    the same count, else an index array."""
    if (counts == counts[0]).all():
        groups = [(int(counts[0]), None)]
    else:
        groups = [(int(k), np.flatnonzero(counts == k)) for k in np.unique(counts)]
    for count, group in groups:
        size = len(counts) if group is None else group.size
        rows = step(count)
        for r0 in range(0, size, rows):
            yield count, slice(r0, r0 + rows) if group is None else group[r0:r0 + rows]


def _padded(counts):
    """Node counts rounded up to whole blocks of ``_NODE_BLOCK`` nodes, T's
    and S/R's alike, so every count is even.  T computes its node blocks
    whole, so there the extra nodes cost nothing and only refine the rule.
    S and R evaluate every node, extra ones included; the rounding bounds
    how many distinct counts, and so how many row groups, a batch can have."""
    return np.ceil(counts / _NODE_BLOCK) * _NODE_BLOCK


def _t_step(y, rates):
    """Trapezoid step of T on each sorted row: the integrand's frequencies
    lie within the row's span, so this step aliases only content that the
    widest weight exp(-a t^2) has damped by exp(-_DECAY)."""
    span = y[:, -1] - y[:, 0]
    return 2.0 * math.pi / (span + math.sqrt(4.0 * _DECAY * max(rates)))


def _t_route(y, rates):
    """T's trapezoid node count t = 0, h, 2h, ... on each row, and which
    rows take the spectral path: those with at most max(``_ANCHOR``, n)
    nodes.  Nodes reach t_max = sqrt(_DECAY / a_min), past which every
    weight is below exp(-_DECAY).  Rows with NaN have no count and are not
    selected."""
    counts = _padded(np.ceil(math.sqrt(_DECAY / min(rates)) / _t_step(y, rates)) + 1.0)
    return counts, counts <= max(_ANCHOR, y.shape[1])


def _abs_max(y):
    """max|Y| of each sorted row, read from its two ends; NaN on rows with NaN."""
    return np.maximum(np.abs(y[:, 0]), np.abs(y[:, -1]))


def _sr_counts(y, orders):
    """Gauss-Legendre node count of S and R on each sorted row.  The
    integrands are sums of exp(s t) with |s| <= c = 2 max|Y|, times
    sin^2(pi v t) for R; ceil(0.7 c' + 4 c'^(1/3) + 4) nodes with
    c' = c + 2 pi max(v) bound the Gauss-Legendre error of exp(c' t) to 1e-17
    of its integral.  Counts are rounded up to whole node blocks, an even
    number, so that the nodes pair as +-t.  Inside the exp range that
    is at most 544 nodes for orders up to 3, and 984 at order 100."""
    c = 2.0 * _abs_max(y) + 2.0 * math.pi * max(orders, default=0)
    return _padded(np.ceil(0.7 * c + 4.0 * np.cbrt(c) + 4.0)).astype(int)


@functools.lru_cache(maxsize=512)
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
    (1 + 2 len(orders), count) table of weights: S's, then
    w sin^2(pi v t) / (4 pi^2 v^2) for each R order v (R's pair sums), then
    w sin^2(pi v t) t / (2 pi sin(pi t)) for each v (its single-observation
    sums; sin^2(v x) / sin(x) is the sum of sin((2k - 1) x) over k <= v).
    Every weight is even in t: the positive half is ``_legendre``'s and the
    negative half its mirror image, so the rule is exactly symmetric.  Cached
    with the rule, so no call evaluates a sine."""
    x, w = _legendre(count)
    t, w = x[count // 2:], w[count // 2:]
    sin2 = [w * np.sin(math.pi * v * t) ** 2 for v in orders]
    table = np.stack([w] + [s / (4.0 * v * v * math.pi**2) for v, s in zip(orders, sin2)]
                     + [s * t / (2.0 * math.pi * np.sin(math.pi * t)) for s in sin2])
    return np.concatenate([-t[::-1], t]), np.concatenate([table[:, ::-1], table], axis=1)


def _cis(theta, out):
    """Fill the complex array ``out`` with exp(i theta) from ``np.cos`` and
    ``np.sin``, and return it; the bits equal those of np.exp(1j * theta)."""
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def _t_spectral(y, m, rates, counts) -> np.ndarray:
    """T pair sums of each rate, (len(rates), C), from
    n int |g(t)|^2 exp(-a t^2) dt, where n g(t) = G(t) =
    sum_j (it - m_j) exp(itY_j): the integrand is even, so the trapezoid
    rule on t = 0, h, 2h, ... weights t = 0 by h and every other node by 2h.
    All rates share the node sums.  Rows are taken by node count, in blocks
    whose node block holds at most ``_PAIR_BUDGET`` values; a row of more
    than ``_PAIR_BUDGET`` / B observations is summed over chunks of that
    many, and the chunks' node sums are added.

    exp(i t_k Y_j) comes from a rotation: with z_j = exp(i h Y_j), taken
    from a cos and a sin, and the powers z^0 .. z^(B-1) of one node block
    of B = ``_NODE_BLOCK`` = 8 nodes, kept node-major, a block starting at
    node k0 is exp(i k0 h Y) times the powers.  The rows
    (exp(i k0 h Y), m exp(i k0 h Y)) of ``_ANCHOR`` / B = 4 node blocks are
    stacked, so that all sums over j of those 32 nodes are one matrix
    product with the powers, and the stacked rows of a row block take no
    more room than its powers.  exp(i k0 h Y) is evaluated directly at the
    first block of each product, every ``_ANCHOR`` = 32 nodes, and rotated
    by z^B in between, so no node is more than 32 complex products from a
    direct value, a phase error of ~32 eps.  On logistic rows at n = 50 the
    weight is below about e^-22 from node 16 on, so the chains past it
    change no value there."""
    c, n = y.shape
    block = _NODE_BLOCK
    stack = _ANCHOR // block                         # node blocks per product
    width = min(n, _PAIR_BUDGET // block)            # observations per chunk
    step = _t_step(y, rates)
    a = np.array(rates)
    scale = 2.0 * np.sqrt(a / math.pi)[:, None]
    powers = np.empty(_PAIR_BUDGET, dtype=complex)
    out = np.empty((len(a), c))
    rows_per_block = max(1, _PAIR_BUDGET // (block * n))
    for count, sel in _count_blocks(counts, lambda count: rows_per_block):
        h = step[sel, None]
        rows, nb = len(h), count // block
        sums = np.empty((rows, nb, 2, block), dtype=complex)
        for j0 in range(0, n, width):
            yr, mr = y[sel, j0:j0 + width], m[sel, j0:j0 + width]
            p = powers[:yr.size * block].reshape(block, *yr.shape)
            z = _cis(h * yr, np.empty(yr.shape, dtype=complex))
            p[0] = 1.0
            for j in range(1, block):
                np.multiply(p[j - 1], z, out=p[j])
            z *= p[-1]                                # z^B
            w = np.empty((rows, stack, 2, yr.shape[1]), dtype=complex)
            part = sums if j0 == 0 else np.empty_like(sums)
            for b0 in range(0, nb, stack):
                k = min(stack, nb - b0)
                if b0:
                    _cis((h * (b0 * block)) * yr, w[:, 0, 0])
                else:
                    w[:, 0, 0] = 1.0
                for b in range(1, k):
                    np.multiply(w[:, b - 1, 0], z, out=w[:, b, 0])
                np.multiply(w[:, :k, 0], mr[:, None], out=w[:, :k, 1])
                np.matmul(w[:, :k].reshape(rows, 2 * k, -1), p.transpose(1, 2, 0),
                          out=part[:, b0:b0 + k].reshape(rows, 2 * k, block))
            if j0:
                sums += part
        e, m_e = sums[:, :, 0], sums[:, :, 1]
        t = h * np.arange(count)
        tb = t.reshape(e.shape)
        re = (tb * e.imag + m_e.real).reshape(t.shape)
        im = (tb * e.real - m_e.imag).reshape(t.shape)
        g2 = re * re + im * im
        g2[:, 0] *= 0.5                               # t = 0 has weight h, the others 2h
        out[:, sel] = scale * h.T * np.sum(g2 * np.exp(np.multiply.outer(-a, t * t)), axis=-1)
    return out


def _sr_spectral(y, m, orders, need_s, counts) -> np.ndarray:
    """S's pair sum, R's pair sums and R's single-observation sums,
    (need_s + 2 len(orders), C), from integrals over t in (-1, 1) by
    Gauss-Legendre: S from (sum_j (t - m_j) exp(tY_j))^2, and for each order
    v R's pair sum of (A_0(s)/2) / (4 v^2 pi^2 + s^2) from
    sin^2(pi v t) / (4 pi^2 v^2) E(t)^2 and its single-observation sum from
    sin^2(pi v t) t / (2 pi sin(pi t)) E(t), with E(t) = sum_j exp(tY_j).

    Rows are taken by node count, in blocks that hold at most
    ``_SR_BUDGET`` values exp(t_k Y_j).  The rule is symmetric, so only the
    positive nodes take an exponential: exp(-t_k Y_j) is its reciprocal.  S
    and every order share these values, and both sums over j of a node block
    are one matrix product with (1, m), once for +t and once for -t.  The
    terms (t E - M)^2, E^2 and E of a row's sums E and M are then weighted
    and summed over its nodes by one product with the rule's weight table."""
    c, n = y.shape
    orders = tuple(orders)
    r = len(orders)
    fit = max(1, _SR_BUDGET // n)
    out = np.empty((need_s + 2 * r, c))
    values = np.empty(max(_SR_BUDGET, n))
    for count, sel in _count_blocks(
            counts, lambda count: max(1, _SR_BUDGET // (min(count // 2, fit) * n))):
        half = count // 2
        block = min(half, fit)
        t, wt = _sr_rule(count, orders)
        yr = y[sel]
        w = np.empty((len(yr), 2, n))
        w[:, 0] = 1.0
        w[:, 1] = m[sel]
        s = np.empty((len(yr), 2, count))
        for lo in range(half, count, block):
            hi = min(lo + block, count)
            g = values[:(hi - lo) * yr.size].reshape(hi - lo, *yr.shape)
            np.einsum("k,rj->krj", t[lo:hi], yr, out=g)
            np.exp(g, out=g)
            np.matmul(w, g.transpose(1, 2, 0), out=s[:, :, lo:hi])
            np.reciprocal(g, out=g)
            np.matmul(w, g.transpose(1, 2, 0), out=s[:, :, lo - half:hi - half])
        # The first half holds the nodes -t[half:]; the rule lists them in reverse.
        s[:, :, :half] = s[:, :, half - 1::-1]
        e, m_e = s[:, 0], s[:, 1]
        terms = np.empty((len(yr), 2 + need_s, count))
        if need_s:
            f = np.multiply(t, e, out=terms[:, 0])
            f -= m_e
            f *= f
        np.multiply(e, e, out=terms[:, -2])
        terms[:, -1] = e
        sums = np.matmul(terms, wt[1 - need_s:].T)
        if need_s:
            out[0, sel] = sums[:, 0, 0]
        out[need_s:need_s + r, sel] = sums[:, -2, need_s:need_s + r].T
        out[need_s + r:, sel] = sums[:, -1, need_s + r:].T
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


def _r_constant(v: int) -> float:
    tail = sum((v - k) / k**2 for k in range(1, v))
    return 2.0 * v * math.pi**2 / 3.0 + 2.0 * tail


def _edf_values(y, counts) -> dict:
    """KS, CM, AD and WA of every row, keyed by (stat_id, None); the logistic
    CDF of each residual is clamped into [eps, 1 - eps], and counted in ``counts``."""
    n = y.shape[1]
    u = expit(y)
    if counts is not None:
        counts["clamped"] = int(np.count_nonzero((u < _EDF_EPS) | (u > 1.0 - _EDF_EPS)))
    np.clip(u, _EDF_EPS, 1.0 - _EDF_EPS, out=u)
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


def compute_batch(y: np.ndarray, specs, counts: Optional[dict] = None) -> np.ndarray:
    """Evaluate statistics for every row of a (C, n) residual batch.

    ``specs`` is a sequence of (stat_id, tuning) pairs, e.g. ("T", 3.0),
    ("R", 1), ("KS", None), each checked by ``check_spec``.  Returns an
    array of shape (len(specs), C).  Rows containing NaN produce NaN for
    every statistic; S and R are +inf on rows past the exp range.  A dict
    ``counts``, which no value depends on, receives the count of those rows
    as "overflow" and of the EDF probabilities clamped as "clamped".
    """
    return evaluate_checked(y, [check_spec(sid, tuning) for sid, tuning in specs], counts)


def evaluate_checked(y: np.ndarray, specs, counts: Optional[dict] = None) -> np.ndarray:
    """``compute_batch`` on specs that are already as ``check_spec`` returns
    them, so a caller that checked them once does not check them again."""
    y = np.sort(np.asarray(y, dtype=float), axis=1)
    c, n = y.shape
    rates = [a for sid, a in specs if sid == "T"]
    orders = [v for sid, v in specs if sid == "R"]
    need_s = ("S", None) in specs
    values = {}
    if counts is not None:
        counts.update(overflow=0, clamped=0)
    if rates or orders or need_s:
        live = ~np.isnan(y[:, -1])                  # np.sort puts NaN last
        overflow = 2.0 * _abs_max(y) > _EXP_LIMIT
        m = np.tanh(y / 2.0)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            if rates:
                nodes, fast = _t_route(y, rates)
                sums = _routed(len(rates), c, [
                    (fast, lambda rows: _t_spectral(y[rows], m[rows], rates,
                                                    nodes[rows].astype(int))),
                    (live & ~fast, lambda rows: _pair_sums(y[rows], m[rows], rates))])
                for a, t in zip(rates, sums):
                    values["T", a] = math.sqrt(math.pi / a) / n * t
            if need_s or orders:
                sums = _routed(need_s + 2 * len(orders), c, [
                    (live & ~overflow, lambda rows: _sr_spectral(
                        y[rows], m[rows], orders, need_s, _sr_counts(y[rows], orders)))])
                if need_s:
                    values["S", None] = sums[0] / n
                for v, r, single in zip(orders, sums[need_s:], sums[need_s + len(orders):]):
                    values["R", v] = (4.0 * v * v * math.pi**2 / n) * r \
                        - 4.0 * math.pi**2 * single + n * _r_constant(v)
                if counts is not None:
                    counts["overflow"] = int(np.count_nonzero(overflow))
        for (sid, _), value in values.items():
            if STATS[sid].family == "SR":
                value[overflow] = np.inf
    if any(STATS[sid].family == "EDF" for sid, _ in specs):
        values.update(_edf_values(y, counts))
    return np.array([values[key] for key in specs]).reshape(len(specs), c)
