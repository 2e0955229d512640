"""Logistic distribution primitives: density, CDF, quantile, sampling, score,
Fisher information, and the reproducible random-stream abstraction used by the
Monte Carlo layer.

All functions accept scalars or array-likes and are overflow-safe: large
standardized arguments underflow to zero rather than producing NaN or inf.

Logistic draws invert raw Philox words, which every caller takes from
``RngStream.generator()``: ``sample`` from one substream's, and the block
sampler of ``alternatives`` from one Generator re-keyed to each row's
substream in turn.  ``fill_logistic`` maps words to uniforms as
``Generator.integers(0, 2**53)`` does and inverts those, and
``random_doubles`` maps them as ``Generator.random`` does, so a block of
words becomes values in one call and each row equals, bit for bit, the
per-substream stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


@dataclass(frozen=True)
class LogisticParams:
    """Location mu and scale sigma of the logistic law L(mu, sigma)."""

    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
            raise DomainError("logistic parameters must be finite")
        if self.sigma <= 0:
            raise DomainError(f"scale must be positive, got sigma={self.sigma}")


STANDARD = LogisticParams(0.0, 1.0)


@dataclass(frozen=True)
class RngStream:
    """A named, counter-based random substream.

    Streams are keyed by ``(seed, substream)`` on a Philox counter generator,
    so draws are reproducible across platforms and independent of how many
    worker processes consume sibling substreams.  Substream ``r`` of a Monte
    Carlo run handles replication ``r``; the stream value itself is immutable
    and cheap to ship to worker processes.  Seed and substream are integers
    in [0, 2^64); fractional values are rejected, never truncated.

    A Monte Carlo chunk draws the substreams ``r0 .. r0 + k - 1`` in one call
    (``AlternativeSpec.sample(n, RngStream(seed, r0), reps=k)``).  What a
    substream yields is fixed by its key alone: Philox's output is a pure
    function of key and counter, and every substream starts at counter 0.
    So row i of a block equals a separate draw from ``RngStream(seed, r0 + i)``.
    """

    seed: int
    substream: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", uint64_index(self.seed, "seed"))
        object.__setattr__(self, "substream", uint64_index(self.substream, "substream index"))

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.substream], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def is_number(value) -> bool:
    """An int, float or numpy integer or floating scalar; no bool, text or bytes."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def uint64_index(value, name: str) -> int:
    """``value`` as a Python int in [0, 2^64); DomainError for anything else,
    fractional numbers and bools included."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if not 0 <= value < 2**64:
        raise DomainError(f"{name} must be a 64-bit unsigned integer, got {value!r}")
    return int(value)


def _as_finite_array(x, name: str = "x") -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    return arr


def c_exp(x) -> np.ndarray:
    """exp by the C library, as ``scipy.special.expit`` and numpy's lognormal
    sampler take it (numpy's own SIMD exp differs in the last bit for about
    2% of arguments): the real part of numpy's complex exp, the C library's
    cexp, which is exp(x) exactly up to x = 709.  Past it cexp rescales, so
    those few values come from ``math.exp``, +inf past 709.782712893384, the
    largest x whose exp is finite.  An array, 0-d for a scalar; NaN stays NaN."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        out = np.asarray(np.exp(x.astype(complex)).real)
    big = x > 709.0
    if big.any():
        out[big] = [math.exp(v) if v <= 709.782712893384 else math.inf for v in x[big].tolist()]
    return out


def expit(x):
    """Logistic sigmoid 1 / (1 + exp(-x)) by ``c_exp``: bit for bit
    ``scipy.special.expit``, which takes the same form with the C library's
    exp.  It is 0 below x = -709.78, where exp(-x) overflows, and 1 from
    x = 37 on, where the true value rounds to it.  NaN stays NaN, and a
    scalar argument gives a numpy scalar."""
    return 1.0 / (1.0 + c_exp(np.negative(x, dtype=float)))


def _maybe_scalar(result: np.ndarray, like) -> float | np.ndarray:
    if np.isscalar(like) or (isinstance(like, np.ndarray) and like.ndim == 0):
        return float(result)
    return result


def pdf(x, p: LogisticParams = STANDARD):
    """Density f(x; mu, sigma) of L(mu, sigma).

    Evaluated as expit(z)*expit(-z)/sigma with z the standardized argument,
    which never exponentiates a large positive number; extreme tails
    underflow cleanly to 0.
    """
    arr = _as_finite_array(x)
    z = (arr - p.mu) / p.sigma
    out = expit(z) * expit(-z) / p.sigma
    return _maybe_scalar(out, x)


def cdf(x, p: LogisticParams = STANDARD):
    """CDF of L(mu, sigma): 1 / (1 + exp(-(x - mu)/sigma)), overflow-safe."""
    arr = _as_finite_array(x)
    out = expit((arr - p.mu) / p.sigma)
    return _maybe_scalar(out, x)


def quantile(u, p: LogisticParams = STANDARD):
    """Quantile function mu + sigma * log(u / (1 - u)) for u in (0, 1)."""
    arr = np.asarray(u, dtype=float)
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise DomainError("quantile argument must lie strictly in (0, 1)")
    out = p.mu + p.sigma * (np.log(arr) - np.log1p(-arr))
    return _maybe_scalar(out, u)


_SHIFT11 = np.uint64(11)


def random_doubles(words: np.ndarray) -> np.ndarray:
    """The doubles in [0, 1) that ``Generator.random`` makes of raw Philox
    words: (w >> 11) 2^-53, one word each."""
    return (words >> _SHIFT11).astype(np.float64) * 2.0**-53


def fill_logistic(out: np.ndarray, words: np.ndarray, mu: float = 0.0,
                  sigma: float = 1.0) -> np.ndarray:
    """Fill ``out`` with draws of L(mu, sigma) by inversion of the raw Philox
    words ``words`` of the same shape, one word each, and return ``out``.

    The uniforms are ``Generator.integers(0, 2**53)``, which for this bound
    is the raw word shifted right by 11 bits, centred in their bins: strictly
    inside (0, 1), so the inversion can never produce +-inf.  Temporaries are
    a few arrays the size of ``out``; callers bound them by passing row blocks.
    """
    u = (words >> _SHIFT11).astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    np.log(u, out=out)
    np.negative(u, out=u)
    out -= np.log1p(u, out=u)
    out *= sigma
    out += mu
    return out


def sample(n: int, p: LogisticParams = STANDARD, *,
           stream: RngStream) -> np.ndarray:
    """n iid draws from L(mu, sigma) by quantile inversion.

    Deterministic given ``stream``; uses only the uniform bit stream, so the
    output is identical on every platform.
    """
    if n < 1:
        raise DomainError("sample size must be at least 1")
    words = stream.generator().bit_generator.random_raw(n)
    return fill_logistic(np.empty(n), words, p.mu, p.sigma)


def score(x, p: LogisticParams = STANDARD):
    """Score vector d/d(mu, sigma) of the log-density at x.

    Returns an array with the two components in the last axis:
    sigma**-2 * tanh(z/2) * (sigma, x - mu) + (0, -1/sigma), z = (x - mu)/sigma.
    """
    arr = _as_finite_array(x)
    z = (arr - p.mu) / p.sigma
    t = np.tanh(z / 2.0)
    s_mu = t / p.sigma
    s_sigma = t * z / p.sigma - 1.0 / p.sigma
    out = np.stack([s_mu, s_sigma], axis=-1)
    return out


def fisher_info(p: LogisticParams = STANDARD) -> np.ndarray:
    """Fisher information matrix sigma**-2 * diag(1/3, (pi^2 + 3)/9)."""
    return np.diag([1.0 / 3.0, (math.pi**2 + 3.0) / 9.0]) / p.sigma**2
