"""Logistic distribution primitives: density, CDF, quantile, sampling, score,
Fisher information, and the reproducible random-stream abstraction used by the
Monte Carlo layer.

All functions accept scalars or array-likes and are overflow-safe: large
standardized arguments underflow to zero rather than producing NaN or inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit


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
    and cheap to ship to worker processes.
    """

    seed: int
    substream: int = 0

    def __post_init__(self):
        if not (0 <= self.seed < 2**64):
            raise DomainError("seed must be a 64-bit unsigned integer")
        if not (0 <= self.substream < 2**64):
            raise DomainError("substream index must be a 64-bit unsigned integer")

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.substream], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def _as_finite_array(x, name: str = "x") -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    return arr


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


def _uniform_open(gen: np.random.Generator, n: int) -> np.ndarray:
    # 53-bit uniforms centered in their bins: strictly inside (0, 1), so the
    # inversion below can never produce +-inf.
    return (gen.integers(0, 2**53, size=n).astype(np.float64) + 0.5) * 2.0**-53


def sample_from_generator(gen: np.random.Generator, n: int,
                          p: LogisticParams = STANDARD) -> np.ndarray:
    """Draw n logistic variates from an already-open generator by inversion."""
    return draw_logistic(gen, n, p.mu, p.sigma)


def draw_logistic(gen: np.random.Generator, n: int, mu: float, sigma: float) -> np.ndarray:
    """``sample_from_generator`` with the parameters given as numbers."""
    u = _uniform_open(gen, n)
    return mu + sigma * (np.log(u) - np.log1p(-u))


def sample(n: int, p: LogisticParams = STANDARD, *,
           stream: RngStream) -> np.ndarray:
    """n iid draws from L(mu, sigma) by quantile inversion.

    Deterministic given ``stream``; uses only the uniform bit stream, so the
    output is identical on every platform.
    """
    if n < 1:
        raise DomainError("sample size must be at least 1")
    return sample_from_generator(stream.generator(), n, p)


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
