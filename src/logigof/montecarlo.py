"""Monte Carlo machinery: critical-value calibration, size/power studies
(including contamination mixtures), and simulated p-values.

Replication r of a run with seed s always draws from the counter-based
substream (s, r), so results are bit-identical no matter how many worker
processes participate.  Replications are evaluated in fixed-size chunks of
vectorized work; chunk boundaries depend only on the sample size, never on
the worker count, and chunk results are concatenated in order.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np
import scipy.stats

from . import _kernels
from .estimation import ConvergenceError, Method, fit_mle
from .logistic_core import (DomainError, RngStream, draw_logistic,
                            sample_from_generator)

WORKERS_ENV_VAR = "LOGIGOF_WORKERS"

SQRT3 = math.sqrt(3.0)


class McError(RuntimeError):
    """Systematic Monte Carlo failure (e.g. >0.1% of replications unusable)."""


# ---------------------------------------------------------------------------
# alternatives


def _positive(*params) -> bool:
    return all(v > 0 for v in params)


class _Kind(NamedTuple):
    """One alternative family: its short names, its parameter count, the
    parameters its bare name means (None when all are required), the range
    rule in words and ``check`` testing it, the exact Generator call that
    draws it and its scipy frozen law."""

    aliases: str
    arity: int
    defaults: Optional[tuple]
    rule: str
    draw: Callable[..., np.ndarray]
    law: Callable[..., object]
    check: Callable[..., bool] = _positive


_KINDS = {
    "logistic": _Kind("l", 2, (0.0, 1.0), "finite mu and sigma > 0", draw_logistic,
                      lambda mu, sigma: scipy.stats.logistic(loc=mu, scale=sigma),
                      lambda mu, sigma: sigma > 0),
    "normal": _Kind("n gaussian", 0, (), "no parameters",
                    lambda gen, n: gen.standard_normal(n), scipy.stats.norm),
    "t": _Kind("student studentt", 1, None, "finite df > 0",
               lambda gen, n, df: gen.standard_t(df, n), scipy.stats.t),
    "cauchy": _Kind("c", 0, (), "no parameters",
                    lambda gen, n: gen.standard_cauchy(n), scipy.stats.cauchy),
    "laplace": _Kind("lp", 0, (), "no parameters",
                     lambda gen, n: gen.laplace(0.0, 1.0, n), scipy.stats.laplace),
    "lognormal": _Kind("ln", 1, None, "finite log-scale s > 0",
                       lambda gen, n, s: gen.lognormal(0.0, s, n), scipy.stats.lognorm),
    "gamma": _Kind("", 1, None, "finite shape k > 0",
                   lambda gen, n, k: gen.gamma(k, 1.0, n), scipy.stats.gamma),
    "uniform": _Kind("u", 2, (-SQRT3, SQRT3), "finite lo < hi",
                     lambda gen, n, lo, hi: gen.uniform(lo, hi, n),
                     lambda lo, hi: scipy.stats.uniform(lo, hi - lo),
                     lambda lo, hi: lo < hi),
    "beta": _Kind("b", 2, None, "finite shapes a, b > 0",
                  lambda gen, n, a, b: gen.beta(a, b, n), scipy.stats.beta),
    "chisquare": _Kind("chisq chi2", 1, None, "finite df > 0",
                       lambda gen, n, df: gen.chisquare(df, n), scipy.stats.chi2),
}
_NAMES = {alias: kind for kind, spec in _KINDS.items() for alias in (kind, *spec.aliases.split())}


@dataclass(frozen=True)
class AlternativeSpec:
    """A sampleable alternative distribution, possibly a two-part mixture.

    A kind takes either no parameters, meaning its defaults, or all of them,
    and every parameter must be finite.  Mixtures draw each observation from
    the standard logistic base with probability 1 - p and from the
    contaminant with probability p.
    """

    kind: str
    params: tuple = ()
    p: Optional[float] = None
    contaminant: Optional["AlternativeSpec"] = None

    def __post_init__(self):
        if self.kind == "mixture":
            if not 0.0 <= self.p <= 1.0:
                raise DomainError("mixing proportion must lie in [0, 1]")
            if self.contaminant.kind == "mixture":
                raise DomainError("nested mixtures are not supported")
            object.__setattr__(self, "p", float(self.p))
            return
        kind = _KINDS.get(self.kind)
        if kind is None:
            raise DomainError(f"unknown alternative kind: {self.kind!r}")
        params = tuple(float(v) for v in self.params) or kind.defaults
        if (params is None or len(params) != kind.arity
                or not all(math.isfinite(v) for v in params) or not kind.check(*params)):
            raise DomainError(f"bad parameters {tuple(self.params)} for {self.kind}: it takes "
                              f"{kind.rule}{' or none' if kind.defaults else ''}")
        object.__setattr__(self, "params", params)

    # -- constructors ------------------------------------------------------
    @classmethod
    def logistic(cls, *params: float):
        return cls("logistic", params)

    @classmethod
    def normal(cls):
        return cls("normal")

    @classmethod
    def student_t(cls, df: float):
        return cls("t", (df,))

    @classmethod
    def cauchy(cls):
        return cls("cauchy")

    @classmethod
    def laplace(cls):
        return cls("laplace")

    @classmethod
    def lognormal(cls, s: float):
        return cls("lognormal", (s,))

    @classmethod
    def gamma(cls, k: float):
        return cls("gamma", (k,))

    @classmethod
    def uniform(cls, *params: float):
        return cls("uniform", params)

    @classmethod
    def beta(cls, alpha: float, beta_: float):
        return cls("beta", (alpha, beta_))

    @classmethod
    def chisquare(cls, df: float):
        return cls("chisquare", (df,))

    @classmethod
    def mixture(cls, p: float, contaminant: "AlternativeSpec"):
        return cls("mixture", p=p, contaminant=contaminant)

    # -- sampling ----------------------------------------------------------
    def sample(self, n: int, stream: RngStream) -> np.ndarray:
        """n iid draws, deterministic given the stream."""
        if n < 1:
            raise DomainError("sample size must be at least 1")
        gen = stream.generator()
        if self.kind != "mixture":
            return _KINDS[self.kind].draw(gen, n, *self.params)
        c = self.contaminant
        if self.p == 0.0:
            return sample_from_generator(gen, n)
        if self.p == 1.0:
            return _KINDS[c.kind].draw(gen, n, *c.params)
        pick = gen.random(n)
        base = sample_from_generator(gen, n)
        return np.where(pick < self.p, _KINDS[c.kind].draw(gen, n, *c.params), base)

    # -- density and moments (for the population discrepancy) ---------------
    def pdf(self, x):
        if self.kind == "mixture":
            base = scipy.stats.logistic().pdf(x)
            return (1.0 - self.p) * base + self.p * self.contaminant.pdf(x)
        return _KINDS[self.kind].law(*self.params).pdf(x)

    def mean(self) -> float:
        if self.kind == "mixture":
            return self.p * self.contaminant.mean()
        return float(_KINDS[self.kind].law(*self.params).mean())

    def std(self) -> float:
        if self.kind == "mixture":
            m_c = self.contaminant.mean()
            second = (1.0 - self.p) * (math.pi**2 / 3.0) \
                + self.p * (self.contaminant.std() ** 2 + m_c**2)
            return math.sqrt(second - self.mean() ** 2)
        return float(_KINDS[self.kind].law(*self.params).std())

    # -- text form ---------------------------------------------------------
    def label(self) -> str:
        """The kind, with its parameters unless they are the defaults;
        ``parse`` reads it back to an equal spec."""
        if self.kind == "mixture":
            return f"mixture({self.p:g},{self.contaminant.label()})"
        if self.params == _KINDS[self.kind].defaults:
            return self.kind
        return f"{self.kind}({','.join(f'{v:g}' for v in self.params)})"

    @classmethod
    def parse(cls, text: str) -> "AlternativeSpec":
        """Parse labels like ``t(2)``, ``lognormal(1)`` or ``mixture(0.2,cauchy)``."""
        s = text.strip()
        m = re.fullmatch(r"([A-Za-z0-9_]+)\s*(?:\((.*)\))?", s)
        if not m:
            raise DomainError(f"cannot parse alternative: {text!r}")
        name = m.group(1).lower()
        raw_args = (m.group(2) or "").strip()
        if name == "mixture":
            if "," not in raw_args:
                raise DomainError("mixture needs a proportion and a contaminant")
            p_text, rest = raw_args.split(",", 1)
            return cls.mixture(float(p_text), cls.parse(rest))
        if name not in _NAMES:
            raise DomainError(f"unknown alternative name: {m.group(1)!r}")
        return cls(_NAMES[name], tuple(float(v) for v in raw_args.split(",") if v.strip()))


# ---------------------------------------------------------------------------
# statistic identifiers


@dataclass(frozen=True)
class StatSpec:
    """A statistic identifier plus its tuning parameter where one applies;
    ``_kernels.STATS`` names the statistics and their tuning defaults."""

    stat_id: str
    tuning: Optional[float] = None

    def __post_init__(self):
        sid, tuning = _kernels.check_spec(self.stat_id.upper(), self.tuning)
        object.__setattr__(self, "stat_id", sid)
        object.__setattr__(self, "tuning", tuning)

    @classmethod
    def parse(cls, text: str) -> "StatSpec":
        """Parse forms like ``T:3``, ``R:1`` or ``KS``."""
        part = text.strip()
        if ":" in part:
            sid, _, tun = part.partition(":")
            try:
                tuning = float(tun)
            except ValueError:
                raise DomainError(
                    f"invalid tuning {tun.strip()!r} in {part!r}: expected a number") from None
            return cls(sid.strip(), tuning)
        return cls(part)

    def label(self) -> str:
        if self.tuning is None:
            return self.stat_id
        return f"{self.stat_id}:{self.tuning:g}"

    def key(self) -> tuple:
        return (self.stat_id, self.tuning)


# ---------------------------------------------------------------------------
# configuration and result rows


def default_workers() -> int:
    env = os.environ.get(WORKERS_ENV_VAR)
    if not env:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if env.strip().isdecimal() and int(env) >= 1:
        return int(env)
    raise DomainError(f"{WORKERS_ENV_VAR} must be a positive integer, got {env!r}")


@dataclass(frozen=True)
class McConfig:
    """Replication protocol: how many samples, from which seed, how parallel."""

    reps: int
    seed: int
    workers: Optional[int] = None
    method: Method = Method.MOMENTS

    def __post_init__(self):
        if self.reps < 1:
            raise DomainError("replication count must be at least 1")
        if not (0 <= self.seed < 2**64):
            raise DomainError("seed must be a 64-bit unsigned integer")
        if self.workers is not None and not (
                isinstance(self.workers, int) and self.workers >= 0):
            raise DomainError(
                f"worker count must be a non-negative integer, got {self.workers!r}")

    def resolved_workers(self) -> int:
        return self.workers if self.workers else default_workers()


@dataclass(frozen=True)
class McRow:
    """One emitted result: (statistic, tuning, n, key, value, SE, excluded)."""

    statistic: str
    tuning: Optional[float]
    n: int
    key: object
    value: float
    mc_std_error: float
    excluded_reps: int


# ---------------------------------------------------------------------------
# the replication engine


def _chunk_reps(n: int) -> int:
    if n <= 25:
        return 4096
    if n <= 64:
        return 1024
    if n <= 160:
        return 256
    return 64


@dataclass(frozen=True)
class _ChunkTask:
    seed: int
    rep_lo: int
    rep_hi: int
    n: int
    specs: tuple
    alternative: AlternativeSpec
    method: Method


def _residuals_for_chunk(x: np.ndarray, method: Method) -> tuple[np.ndarray, int]:
    if method is Method.MOMENTS:
        y = _kernels.moment_residuals_batch(x)
        failures = int(np.isnan(y[:, 0]).sum())
        return y, failures
    y = np.empty_like(x)
    failures = 0
    for i in range(x.shape[0]):
        try:
            fit = fit_mle(x[i])
            y[i] = (x[i] - fit.mu_hat) / fit.sigma_hat
        except (ConvergenceError, ValueError):
            y[i] = np.nan
            failures += 1
    return y, failures


def _run_chunk(task: _ChunkTask) -> tuple[int, np.ndarray, int]:
    count = task.rep_hi - task.rep_lo
    x = np.empty((count, task.n))
    for i in range(count):
        stream = RngStream(task.seed, task.rep_lo + i)
        x[i] = task.alternative.sample(task.n, stream)
    y, failures = _residuals_for_chunk(x, task.method)
    return task.rep_lo, _kernels.compute_batch(y, task.specs), failures


def simulate_statistics(specs: Sequence[StatSpec], n: int, cfg: McConfig,
                        alternative: Optional[AlternativeSpec] = None) -> tuple[np.ndarray, int]:
    """Simulate every requested statistic over cfg.reps replications.

    Returns (values, fit_failures) where values has shape (len(specs), reps);
    replications whose fit failed are NaN columns.  Raises McError when more
    than 0.1% of replications are unusable.
    """
    alt = alternative if alternative is not None else AlternativeSpec.logistic()
    raw_specs = tuple(s.key() for s in specs)
    chunk = _chunk_reps(n)
    tasks = [
        _ChunkTask(cfg.seed, lo, min(lo + chunk, cfg.reps), n, raw_specs, alt, cfg.method)
        for lo in range(0, cfg.reps, chunk)
    ]
    values = np.empty((len(specs), cfg.reps))
    failures = 0
    workers = cfg.resolved_workers()
    if workers <= 1 or len(tasks) == 1:
        results = map(_run_chunk, tasks)
    else:
        pool = ProcessPoolExecutor(max_workers=min(workers, len(tasks)))
        try:
            results = list(pool.map(_run_chunk, tasks))
        finally:
            pool.shutdown()
    for rep_lo, chunk_values, chunk_failures in results:
        values[:, rep_lo:rep_lo + chunk_values.shape[1]] = chunk_values
        failures += chunk_failures
    if failures > 0.001 * cfg.reps:
        raise McError(f"{failures} of {cfg.reps} replications failed to fit")
    return values, failures


# ---------------------------------------------------------------------------
# calibration


@dataclass(frozen=True)
class CriticalValueTable:
    """Calibrated upper-tail critical values per (statistic, alpha) at one n."""

    n: int
    method: Method
    entries: dict
    rows: tuple

    def get(self, spec: StatSpec, alpha: float) -> float:
        return self.entries[(spec.key(), alpha)]


def _quantile_with_se(sorted_vals: np.ndarray, prob: float) -> tuple[float, float]:
    m = sorted_vals.size
    q = float(np.quantile(sorted_vals, prob))
    half = math.sqrt(prob * (1.0 - prob) / m)
    lo = float(np.quantile(sorted_vals, max(prob - half, 0.0)))
    hi = float(np.quantile(sorted_vals, min(prob + half, 1.0)))
    return q, (hi - lo) / 2.0


def calibrate(specs: Sequence[StatSpec], n: int, alphas: Sequence[float],
              cfg: McConfig) -> CriticalValueTable:
    """Empirical (1 - alpha) null quantiles for several statistics at once.

    All statistics share one stream of standard-logistic samples, fitted by
    cfg.method; location and scale of the simulated law are irrelevant by
    affine invariance.
    """
    for alpha in alphas:
        if not 0.0 < alpha < 1.0:
            raise DomainError(f"significance level must lie in (0,1), got {alpha}")
    values, _ = simulate_statistics(specs, n, cfg)
    entries = {}
    rows = []
    for i, spec in enumerate(specs):
        vals = values[i]
        valid = np.sort(vals[~np.isnan(vals)])
        excluded = int(vals.size - valid.size)
        for alpha in alphas:
            q, se = _quantile_with_se(valid, 1.0 - alpha)
            entries[(spec.key(), alpha)] = q
            rows.append(McRow(spec.stat_id, spec.tuning, n, alpha, q, se, excluded))
    return CriticalValueTable(n=n, method=cfg.method, entries=entries, rows=tuple(rows))


# ---------------------------------------------------------------------------
# power studies


def power_study(specs: Sequence[StatSpec], alternatives: Sequence[AlternativeSpec],
                n: int, cfg: McConfig, critical_table: CriticalValueTable,
                alpha: float = 0.05) -> list[McRow]:
    """Estimated rejection percentages against each alternative.

    A replication rejects when its statistic exceeds the calibrated critical
    value.  Infinite statistic values (exp-range overflow under heavy-tailed
    alternatives) exceed every threshold and count as rejections; failed fits
    are excluded and reported in the row.
    """
    rows = []
    for alt in alternatives:
        values, _ = simulate_statistics(specs, n, cfg, alternative=alt)
        for i, spec in enumerate(specs):
            vals = values[i]
            valid = vals[~np.isnan(vals)]
            excluded = int(vals.size - valid.size)
            cv = critical_table.get(spec, alpha)
            frac = float(np.mean(valid > cv)) if valid.size else math.nan
            se = 100.0 * math.sqrt(max(frac * (1.0 - frac), 0.0) / max(valid.size, 1))
            rows.append(McRow(spec.stat_id, spec.tuning, n, alt.label(),
                              100.0 * frac, se, excluded))
    return rows


def local_power_curve(contaminant: AlternativeSpec, p_grid: Sequence[float],
                      specs: Sequence[StatSpec], n: int, cfg: McConfig,
                      critical_table: CriticalValueTable,
                      alpha: float = 0.05) -> list[McRow]:
    """Power along a contamination path: mixtures of the logistic base with
    the contaminant at each mixing proportion in p_grid."""
    rows = []
    for p in p_grid:
        alt = AlternativeSpec.mixture(p, contaminant)
        rows += [replace(row, key=float(p))
                 for row in power_study(specs, [alt], n, cfg, critical_table, alpha=alpha)]
    return rows


# ---------------------------------------------------------------------------
# simulated p-values


def pvalue_simulated(stat_id: str, tuning: Optional[float], observed: float,
                     n: int, cfg: McConfig) -> float:
    """Add-one Monte Carlo p-value: (1 + #{simulated >= observed})/(reps + 1)."""
    if not math.isfinite(observed):
        raise DomainError("observed statistic value must be finite")
    outcome = SimpleNamespace(name=stat_id, tuning=tuning, value=observed)
    return pvalues_simulated([outcome], n, cfg)[0]


def pvalues_simulated(outcomes, n: int, cfg: McConfig) -> list[float]:
    """Add-one p-values for several observed outcomes sharing one null run."""
    specs = [StatSpec(o.name, o.tuning) for o in outcomes]
    values, _ = simulate_statistics(specs, n, cfg)
    out = []
    for i, outcome in enumerate(outcomes):
        vals = values[i]
        valid = vals[~np.isnan(vals)]
        out.append((1.0 + float(np.sum(valid >= outcome.value))) / (valid.size + 1.0))
    return out


# ---------------------------------------------------------------------------
# emission


CSV_COLUMNS = ("statistic", "tuning", "n", "key", "value", "mc_std_error",
               "excluded_reps")


def _format_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _cells(r: McRow) -> list[str]:
    return [r.statistic, _format_value(r.tuning), str(r.n), _format_value(r.key),
            _format_value(r.value), _format_value(r.mc_std_error), str(r.excluded_reps)]


def rows_to_csv(rows: Sequence[McRow], key_name: str = "key") -> str:
    """Render result rows as CSV with a header; floats carry 6 significant
    digits and fields containing commas (mixture labels) are quoted."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow([c if c != "key" else key_name for c in CSV_COLUMNS])
    writer.writerows(_cells(r) for r in rows)
    return buffer.getvalue()


def rows_to_text(rows: Sequence[McRow], key_name: str = "key",
                 round_percent: bool = False) -> str:
    """Aligned plain-text table; optionally rounds values to whole percents."""
    table = [["statistic", "tuning", "n", key_name, "value", "se", "excluded"]]
    for r in rows:
        table.append(_cells(r))
        if round_percent:
            table[-1][4] = str(int(round(r.value)))
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
             for row in table]
    return "\n".join(lines) + "\n"
