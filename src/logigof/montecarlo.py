"""Monte Carlo machinery: critical-value calibration, size/power studies
(including contamination mixtures), and simulated p-values.

Replication r of a run with seed s always draws from the counter-based
substream (s, r), so results are bit-identical no matter how many worker
processes participate.  Replications are evaluated in fixed-size chunks of
vectorized work; chunk boundaries depend only on the sample size, never on
the worker count, and chunk results are concatenated in order.

A chunk draws all its samples in one ``AlternativeSpec.sample(..., reps=k)``
call.  Draws that take one Philox word each are computed from the words of
all substreams at once (``logistic_core.philox_words``): logistic and
uniform samples, and a mixture's picks and logistic base.  Every other draw
keeps numpy's own transforms: one Philox and one Generator serve the whole
chunk, and before each replication the Philox is set to the state that
``Philox(key=[s, r])`` has at the draw's first word, fresh for the other
kinds and past the picks and the base for a mixture's contaminant.  Either
way replication r sees exactly the stream of substream (s, r).

Chunks run in worker processes when a call has more than one chunk and more
than one worker.  The workers live in one pool per process.  It starts on
the first parallel call, with ``min(workers, chunks)`` processes, and later
calls reuse it; a call that needs another size replaces it, and a call whose
map raises shuts it down.  A process forked from one that holds a pool
starts its own.  Inside a ``multiprocessing`` child the pool is shut down
after each call, as a kept pool would stop the child from exiting.  Each
worker exits within about a second once the process that started the pool
is gone, however it ended.  Calls from several threads take turns on the
one pool.  Workers are started by the default ``multiprocessing`` start
method and take their copy of the code when the pool starts, so code patched
after that is not seen by them: tests that patch engine internals run with
``workers=1``.
``concurrent.futures`` and ``multiprocessing`` are imported on the first
parallel call.

Only ``AlternativeSpec.pdf``, ``mean``, ``std`` and ``breaks`` use scipy:
they resolve the kind's ``scipy.stats`` law, importing scipy.stats on first
call.  They serve ``statistics.delta_alternative``; sampling, calibration,
power studies and p-values never import scipy.
"""

from __future__ import annotations

import atexit
import csv
import functools
import io
import math
import os
import re
import threading
import time
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import _kernels
from .estimation import Method, fit_mle_batch
from .logistic_core import (DomainError, RngStream, fill_logistic,
                            philox_words, random_doubles, uint64_index)
from .logistic_core import pdf as logistic_pdf

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
    draws it, its law (a function of the ``scipy.stats`` module and the
    parameters that returns the frozen distribution), and the ``kinks``
    inside its support where its density is not smooth.  ``_frozen_law``
    alone calls ``law``, importing scipy.stats on first use."""

    aliases: str
    arity: int
    defaults: Optional[tuple]
    rule: str
    draw: Callable[..., np.ndarray]
    law: Callable[..., object]
    check: Callable[..., bool] = _positive
    kinks: tuple = ()


_KINDS = {
    "logistic": _Kind("l", 2, (0.0, 1.0), "finite mu and sigma > 0",
                      lambda gen, n, mu, sigma: fill_logistic(
                          np.empty(n), gen.bit_generator.random_raw(n), mu, sigma),
                      lambda st, mu, sigma: st.logistic(loc=mu, scale=sigma),
                      lambda mu, sigma: sigma > 0),
    "normal": _Kind("n gaussian", 0, (), "no parameters",
                    lambda gen, n: gen.standard_normal(n), lambda st: st.norm()),
    "t": _Kind("student studentt", 1, None, "finite df > 0",
               lambda gen, n, df: gen.standard_t(df, n), lambda st, df: st.t(df)),
    "cauchy": _Kind("c", 0, (), "no parameters",
                    lambda gen, n: gen.standard_cauchy(n), lambda st: st.cauchy()),
    "laplace": _Kind("lp", 0, (), "no parameters",
                     lambda gen, n: gen.laplace(0.0, 1.0, n), lambda st: st.laplace(),
                     kinks=(0.0,)),
    "lognormal": _Kind("ln", 1, None, "finite log-scale s > 0",
                       lambda gen, n, s: gen.lognormal(0.0, s, n),
                       lambda st, s: st.lognorm(s)),
    "gamma": _Kind("", 1, None, "finite shape k > 0",
                   lambda gen, n, k: gen.gamma(k, 1.0, n), lambda st, k: st.gamma(k)),
    "uniform": _Kind("u", 2, (-SQRT3, SQRT3), "finite lo < hi with a finite hi - lo",
                     lambda gen, n, lo, hi: gen.uniform(lo, hi, n),
                     lambda st, lo, hi: st.uniform(lo, hi - lo),
                     lambda lo, hi: lo < hi and math.isfinite(hi - lo)),
    "beta": _Kind("b", 2, None, "finite shapes a, b > 0",
                  lambda gen, n, a, b: gen.beta(a, b, n), lambda st, a, b: st.beta(a, b)),
    "chisquare": _Kind("chisq chi2", 1, None, "finite df > 0",
                       lambda gen, n, df: gen.chisquare(df, n), lambda st, df: st.chi2(df)),
}
_NAMES = {alias: kind for kind, spec in _KINDS.items() for alias in (kind, *spec.aliases.split())}


def _philox_state(seed: int, substream: int, counter: int = 0,
                  buffer: Sequence[int] = (0, 0, 0, 0), buffer_pos: int = 4) -> dict:
    """The state of ``Philox(key=[seed, substream])`` once it has made
    ``counter`` blocks, the last one ``buffer``, and handed out
    ``buffer_pos`` of its words; fresh by default.  Built from plain ints,
    it is set about twice as fast as the arrays that ``state`` returns."""
    return {"bit_generator": "Philox",
            "state": {"counter": [counter, 0, 0, 0], "key": [seed, substream]},
            "buffer": buffer, "buffer_pos": buffer_pos, "has_uint32": 0, "uinteger": 0}


@functools.lru_cache(maxsize=64)
def _frozen_law(kind: str, params: tuple):
    """The frozen ``scipy.stats`` law of ``kind`` at ``params``, built once:
    freezing one costs ~1 ms, and ``delta_alternative`` asks it for the
    density once per refinement level.  Imports scipy.stats on the first call."""
    import scipy.stats

    return _KINDS[kind].law(scipy.stats, *params)


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
            if not (isinstance(self.p, (int, float, np.integer, np.floating))
                    and 0.0 <= self.p <= 1.0):
                raise DomainError(f"mixing proportion must lie in [0, 1], got {self.p!r}")
            if not isinstance(self.contaminant, AlternativeSpec):
                raise DomainError(f"a mixture needs an AlternativeSpec contaminant, "
                                  f"got {self.contaminant!r}")
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

    # -- sampling ----------------------------------------------------------
    def sample(self, n: int, stream: RngStream, reps: Optional[int] = None) -> np.ndarray:
        """n iid draws, deterministic given the stream.

        With ``reps=k`` the result is a (k, n) block whose row i is exactly
        ``sample(n, RngStream(stream.seed, stream.substream + i))``: the
        kind's ``_KINDS`` draw on that substream's fresh Generator, or for a
        mixture its picks (``random``), its logistic base and its
        contaminant's draw, one Generator call each.  Mixtures with p = 0
        are logistic and with p = 1 their contaminant.  Draws that take one
        Philox word each are computed for all rows at once from
        ``philox_words``, in row blocks of at most ``_kernels._PAIR_BUDGET``
        words: logistic and uniform samples, and a mixture's picks (words
        0 .. n-1) and logistic base (words n .. 2n-1).  The other kinds, and
        a mixture's contaminant, are drawn with numpy's own transforms from
        one Generator, set before each row to the state of that row's
        Philox at the draw's first word: fresh, or at word 2n for the
        contaminant.
        """
        if n < 1:
            raise DomainError("sample size must be at least 1")
        k = 1 if reps is None else uint64_index(reps, "replication count")
        if k < 1:
            raise DomainError("replication count must be at least 1")
        if stream.substream + k > 2**64:
            raise DomainError(f"{k} replications from substream {stream.substream} "
                              f"pass the last substream index, 2^64 - 1")
        spec = self
        if self.kind == "mixture" and self.p in (0.0, 1.0):
            spec = self.contaminant if self.p else AlternativeSpec("logistic")
        words = {"logistic": n, "uniform": n, "mixture": 2 * n}.get(spec.kind)
        gen = None if spec.kind in ("logistic", "uniform") else stream.generator()
        step = max(1, _kernels._PAIR_BUDGET // (-(-words // 4) * 4)) if words else k
        x = np.empty((k, n))
        for lo in range(0, k, step):
            spec._fill(x[lo:lo + step], stream.seed, stream.substream + lo, gen)
        return x if reps is not None else x[0]

    def _fill(self, out: np.ndarray, seed: int, first: int, gen) -> None:
        """Fill row i of ``out`` from substream ``first + i`` of ``seed``;
        ``gen`` makes the draws that do not come from ``philox_words``."""
        rows, n = out.shape
        if self.kind == "logistic":
            fill_logistic(out, philox_words(seed, first, rows, n), *self.params)
        elif self.kind == "uniform":
            lo, hi = self.params
            out[:] = lo + (hi - lo) * random_doubles(philox_words(seed, first, rows, n))
        elif self.kind == "mixture":
            # The picks and the base fill ceil(2n / 4) Philox blocks; the
            # contaminant starts at word 2n, inside the last one when 2n is
            # not a multiple of 4.
            blocks = -(-n // 2)
            words = philox_words(seed, first, rows, 4 * blocks)
            fill_logistic(out, words[:, n:2 * n])
            picks = random_doubles(words[:, :n]) < self.p
            last = words[:, -4:].tolist()
            c = self.contaminant
            draw = _KINDS[c.kind].draw
            for i in range(rows):
                gen.bit_generator.state = _philox_state(seed, first + i, blocks, last[i],
                                                        2 * n - 4 * (blocks - 1))
                np.copyto(out[i], draw(gen, n, *c.params), where=picks[i])
        else:
            draw = _KINDS[self.kind].draw
            for i in range(rows):
                gen.bit_generator.state = _philox_state(seed, first + i)
                out[i] = draw(gen, n, *self.params)

    # -- density and moments (for the population discrepancy) ---------------
    def pdf(self, x):
        if self.kind == "mixture":
            return (1.0 - self.p) * logistic_pdf(x) + self.p * self.contaminant.pdf(x)
        return _frozen_law(self.kind, self.params).pdf(x)

    def mean(self) -> float:
        if self.kind == "mixture":
            return self.p * self.contaminant.mean()
        return float(_frozen_law(self.kind, self.params).mean())

    def std(self) -> float:
        if self.kind == "mixture":
            m_c = self.contaminant.mean()
            second = (1.0 - self.p) * (math.pi**2 / 3.0) \
                + self.p * (self.contaminant.std() ** 2 + m_c**2)
            return math.sqrt(second - self.mean() ** 2)
        return float(_frozen_law(self.kind, self.params).std())

    def breaks(self) -> tuple:
        """The points where the density is not smooth, in increasing order: the
        finite ends of the support and the kinks; a mixture has its contaminant's."""
        if self.kind == "mixture":
            return self.contaminant.breaks()
        ends = _frozen_law(self.kind, self.params).support()
        return tuple(sorted({*(float(v) for v in ends if math.isfinite(v)),
                             *_KINDS[self.kind].kinks}))

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

        def numbers(fields: str) -> tuple:
            # Every field must be a number: an empty one is an error, not a skip.
            try:
                return tuple(float(v) for v in fields.split(","))
            except ValueError:
                raise DomainError(f"bad number in alternative: {text!r}") from None

        if name == "mixture":
            if "," not in raw_args:
                raise DomainError("mixture needs a proportion and a contaminant")
            p_text, rest = raw_args.split(",", 1)
            return cls("mixture", p=numbers(p_text)[0], contaminant=cls.parse(rest))
        if name not in _NAMES:
            raise DomainError(f"unknown alternative name: {m.group(1)!r}")
        return cls(_NAMES[name], numbers(raw_args) if raw_args else ())


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
        object.__setattr__(self, "reps", uint64_index(self.reps, "replication count"))
        if self.reps < 1:
            raise DomainError("replication count must be at least 1")
        object.__setattr__(self, "seed", uint64_index(self.seed, "seed"))
        if self.workers is not None:
            object.__setattr__(self, "workers", uint64_index(self.workers, "worker count"))

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
    """Replications per chunk: 64 rows past n = 160, and past n = 16384 as
    many as keep a chunk's (rows, n) arrays within 2^20 values."""
    if n <= 25:
        return 4096
    if n <= 64:
        return 1024
    if n <= 160:
        return 256
    return min(64, max(1, (1 << 20) // n))


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
    else:
        mu, sigma, _, converged = fit_mle_batch(x)
        with np.errstate(all="ignore"):
            y = (x - mu[:, None]) / sigma[:, None]
        y[~converged] = np.nan
    return y, int(np.isnan(y[:, 0]).sum())


def _run_chunk(task: _ChunkTask) -> tuple[int, np.ndarray, int]:
    x = task.alternative.sample(task.n, RngStream(task.seed, task.rep_lo),
                                reps=task.rep_hi - task.rep_lo)
    y, failures = _residuals_for_chunk(x, task.method)
    return task.rep_lo, _kernels.compute_batch(y, task.specs), failures


class _Pool(NamedTuple):
    pid: int
    size: int
    executor: object


_pool: Optional[_Pool] = None
_pool_lock = threading.Lock()


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass
    return True


def _exit_with_parent(owner: int) -> None:
    """Worker initializer: end this worker once ``owner``, the process that
    started the pool, is gone.

    An idle worker blocks on its task queue, which a killed owner never
    closes, so a daemon thread watches for the owner's end instead.  Under
    fork and spawn the owner is the worker's parent, and the worker is
    re-parented when the owner dies.  Under forkserver the parent is the
    fork server, which stays up as long as any worker holds its pipe, so the
    worker also polls the owner's pid, which is gone once the owner has been
    reaped.
    """
    parent = os.getppid()

    def watch():
        while os.getppid() == parent and _alive(owner):
            time.sleep(1.0)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _drop_pool() -> None:
    """Forget the process's pool; shut it down if this process started it."""
    global _pool
    pool, _pool = _pool, None
    if pool is not None and pool.pid == os.getpid():
        pool.executor.shutdown(cancel_futures=True)


# Let go of the pool before the interpreter tears its modules down: an
# executor collected after that reports an error from its weakref callback.
atexit.register(_drop_pool)


def _map_chunks(tasks: list, size: int) -> list:
    """``_run_chunk`` over tasks, in order, on ``size`` worker processes."""
    global _pool
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with _pool_lock:
        # A pool inherited through fork belongs to the parent: forget it.
        if _pool is not None and (_pool.pid, _pool.size) != (os.getpid(), size):
            _drop_pool()
        if _pool is None:
            _pool = _Pool(os.getpid(), size,
                          ProcessPoolExecutor(size, initializer=_exit_with_parent,
                                              initargs=(os.getpid(),)))
        try:
            results = list(_pool.executor.map(_run_chunk, tasks))
        except BaseException:
            _drop_pool()
            raise
        # A multiprocessing child joins its live children on exit, so a
        # pool kept there would hang it.
        if multiprocessing.parent_process() is not None:
            _drop_pool()
        return results


def simulate_statistics(specs: Sequence[StatSpec], n: int, cfg: McConfig,
                        alternative: Optional[AlternativeSpec] = None) -> tuple[np.ndarray, int]:
    """Simulate every requested statistic over cfg.reps replications.

    Returns (values, fit_failures) where values has shape (len(specs), reps);
    replications whose fit failed are NaN columns.  Raises DomainError for
    n < 2, before drawing anything, and McError when more than 0.1% of
    replications are unusable.

    With more than one chunk and more than one worker, the chunks run on
    the process's worker pool: it is started on the first such call with
    ``min(workers, chunks)`` processes, kept for the life of the process
    (never inside a ``multiprocessing`` child), reused by later calls of the
    same size, and its workers exit when this process goes.  They do not see
    code patched after the pool started; ``workers=1`` runs every chunk in
    this process.
    """
    if n < 2:
        raise DomainError(f"sample size must be at least 2 to fit location and scale, got {n}")
    alt = alternative if alternative is not None else AlternativeSpec("logistic")
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
        results = _map_chunks(tasks, min(workers, len(tasks)))
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


def calibrate(specs: Sequence[StatSpec], n: int, alphas: Sequence[float],
              cfg: McConfig) -> CriticalValueTable:
    """Empirical (1 - alpha) null quantiles for several statistics at once.

    All statistics share one stream of standard-logistic samples, fitted by
    cfg.method; location and scale of the simulated law are irrelevant by
    affine invariance.  Each quantile's standard error is half the distance
    between the empirical quantiles at p - h and p + h, clipped to [0, 1],
    with p = 1 - alpha and h = sqrt(p (1 - p) / m) for the m valid values.
    One ``np.quantile`` call per statistic takes all 3 len(alphas) levels;
    each equals the value of a call at that level alone.  Raises McError
    when a statistic has no valid value.
    """
    for alpha in alphas:
        if not 0.0 < alpha < 1.0:
            raise DomainError(f"significance level must lie in (0,1), got {alpha}")
    values, _ = simulate_statistics(specs, n, cfg)
    entries = {}
    rows = []
    for i, spec in enumerate(specs):
        vals = values[i]
        valid = vals[~np.isnan(vals)]
        excluded = int(vals.size - valid.size)
        if not valid.size:
            raise McError(f"statistic {spec.label()} has no valid value in {vals.size} replications")
        probs = []
        for alpha in alphas:
            p = 1.0 - alpha
            half = math.sqrt(p * (1.0 - p) / valid.size)
            probs += [p, max(p - half, 0.0), min(p + half, 1.0)]
        levels = np.quantile(valid, probs).reshape(len(alphas), 3)
        for alpha, (q, lo, hi) in zip(alphas, levels.tolist()):
            entries[(spec.key(), alpha)] = q
            rows.append(McRow(spec.stat_id, spec.tuning, n, alpha, q, (hi - lo) / 2.0, excluded))
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
        alt = AlternativeSpec("mixture", p=p, contaminant=contaminant)
        rows += [replace(row, key=float(p))
                 for row in power_study(specs, [alt], n, cfg, critical_table, alpha=alpha)]
    return rows


# ---------------------------------------------------------------------------
# simulated p-values


def pvalues_simulated(outcomes, n: int, cfg: McConfig) -> list[float]:
    """Add-one p-values (1 + #{simulated >= observed})/(reps + 1) of outcomes
    sharing one null run; DomainError, before any draw, for a value not finite."""
    if not all(math.isfinite(o.value) for o in outcomes):
        raise DomainError("observed statistic value must be finite")
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
