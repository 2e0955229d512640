"""Monte Carlo machinery: critical-value calibration, size/power studies
(including contamination mixtures), and simulated p-values.

Replication r of a run with seed s always draws from the counter-based
substream (s, r), so results are bit-identical no matter how many worker
processes participate.  Replications are evaluated in fixed-size chunks of
vectorized work; chunk boundaries depend only on the sample size, never on
the worker count, and chunk results are concatenated in order.

Chunks run in worker processes when a call has more than one chunk and more
than one worker.  The workers live in one pool per process.  It starts on
the first parallel call, with ``min(workers, chunks)`` processes, and later
calls reuse it; a call that needs another size replaces it, and a call whose
chunk raises shuts it down.  A power study is one call: the chunks of all
its alternatives are submitted at once and consumed in order, and each
alternative is reduced to its rows before the next is put together.  Each
worker raises glibc's mmap and trim thresholds when it starts, so that its
chunks reuse their heap pages instead of faulting them in again.  A process
forked from one that holds a pool starts its own.  Inside a
``multiprocessing`` child the pool is shut down after each call, as a kept
pool would stop the child from exiting.  Each worker exits within about a
second once the process that started the pool is gone, however it ended.
Calls from several threads take turns on the one pool.  Workers are started
by the default ``multiprocessing`` start method and take their copy of the
code when the pool starts, so code patched after that is not seen by them:
tests that patch engine internals run with ``workers=1``.
``concurrent.futures`` and ``multiprocessing`` are imported on the first
parallel call, and ``ctypes`` only in the workers.

The alternatives and their chunked draw live in ``logigof.alternatives``;
``AlternativeSpec`` is also importable from here.
"""

from __future__ import annotations

import atexit
import contextlib
import csv
import io
import itertools
import math
import os
import threading
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from . import _kernels
# _KINDS, the table of alternative kinds, stays readable as montecarlo._KINDS.
from .alternatives import _KINDS, AlternativeSpec  # noqa: F401
from .estimation import Method, fit_mle_batch
from .logistic_core import DomainError, RngStream, uint64_index

WORKERS_ENV_VAR = "LOGIGOF_WORKERS"


class McError(RuntimeError):
    """Systematic Monte Carlo failure (e.g. >0.1% of replications unusable)."""


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


# glibc's mallopt parameters M_TRIM_THRESHOLD and M_MMAP_THRESHOLD, and the
# values a worker sets them to: blocks of up to 32 MiB (glibc's largest
# threshold) come from the heap, and up to 64 MiB of free heap top is kept.
_WORKER_MALLOPT = ((-1, 64 << 20), (-3, 32 << 20))


def _exit_with_parent(owner: int) -> None:
    """Worker initializer: keep this worker's heap warm, and end the worker
    once ``owner``, the process that started the pool, is gone.

    Each chunk frees its arrays and the next chunk allocates them again.
    glibc maps blocks from 128 KiB up afresh (a bar it raises only as such
    blocks are freed) and gives the free top of its heap back, so every
    chunk faulted its pages in anew: about 1380 minor faults per 4096-row
    chunk at n = 20.  With both thresholds raised through ``mallopt`` the
    pages stay mapped from one chunk to the next.  Only the pool's workers
    set them, never the process that calls the engine, and a C library
    without ``mallopt`` is left as it is.

    An idle worker blocks on its task queue, which a killed owner never
    closes, so a daemon thread watches for the owner's end instead.  Under
    fork and spawn the owner is the worker's parent, and the worker is
    re-parented when the owner dies.  Under forkserver the parent is the
    fork server, which stays up as long as any worker holds its pipe, so the
    worker also polls the owner's pid, which is gone once the owner has been
    reaped.
    """
    import ctypes

    try:
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    except OSError:
        mallopt = None
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        for param, value in _WORKER_MALLOPT:
            mallopt(param, value)
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


@contextlib.contextmanager
def _chunk_stream(tasks: list, workers: int):
    """An iterator over ``_run_chunk(task)`` for the tasks, in order: in
    this process for one worker or one task, else on the process's pool, to
    which every task is submitted at once.  A live pool of at least
    ``min(workers, len(tasks))`` and at most ``workers`` workers is kept;
    otherwise one of that minimum size replaces it.  Leaving the block
    cancels the tasks that have not started; an exception other than
    ``McError`` shuts the pool down."""
    size = min(workers, len(tasks))
    if size <= 1:
        yield map(_run_chunk, tasks)
        return
    global _pool
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with _pool_lock:
        # A pool inherited through fork belongs to the parent: forget it.
        if _pool is not None and not (_pool.pid == os.getpid()
                                      and size <= _pool.size <= workers):
            _drop_pool()
        if _pool is None:
            _pool = _Pool(os.getpid(), size,
                          ProcessPoolExecutor(size, initializer=_exit_with_parent,
                                              initargs=(os.getpid(),)))
        # A generator of its own, so that closing it drops the executor's
        # result iterator, which cancels the tasks still queued.
        results = (result for result in _pool.executor.map(_run_chunk, tasks))
        try:
            yield results
        except McError:
            raise
        except BaseException:
            _drop_pool()
            raise
        finally:
            results.close()
            # A multiprocessing child joins its live children on exit, so a
            # pool kept there would hang it.
            if multiprocessing.parent_process() is not None:
                _drop_pool()


def _simulate_each(specs: Sequence[StatSpec], n: int, cfg: McConfig,
                   alternatives: Sequence[AlternativeSpec], reduce: Callable) -> list:
    """``reduce(alternative, values, fit_failures)`` for each alternative in
    turn, where ``values`` is its (len(specs), reps) array of simulated
    statistics.

    The chunks of all the alternatives form one stream (``_chunk_stream``),
    so no worker waits for the others at the end of an alternative.  Each
    alternative is reduced as soon as its chunks are in, before the next
    one's are put together: this process holds one alternative's values and
    the chunks that arrived ahead of them.  Raises DomainError for n < 2,
    before drawing anything, and McError at the first alternative of which
    more than 0.1% of the replications are unusable.
    """
    if n < 2:
        raise DomainError(f"sample size must be at least 2 to fit location and scale, got {n}")
    raw_specs = tuple(s.key() for s in specs)
    chunk = _chunk_reps(n)
    starts = range(0, cfg.reps, chunk)
    tasks = [_ChunkTask(cfg.seed, lo, min(lo + chunk, cfg.reps), n, raw_specs, alt, cfg.method)
             for alt in alternatives for lo in starts]
    reduced = []
    with _chunk_stream(tasks, cfg.resolved_workers()) as results:
        for alt in alternatives:
            values = np.empty((len(specs), cfg.reps))
            failures = 0
            for rep_lo, chunk_values, chunk_failures in itertools.islice(results, len(starts)):
                values[:, rep_lo:rep_lo + chunk_values.shape[1]] = chunk_values
                failures += chunk_failures
            if failures > 0.001 * cfg.reps:
                raise McError(f"{failures} of {cfg.reps} replications failed to fit")
            reduced.append(reduce(alt, values, failures))
            del values  # before the next alternative's array is allocated
    return reduced


def simulate_statistics(specs: Sequence[StatSpec], n: int, cfg: McConfig,
                        alternative: Optional[AlternativeSpec] = None) -> tuple[np.ndarray, int]:
    """Simulate every requested statistic over cfg.reps replications.

    Returns (values, fit_failures) where values has shape (len(specs), reps);
    replications whose fit failed are NaN columns.  Raises DomainError for
    n < 2, before drawing anything, and McError when more than 0.1% of
    replications are unusable.  The chunks run as ``_chunk_stream`` says.
    """
    alt = alternative if alternative is not None else AlternativeSpec("logistic")
    return _simulate_each(specs, n, cfg, [alt], lambda _, values, failures: (values, failures))[0]


# ---------------------------------------------------------------------------
# calibration


def _valid(values: np.ndarray) -> Iterator[tuple[np.ndarray, int]]:
    """Each statistic's row of ``values`` without the NaN of failed fits, and
    the count it excludes; lazily, so that one copy of a row is held at once."""
    return ((vals[~np.isnan(vals)], int(np.isnan(vals).sum())) for vals in values)


@dataclass(frozen=True)
class CriticalValueTable:
    """Calibrated upper-tail critical values at one n.  The table is its
    rows: one ``McRow`` per (statistic, alpha), keyed by alpha, whose value
    is the critical value."""

    rows: tuple

    def get(self, spec: StatSpec, alpha: float) -> float:
        """The critical value of ``spec`` at ``alpha``; KeyError when the
        table has none."""
        return {((r.statistic, r.tuning), r.key): r.value for r in self.rows}[(spec.key(), alpha)]


def calibrate(specs: Sequence[StatSpec], n: int, alphas: Sequence[float],
              cfg: McConfig) -> CriticalValueTable:
    """Empirical (1 - alpha) null quantiles for several statistics at once.

    All statistics share one stream of standard-logistic samples, fitted by
    cfg.method; location and scale of the simulated law are irrelevant by
    affine invariance.  Each quantile's standard error is half the distance
    between the empirical quantiles at p - h and p + h, clipped to [0, 1],
    with p = 1 - alpha and h = sqrt(p (1 - p) / m) for the m valid values.
    One ``np.quantile`` call per statistic takes all 3 len(alphas) levels;
    each equals the value of a call at that level alone.  ``_valid`` drops
    the failed fits, whose count each row reports, and the table is the
    rows.  Raises McError when a statistic has no valid value.
    """
    for alpha in alphas:
        if not 0.0 < alpha < 1.0:
            raise DomainError(f"significance level must lie in (0,1), got {alpha}")
    values, _ = simulate_statistics(specs, n, cfg)
    rows = []
    for spec, (valid, excluded) in zip(specs, _valid(values)):
        if not valid.size:
            raise McError(f"statistic {spec.label()} has no valid value in {cfg.reps} replications")
        probs = []
        for alpha in alphas:
            p = 1.0 - alpha
            half = math.sqrt(p * (1.0 - p) / valid.size)
            probs += [p, max(p - half, 0.0), min(p + half, 1.0)]
        levels = np.quantile(valid, probs).reshape(len(alphas), 3)
        for alpha, (q, lo, hi) in zip(alphas, levels.tolist()):
            rows.append(McRow(spec.stat_id, spec.tuning, n, alpha, q, (hi - lo) / 2.0, excluded))
    return CriticalValueTable(tuple(rows))


# ---------------------------------------------------------------------------
# power studies


def power_study(specs: Sequence[StatSpec], alternatives: Sequence[AlternativeSpec],
                n: int, cfg: McConfig, critical_table: CriticalValueTable,
                alpha: float = 0.05) -> list[McRow]:
    """Estimated rejection percentages against each alternative.

    A replication rejects when its statistic exceeds the calibrated critical
    value.  Infinite statistic values (exp-range overflow under heavy-tailed
    alternatives) exceed every threshold and count as rejections; failed fits
    are dropped by ``_valid`` and their count reported in the row.  The
    critical values are the rows of ``critical_table``.  The chunks of all
    alternatives form one stream; the rows equal those of one
    ``simulate_statistics`` call per alternative.
    """
    def rows_of(alt, values, _):
        rows = []
        for spec, (valid, excluded) in zip(specs, _valid(values)):
            cv = critical_table.get(spec, alpha)
            frac = float(np.mean(valid > cv)) if valid.size else math.nan
            se = 100.0 * math.sqrt(max(frac * (1.0 - frac), 0.0) / max(valid.size, 1))
            rows.append(McRow(spec.stat_id, spec.tuning, n, alt.label(),
                              100.0 * frac, se, excluded))
        return rows

    return [row for rows in _simulate_each(specs, n, cfg, alternatives, rows_of)
            for row in rows]


def local_power_curve(contaminant: AlternativeSpec, p_grid: Sequence[float],
                      specs: Sequence[StatSpec], n: int, cfg: McConfig,
                      critical_table: CriticalValueTable,
                      alpha: float = 0.05) -> list[McRow]:
    """Power along a contamination path: mixtures of the logistic base with
    the contaminant at each mixing proportion in p_grid, in one study."""
    mixtures = [AlternativeSpec("mixture", p=p, contaminant=contaminant) for p in p_grid]
    rows = power_study(specs, mixtures, n, cfg, critical_table, alpha=alpha)
    keys = [float(p) for p in p_grid for _ in specs]
    return [replace(row, key=key) for row, key in zip(rows, keys)]


# ---------------------------------------------------------------------------
# simulated p-values


def pvalues_simulated(outcomes, n: int, cfg: McConfig) -> list[float]:
    """Add-one p-values (1 + #{simulated >= observed})/(m + 1) of outcomes
    sharing one null run, over the m valid values that ``_valid`` keeps of
    the reps; DomainError, before any draw, for a value not finite."""
    if not all(math.isfinite(o.value) for o in outcomes):
        raise DomainError("observed statistic value must be finite")
    specs = [StatSpec(o.name, o.tuning) for o in outcomes]
    values, _ = simulate_statistics(specs, n, cfg)
    return [(1.0 + float(np.sum(valid >= outcome.value))) / (valid.size + 1.0)
            for outcome, (valid, _) in zip(outcomes, _valid(values))]


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
