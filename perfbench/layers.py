"""Per-layer metrics of the traced run, and the end-to-end metric each moves.

The layers are the package's modules.  ``LAYER_METRICS`` maps every metric
to its unit, its better direction, what it measures and which end-to-end
metric it should move on which workload.  ``layer_metrics`` derives the
values from a ``spans.Tracer`` plus the few figures that the run measures
outside the trace (``EXTRA_METRICS``).
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from spans import Span, Tracer, self_times

# name: (unit, better, what, moves)
LAYER_METRICS = {
    "logistic_core.sample_us_per_rep": (
        "us", "lower", "busy time in AlternativeSpec.sample per replication",
        "work_per_s on power-n20-table2; small on the null workloads; none on single-large-n"),
    "logistic_core.generators_per_rep": (
        "count", "lower", "RngStream.generator calls per replication (1.0 at the seed commit)",
        "work_per_s on the null workloads only"),
    "estimation.fit_us_per_rep": (
        "us", "lower", "busy time in fit_mle (ML) or moment_residuals_batch (moments) per replication",
        "work_per_s on null-n20-ml; none on null-n50-moments"),
    "estimation.newton_iters_per_fit": (
        "count", "lower", "mean FitResult.iterations over ML fits",
        "work_per_s on null-n20-ml"),
    "estimation.fit_failures": (
        "count", "lower", "failed fits per workload call",
        "failed_frac on null-n20-ml"),
    "estimation.fits_attempted": (
        "count", "higher", "attempted fits per workload call, the base of fit_failures",
        "none; the base of estimation.fit_failures"),
    "_kernels.batch_us_per_rep": (
        "us", "lower", "busy time in compute_batch per replication",
        "work_per_s on null-n50-moments, then power-n20-table2"),
    "_kernels.T_us_per_rep": (
        "us", "lower", "compute_batch with only the T specs on the workload's chunks, per replication",
        "work_per_s on null-n50-moments, then power-n20-table2"),
    "_kernels.SR_us_per_rep": (
        "us", "lower", "compute_batch with only the S and R specs on the workload's chunks, per replication",
        "work_per_s on null-n50-moments, then power-n20-table2"),
    "_kernels.EDF_us_per_rep": (
        "us", "lower", "compute_batch with only the EDF specs on the workload's chunks, per replication",
        "work_per_s on null-n50-moments, then power-n20-table2"),
    "_kernels.temp_mb": (
        "MB-computed", "lower", "largest (C, n, n) float64 temporary of a compute_batch call, from array shapes",
        "peak_rss_mb on null-n50-moments"),
    "statistics.T_s": (
        "s", "lower", "wall time of one t_stat_closed call",
        "work_per_s and peak_rss_mb on single-large-n; the engine never calls it"),
    "statistics.S_s": (
        "s", "lower", "wall time of one s_stat call",
        "work_per_s and peak_rss_mb on single-large-n; the engine never calls it"),
    "statistics.R_s": (
        "s", "lower", "wall time of one r_stat call",
        "work_per_s and peak_rss_mb on single-large-n; the engine never calls it"),
    "statistics.EDF_s": (
        "s", "lower", "wall time of one edf_stats call",
        "work_per_s and peak_rss_mb on single-large-n; the engine never calls it"),
    "montecarlo.engine_self_us_per_rep": (
        "us", "lower", "simulate_statistics time minus its sample, fit and kernel spans, per replication",
        "work_per_s on all three Monte Carlo workloads"),
    "montecarlo.summary_ms": (
        "ms", "lower", "calibrate and power_study time outside simulate_statistics, per workload call",
        "work_per_s on power-n20-table2"),
    "montecarlo.simulate_calls": (
        "count", "lower", "simulate_statistics calls per workload call",
        "work_per_s on power-n20-table2"),
    "montecarlo.chunks": (
        "count", "lower", "_run_chunk calls per workload call",
        "work_per_s on power-n20-table2; none on null-n50-moments"),
    "montecarlo.pool_starts": (
        "count", "lower", "process pools started per untraced workload call at workers=nproc",
        "work_per_s on power-n20-table2; none on null-n50-moments"),
    "montecarlo.parallel_efficiency": (
        "ratio", "higher", "untraced simulate_statistics throughput at workers=nproc over nproc times that at workers=1",
        "work_per_s on power-n20-table2, compared with null-n50-moments"),
    "cli.self_ms": (
        "ms", "lower", "cli.main time outside montecarlo calls (parsing, CSV and text output), per call",
        "work_per_s, mainly on power-n20-table2"),
    "bench.tracing_overhead_pct": (
        "%", "lower", "traced minus untraced workers=1 call time, as a share of the untraced time",
        "none; the cost of tracing, so per-layer times can be read against it"),
}

# Metrics measured by the run outside the trace (see run.py).
EXTRA_METRICS = ("_kernels.T_us_per_rep", "_kernels.SR_us_per_rep", "_kernels.EDF_us_per_rep",
                 "_kernels.temp_mb", "montecarlo.pool_starts",
                 "montecarlo.parallel_efficiency", "bench.tracing_overhead_pct")

SIM = "montecarlo.simulate_statistics"
SAMPLE = "logistic_core.sample"
FIT_ML = "estimation.fit_mle"
FIT_MOM = "estimation.moment_residuals_batch"
BATCH = "_kernels.compute_batch"
SUMMARY = ("montecarlo.calibrate", "montecarlo.power_study")

# The spans and counters each metric is derived from; a metric whose entry
# point is missing reads None.
NEEDS = {
    "logistic_core.sample_us_per_rep": (SAMPLE, SIM),
    "logistic_core.generators_per_rep": ("logistic_core.generator", SIM),
    "estimation.fit_us_per_rep": (FIT_ML, FIT_MOM, SIM),
    "estimation.newton_iters_per_fit": (FIT_ML,),
    "estimation.fit_failures": (FIT_ML, FIT_MOM),
    "estimation.fits_attempted": (FIT_ML, FIT_MOM),
    "_kernels.batch_us_per_rep": (BATCH, SIM),
    "_kernels.T_us_per_rep": (BATCH, SIM),
    "_kernels.SR_us_per_rep": (BATCH, SIM),
    "_kernels.EDF_us_per_rep": (BATCH, SIM),
    "_kernels.temp_mb": (BATCH,),
    "statistics.T_s": ("statistics.t_stat_closed",),
    "statistics.S_s": ("statistics.s_stat",),
    "statistics.R_s": ("statistics.r_stat",),
    "statistics.EDF_s": ("statistics.edf_stats",),
    "montecarlo.engine_self_us_per_rep": (SIM, SAMPLE, FIT_ML, FIT_MOM, BATCH),
    "montecarlo.summary_ms": (*SUMMARY, SIM),
    "montecarlo.simulate_calls": (SIM,),
    "montecarlo.chunks": ("montecarlo.run_chunk",),
    "montecarlo.parallel_efficiency": (SIM,),
    "cli.self_ms": ("cli.main", *SUMMARY),
}

FAMILIES = {"T": ("T",), "SR": ("S", "R"), "EDF": ("KS", "CM", "AD", "WA")}


class Probe:
    """Notes attached to spans, and the arguments kept for re-measurement.

    Keeps every compute_batch input and the first simulate_statistics call
    of the first traced workload call (run id 0).
    """

    def __init__(self):
        self.batches: list[tuple[np.ndarray, tuple]] = []
        self.simulate_args: Optional[tuple] = None

    def notes(self) -> dict:
        return {SIM: self._simulate, FIT_ML: self._fit_mle,
                FIT_MOM: self._moments, BATCH: self._batch}

    # The engine passes these arguments by position:
    # simulate_statistics(specs, n, cfg, ...) and compute_batch(y, specs).
    def _simulate(self, span: Span, args, kwargs, result):
        span.note["reps"] = args[2].reps
        if span.run_id == 0 and self.simulate_args is None:
            self.simulate_args = (args, kwargs)

    @staticmethod
    def _fit_mle(span: Span, args, kwargs, result):
        span.note["iterations"] = result.iterations

    @staticmethod
    def _moments(span: Span, args, kwargs, result):
        span.note["rows"] = int(result.shape[0])
        span.note["failures"] = int(np.isnan(result[:, 0]).sum())

    def _batch(self, span: Span, args, kwargs, result):
        if span.run_id == 0:
            self.batches.append((np.array(args[0], dtype=float), tuple(args[1])))

    def family_times(self, compute_batch, reps: int) -> dict:
        """compute_batch timed per statistic family on the kept chunks."""
        out = {}
        for family, ids in FAMILIES.items():
            total = 0.0
            for y, specs in self.batches:
                chosen = [s for s in specs if s[0] in ids]
                if chosen:
                    t0 = time.perf_counter()
                    compute_batch(y, chosen)
                    total += time.perf_counter() - t0
            out[f"_kernels.{family}_us_per_rep"] = 1e6 * total / reps if reps else 0.0
        return out

    def temp_mb(self) -> float:
        """Largest (C, n, n) float64 temporary, computed from the chunk shapes."""
        pair_ids = FAMILIES["T"] + FAMILIES["SR"]
        sizes = [y.shape[0] * y.shape[1] ** 2 * 8 for y, specs in self.batches
                 if any(s[0] in pair_ids for s in specs)]
        return max(sizes, default=0) / 1e6


def layer_metrics(tracer: Tracer, calls: int, extras: dict) -> dict[str, Optional[float]]:
    """Every metric of LAYER_METRICS; None where an entry point is missing.

    Per-replication figures divide by the replications simulated in all
    traced calls; per-call figures divide by ``calls``.  A layer the
    workload never enters reads 0.
    """
    by_name: dict[str, list[Span]] = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    own = self_times(tracer.spans)

    def spans(name):
        return by_name.get(name, [])

    def busy(*names):
        return sum(s.duration for n in names for s in spans(n))

    def self_time(*names):
        return sum(own[s.span_id] for n in names for s in spans(n))

    reps = sum(s.note.get("reps", 0) for s in spans(SIM))

    def per_rep_us(seconds):
        return 1e6 * seconds / reps if reps else 0.0

    ml_fits = spans(FIT_ML)
    ml_iters = [s.note["iterations"] for s in ml_fits if "iterations" in s.note]
    ml_failed = sum(1 for s in ml_fits if "error" in s.note)

    def mean_duration(name):
        found = spans(name)
        return sum(s.duration for s in found) / len(found) if found else 0.0

    values = {
        "logistic_core.sample_us_per_rep": per_rep_us(busy(SAMPLE)),
        "logistic_core.generators_per_rep":
            tracer.counts["logistic_core.generator"] / reps if reps else 0.0,
        "estimation.fit_us_per_rep": per_rep_us(busy(FIT_ML, FIT_MOM)),
        "estimation.newton_iters_per_fit": float(np.mean(ml_iters)) if ml_iters else 0.0,
        "estimation.fit_failures":
            (ml_failed + sum(s.note.get("failures", 0) for s in spans(FIT_MOM))) / calls,
        "estimation.fits_attempted":
            (len(ml_fits) + sum(s.note.get("rows", 0) for s in spans(FIT_MOM))) / calls,
        "_kernels.batch_us_per_rep": per_rep_us(busy(BATCH)),
        "statistics.T_s": mean_duration("statistics.t_stat_closed"),
        "statistics.S_s": mean_duration("statistics.s_stat"),
        "statistics.R_s": mean_duration("statistics.r_stat"),
        "statistics.EDF_s": mean_duration("statistics.edf_stats"),
        "montecarlo.engine_self_us_per_rep": per_rep_us(self_time(SIM)),
        "montecarlo.summary_ms": 1e3 * self_time(*SUMMARY) / calls,
        "montecarlo.simulate_calls": len(spans(SIM)) / calls,
        "montecarlo.chunks": tracer.counts["montecarlo.run_chunk"] / calls,
        "cli.self_ms": 1e3 * self_time("cli.main") / calls,
    }
    for name in EXTRA_METRICS:
        values[name] = extras.get(name)
    missing = set(tracer.missing)
    for name, needs in NEEDS.items():
        if missing.intersection(needs):
            values[name] = None
    return {name: values[name] for name in LAYER_METRICS}
