"""Benchmark of logigof: one workload per run, end to end or traced by layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads are defined in ``workloads.py``.  The program is imported from the
checkout's ``src/`` directory; nothing is installed.  Load is a closed loop
from one client: each call starts after the previous one returned.  The
engine runs with workers = nproc and every BLAS/OpenMP pool capped at one
thread.

``--trace 0`` repeats the workload call for ``--seconds`` and reports the
end-to-end metrics: ``work_per_s`` (median over calls), ``setup_s`` (median
time for a fresh interpreter to import ``logigof.cli``) and ``peak_rss_mb``
(high-water resident memory of this process plus that of its largest worker
child).  The share of calls that raised, exited non-zero or failed the
output check is printed as ``failed_frac`` and carried by the ``attempted``
and ``failed`` fields of the result line.

``--trace 1`` makes one untraced call at workers=nproc, then for
``--seconds`` alternates untraced and traced calls at workers=1, the traced
ones with spans recorded around the layers' entry points (``spans.py``), and
reports the per-layer metrics of ``layers.py``.  Every output must equal the
untraced workers=nproc output exactly.

Each run writes ``perfbench/results/<workload>-seed<n>-trace<t>.json`` with
provenance, per-call records and metrics (and the spans, when traced).  The
last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import os
import sys

# Cap native thread pools before numpy is imported, so that the workers are
# the only parallelism.
THREAD_CAPS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_CAPS)

import argparse
import contextlib
import dataclasses
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import time
from concurrent.futures import process as futures_process

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

NPROC = len(os.sched_getaffinity(0))
MIN_CALLS = 3
SETUP_REPEATS = 3
SETUP_CODE = "import logigof.cli as cli; cli.build_parser()"

E2E_UNITS = {"work_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import logigof from this checkout's src/, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "logigof", "cli.py")):
        die(f"no logigof source at {os.path.relpath(SRC)}; run from a source checkout")
    sys.path.insert(0, SRC)
    import logigof
    # Import the CLI too, so that its bytecode cache (where the environment
    # allows one) exists before setup is timed, as it does for users.
    import logigof.cli  # noqa: F401

    if not os.path.abspath(logigof.__file__).startswith(SRC + os.sep):
        die(f"imported logigof from {logigof.__file__}, not from the checkout")
    return logigof


# ---------------------------------------------------------------------------
# calls


def timed_call(workload, job) -> dict:
    """Run one workload call; only ``execute`` is inside the timed region."""
    t0 = time.perf_counter()
    try:
        raw = workload.execute(job)
        seconds = time.perf_counter() - t0
        return {"seconds": seconds, "output": workload.collect(job, raw), "error": None}
    except Exception as exc:  # a failed call is counted, and the run goes on
        return {"seconds": time.perf_counter() - t0, "output": None,
                "error": f"{type(exc).__name__}: {exc}"}


def check_calls(workload, records: list[dict], expected, same_as=None) -> list[str]:
    """Mark each record failed or not; return the problems found.

    ``same_as``, when given, is an output every record must equal exactly.
    """
    problems = []
    for i, rec in enumerate(records):
        found = [rec["error"]] if rec["error"] else workload.check(rec["output"], expected)
        if not rec["error"] and same_as is not None and rec["output"] != same_as:
            found.append("output differs from the untraced workers=nproc output")
        rec["failed"] = bool(found)
        problems.extend(f"call {i}: {p}" for p in found)
    return problems


def peak_rss_mb() -> float:
    """High-water RSS of this process plus its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) * 1024 / 1e6


def measure_setup(repeats: int = SETUP_REPEATS) -> list[float]:
    """Wall times of fresh interpreters importing logigof.cli."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    cmd = [sys.executable, "-c", SETUP_CODE]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


@contextlib.contextmanager
def count_pool_starts():
    """Count process pools constructed while the block runs."""
    cls = futures_process.ProcessPoolExecutor
    original = cls.__init__
    counter = [0]

    def counting_init(self, *args, **kwargs):
        counter[0] += 1
        original(self, *args, **kwargs)

    cls.__init__ = counting_init
    try:
        yield counter
    finally:
        cls.__init__ = original


# ---------------------------------------------------------------------------
# the two kinds of run


def run_end_to_end(workload, inputs, seconds: int, workdir: str) -> dict:
    job = workload.prepare(inputs, NPROC, workdir)
    records = []
    start = time.perf_counter()
    while len(records) < MIN_CALLS or time.perf_counter() - start < seconds:
        records.append(timed_call(workload, job))
    rss = peak_rss_mb()
    problems = check_calls(workload, records, workload.expected(inputs))
    setup = measure_setup()
    units = workload.units(inputs)
    rates = [units / r["seconds"] for r in records if not r["failed"]]
    metrics = {
        "work_per_s": (statistics.median(rates) if rates else 0.0, len(rates)),
        "setup_s": (statistics.median(setup), len(setup)),
        "peak_rss_mb": (rss, 1),
    }
    return {"records": records, "problems": problems, "units_per_call": units,
            "setup_times": setup,
            "metrics": {k: {"value": v, "unit": E2E_UNITS[k], "samples": n}
                        for k, (v, n) in metrics.items()}}


def parallel_efficiency(probe) -> float:
    """Untraced throughput of the first simulate call at nproc vs 1 worker."""
    from logigof import montecarlo

    if probe.simulate_args is None:
        return 0.0
    args, kwargs = probe.simulate_args
    seconds = {}
    for workers in (NPROC, 1):
        cfg = dataclasses.replace(args[2], workers=workers)
        t0 = time.perf_counter()
        montecarlo.simulate_statistics(*args[:2], cfg, *args[3:], **kwargs)
        seconds[workers] = time.perf_counter() - t0
    return seconds[1] / (NPROC * seconds[NPROC])


def run_traced(workload, inputs, seconds: int, workdir: str, spans_path: str) -> dict:
    import layers
    from logigof import _kernels
    from spans import Tracer

    with count_pool_starts() as pools:
        parallel = timed_call(workload, workload.prepare(inputs, NPROC, workdir))
    serial_job = workload.prepare(inputs, 1, workdir)

    # Untraced and traced workers=1 calls alternate, so that the tracing
    # overhead compares calls made under the same conditions.
    probe = layers.Probe()
    tracer = Tracer(probe.notes())
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(timed_call(workload, serial_job))
        tracer.run_id = len(traced)
        tracer.install()
        try:
            traced.append(timed_call(workload, serial_job))
        finally:
            tracer.uninstall()
    tracer.write(spans_path)

    first_reps = sum(s.note.get("reps", 0) for s in tracer.spans
                     if s.run_id == 0 and s.name == layers.SIM)
    untraced_s = statistics.median(r["seconds"] for r in untraced)
    traced_s = statistics.median(r["seconds"] for r in traced)
    extras = {
        **probe.family_times(_kernels.compute_batch, first_reps),
        "_kernels.temp_mb": probe.temp_mb(),
        "montecarlo.pool_starts": float(pools[0]),
        "montecarlo.parallel_efficiency": parallel_efficiency(probe),
        "bench.tracing_overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s,
    }
    values = layers.layer_metrics(tracer, len(traced), extras)

    records = [parallel, *untraced, *traced]
    problems = check_calls(workload, records, workload.expected(inputs),
                           same_as=parallel["output"])
    return {"records": records, "problems": problems, "missing_spans": tracer.missing,
            "traced_calls": len(traced), "spans": len(tracer.spans),
            "metrics": {k: {"value": v, "unit": layers.LAYER_METRICS[k][0],
                            "samples": len(traced)} for k, v in values.items()}}


# ---------------------------------------------------------------------------
# provenance and output


def git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def source_digest() -> str:
    """sha256 over the package sources, for checkouts that are not git trees."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "logigof")
    for dirpath, dirnames, filenames in sorted(os.walk(pkg)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".txt")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def provenance(logigof, seed: int | None, inputs: dict, workers: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": NPROC, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "logigof": logigof.__version__, "git_commit": git_commit(),
        "source_sha256": source_digest(), "workload_seed": seed,
        "program_inputs": {k: {label: len(x) for label, x in v.items()} if k == "samples"
                           else v for k, v in inputs.items()},
        "workers": workers, "thread_caps": THREAD_CAPS,
        "platform": platform.platform(), "machine": platform.machine(),
    }


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                                   for k, m in metrics.items()}})


def print_summary(workload, seed: int, trace: int, workers: int, out: dict) -> None:
    calls = out["records"]
    failed = sum(r["failed"] for r in calls)
    mode = "traced, workers=1" if trace else f"closed loop, 1 client, workers={workers}"
    print(f"workload {workload.name}  seed {seed}  {mode}")
    for name, m in out["metrics"].items():
        value = "missing" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:36s} {value:>12s} {m['unit']:<12s} n={m['samples']}")
    print(f"  {'failed_frac':36s} {failed / len(calls):>12.6g} {'':12s} "
          f"{failed} of {len(calls)} calls")
    for problem in out["problems"][:10]:
        print(f"perfbench: {problem}", file=sys.stderr)
    for name in out.get("missing_spans", []):
        print(f"perfbench: entry point missing, span not recorded: {name}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")

    logigof = import_program()
    import workloads

    catalogue = workloads.build()
    if args.workload not in catalogue:
        die(f"unknown workload {args.workload!r}; choose from {', '.join(catalogue)}")
    workload = catalogue[args.workload]
    inputs = workload.inputs(args.seed)

    workdir = os.path.join(RESULTS, "work")
    os.makedirs(workdir, exist_ok=True)
    stem = os.path.join(RESULTS, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        out = run_traced(workload, inputs, args.seconds, workdir, stem + "-spans.jsonl.gz")
    else:
        out = run_end_to_end(workload, inputs, args.seconds, workdir)
    workers = 1 if args.trace else NPROC

    calls = out["records"]
    failed = sum(r["failed"] for r in calls)
    report = {
        "workload": workload.name, "why": workload.why, "trace": args.trace,
        "seconds": args.seconds, "provenance": provenance(logigof, args.seed, inputs, workers),
        "failed_frac": failed / len(calls),
        **{k: v for k, v in out.items() if k != "records"},
        "calls": [{"seconds": r["seconds"], "failed": r["failed"], "error": r["error"]}
                  for r in calls],
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print_summary(workload, args.seed, args.trace, workers, out)
    print(result_line(failed == 0, len(calls), failed, out["metrics"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
