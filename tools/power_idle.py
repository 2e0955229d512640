"""Wall time and worker idle share of ``logigof power`` on one config.

    python3 tools/power_idle.py --config configs/table4.cfg [--workers 2]
                                [--repeats 3] [--src DIR] [--base-src DIR]

Run from the root of a source checkout.  Each run is a fresh interpreter
that imports ``logigof`` from ``--src`` (default: this checkout's ``src/``),
runs ``cli.main(["power", ...])`` in a temporary directory, then shuts the
worker pool down, which reaps the workers.  Native thread pools are capped
at one thread.  Printed per run: the wall time of the ``main`` call, the
CPU time of this process and of the reaped workers, and the idle share
1 - worker CPU / (workers x wall), the part of the workers' time that they
spent waiting.  The last line of output is the median of each as one JSON
object.

Before the first run every tree is compiled to bytecode in its
``__pycache__`` directories (``compileall``), so no run compiles a module,
in this process or in a worker, and trees compare alike even where
``PYTHONDONTWRITEBYTECODE`` keeps the runs from writing bytecode.

With ``--base-src`` each repeat runs both trees, the base first in even
repeats and ``--src`` first in odd ones, and each line names its tree.  The
last line then also holds the base tree's medians under ``base`` and the
median over the repeats of the wall ratio ``--src`` / base as
``wall_ratio``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))

CHILD = """
import contextlib, io, json, resource, sys, time
from logigof import cli, montecarlo
config, workers = sys.argv[1], sys.argv[2]
start = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(["power", "--config", config, "--workers", workers])
wall = time.perf_counter() - start
montecarlo._drop_pool()
own, children = (resource.getrusage(who) for who in
                 (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
print(json.dumps({"rc": rc, "wall_s": wall, "main_cpu_s": own.ru_utime + own.ru_stime,
                  "worker_cpu_s": children.ru_utime + children.ru_stime}))
"""


def run_power(src: str, config: str, workers: int) -> dict:
    """One ``logigof power`` run of ``config`` with ``logigof`` from ``src``."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src),
               **{name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                         "MKL_NUM_THREADS")})
    with tempfile.TemporaryDirectory() as workdir:
        proc = subprocess.run([sys.executable, "-c", CHILD, config, str(workers)],
                              cwd=workdir, env=env, capture_output=True, text=True,
                              check=True)
    run = json.loads(proc.stdout.splitlines()[-1])
    if run.pop("rc"):
        sys.exit(f"power_idle: logigof power failed: {proc.stderr.strip()}")
    run["idle_share"] = 1.0 - run["worker_cpu_s"] / (workers * run["wall_s"])
    return run


def medians(runs: list) -> dict:
    return {key: round(statistics.median(r[key] for r in runs), 4) for key in runs[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--src", default=os.path.join(os.path.dirname(HERE), "src"))
    parser.add_argument("--base-src")
    args = parser.parse_args(argv)
    if args.workers < 1 or args.repeats < 1:
        parser.error("--workers and --repeats must be at least 1")
    config = os.path.abspath(args.config)
    trees = {"src": args.src, **({"base": args.base_src} if args.base_src else {})}
    for tree in trees.values():
        if not compileall.compile_dir(tree, quiet=1):
            sys.exit(f"power_idle: cannot compile {tree}")
    runs = {name: [] for name in trees}
    for repeat in range(args.repeats):
        # "base" sorts before "src": the base runs first in even repeats.
        for name in sorted(trees, reverse=repeat % 2 == 1):
            run = run_power(trees[name], config, args.workers)
            fields = "  ".join(f"{key} {value:.3f}" for key, value in run.items())
            print(f"{name}  {fields}" if args.base_src else fields)
            runs[name].append(run)
    summary = medians(runs["src"])
    if args.base_src:
        summary["base"] = medians(runs["base"])
        summary["wall_ratio"] = round(statistics.median(
            c["wall_s"] / b["wall_s"] for c, b in zip(runs["src"], runs["base"])), 4)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
