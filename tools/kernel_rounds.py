"""Time the batch kernel of this tree against the same module at another git
revision, side by side in one process.

    python3 tools/kernel_rounds.py [--base REV] [--rounds 15] [--repeats 5]
                                   [--shapes 4096x20,1024x50,1x2048,1x10000]

Run from the root of a source checkout.  ``src/logigof/_kernels.py`` of the
working tree is imported as usual, and the file of the same name at REV
(default HEAD) is loaded beside it from ``git show``; both use the working
tree's ``logistic_core``.  Native thread pools are capped at one thread.

Each case is one ``compute_batch`` call on moment residuals of numpy draws
(seed 5): all eleven statistics of the Monte Carlo engine, then T, S+R and
the EDF statistics alone, on the engine's chunk shapes 4096x20 and 1024x50
and on single rows of 2048 and 10000 by default, or on the ROWSxN shapes that
``--shapes`` lists.  Each shape is drawn from the logistic and the Cauchy
law, a single row from the logistic and the Laplace law.  In every round
each side takes the best of ``--repeats`` timings of each case, and the
sides alternate which goes first.  Printed per case: the median over
rounds of the microseconds per row on each side, their ratio (change over
base), the rounds the change was faster, and the base's interquartile
range.  The last line of output is
the same table as one JSON object.
"""

from __future__ import annotations

import os

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np

from logigof import _kernels

FAMILIES = {
    "all11": (("T", 3.0), ("T", 4.0), ("T", 5.0), ("S", None), ("R", 1), ("R", 2),
              ("R", 3), ("KS", None), ("CM", None), ("AD", None), ("WA", None)),
    "T": (("T", 3.0), ("T", 4.0), ("T", 5.0)),
    "S+R": (("S", None), ("R", 1), ("R", 2), ("R", 3)),
    "EDF": (("KS", None), ("CM", None), ("AD", None), ("WA", None)),
}
SHAPES = "4096x20,1024x50,1x2048,1x10000"


def load_base(rev: str) -> types.ModuleType:
    """``_kernels`` as it is at git revision ``rev``, as module logigof._kernels_base."""
    source = subprocess.run(["git", "show", f"{rev}:src/logigof/_kernels.py"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout
    module = types.ModuleType("logigof._kernels_base")
    module.__package__ = "logigof"
    sys.modules[module.__name__] = module
    exec(compile(source, f"{rev}:src/logigof/_kernels.py", "exec"), module.__dict__)
    return module


def cases(shapes: str):
    """(label, residual rows, specs) of every case, in a fixed order."""
    out = []
    for shape in shapes.split(","):
        rows, n = (int(v) for v in shape.split("x"))
        for draw in ("logistic", "cauchy") if rows > 1 else ("logistic", "laplace"):
            rng = np.random.default_rng(5)
            x = {"logistic": rng.logistic, "cauchy": rng.standard_cauchy,
                 "laplace": rng.laplace}[draw](size=(rows, n))
            y = _kernels.moment_residuals_batch(x)
            for family, specs in FAMILIES.items():
                out.append((f"{family} {draw} {shape}", y, specs))
    return out


def best_us_per_row(module, y, specs, repeats: int) -> float:
    calls = max(1, 50 // len(y))
    module.compute_batch(y, specs)                   # builds the cached rules
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            module.compute_batch(y, specs)
        best = min(best, time.perf_counter() - start)
    return best / (calls * len(y)) * 1e6


def at_least_two(text: str) -> int:
    """argparse type of ``--rounds``: the base IQR needs two rounds."""
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2, got {value}")
    return value


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    parser.add_argument("--rounds", type=at_least_two, default=15)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--shapes", default=SHAPES, help="comma list of ROWSxN")
    args = parser.parse_args()
    sides = {"base": load_base(args.base), "change": _kernels}
    table = cases(args.shapes)
    times = {label: {"base": [], "change": []} for label, _, _ in table}
    for r in range(args.rounds):
        order = ("base", "change") if r % 2 == 0 else ("change", "base")
        for label, y, specs in table:
            for side in order:
                times[label][side].append(best_us_per_row(sides[side], y, specs, args.repeats))
    result = {}
    for label, runs in times.items():
        base, change = runs["base"], runs["change"]
        q1, _, q3 = statistics.quantiles(base, n=4, method="inclusive")
        result[label] = {
            "base_us_per_row": round(statistics.median(base), 4),
            "change_us_per_row": round(statistics.median(change), 4),
            "change_over_base": round(statistics.median(change) / statistics.median(base), 4),
            "change_wins": f"{sum(c < b for b, c in zip(base, change))} of {len(base)}",
            "base_iqr": round(q3 - q1, 4),
        }
        row = result[label]
        print(f"{label:26s} {row['base_us_per_row']:10.3f} {row['change_us_per_row']:10.3f}"
              f"  x{row['change_over_base']:.3f}  wins {row['change_wins']:>8s}"
              f"  base IQR {row['base_iqr']:.3f}")
    print(json.dumps({"base": args.base, "rounds": args.rounds, "repeats": args.repeats,
                      "shapes": args.shapes, "unit": "us per row", "cases": result}))


if __name__ == "__main__":
    main()
