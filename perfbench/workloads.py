"""The four workloads of the logigof benchmark.

Every workload turns the benchmark seed into the program's inputs (a pure
function of the seed), prepares one call outside the timed region, runs the
call (the timed part), collects its output and checks it.

The three Monte Carlo workloads drive the command-line tool in process
through ``logigof.cli.main``.  Their CSV output is compared with reference
CSVs recorded by ``record_references.py``; the benchmark seed selects one of
the recorded program seeds, so any benchmark seed has a reference.  The
single-sample workload calls the library on seeded samples and is checked
against the quadrature oracles, which need no recorded reference.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES_PATH = os.path.join(HERE, "references.json")
POWER_TEMPLATE = os.path.join(HERE, "table2_bench.cfg")

ALL_STATS = "T:3,T:4,T:5,S,R:1,R:2,R:3,KS,CM,AD,WA"

ORACLE_REL_TOL = 1e-8


def load_references(path: str = REFERENCES_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _parse_csv(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def last_digit_close(a: float, b: float) -> bool:
    """Equal up to one unit in the sixth significant digit the CSV prints.

    A last-bit change in a statistic can move that digit by one, no more.
    """
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return True
    unit = 10.0 ** (math.floor(math.log10(scale)) - 5)
    return abs(a - b) <= 1.001 * unit


def compare_csv(got: str, want: str) -> list[str]:
    """Differences between a Monte Carlo CSV and its reference.

    Labels (statistic, tuning, n, key) and ``excluded_reps`` must match
    exactly; ``value`` and ``mc_std_error`` up to ``last_digit_close``.
    """
    got_rows, want_rows = _parse_csv(got), _parse_csv(want)
    if not got_rows or got_rows[0] != want_rows[0]:
        return [f"header {got_rows[:1]} != {want_rows[0]}"]
    if len(got_rows) != len(want_rows):
        return [f"{len(got_rows) - 1} rows, reference has {len(want_rows) - 1}"]
    problems = []
    for g, w in zip(got_rows[1:], want_rows[1:]):
        label = ",".join(w[:4])
        if g[:4] != w[:4] or g[6] != w[6]:
            problems.append(f"row {label}: {g} != {w}")
            continue
        for col in (4, 5):
            a, b = float(g[col]), float(w[col])
            if not last_digit_close(a, b):
                problems.append(f"row {label} column {col}: {a!r} != {b!r}")
    return problems


def _quiet_main(argv: list[str]) -> int:
    from logigof import cli

    # The power subcommand prints its text table; keep the benchmark's own
    # stdout for its result lines.
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


@dataclass(frozen=True)
class CliJob:
    argv: tuple
    out_path: str


class CliWorkload:
    """A Monte Carlo workload run through ``logigof.cli.main``."""

    def __init__(self, name: str, why: str, references: dict):
        self.name = name
        self.why = why
        self._refs = references[name]

    def program_seeds(self) -> list[int]:
        return self._refs["program_seeds"]

    def inputs(self, seed: int) -> dict:
        seeds = self.program_seeds()
        return {"program_seed": seeds[seed % len(seeds)]}

    def expected(self, inputs: dict) -> str:
        """The reference CSV recorded for this program seed."""
        return self._refs["csv"][str(inputs["program_seed"])]

    def collect(self, job: CliJob, rc: int) -> str:
        if rc != 0:
            raise RuntimeError(f"logigof {job.argv[0]} exited with code {rc}")
        with open(job.out_path, "r", encoding="utf-8") as fh:
            return fh.read()

    def check(self, output: str, expected: str) -> list[str]:
        return compare_csv(output, expected)

    def execute(self, job: CliJob) -> int:
        return _quiet_main(list(job.argv))


class CalibrateWorkload(CliWorkload):
    """``logigof calibrate`` for all eleven statistics at one n."""

    def __init__(self, name, why, references, n: int, reps: int, method: str):
        super().__init__(name, why, references)
        self.n, self.reps, self.method = n, reps, method

    def units(self, inputs: dict) -> int:
        return self.reps

    def prepare(self, inputs: dict, workers: int, workdir: str) -> CliJob:
        out = os.path.join(workdir, f"{self.name}-w{workers}-{os.getpid()}.csv")
        argv = ("calibrate", "--stat", ALL_STATS, "--n", str(self.n),
                "--reps", str(self.reps), "--seed", str(inputs["program_seed"]),
                "--method", self.method, "--workers", str(workers), "--out", out)
        return CliJob(argv, out)


def power_config_text(program_seed: int, out_path: str,
                      template: str = POWER_TEMPLATE) -> str:
    """The reduced table-2 study with the seed and output path filled in."""
    lines = []
    with open(template, "r", encoding="utf-8") as fh:
        for line in fh:
            key = line.split("=", 1)[0].strip()
            if key == "seed":
                line = f"seed = {program_seed}\n"
            elif key == "out":
                line = f"out = {out_path}\n"
            lines.append(line)
    return "".join(lines)


def _config_values(text: str) -> dict:
    values: dict = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0]
        if "=" in line:
            key, _, value = line.partition("=")
            values.setdefault(key.strip(), []).append(value.strip())
    return values


class PowerWorkload(CliWorkload):
    """``logigof power`` on the reduced copy of configs/table2.cfg."""

    def units(self, inputs: dict) -> int:
        values = _config_values(power_config_text(inputs["program_seed"], ""))
        reps = int(values["reps"][0])
        return int(values["calibration-reps"][0]) + reps * len(values["alternative"])

    def prepare(self, inputs: dict, workers: int, workdir: str) -> CliJob:
        stem = os.path.join(workdir, f"{self.name}-w{workers}-{os.getpid()}")
        with open(stem + ".cfg", "w", encoding="utf-8") as fh:
            fh.write(power_config_text(inputs["program_seed"], stem + ".csv"))
        return CliJob(("power", "--config", stem + ".cfg", "--workers", str(workers)),
                      stem + ".csv")


class SingleSampleWorkload:
    """Library calls on seeded samples at large n: the row-blocked path.

    One call standardises each sample and evaluates T (a=3), S, R (v=1) and
    the EDF statistics on it; each of those four library calls is one unit.
    """

    STAT_CALLS = 4

    def __init__(self, name: str, why: str, n: int):
        self.name, self.why, self.n = name, why, n

    def inputs(self, seed: int) -> dict:
        rng = np.random.default_rng([seed, self.n])
        # Laplace has a heavier tail than the logistic law, so the span of
        # the residuals differs between the two samples.  A t(3) sample would
        # spread them further, but its spans often pass ~40, where the
        # quadrature oracle for T stops converging and the check cannot run.
        return {"samples": {"logistic": rng.logistic(size=self.n),
                            "laplace": rng.laplace(size=self.n)}}

    def units(self, inputs: dict) -> int:
        return self.STAT_CALLS * len(inputs["samples"])

    def prepare(self, inputs: dict, workers: int, workdir: str) -> dict:
        return inputs["samples"]

    def execute(self, samples: dict) -> dict:
        from logigof import estimation, statistics

        out = {}
        for label, x in samples.items():
            res = estimation.scaled_residuals(x)
            out[label] = {
                "T": statistics.t_stat_closed(res, statistics.WeightSpec(3.0)).value,
                "S": statistics.s_stat(res).value,
                "R": statistics.r_stat(res, 1).value,
                "EDF": {k: v.value for k, v in statistics.edf_stats(res).items()},
            }
        return out

    def collect(self, job, raw: dict) -> dict:
        return raw

    def expected(self, inputs: dict) -> dict:
        """Independent values: quadrature for T and S, scipy for KS."""
        import scipy.stats
        from logigof import estimation, statistics

        out = {}
        for label, x in inputs["samples"].items():
            res = estimation.scaled_residuals(x)
            out[label] = {
                "T": statistics.t_stat_quadrature(res, statistics.WeightSpec(3.0)).value,
                "S": statistics.s_stat_quadrature(res).value,
                "KS": float(scipy.stats.kstest(res.values, "logistic").statistic),
            }
        return out

    def check(self, output: dict, expected: dict) -> list[str]:
        problems = []
        for label, want in expected.items():
            got = output[label]
            pairs = (("T", got["T"], want["T"]), ("S", got["S"], want["S"]),
                     ("KS", got["EDF"]["KS"], want["KS"]))
            for stat, a, b in pairs:
                if not math.isclose(a, b, rel_tol=ORACLE_REL_TOL):
                    problems.append(f"{label} {stat}: {a!r} != oracle {b!r}")
            others = [got["R"], *got["EDF"].values()]
            if not all(math.isfinite(v) for v in others):
                problems.append(f"{label}: non-finite R or EDF value {others}")
        return problems


def build(references: dict | None = None) -> dict:
    """All workloads by name.

    BENCHMARK.json lists all but ``null-n20-ml``.  That one is run by hand:
    its per-row Python fits make its throughput drift by about +-15% with the
    host's load over 30-60 s, more than the bound BENCHMARK.json can set, so
    it resolves only large changes, such as a batched ML fit.
    """
    refs = load_references() if references is None else references
    workloads = [
        CalibrateWorkload(
            "null-n50-moments",
            "calibrate all eleven statistics at n=50 with moment fits: kernels "
            "take ~95% of engine time, fitting almost none",
            refs, n=50, reps=2048, method="moments"),
        CalibrateWorkload(
            "null-n20-ml",
            "the same calibration at n=20 with ML fits: the per-row Newton fit "
            "dominates and the logistic null stream drives sampling",
            refs, n=20, reps=8192, method="ml"),
        PowerWorkload(
            "power-n20-table2",
            "reduced table-2 power study: numpy Generator samplers and seven "
            "short simulate calls, each starting its own process pool",
            refs),
        SingleSampleWorkload(
            "single-large-n",
            "T, S, R and EDF on one logistic and one Laplace sample at n=2048: "
            "the only run of the row-blocked single-sample path",
            n=2048),
    ]
    return {w.name: w for w in workloads}
