"""Command-line front end.

Subcommands:
  fit        estimate location/scale from a data file
  test       compute a goodness-of-fit statistic with a simulated p-value
  calibrate  tabulate Monte Carlo critical values as CSV
  power      run a power study or contamination power curve from a config file

Exit codes: 0 success, 2 usage/input error, 3 degenerate data, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, make_dataclass
from importlib import resources
from typing import Optional, Sequence

import numpy as np

from . import montecarlo, statistics
from ._kernels import STATS, NumericOverflowError
from .alternatives import AlternativeSpec
from .estimation import (ConvergenceError, DegenerateSampleError, Method,
                         SampleSizeError, fit, scaled_residuals)
from .logistic_core import DomainError, quantile, uint64_index
from .montecarlo import McConfig, McError, StatSpec, _format_value

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_NUMERIC = 4

BUNDLED_DATASETS = ("bladder_cancer",)


class InputError(Exception):
    """Unreadable, malformed, or domain-violating input."""


# ---------------------------------------------------------------------------
# data ingestion


@dataclass(frozen=True)
class Dataset:
    """Numbers read from a file, optionally log-transformed."""

    values: np.ndarray
    source: str
    transform: str  # "none" or "log"

    @property
    def n(self) -> int:
        return int(self.values.size)


def bundled_data_path(name: str = "bladder_cancer"):
    """Filesystem path of a dataset shipped inside the package."""
    if name not in BUNDLED_DATASETS:
        raise InputError(f"unknown bundled dataset {name!r}; available: "
                         + ", ".join(BUNDLED_DATASETS))
    return resources.files("logigof").joinpath("data", f"{name}.txt")


def _lines(path: str) -> list[tuple[int, str]]:
    """The (line number, text) pairs of the non-blank lines of ``path``, once
    ``#`` comments are cut; a file that cannot be read or decoded as UTF-8
    is an InputError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from exc
    return [(lineno, text) for lineno, raw in enumerate(lines, start=1)
            if (text := raw.split("#", 1)[0].strip())]


def load_dataset(path: str, log: bool = False) -> Dataset:
    """Read one number per line; blank lines and ``#`` comments are ignored.
    ``bundled:[name]`` is the packaged dataset (bare ``bundled:`` is
    bladder_cancer), with source ``bundled:<name>`` in every checkout.

    A malformed line aborts with its line number; under ``log=True`` any
    nonpositive value aborts likewise, and the natural log is applied.
    """
    source = path
    if path.startswith("bundled:"):
        name = path[len("bundled:"):] or "bladder_cancer"
        source, path = f"bundled:{name}", str(bundled_data_path(name))
    values = []
    for lineno, text in _lines(path):
        try:
            value = float(text)
        except ValueError:
            raise InputError(f"{path}:{lineno}: not a number: {text!r}") from None
        if not math.isfinite(value):
            raise InputError(f"{path}:{lineno}: non-finite value: {text!r}")
        if log:
            if value <= 0:
                raise InputError(
                    f"{path}:{lineno}: log transform requires positive values, "
                    f"got {text}")
            value = math.log(value)
        values.append(value)
    if not values:
        raise InputError(f"{path}: no data values found")
    return Dataset(np.asarray(values), source, "log" if log else "none")


# ---------------------------------------------------------------------------
# shared flag helpers


def _parse_float_list(text: str, flag: str) -> list[float]:
    if not text.strip():
        raise InputError(f"{flag}: empty list")
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        # float() also rejects an empty field, as in "20,,30" or "0.05,".
        raise InputError(f"{flag}: expected comma-separated numbers, got {text!r}") from exc


def _parse_int_list(text: str, flag: str) -> list[int]:
    items = _parse_float_list(text, flag)
    if not all(v.is_integer() for v in items):
        raise InputError(f"{flag}: expected comma-separated integers, got {text!r}")
    return [int(v) for v in items]


# The flag that sets the tuning of each tuned statistic, and what it tunes.
_TUNING_FLAGS = {"T": ("--a", "weight decay"), "R": ("--v", "frequency cutoff")}


def _stat_specs_from_flags(args) -> list[StatSpec]:
    """One spec per ``--stat`` item; a tuned statistic without ':' expands
    over every value of its tuning flag.  An empty item is an error."""
    if not args.stat.strip():
        raise InputError("--stat: no statistics given")
    specs: list[StatSpec] = []
    for part in args.stat.split(","):
        part = part.strip()
        if not part:
            raise InputError(f"--stat: empty item in {args.stat!r}")
        if ":" in part:
            specs.append(StatSpec.parse(part))
        elif part.upper() in _TUNING_FLAGS:
            flag = _TUNING_FLAGS[part.upper()][0]
            tunings = _parse_float_list(getattr(args, flag[2:]), flag)
            specs.extend(StatSpec(part, t) for t in tunings)
        else:
            specs.append(StatSpec(part))
    return specs


def _check_writable(out: Optional[str]) -> None:
    """InputError, naming ``out``, unless a file can be written there; run
    before any simulation, so that a bad path costs no work."""
    if not out:
        return
    where = os.path.dirname(out) or os.curdir
    if not os.path.isdir(where):
        raise InputError(f"cannot write {out}: no directory {where}")
    if os.path.isdir(out) or not os.access(out if os.path.exists(out) else where, os.W_OK):
        raise InputError(f"cannot write {out}: not a writable file")


def _write_output(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_fit(args) -> int:
    data = load_dataset(args.input, log=args.log)
    result = fit(data.values, method=Method.parse(args.method), unbiased=args.unbiased)
    print(f"source = {data.source}")
    print(f"transform = {data.transform}")
    print(f"n = {data.n}")
    print(f"method = {result.method.value}")
    print(f"mu_hat = {_format_value(result.mu_hat)}")
    print(f"sigma_hat = {_format_value(result.sigma_hat)}")
    return EXIT_OK


def cmd_test(args) -> int:
    data = load_dataset(args.input, log=args.log)
    method = Method.parse(args.method)
    res = scaled_residuals(data.values, method=method)
    if args.plot_data:
        theo = quantile(np.arange(1, res.n + 1) / (res.n + 1.0))
        print("theoretical_quantile,ordered_residual")
        for q, y in zip(theo, np.sort(res.values)):
            print(f"{_format_value(q)},{_format_value(y)}")
        return EXIT_OK
    specs = _stat_specs_from_flags(args)
    if len(specs) != 1:
        raise InputError(f"--stat: expected one statistic, got {args.stat!r}")
    (outcome,) = statistics._evaluate(res, [specs[0].key()])
    cfg = McConfig(reps=args.reps, seed=args.seed, workers=args.workers, method=method)
    pvalue = montecarlo.pvalues_simulated([outcome], data.n, cfg)[0]
    print(f"statistic = {outcome.name}")
    print(f"tuning = {_format_value(outcome.tuning)}")
    print(f"n = {data.n}")
    print(f"method = {method.value}")
    print(f"value = {_format_value(outcome.value)}")
    print(f"p_value = {_format_value(pvalue)}")
    print(f"reps = {args.reps}")
    print(f"seed = {args.seed}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    specs = _stat_specs_from_flags(args)
    n_list = _parse_int_list(args.n, "--n")
    alphas = _parse_float_list(args.alpha_list, "--alpha-list")
    cfg = McConfig(reps=args.reps, seed=args.seed, workers=args.workers,
                   method=Method.parse(args.method))
    _check_writable(args.out)
    rows = []
    for n in n_list:
        table = montecarlo.calibrate(specs, n, alphas, cfg)
        rows.extend(table.rows)
    _write_output(montecarlo.rows_to_csv(rows, key_name="alpha"), args.out)
    return EXIT_OK


def _checked(parse, ok, reason):
    """A parser that rejects, with ``reason``, a value (or any item of a
    tuple value) for which ``ok`` is false."""
    def check(text):
        value = parse(text)
        if not all(ok(v) for v in (value if isinstance(value, tuple) else (value,))):
            raise ValueError(reason)
        return value
    return check


_COUNT = _checked(int, lambda v: v >= 1, "must be at least 1")
# Each config key: its PowerConfig field, its value when the key is absent,
# and the parser of its text.  Every value is parsed on its own line, before
# any simulation.  ``statistic`` and ``alternative`` repeat; the rest may be
# given once.
_CONFIG_KEYS = {
    "mode": ("mode", "power", _checked(str, lambda v: v in ("power", "local-power"),
                                       "expected 'power' or 'local-power'")),
    "n": ("n_list", None, _checked(lambda t: tuple(_parse_int_list(t, "n")), lambda v: v >= 2,
                                   "sample sizes must be at least 2")),
    "reps": ("reps", 10000, _COUNT),
    "calibration-reps": ("calibration_reps", None, _COUNT),
    "seed": ("seed", 1, lambda t: uint64_index(int(t), "seed")),
    "alpha": ("alpha", 0.05, _checked(float, lambda v: 0.0 < v < 1.0,
                                      "must lie strictly between 0 and 1")),
    "method": ("method", Method.MOMENTS, Method.parse),
    "statistic": ("specs", (), StatSpec.parse),
    "alternative": ("alternatives", (), AlternativeSpec.parse),
    "contaminant": ("contaminant", None, AlternativeSpec.parse),
    "p": ("p_grid", (), _checked(lambda t: tuple(_parse_float_list(t, "p")),
                                 lambda v: 0.0 <= v <= 1.0, "proportions must lie in [0, 1]")),
    "out": ("out", None, str),
    "workers": ("workers", None, lambda t: uint64_index(int(t), "worker count")),
}
_REPEATED = ("statistic", "alternative")


# Parsed study description for the ``power`` subcommand: one field per config key.
PowerConfig = make_dataclass("PowerConfig", [field for field, _, _ in _CONFIG_KEYS.values()],
                             namespace={"__module__": __name__}, frozen=True)


def parse_power_config(path: str) -> PowerConfig:
    """Parse the flat ``key = value`` study format (lists comma-separated,
    ``statistic``/``alternative`` repeatable) by the ``_CONFIG_KEYS`` table;
    a bad value names its ``path:line``."""
    fields = {field: default for field, default, _ in _CONFIG_KEYS.values()}
    seen = set()
    for lineno, text in _lines(path):
        if "=" not in text:
            raise InputError(f"{path}:{lineno}: expected 'key = value', got {text!r}")
        key, _, value = text.partition("=")
        key, value = key.strip().lower(), value.strip()
        if key not in _CONFIG_KEYS:
            raise InputError(f"{path}:{lineno}: unknown key {key!r}; valid keys: "
                             + ", ".join(sorted(_CONFIG_KEYS)))
        if not value:
            raise InputError(f"{path}:{lineno}: empty value for {key!r}")
        if key in seen and key not in _REPEATED:
            raise InputError(f"{path}:{lineno}: duplicate key {key!r}")
        seen.add(key)
        field, _, parse = _CONFIG_KEYS[key]
        try:
            parsed = parse(value)
        except (ValueError, DomainError, InputError) as exc:
            raise InputError(f"{path}:{lineno}: bad value for {key!r} ({value!r}): {exc}") from exc
        fields[field] = fields[field] + (parsed,) if key in _REPEATED else parsed
    if fields["calibration_reps"] is None:
        fields["calibration_reps"] = fields["reps"]
    local = fields["mode"] == "local-power"
    for key, needed in (("n", True), ("statistic", True), ("alternative", not local),
                        ("contaminant", local), ("p", local)):
        if needed and key not in seen:
            raise InputError(f"{path}: missing key {key!r}, required in mode {fields['mode']!r}")
        if not needed and key in seen:
            raise InputError(f"{path}: key {key!r} is not used in mode {fields['mode']!r}")
    return PowerConfig(**fields)


def cmd_power(args) -> int:
    config = parse_power_config(args.config)
    _check_writable(config.out)
    workers = args.workers if args.workers else config.workers
    cal_cfg = McConfig(reps=config.calibration_reps, seed=config.seed,
                       workers=workers, method=config.method)
    # Power replications draw under an offset seed so that a pure-logistic
    # alternative never reuses the exact samples the thresholds came from.
    study_cfg = McConfig(reps=config.reps, seed=(config.seed + 1) % 2**64,
                         workers=workers, method=config.method)
    rows = []
    for n in config.n_list:
        table = montecarlo.calibrate(config.specs, n, [config.alpha], cal_cfg)
        if config.mode == "power":
            rows.extend(montecarlo.power_study(
                config.specs, config.alternatives, n, study_cfg, table,
                alpha=config.alpha))
        else:
            rows.extend(montecarlo.local_power_curve(
                config.contaminant, config.p_grid, config.specs, n, study_cfg,
                table, alpha=config.alpha))
    key_name = "alternative" if config.mode == "power" else "p"
    csv_text = montecarlo.rows_to_csv(rows, key_name=key_name)
    if config.out:
        _write_output(csv_text, config.out)
        sys.stdout.write(montecarlo.rows_to_text(rows, key_name=key_name,
                                                 round_percent=True))
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logigof",
        description="Goodness-of-fit tests for the logistic distribution.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_stat_flags(p, stat_help):
        """The Monte Carlo flags shared by ``test`` and ``calibrate``."""
        p.add_argument("--stat", default="T", help=stat_help)
        for sid, (flag, what) in _TUNING_FLAGS.items():
            default = f"{STATS[sid].default:g}"
            p.add_argument(flag, default=default,
                           help=f"{what} for {sid}, or a comma list (default {default})")
        p.add_argument("--reps", type=int, default=10000,
                       help="null replications (default 10000)")
        p.add_argument("--seed", type=int, default=1, help="RNG seed (default 1)")
        p.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: all cores, or "
                            f"${montecarlo.WORKERS_ENV_VAR})")

    def add_data_flags(p):
        p.add_argument("input", help="data file, one number per line "
                                      "(or 'bundled:' for the packaged example)")
        p.add_argument("--log", action="store_true",
                       help="apply a natural-log transform (requires positive data)")

    p_fit = sub.add_parser("fit", help="estimate location and scale")
    add_data_flags(p_fit)
    p_fit.add_argument("--unbiased", action="store_true",
                       help="use the n-1 variance divisor for the moment fit")
    p_fit.set_defaults(func=cmd_fit)

    p_test = sub.add_parser("test", help="goodness-of-fit test with simulated p-value")
    add_data_flags(p_test)
    add_stat_flags(p_test, f"one statistic of {', '.join(STATS)} (also 'T:4' form)")
    p_test.add_argument("--plot-data", action="store_true",
                        help="emit probability-plot coordinates as CSV and exit")
    p_test.set_defaults(func=cmd_test)

    p_cal = sub.add_parser("calibrate", help="tabulate Monte Carlo critical values")
    expands = ", ".join(f"{sid} over {flag}" for sid, (flag, _) in _TUNING_FLAGS.items())
    add_stat_flags(p_cal, f"comma list of {', '.join(STATS)} ({expands})")
    p_cal.add_argument("--n", required=True, help="comma list of sample sizes")
    p_cal.add_argument("--alpha-list", default="0.01,0.05,0.1",
                       help="comma list of significance levels")
    p_cal.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    p_cal.set_defaults(func=cmd_calibrate)

    for p in (p_fit, p_test, p_cal):
        p.add_argument("--method", default="moments",
                       help="estimation method: moments (default) or ml")

    p_pow = sub.add_parser("power", help="power study driven by a config file")
    p_pow.add_argument("--config", required=True, help="key = value study description")
    p_pow.add_argument("--workers", type=int, default=None,
                       help="override the config's worker count")
    p_pow.set_defaults(func=cmd_power)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DegenerateSampleError, SampleSizeError) as exc:
        print(f"error: degenerate data: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (ConvergenceError, NumericOverflowError, statistics.QuadratureError,
            McError) as exc:
        print(f"error: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
