"""Command line interface: simulation runs, convergence studies, and curve
distances.

Config files are flat ``key = value`` text with ``#`` comments.  Numbers may
be written as fractions ("1/640").  Exit codes: 0 success, 1 configuration or
input error, 2 numerical failure (partial outputs are still written).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .geometry import _write_text, read_snapshot, write_snapshot
from .linalg import SolverError
from .metrics import convergence_rows, manifold_distance, write_diagnostics_csv, write_eoc_csv
from .schemes import SHAPES, SPECS, SchemeConfig, SchemeError, run

__all__ = [
    "ConfigError",
    "parse_config_file",
    "parse_path_rule",
    "cli_simulate",
    "cli_converge",
    "cli_distance",
    "main",
]


class ConfigError(Exception):
    """A configuration file or CLI input is invalid."""


def _number(text: str, where: str) -> float:
    """Parse a finite float, accepting fraction syntax 'a/b'."""
    text = text.strip()
    try:
        if "/" in text:
            num, _, den = text.partition("/")
            value = float(num) / float(den)
        else:
            value = float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{where}: invalid number '{text}'") from exc
    if not np.isfinite(value):
        raise ConfigError(f"{where}: non-finite number '{text}'")
    return value


def _number_list(text: str, where: str) -> List[float]:
    parts = text.replace(",", " ").split()
    if not parts:
        raise ConfigError(f"{where}: expected at least one number")
    return [_number(p, where) for p in parts]


def parse_config_file(path: str) -> Dict[str, Tuple[str, int]]:
    """Read a flat key = value file; returns {key: (raw value, line number)}."""
    entries: Dict[str, Tuple[str, int]] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config '{path}': {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got '{line}'")
        if key in entries:
            raise ConfigError(f"{path}:{lineno}: duplicate key '{key}'")
        entries[key] = (value, lineno)
    return entries


_PATH_RULE = re.compile(
    r"^\s*(?:tau\s*=\s*)?(?P<coef>[^h*\s]+)?\s*\*?\s*h\s*"
    r"(?:\^\s*(?P<open>\()?\s*(?P<exp>[0-9]+(?(open)(?:\s*/\s*[0-9]+)?)|[0-9]*\.[0-9]+)\s*(?(open)\)))?\s*$"
)


def parse_path_rule(text: str):
    """Parse a refinement path rule 'tau = c * h^e' (e.g. '0.05h', 'h^2',
    '0.05h^(2/3)').  Returns (c, e) and a resolver mapping tau -> N with
    N = round((c / tau)^(1/e)) and h = 1/N."""
    m = _PATH_RULE.match(text)
    if not m:
        raise ConfigError(f"invalid path rule '{text}' (expected forms: c*h, h^2, c*h^(2/3); a fraction needs brackets)")
    coef = 1.0 if m.group("coef") in (None, "") else _number(m.group("coef"), "path rule coefficient")
    exp_text = m.group("exp")
    exponent = 1.0 if exp_text is None else _number(exp_text, "path rule exponent")
    if coef <= 0 or exponent <= 0:
        raise ConfigError(f"path rule '{text}' must have positive coefficient and exponent")

    def resolve(tau: float) -> int:
        if not tau > 0:
            raise ConfigError(f"path rule '{text}' needs tau > 0, got tau={tau}")
        try:
            n = int(round((coef / tau) ** (1.0 / exponent)))
        except OverflowError:
            raise ConfigError(f"path rule '{text}' gives a non-finite N at tau={tau}") from None
        if n < 3:
            raise ConfigError(f"path rule '{text}' gives N={n} < 3 at tau={tau}")
        return n

    return coef, exponent, resolve


# config keys are SchemeConfig's fields; a config file names its start shape
_CONFIG_FIELDS = {f.name: f for f in dataclasses.fields(SchemeConfig) if f.name != "initial_curve"}


def _build_scheme_config(entries, path: str, skip=(), **overrides) -> SchemeConfig:
    # str fields pass through as text, the others as numbers; SchemeConfig
    # checks every value, that N and max_newton are integers included
    kwargs: Dict[str, object] = {}
    for key, (value, lineno) in entries.items():
        if key in skip:
            continue
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        text = _CONFIG_FIELDS[key].type in (str, "str")
        kwargs[key] = value if text else _number(value, f"{path}:{lineno}: {key}")
    kwargs.update(overrides)
    for field in _CONFIG_FIELDS.values():
        if field.default is dataclasses.MISSING and field.name not in kwargs:
            raise ConfigError(f"{path}: missing required key '{field.name}'")
    try:
        return SchemeConfig(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _config_echo(config: SchemeConfig) -> Dict[str, object]:
    # gamma resolved, and the parameters of the run's shape only
    _, params = SHAPES[config.shape]
    names = ("scheme", "N", "tau", "T", "tol", "max_newton", "shape", *params)
    echo = {name: getattr(config, name) for name in names}
    echo.update(gamma=config.gamma_value, bdf_order=SPECS[config.scheme].order)
    return echo


def _finish(out_dir: str, manifest: Dict[str, object], failure: Optional[str]) -> int:
    # records a failure in the manifest, writes manifest.json, returns the exit code
    if failure is not None:
        manifest["failure"] = failure
    _write_text(os.path.join(out_dir, "manifest.json"), json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    if failure is not None:
        print(f"numerical failure: {failure}", file=sys.stderr)
        return 2
    return 0


def cli_simulate(config_path: str) -> int:
    """Run one simulation: writes diagnostics.csv, the requested snapshot
    files and manifest.json into the configured output directory."""
    started = time.perf_counter()
    entries = parse_config_file(config_path)
    out_dir = entries.pop("out", (".", 0))[0]
    snapshot_times: List[float] = []
    if "snapshots" in entries:
        value, lineno = entries.pop("snapshots")
        snapshot_times = _number_list(value, f"{config_path}:{lineno}: snapshots")
    config = _build_scheme_config(entries, config_path)

    result = run(config, snapshot_times)

    os.makedirs(out_dir, exist_ok=True)
    files: List[str] = []
    diag_path = os.path.join(out_dir, "diagnostics.csv")
    write_diagnostics_csv(result.series, diag_path)
    files.append("diagnostics.csv")
    for i, snap in enumerate(result.snapshots):
        name = f"snapshot_{i:02d}.txt"
        write_snapshot(os.path.join(out_dir, name), snap.curve, snap.t, snap.kappa)
        files.append(name)
    manifest: Dict[str, object] = {
        "command": "simulate",
        "config": _config_echo(config),
        "snapshot_times": [snap.t for snap in result.snapshots],
        "files": files + ["manifest.json"],
        "switch_time": result.switch_time,
        "forced_switch": result.forced_switch,
        "duration_seconds": time.perf_counter() - started,
    }
    failure = None if result.failure is None else f"{type(result.failure).__name__}: {result.failure}"
    return _finish(out_dir, manifest, failure)


def _converge_level(config: SchemeConfig) -> Dict[str, object]:
    # worker for one refinement level; returns the terminal curve vertices
    result = run(config)
    if result.failure is not None:
        return {"ok": False, "error": f"{type(result.failure).__name__}: {result.failure}"}
    return {"ok": True, "vertices": np.array(result.state.history[-1].curve.vertices)}


def _pool_size(levels: int) -> int:
    # the usable CPUs, never more than the levels
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(cpus, levels)


def cli_converge(config_path: str) -> int:
    """Run a refinement study: one run per tau with N set by the path rule,
    errors between consecutive terminal curves, orders between consecutive
    error rows; writes eoc.csv and manifest.json.

    The levels run in a process pool of one worker per usable CPU, at most
    one per level; with one usable CPU they run in this process.  The pool
    gets the smallest tau, the finest and slowest level, first;
    outcomes are read back in level order, so the outputs and the failure
    message do not depend on the pool size."""
    started = time.perf_counter()
    entries = parse_config_file(config_path)
    out_dir = entries.pop("out", (".", 0))[0]
    if "taus" not in entries:
        raise ConfigError(f"{config_path}: missing required key 'taus'")
    taus_value, taus_line = entries.pop("taus")
    taus = _number_list(taus_value, f"{config_path}:{taus_line}: taus")
    if len(taus) < 2:
        raise ConfigError(f"{config_path}:{taus_line}: need at least two taus")
    if "path" not in entries:
        raise ConfigError(f"{config_path}: missing required key 'path'")
    path_value, _ = entries.pop("path")
    _, _, resolve = parse_path_rule(path_value)

    # accuracy studies run the pure schemes: mode switching disabled
    configs = [
        _build_scheme_config(entries, config_path, skip=("N", "tau", "gamma"), N=resolve(tau), tau=tau, gamma=0.0)
        for tau in taus
    ]
    workers = _pool_size(len(configs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            finest_first = sorted(range(len(configs)), key=lambda i: taus[i])
            futures = {i: pool.submit(_converge_level, configs[i]) for i in finest_first}
            outcomes = [futures[i].result() for i in range(len(configs))]
    else:
        outcomes = [_converge_level(c) for c in configs]

    failure: Optional[str] = None
    terminal: List[np.ndarray] = []
    for i, outcome in enumerate(outcomes):
        if not outcome["ok"]:
            failure = f"level {i} (tau={taus[i]}, N={configs[i].N}): {outcome['error']}"
            break
        terminal.append(outcome["vertices"])

    errors = [manifold_distance(a, b) for a, b in zip(terminal, terminal[1:])]
    rows = convergence_rows([(taus[j], 1.0 / configs[j].N, error) for j, error in enumerate(errors)])

    os.makedirs(out_dir, exist_ok=True)
    eoc_path = os.path.join(out_dir, "eoc.csv")
    write_eoc_csv(rows, eoc_path)
    manifest: Dict[str, object] = {
        "command": "converge",
        "config": _config_echo(configs[0]),
        "path_rule": path_value,
        "levels": [{"tau": c.tau, "N": c.N} for c in configs],
        "files": ["eoc.csv", "manifest.json"],
        "duration_seconds": time.perf_counter() - started,
    }
    return _finish(out_dir, manifest, failure)


def cli_distance(file_a: str, file_b: str) -> int:
    """Print the manifold distance between the curves in two snapshot files
    with 12 significant digits."""
    try:
        _, curve_a, _ = read_snapshot(file_a)
        _, curve_b, _ = read_snapshot(file_b)
    except OSError as exc:
        raise ConfigError(f"cannot read snapshot: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"invalid snapshot: {exc}") from exc
    try:
        value = manifold_distance(curve_a, curve_b)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    print(format(value, "#.12g"))
    return 0


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which this tool reserves
    # for numerical failures; remap to the config-error status
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="curveflow", description="Structure-preserving curve diffusion schemes")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    p_sim = sub.add_parser("simulate", help="run one simulation from a config file")
    p_sim.add_argument("--config", required=True, metavar="PATH")
    p_conv = sub.add_parser("converge", help="run a refinement study from a config file")
    p_conv.add_argument("--config", required=True, metavar="PATH")
    p_dist = sub.add_parser("distance", help="manifold distance between two snapshot files")
    p_dist.add_argument("fileA")
    p_dist.add_argument("fileB")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return cli_simulate(args.config)
        if args.command == "converge":
            return cli_converge(args.config)
        return cli_distance(args.fileA, args.fileB)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SchemeError, SolverError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
