"""Benchmark of the curveflow CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (curveflow is imported from `src/`).
The workload's round of CLI calls (see workloads.py) runs in this process
through `curveflow.app.main`, repeated until S seconds have passed; every
call is timed from outside and every round's outputs are checked.  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, run_s, cpu_s,
peak_rss_mb); with --trace 1 they are the per-layer ones of layers.py, from
a run with the tracing wrappers installed.  Outputs, and a run.json with the
machine, the software versions, the per-round figures and the metrics, go to
`.bench_out/<workload>/` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# setup_s is the median of this many set-ups, each in a fresh process
SETUP_PROBES = 3


def _cpu_seconds() -> float:
    # this process plus waited-for children (a CURVEFLOW_THREADS pool)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _steal_ticks():
    # (steal, total) clock ticks of all CPUs so far, where /proc/stat exists
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return ticks[7], sum(ticks)


def set_up(workload_name: str, seed: int, out_dir: str):
    """Import curveflow, generate the workload's inputs and make one tiny
    warm-up call into every layer, so lazy set-up is paid here.  Returns
    (curveflow.app module, workload)."""
    import curveflow.app

    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    workload = workloads.WORKLOADS[workload_name](out_dir, seed)
    warm = os.path.join(out_dir, "warm-up")
    cfg = os.path.join(out_dir, "warm-up.cfg")
    with open(cfg, "w", encoding="ascii") as fh:
        fh.write(f"scheme = sp-bdf2\nN = 16\ntau = 1/100\nT = 0.03\nsnapshots = 0 0.03\nout = {warm}\n")
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [
            curveflow.app.main(["simulate", "--config", cfg]),
            curveflow.app.main(["distance", os.path.join(warm, "snapshot_00.txt"), os.path.join(warm, "snapshot_01.txt")]),
        ]
    if codes != [0, 0]:
        raise RuntimeError(f"warm-up calls exited with {codes}")
    return curveflow.app, workload


def probe_setup_seconds(args) -> float:
    """Wall time from starting a fresh interpreter on this script until it
    has set up and is ready to make its first timed call."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", args.workload, "--seed", str(args.seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited with {code}")
    return elapsed


def environment(seed: int) -> dict:
    import numpy
    import scipy

    sha = None
    try:
        git = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        lines = git.stdout.split()
        if git.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            sha = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "seed": seed,
    }


def run_rounds(app, workload, seconds: float, tracer=None):
    """Repeat the workload's round of CLI calls until `seconds` have passed.
    Returns the per-round figures and the outcome counts."""
    rounds = []
    attempted = failed = 0
    correct = True
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        workload.clear()
        if tracer:
            tracer.reset()
        outputs = []
        wall = cpu = 0.0
        for argv in workload.ops:
            buf = io.StringIO()
            c0, w0 = _cpu_seconds(), time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = app.main(argv)
            except Exception:  # a crash of the program is a failed operation
                traceback.print_exc()
                code = -1
            wall += time.perf_counter() - w0
            cpu += _cpu_seconds() - c0
            outputs.append((code, buf.getvalue()))
        bad = {i for i, (code, _) in enumerate(outputs) if code != 0}
        try:
            problems = workload.check(outputs)
        except (OSError, ValueError, KeyError) as exc:
            problems = [(i, f"unreadable output: {exc!r}") for i in range(len(outputs))]
        for i, message in problems:
            print(f"check failed: {workload.ops[i]}: {message}", file=sys.stderr)
            correct = False
            bad.add(i)
        attempted += len(outputs)
        failed += len(bad)
        figures = {"run_s": wall, "cpu_s": cpu}
        if tracer:
            figures.update(tracer.metrics())
        rounds.append(figures)
    return rounds, attempted, failed, correct


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "curveflow", "app.py")):
        print(f"error: no curveflow sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # the program's own default decides the level pool of `converge`
    os.environ.pop("CURVEFLOW_THREADS", None)
    out_dir = os.path.join(ROOT, ".bench_out", args.workload)

    if args.setup_probe:
        set_up(args.workload, args.seed, out_dir + "-probe")
        print("ready", flush=True)
        return 0

    setups = [] if args.trace else [probe_setup_seconds(args) for _ in range(SETUP_PROBES)]
    shutil.rmtree(out_dir + "-probe", ignore_errors=True)
    app, workload = set_up(args.workload, args.seed, out_dir)
    tracer = None
    if args.trace:
        import layers

        tracer = layers.Tracer()
        tracer.install()
    ticks = _steal_ticks()
    rounds, attempted, failed, correct = run_rounds(app, workload, args.seconds, tracer)
    env = environment(args.seed)
    if ticks:
        # share of the host's CPU time the hypervisor withheld while the
        # rounds ran: a slower set of runs with a higher share is the host
        steal, total = (now - before for now, before in zip(_steal_ticks(), ticks))
        env["steal_share"] = steal / total if total else 0.0
    if tracer:
        if rounds[0]["metrics.distance_calls"]:
            tracer.measure_alloc = True
            extra, n, bad, ok = run_rounds(app, workload, 0.0, tracer)
            attempted, failed, correct = attempted + n, failed + bad, correct and ok
            for r in rounds:
                r["metrics.alloc_peak_mb"] = extra[0]["metrics.alloc_peak_mb"]
        tracer.uninstall()

    def median(key: str) -> float:
        return statistics.median(r[key] for r in rounds)

    if args.trace:
        metrics = {name: {"value": median(name), "unit": unit} for name, unit, _ in layers.METRICS}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": median("run_s"), "unit": "s"},
            "cpu_s": {"value": median("cpu_s"), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    record = {"workload": args.workload, "trace": args.trace, "environment": env, "setups_s": setups, "rounds": rounds, "metrics": metrics}
    with open(os.path.join(out_dir, "run.json"), "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=2)
    print("environment " + json.dumps(env))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
