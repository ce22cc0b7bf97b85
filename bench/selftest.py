"""Self-test of the benchmark's output checks: each checker accepts a
well-formed output and rejects the same output with one deliberate error.

    python3 bench/selftest.py

Needs numpy but not curveflow, and finishes in seconds.  Exit code 0 when
every check behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys

import numpy as np

import workloads

OUT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".bench_out", "selftest")


def evolve_output(run_dir: str, area_drift: float = 0.0) -> list:
    """A stock-run output that has every property check_evolve asks for:
    snapshots are affine images (a s, b / s) of the initial ellipse, which
    keep the area and shorten the perimeter as s goes to sqrt(b / a)."""
    w = workloads.EvolveEllipse
    os.makedirs(run_dir)
    theta = 2.0 * math.pi * np.arange(w.N) / w.N
    for i, s in enumerate((1.0, 0.95, 0.9, 0.85)):
        v = np.column_stack((w.a * s * np.cos(theta), w.b / s * np.sin(theta)))
        if i == 2:
            v *= math.sqrt(1.0 + area_drift)
        workloads.write_curve(os.path.join(run_dir, f"snapshot_{i:02d}.txt"), v)
    steps = round(w.T / w.tau)
    switch = 470 * w.tau
    with open(os.path.join(run_dir, "diagnostics.csv"), "w", encoding="ascii") as fh:
        fh.write("t,L_norm,dA,lambda,eta,psi,newton_iters,deltaL,mode\n")
        for m in range(steps + 1):
            fh.write(f"{m * w.tau!r},{1.0 - 1e-4 * m!r},0.0,0.0,0.0,1.0,2,-1.0,{'SP' if m <= 470 else 'AP'}\n")
    with open(os.path.join(run_dir, "manifest.json"), "w", encoding="ascii") as fh:
        json.dump({"switch_time": switch, "forced_switch": False}, fh)
    return workloads.check_evolve(run_dir, w.a, w.b, w.N, w.tau, w.T, 4)


def ladder_output(path: str, order: float) -> list:
    """eoc.csv of the ladder's taus with errors 0.5 tau^order."""
    taus = [1.0 / float(t.split("/")[1]) for t in workloads.LadderBdf3.taus][:-1]
    errors = [0.5 * t**order for t in taus]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("tau,h,error,order\n")
        for j, (t, e) in enumerate(zip(taus, errors)):
            listed = "" if j == 0 else repr(math.log(errors[j - 1] / e) / math.log(taus[j - 1] / t))
            fh.write(f"{t!r},0.01,{e!r},{listed}\n")
    return workloads.check_ladder(path, len(workloads.LadderBdf3.taus))


def distance_output(out_dir: str, off_op: int = -1) -> list:
    """Printed distances of a distance-mix round: closed forms for nested and
    rotated pairs, a consistent triple for the crossing pairs; the op
    `off_op` prints its value off by 1e-5 relative."""
    w = workloads.DistanceMix(out_dir, seed=7)
    crossing = {"AB": 0.3, "BC": 0.4, "AC": 0.5}
    outputs = []
    for i, (kind, payload) in enumerate(w.expect):
        value = crossing[payload] if kind == "crossing" else payload
        if i == off_op:
            value *= 1.0 + 1e-5
        outputs.append((0, format(value, "#.12g") + "\n"))
    return w.check(outputs)


def main() -> int:
    shutil.rmtree(OUT, ignore_errors=True)
    kinds = [kind for kind, _ in workloads.DistanceMix(os.path.join(OUT, "kinds"), seed=7).expect]
    cases = [
        ("evolve-ellipse: stock-run output", True, lambda: evolve_output(os.path.join(OUT, "evolve-good"))),
        ("evolve-ellipse: area drift 1e-8", False, lambda: evolve_output(os.path.join(OUT, "evolve-drift"), 1e-8)),
        ("ladder-bdf3: third order", True, lambda: ladder_output(os.path.join(OUT, "eoc-good.csv"), 3.1)),
        ("ladder-bdf3: order 2.5", False, lambda: ladder_output(os.path.join(OUT, "eoc-low.csv"), 2.5)),
        ("distance-mix: exact distances", True, lambda: distance_output(os.path.join(OUT, "dist-good"))),
    ]
    for kind in ("nested", "rotated", "crossing"):
        op = kinds.index(kind)
        cases.append((f"distance-mix: {kind} pair off by 1e-5", False, lambda op=op, kind=kind: distance_output(os.path.join(OUT, f"dist-{kind}"), op)))

    ok = True
    for label, should_pass, case in cases:
        problems = case()
        behaves = not problems if should_pass else bool(problems)
        ok &= behaves
        verdict = "accepted" if not problems else "rejected: " + "; ".join(str(p) for p in problems)
        print(f"[{'ok' if behaves else 'FAIL'}] {label}: {verdict}")
    shutil.rmtree(OUT, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
