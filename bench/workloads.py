"""Inputs and output checks of the three benchmark workloads.

Each workload is one round of `curveflow` CLI calls (argv lists for
`curveflow.app.main`) plus a checker for that round's outputs.  The checkers
share no code with curveflow: snapshots are parsed and measured here with an
own shoelace formula, and every expected value is a closed form or a property
the method must have, never a stored copy of an earlier output.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
from typing import Dict, List, Sequence, Tuple

import numpy as np

# (rc, stdout) of each CLI call of a round, in the order of Workload.ops
Outputs = Sequence[Tuple[int, str]]
# (index of the op blamed, what is wrong)
Problems = List[Tuple[int, str]]


def shoelace(v: np.ndarray) -> float:
    x, y = v[:, 0], v[:, 1]
    return 0.5 * math.fsum(x * np.roll(y, -1) - np.roll(x, -1) * y)


def perimeter(v: np.ndarray) -> float:
    d = np.roll(v, -1, axis=0) - v
    return math.fsum(np.hypot(d[:, 0], d[:, 1]))


def write_curve(path: str, v: np.ndarray) -> None:
    """Snapshot format read by `curveflow distance`: a `t=<t> N=<n>` header
    and one `x y` line per vertex, 17 significant digits."""
    lines = [f"t=0 N={len(v)}"] + [f"{x:.17g} {y:.17g}" for x, y in v]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_curve(path: str) -> Tuple[float, np.ndarray]:
    with open(path, encoding="ascii") as fh:
        header, *rows = [ln.split() for ln in fh if ln.strip()]
    t = float(header[0].removeprefix("t="))
    n = int(header[1].removeprefix("N="))
    v = np.array([[float(r[0]), float(r[1])] for r in rows])
    if v.shape != (n, 2):
        raise ValueError(f"{path}: header says N={n}, file holds {len(v)} vertices")
    return t, v


def _rel(value: float, expected: float) -> float:
    return abs(value - expected) / abs(expected)


class Workload:
    """One round of CLI calls in `ops` and the check of their outputs."""

    name = ""
    ops: List[List[str]]

    def clear(self) -> None:
        """Remove the outputs of the previous round, so a check never reads
        a stale file."""

    def check(self, outputs: Outputs) -> Problems:
        raise NotImplementedError


class EvolveEllipse(Workload):
    """`curveflow simulate`: sp-bdf2 on the stock 2:1 ellipse, N=160,
    tau=1/640, T=0.8, default gamma (switch to ap-bdf2 near t=0.734)."""

    name = "evolve-ellipse"
    a, b, N, tau, T = 2.0, 1.0, 160, 1 / 640, 0.8
    snapshots = (0.0, 0.2, 0.4, 0.8)

    def __init__(self, out_dir: str, seed: int) -> None:
        self.run_dir = os.path.join(out_dir, "evolve")
        cfg = os.path.join(out_dir, "evolve.cfg")
        with open(cfg, "w", encoding="ascii") as fh:
            fh.write(
                f"scheme = sp-bdf2\nshape = ellipse\na = {self.a}\nb = {self.b}\nN = {self.N}\n"
                f"tau = 1/{round(1 / self.tau)}\nT = {self.T}\nsnapshots = {' '.join(map(str, self.snapshots))}\n"
                f"out = {self.run_dir}\n"
            )
        self.ops = [["simulate", "--config", cfg]]

    def clear(self) -> None:
        shutil.rmtree(self.run_dir, ignore_errors=True)

    def check(self, outputs: Outputs) -> Problems:
        if outputs[0][0] != 0:
            return []  # counted as failed by its exit code
        return [(0, msg) for msg in check_evolve(self.run_dir, self.a, self.b, self.N, self.tau, self.T, len(self.snapshots))]


def check_evolve(run_dir: str, a: float, b: float, N: int, tau: float, T: float, n_snapshots: int) -> List[str]:
    """Area of every snapshot equals that of the initial ellipse polygon,
    (N/2) a b sin(2 pi/N), to 1e-9 relative; snapshot perimeters strictly
    decrease; the perimeter never rises in an SP row; exactly one unforced
    SP -> AP switch with 0 < switch_time < T."""
    problems = []
    area0 = 0.5 * N * a * b * math.sin(2.0 * math.pi / N)
    lengths = []
    for i in range(n_snapshots):
        t, v = read_curve(os.path.join(run_dir, f"snapshot_{i:02d}.txt"))
        drift = _rel(shoelace(v), area0)
        if drift > 1e-9:
            problems.append(f"snapshot {i} (t={t}): area drift {drift:.3e} > 1e-9")
        lengths.append(perimeter(v))
    if any(l1 >= l0 for l0, l1 in zip(lengths, lengths[1:])):
        problems.append(f"snapshot perimeters do not strictly decrease: {lengths}")

    with open(os.path.join(run_dir, "diagnostics.csv"), encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != round(T / tau) + 1:
        problems.append(f"{len(rows)} diagnostics rows, expected {round(T / tau) + 1}")
    modes = [r["mode"] for r in rows]
    for prev, row in zip(rows, rows[1:]):
        if row["mode"] == "SP" and float(row["L_norm"]) > float(prev["L_norm"]):
            problems.append(f"perimeter rises in the SP row at t={row['t']}")
            break
    changes = sum(m0 != m1 for m0, m1 in zip(modes, modes[1:]))
    if modes[0] != "SP" or modes[-1] != "AP" or changes != 1:
        problems.append(f"expected one SP -> AP switch, modes change {changes} times ({modes[0]} ... {modes[-1]})")
    with open(os.path.join(run_dir, "manifest.json"), encoding="ascii") as fh:
        manifest = json.load(fh)
    switch = manifest.get("switch_time")
    if manifest.get("forced_switch") or switch is None or not 0.0 < switch < T:
        problems.append(f"switch_time {switch}, forced {manifest.get('forced_switch')}: expected unforced in (0, {T})")
    return problems


class LadderBdf3(Workload):
    """`curveflow converge`: ap-bdf3 along tau = 0.05 h^(2/3) at N = 125,
    216, 343, 512, T = 0.05."""

    name = "ladder-bdf3"
    taus = ("1/500", "1/720", "1/980", "1/1280")
    T = 0.05

    def __init__(self, out_dir: str, seed: int) -> None:
        self.run_dir = os.path.join(out_dir, "ladder")
        cfg = os.path.join(out_dir, "ladder.cfg")
        with open(cfg, "w", encoding="ascii") as fh:
            fh.write(
                f"scheme = ap-bdf3\nshape = ellipse\nT = {self.T}\ntaus = {' '.join(self.taus)}\n"
                f"path = 0.05h^(2/3)\nout = {self.run_dir}\n"
            )
        self.ops = [["converge", "--config", cfg]]

    def clear(self) -> None:
        shutil.rmtree(self.run_dir, ignore_errors=True)

    def check(self, outputs: Outputs) -> Problems:
        if outputs[0][0] != 0:
            return []
        return [(0, msg) for msg in check_ladder(os.path.join(self.run_dir, "eoc.csv"), len(self.taus))]


def check_ladder(eoc_path: str, levels: int, low: float = 2.9, high: float = 3.4) -> List[str]:
    """Errors strictly decrease; every order, recomputed here from the
    errors and taus, agrees with the file and lies in the third-order bounds
    [low, high]."""
    with open(eoc_path, encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != levels - 1:
        return [f"{len(rows)} rows in eoc.csv, expected {levels - 1}"]
    taus = [float(r["tau"]) for r in rows]
    errors = [float(r["error"]) for r in rows]
    problems = []
    if not all(e1 < e0 for e0, e1 in zip(errors, errors[1:])):
        problems.append(f"errors do not decrease: {errors}")
    for j in range(1, len(rows)):
        order = math.log(errors[j - 1] / errors[j]) / math.log(taus[j - 1] / taus[j])
        listed = float(rows[j]["order"])
        if abs(listed - order) > 1e-9 * abs(order):
            problems.append(f"row {j}: listed order {listed} != {order} from the errors")
        if not low <= order <= high:
            problems.append(f"row {j}: order {order:.4f} outside [{low}, {high}]")
    return problems


def star(n: int, harmonic: int, amplitude: float, phase: float, scale: float = 1.0) -> np.ndarray:
    """Star curve r = scale (1 + amplitude cos(harmonic theta + phase)),
    sampled at theta = 2 pi j / n: simple, counterclockwise, star-shaped
    about the origin."""
    theta = 2.0 * math.pi * np.arange(n) / n
    r = scale * (1.0 + amplitude * np.cos(harmonic * theta + phase))
    return np.column_stack((r * np.cos(theta), r * np.sin(theta)))


def regular_polygon(n: int, radius: float, rotation: float, center: Tuple[float, float]) -> np.ndarray:
    theta = rotation + 2.0 * math.pi * np.arange(n) / n
    return np.column_stack((center[0] + radius * np.cos(theta), center[1] + radius * np.sin(theta)))


def rotated_polygon_distance(n: int, radius: float) -> float:
    """Symmetric-difference area of a regular n-gon and its copy rotated by
    pi/n: their intersection is the regular 2n-gon with the same apothem."""
    apothem = radius * math.cos(math.pi / n)
    return 2.0 * (0.5 * n * radius**2 * math.sin(2.0 * math.pi / n) - 2 * n * apothem**2 * math.tan(math.pi / (2 * n)))


class DistanceMix(Workload):
    """`curveflow distance` on seeded snapshot pairs, N = 400 to 2000:

    * a crossing triple: star curves A, B, C with the same harmonic and
      seeded phases, so every pair crosses at exactly 2 * harmonic points;
      each pair is asked in both argument orders;
    * nested pairs: a seeded star and its copy scaled by a seeded s < 1;
    * rotated pairs: a regular N-gon of seeded radius and centre and its
      copy rotated by pi/N.

    The sizes and the number of crossings are fixed, so the work of a round
    does not depend on the seed; the seed moves only the shapes.
    """

    name = "distance-mix"
    crossing_sizes = (400, 1000, 2000)
    crossing_harmonic = 12
    nested_sizes = (600, 1500)
    polygon_sizes = (800, 1600)

    def __init__(self, out_dir: str, seed: int) -> None:
        rng = np.random.default_rng(seed)
        os.makedirs(out_dir, exist_ok=True)

        def path(name: str) -> str:
            return os.path.join(out_dir, name + ".txt")

        self.ops = []
        # (kind, payload) per op: the expected value, or the crossing pair's key
        self.expect: List[Tuple[str, object]] = []
        self.areas: Dict[str, float] = {}

        base = rng.uniform(0.0, 2.0 * math.pi)
        gaps = rng.uniform(0.6, 1.2, size=2)
        phases = (base, base + gaps[0], base - gaps[1])
        for name, n, phase in zip("ABC", self.crossing_sizes, phases):
            v = star(n, self.crossing_harmonic, 0.2, phase)
            write_curve(path(name), v)
            self.areas[name] = shoelace(v)
        for p, q in (("A", "B"), ("B", "C"), ("A", "C")):
            for x, y in ((p, q), (q, p)):
                self.ops.append(["distance", path(x), path(y)])
                self.expect.append(("crossing", p + q))

        for i, n in enumerate(self.nested_sizes):
            s = float(rng.uniform(0.6, 0.95))
            outer = star(n, 5, 0.25, float(rng.uniform(0.0, 2.0 * math.pi)), scale=float(rng.uniform(0.5, 2.0)))
            write_curve(path(f"outer{i}"), outer)
            write_curve(path(f"inner{i}"), s * outer)
            self.ops.append(["distance", path(f"outer{i}"), path(f"inner{i}")])
            self.expect.append(("nested", (1.0 - s * s) * shoelace(outer)))

        for i, n in enumerate(self.polygon_sizes):
            radius = float(rng.uniform(0.5, 2.0))
            center = tuple(rng.uniform(-1.0, 1.0, size=2))
            rotation = float(rng.uniform(0.0, 2.0 * math.pi))
            write_curve(path(f"poly{i}"), regular_polygon(n, radius, rotation, center))
            write_curve(path(f"turned{i}"), regular_polygon(n, radius, rotation + math.pi / n, center))
            self.ops.append(["distance", path(f"poly{i}"), path(f"turned{i}")])
            self.expect.append(("rotated", rotated_polygon_distance(n, radius)))

    def check(self, outputs: Outputs) -> Problems:
        return check_distances(self.expect, self.areas, outputs)


def check_distances(expect: Sequence[Tuple[str, object]], areas: Dict[str, float], outputs: Outputs) -> Problems:
    """Nested pairs match (1 - s^2)|A| to 1e-9 relative, rotated polygons
    the closed form to 1e-6 relative; a crossing pair prints the same digits
    in both argument orders and satisfies 0 < d <= |A| + |B|; the crossing
    triple satisfies the triangle inequality."""
    problems: Problems = []
    crossing = {}  # pair key -> (op index, printed text)
    for i, ((kind, payload), (rc, text)) in enumerate(zip(expect, outputs)):
        if rc != 0:
            continue
        value = float(text)
        if kind == "nested" and _rel(value, payload) > 1e-9:
            problems.append((i, f"nested pair: {value} vs (1 - s^2)|A| = {payload!r}"))
        elif kind == "rotated" and _rel(value, payload) > 1e-6:
            problems.append((i, f"rotated polygons: {value} vs closed form {payload!r}"))
        elif kind == "crossing":
            first = crossing.setdefault(payload, (i, text.strip()))
            if first[1] != text.strip():
                problems.append((i, f"pair {payload}: {text.strip()} swapped vs {first[1]}"))
            if not 0.0 < value <= areas[payload[0]] + areas[payload[1]]:
                problems.append((i, f"pair {payload}: d = {value} outside (0, |A| + |B|]"))
    d = {key: float(text) for key, (_, text) in crossing.items()}
    if len(d) == 3:
        for side, others in (("AC", ("AB", "BC")), ("AB", ("AC", "BC")), ("BC", ("AB", "AC"))):
            if d[side] > d[others[0]] + d[others[1]]:
                problems.append((crossing[side][0], f"triangle inequality fails: d{side} = {d[side]} > d{others[0]} + d{others[1]}"))
    return problems


WORKLOADS = {w.name: w for w in (EvolveEllipse, LadderBdf3, DistanceMix)}
