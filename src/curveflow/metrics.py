"""Run diagnostics, convergence-order tables, and the manifold distance
between closed curves.

The manifold distance |O1 \\ O2| + |O2 \\ O1| of the enclosed regions is
computed from one exact polygon intersection: both boundaries are split at
every mutual crossing or collinear-contact parameter, and each sub-segment
contributes its Green's-theorem term 0.5 * cross(start, end) when it lies on
the boundary of the intersection region.  Candidate pairs come from a
sort-and-sweep, never from all pairs: edge pairs whose bounding boxes
overlap, and for the winding test of a sub-segment's sample point only the
edges whose y-range holds it, so time and memory grow with N + M plus the
number of candidates.  Sidedness decisions use a floating point orientation
filter with an exact rational fallback, so coincident geometry (identical
curves, shared edges, touching vertices) is classified deterministically
rather than by perturbation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, List, Optional, Sequence, Tuple, Union

import numpy as np

from .geometry import _as_vertices, _box_pairs, _nonzero_edge_lengths, _overlapping, _require_finite, _shoelace, _write_text, is_simple

__all__ = [
    "DiagnosticsRow",
    "DiagnosticsSeries",
    "DIAGNOSTICS_HEADER",
    "write_diagnostics_csv",
    "ConvergenceRow",
    "EOC_HEADER",
    "convergence_rows",
    "write_eoc_csv",
    "polygon_intersection_area",
    "manifold_distance",
]


# ---------------------------------------------------------------------------
# diagnostics series


@dataclass(frozen=True)
class DiagnosticsRow:
    """One time level of a run: normalized perimeter, relative area change,
    multipliers, mesh ratio, Newton count, perimeter decrement and mode."""

    t: float
    L_norm: float
    dA: float
    lam: float
    eta: float
    psi: float
    newton_iters: int
    deltaL: float
    mode: str


@dataclass
class DiagnosticsSeries:
    """Rows of a run at t = 0, tau, 2 tau, ..."""

    rows: List[DiagnosticsRow]


DIAGNOSTICS_HEADER = "t,L_norm,dA,lambda,eta,psi,newton_iters,deltaL,mode"


def _fmt(x: float) -> str:
    return repr(float(x))


def write_diagnostics_csv(series: DiagnosticsSeries, path_or_file: Union[str, IO[str]]) -> None:
    lines = [DIAGNOSTICS_HEADER]
    for r in series.rows:
        lines.append(
            f"{_fmt(r.t)},{_fmt(r.L_norm)},{_fmt(r.dA)},{_fmt(r.lam)},{_fmt(r.eta)},"
            f"{_fmt(r.psi)},{int(r.newton_iters)},{_fmt(r.deltaL)},{r.mode}"
        )
    _write_text(path_or_file, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# convergence orders


@dataclass(frozen=True)
class ConvergenceRow:
    """One refinement level: time step, mesh size, error against the
    next-finer level, and the order measured against the previous row."""

    tau: float
    h: float
    error: float
    order: Optional[float]


EOC_HEADER = "tau,h,error,order"


def convergence_rows(levels: Sequence[Tuple[float, float, float]]) -> List[ConvergenceRow]:
    """ConvergenceRows for (tau, h, error) levels; order_j = log(e_{j-1}/e_j)
    / log(tau_{j-1}/tau_j), and None for the first level and wherever an
    error is not positive or tau did not decrease."""
    out: List[ConvergenceRow] = []
    prev: Optional[Tuple[float, float]] = None
    for tau, h, err in levels:
        order = None
        if prev is not None and prev[1] > 0 and err > 0 and tau < prev[0]:
            order = math.log(prev[1] / err) / math.log(prev[0] / tau)
        out.append(ConvergenceRow(tau=tau, h=h, error=err, order=order))
        prev = (tau, err)
    return out


def write_eoc_csv(rows: Sequence[ConvergenceRow], path_or_file: Union[str, IO[str]]) -> None:
    lines = [EOC_HEADER]
    for r in rows:
        order = "" if r.order is None else _fmt(r.order)
        lines.append(f"{_fmt(r.tau)},{_fmt(r.h)},{_fmt(r.error)},{order}")
    _write_text(path_or_file, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# exact polygon intersection


_FILTER = 3.33e-16  # relative error bound of the two-product orientation test


def _orient(ax: float, ay: float, bx: float, by: float, cx: float, cy: float) -> int:
    """Sign of cross(b - a, c - a): +1 left turn, -1 right turn, 0 collinear.
    Float filter first, exact rational arithmetic when inconclusive."""
    detl = (bx - ax) * (cy - ay)
    detr = (by - ay) * (cx - ax)
    det = detl - detr
    err = _FILTER * (abs(detl) + abs(detr))
    if det > err:
        return 1
    if det < -err:
        return -1
    if err == 0.0:
        return 0
    exact = (Fraction(bx) - Fraction(ax)) * (Fraction(cy) - Fraction(ay)) - (
        Fraction(by) - Fraction(ay)
    ) * (Fraction(cx) - Fraction(ax))
    if exact > 0:
        return 1
    if exact < 0:
        return -1
    return 0


def _classify_points(px: np.ndarray, py: np.ndarray, W: np.ndarray, W1: np.ndarray):
    """Winding-number test of points (px, py) against the closed polygon with
    edges W -> W1.  Returns boolean arrays (inside, on_boundary); inside is
    meaningful only off the boundary.  A point is paired only with the edges
    whose closed y-range holds its y, which are all edges that can lie flat
    through it or cross its rightward ray."""
    s, e = _overlapping(py, py, np.minimum(W[:, 1], W1[:, 1]), np.maximum(W[:, 1], W1[:, 1]))
    x, y = px[s], py[s]
    wx0, wy0 = W[e, 0], W[e, 1]
    wx1, wy1 = W1[e, 0], W1[e, 1]
    on = (wy0 == y) & (wy1 == y) & (np.minimum(wx0, wx1) <= x) & (x <= np.maximum(wx0, wx1))
    up = (wy0 <= y) & (wy1 > y)
    dn = (wy1 <= y) & (wy0 > y)
    detl = (wx1 - wx0) * (y - wy0)
    detr = (wy1 - wy0) * (x - wx0)
    det = detl - detr
    ambiguous = (up | dn) & (np.abs(det) <= _FILTER * (np.abs(detl) + np.abs(detr)))
    for k in np.flatnonzero(ambiguous):
        o = _orient(wx0[k], wy0[k], wx1[k], wy1[k], x[k], y[k])
        det[k] = float(o)
        on[k] |= o == 0
    wn = np.bincount(s, weights=(up & (det > 0)).astype(float) - (dn & (det < 0)), minlength=len(px))
    return wn != 0, np.bincount(s, weights=on, minlength=len(px)) > 0


def _collect_params(P: np.ndarray, Q: np.ndarray):
    """Split parameters of every edge of P and Q against the other polygon.

    Returns per-edge parameter lists for both polygons plus the recorded
    collinear-overlap intervals (t_lo, t_hi, other_edge_index); a sub-segment
    contained in such an interval lies exactly on the other boundary, which
    is decided structurally here, never from sampled points.
    """
    nP, nQ = len(P), len(Q)
    P1 = np.roll(P, -1, axis=0)
    Q1 = np.roll(Q, -1, axis=0)
    paramsP: List[List[float]] = [[] for _ in range(nP)]
    paramsQ: List[List[float]] = [[] for _ in range(nQ)]
    overlapsP: List[List[Tuple[float, float, int]]] = [[] for _ in range(nP)]
    overlapsQ: List[List[Tuple[float, float, int]]] = [[] for _ in range(nQ)]

    ii, jj = _box_pairs(np.minimum(P, P1), np.maximum(P, P1), np.minimum(Q, Q1), np.maximum(Q, Q1))
    # lexicographic (i, j): the order of each edge's overlap list decides
    # which overlap _boundary_pieces_area matches first
    order = np.lexsort((jj, ii))
    for i, j in zip(ii[order].tolist(), jj[order].tolist()):
        p0x, p0y = P[i]
        p1x, p1y = P1[i]
        q0x, q0y = Q[j]
        q1x, q1y = Q1[j]
        o1 = _orient(q0x, q0y, q1x, q1y, p0x, p0y)
        o2 = _orient(q0x, q0y, q1x, q1y, p1x, p1y)
        o3 = _orient(p0x, p0y, p1x, p1y, q0x, q0y)
        o4 = _orient(p0x, p0y, p1x, p1y, q1x, q1y)
        dpx, dpy = p1x - p0x, p1y - p0y
        dqx, dqy = q1x - q0x, q1y - q0y
        if o1 == 0 and o2 == 0:
            # shared supporting line: record the overlap on both edges
            _record_overlap(paramsP[i], overlapsP[i], p0x, p0y, dpx, dpy, (q0x, q0y), (q1x, q1y), j)
            _record_overlap(paramsQ[j], overlapsQ[j], q0x, q0y, dqx, dqy, (p0x, p0y), (p1x, p1y), i)
        elif o1 * o2 < 0 and o3 * o4 < 0:
            # proper interior crossing
            denom = dpx * dqy - dpy * dqx
            t = ((q0x - p0x) * dqy - (q0y - p0y) * dqx) / denom
            s = -((p0x - q0x) * dpy - (p0y - q0y) * dpx) / denom
            paramsP[i].append(min(1.0, max(0.0, t)))
            paramsQ[j].append(min(1.0, max(0.0, s)))
        else:
            # endpoint touches: split the edge the endpoint lands on; most pairs
            # have none, and a helper call for each of them costs time
            if o3 == 0 or o4 == 0:
                _record_touches(paramsP[i], p0x, p0y, dpx, dpy, ((q0x, q0y), (q1x, q1y)), (o3, o4))
            if o1 == 0 or o2 == 0:
                _record_touches(paramsQ[j], q0x, q0y, dqx, dqy, ((p0x, p0y), (p1x, p1y)), (o1, o2))
    return paramsP, paramsQ, overlapsP, overlapsQ


def _record_overlap(params, overlaps, ax, ay, dax, day, b0, b1, other: int) -> None:
    # the part of edge a = (ax, ay) + t (dax, day), t in [0, 1], covered by
    # the collinear edge b0 b1 of the other polygon, with that edge's index
    dd = dax * dax + day * day
    t0 = ((b0[0] - ax) * dax + (b0[1] - ay) * day) / dd
    t1 = ((b1[0] - ax) * dax + (b1[1] - ay) * day) / dd
    lo, hi = (t0, t1) if t0 <= t1 else (t1, t0)
    lo, hi = max(0.0, lo), min(1.0, hi)
    if lo < hi:
        params.extend((lo, hi))
        overlaps.append((lo, hi, other))
    elif lo == hi:
        params.append(lo)


def _record_touches(params, ax, ay, dax, day, ends, orients) -> None:
    # the parameters on edge a = (ax, ay) + t (dax, day) of the other edge's
    # endpoints that lie on its supporting line (orientation 0) within it
    dd = dax * dax + day * day
    for (bx, by), o in zip(ends, orients):
        if o == 0:
            u = (bx - ax) * dax + (by - ay) * day
            if 0.0 <= u <= dd:
                params.append(u / dd)


def _boundary_pieces_area(
    V: np.ndarray,
    V1: np.ndarray,
    params: List[List[float]],
    overlaps: List[List[Tuple[float, float, int]]],
    W: np.ndarray,
    W1: np.ndarray,
    keep_shared: bool,
) -> float:
    """Green's-theorem contribution of this polygon's boundary to the
    intersection area.  A sub-segment counts when strictly inside the other
    region; a sub-segment on the shared boundary counts only from the first
    polygon (keep_shared=True) and only when co-directed with the other
    boundary, so shared arcs enter exactly once."""
    edge: List[int] = []
    t0s: List[float] = []
    t1s: List[float] = []
    verdicts: List[Optional[bool]] = []  # None: decided by an interior sample
    for i in range(len(V)):
        cuts = [0.0]
        for t in sorted(params[i]):
            if cuts[-1] + 1e-14 < t < 1.0 - 1e-14:
                cuts.append(t)
        cuts.append(1.0)
        for t0, t1 in zip(cuts, cuts[1:]):
            verdict = None
            for lo, hi, j in overlaps[i]:
                if lo - 1e-12 <= t0 and t1 <= hi + 1e-12:
                    ax, ay = V[i]
                    bx, by = V1[i]
                    dqx = W1[j, 0] - W[j, 0]
                    dqy = W1[j, 1] - W[j, 1]
                    verdict = keep_shared and bool((bx - ax) * dqx + (by - ay) * dqy > 0.0)
                    break
            edge.append(i)
            t0s.append(t0)
            t1s.append(t1)
            verdicts.append(verdict)
    ax, ay = V[edge, 0], V[edge, 1]
    dx, dy = V1[edge, 0] - ax, V1[edge, 1] - ay
    t0, t1 = np.array(t0s), np.array(t1s)
    keep = np.array([v is True for v in verdicts])
    # sample an interior point of each remaining sub-segment; resample once
    # where the float sample lands exactly on the other boundary
    todo = np.flatnonzero([v is None for v in verdicts])
    for frac in (0.5, 0.618033988749895):
        t = t0[todo] + frac * (t1[todo] - t0[todo])
        inside, on_boundary = _classify_points(ax[todo] + t * dx[todo], ay[todo] + t * dy[todo], W, W1)
        keep[todo[~on_boundary]] = inside[~on_boundary]
        todo = todo[on_boundary]
    s0x, s0y = ax + t0 * dx, ay + t0 * dy
    s1x, s1y = ax + t1 * dx, ay + t1 * dy
    total = 0.0
    for term in (0.5 * (s0x * s1y - s1x * s0y))[keep].tolist():
        total += term
    return total


def _validated_vertices(curve) -> np.ndarray:
    v = _as_vertices(curve)
    _require_finite(v)
    _nonzero_edge_lengths(v)
    if _shoelace(v) <= 0.0:
        raise ValueError("curve must be positively oriented")
    if not is_simple(v):
        raise ValueError("curve is self-intersecting")
    return np.array(v, dtype=float)


def polygon_intersection_area(A, B) -> float:
    """Area of the intersection of the regions enclosed by two simple,
    positively oriented closed polygons (components summed)."""
    P = _validated_vertices(A)
    Q = _validated_vertices(B)
    areaP = _shoelace(P)
    areaQ = _shoelace(Q)
    if (
        P[:, 0].max() < Q[:, 0].min()
        or Q[:, 0].max() < P[:, 0].min()
        or P[:, 1].max() < Q[:, 1].min()
        or Q[:, 1].max() < P[:, 1].min()
    ):
        return 0.0
    P1 = np.roll(P, -1, axis=0)
    Q1 = np.roll(Q, -1, axis=0)
    paramsP, paramsQ, overlapsP, overlapsQ = _collect_params(P, Q)
    total = _boundary_pieces_area(P, P1, paramsP, overlapsP, Q, Q1, keep_shared=True)
    total += _boundary_pieces_area(Q, Q1, paramsQ, overlapsQ, P, P1, keep_shared=False)
    return float(min(max(total, 0.0), areaP, areaQ))


def manifold_distance(A, B) -> float:
    """Area of the symmetric difference of the enclosed regions:
    |O_A| + |O_B| - 2 |O_A intersect O_B|.  Arguments are canonicalized so
    the result is bitwise symmetric, and identical vertex arrays give 0."""
    va = _as_vertices(A)
    vb = _as_vertices(B)
    key_a, key_b = (len(va), va.tobytes()), (len(vb), vb.tobytes())
    if key_a > key_b:
        va, vb = vb, va
    inter = polygon_intersection_area(va, vb)
    if key_a == key_b:  # the shoelace and Green sums round differently
        return 0.0
    return max(0.0, _shoelace(va) + _shoelace(vb) - 2.0 * inter)
