"""Run diagnostics, convergence-order tables, and the manifold distance
between closed curves.

The manifold distance |O1 \\ O2| + |O2 \\ O1| of the enclosed regions is
computed from one exact polygon intersection: both boundaries are split at
every mutual crossing or collinear-contact parameter, and each sub-segment
contributes its Green's-theorem term 0.5 * cross(start, end) when it lies on
the boundary of the intersection region.  Candidate pairs come from the
simplicity test's sort-and-sweep, `geometry._box_pairs`, never from all
pairs: edge pairs whose bounding boxes overlap, from its two-sided form, and
for the winding test of a sub-segment's sample point only the edges whose
y-range holds it, so time and memory grow with N + M plus the number of
candidates.  Sidedness decisions, here and in the simplicity test that
validates each curve, use the package's one orientation predicate,
`geometry._orient_all`: a floating point filter with an exact rational
fallback, so coincident geometry (identical curves, shared edges, touching
vertices) is classified deterministically rather than by perturbation.

The filter, the proper crossings and the sub-segments of every edge are
array passes over all candidates at once.  Python loops run only where an
exact or sequential rule decides: the rational fallback of an inconclusive
orientation; pairs with a zero orientation (collinear overlaps and endpoint
touches), in lexicographic pair order; edges with two cuts within 1e-14 of
each other, whose cut rule is sequential; the sub-segments of edges with a
recorded overlap; and the left-to-right sum of the kept Green's terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .geometry import _as_vertices, _box_pairs, _nonzero_edge_lengths, _orient_all, _pair_orientations, _require_finite, _shoelace, _write_text, is_simple

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


def _classify_points(px: np.ndarray, py: np.ndarray, W: np.ndarray, W1: np.ndarray):
    """Winding-number test of points (px, py) against the closed polygon with
    edges W -> W1.  Returns boolean arrays (inside, on_boundary); inside is
    meaningful only off the boundary.  A point is paired only with the edges
    whose closed y-range holds its y, which are all edges that can lie flat
    through it or cross its rightward ray: a point overlaps a y-range when
    it starts inside it, so one `_box_pairs` pass of the points lists them."""
    e, s = _box_pairs(np.minimum(W[:, 1:], W1[:, 1:]), np.maximum(W[:, 1:], W1[:, 1:]), py[:, None], py[:, None], "left")
    x, y = px[s], py[s]
    wx0, wy0 = W[e, 0], W[e, 1]
    wx1, wy1 = W1[e, 0], W1[e, 1]
    on = (wy0 == y) & (wy1 == y) & (np.minimum(wx0, wx1) <= x) & (x <= np.maximum(wx0, wx1))
    up = (wy0 <= y) & (wy1 > y)
    dn = (wy1 <= y) & (wy0 > y)
    c = np.flatnonzero(up | dn)
    o = np.zeros(len(x), dtype=int)
    o[c] = _orient_all(wx0[c], wy0[c], wx1[c], wy1[c], x[c], y[c])
    on[c] |= o[c] == 0
    wn = np.bincount(s, weights=(up & (o > 0)).astype(float) - (dn & (o < 0)), minlength=len(px))
    return wn != 0, np.bincount(s, weights=on, minlength=len(px)) > 0


def _collect_params(P: np.ndarray, P1: np.ndarray, Q: np.ndarray, Q1: np.ndarray):
    """Split parameters of every edge P -> P1 and Q -> Q1 against the other
    polygon.

    Returns, for P and then Q, the split parameters as flat arrays
    (edge, t) sorted by edge and then by t, and then for P and Q the
    recorded collinear-overlap intervals {edge: [(t_lo, t_hi,
    other_edge_index), ...]}; a sub-segment contained in such an interval
    lies exactly on the other boundary, which is decided structurally here,
    never from sampled points.  Two `_box_pairs` passes list the edge pairs
    whose boxes overlap; their `_pair_orientations` and proper crossings
    are array passes, and only pairs with a zero orientation (collinear
    overlaps and endpoint touches) run in Python.
    """
    lo_p, hi_p, lo_q, hi_q = np.minimum(P, P1), np.maximum(P, P1), np.minimum(Q, Q1), np.maximum(Q, Q1)
    (i1, j1), (j2, i2) = _box_pairs(lo_p, hi_p, lo_q, hi_q, "left"), _box_pairs(lo_q, hi_q, lo_p, hi_p, "right")
    ii, jj = np.concatenate((i1, i2)), np.concatenate((j1, j2))
    p0, p1, q0, q1 = P[ii], P1[ii], Q[jj], Q1[jj]
    o1, o2, o3, o4 = _pair_orientations(p0, p1, q0, q1)

    # proper interior crossings
    c = (o1 * o2 < 0) & (o3 * o4 < 0)
    (p0x, p0y), (q0x, q0y) = p0[c].T, q0[c].T
    (dpx, dpy), (dqx, dqy) = (p1[c] - p0[c]).T, (q1[c] - q0[c]).T
    denom = dpx * dqy - dpy * dqx
    t = ((q0x - p0x) * dqy - (q0y - p0y) * dqx) / denom
    s = -((p0x - q0x) * dpy - (p0y - q0y) * dpx) / denom

    # pairs with a zero orientation, in lexicographic (i, j) order: the order
    # of each edge's overlap list decides which overlap _boundary_pieces_area
    # matches first
    extraP: List[Tuple[int, float]] = []
    extraQ: List[Tuple[int, float]] = []
    overlapsP: Dict[int, List[Tuple[float, float, int]]] = {}
    overlapsQ: Dict[int, List[Tuple[float, float, int]]] = {}
    k = np.flatnonzero((o1 == 0) | (o2 == 0) | (o3 == 0) | (o4 == 0))
    k = k[np.lexsort((jj[k], ii[k]))]
    for i, j, a1, a2, a3, a4 in zip(*(v[k].tolist() for v in (ii, jj, o1, o2, o3, o4))):
        p0x, p0y = P[i]
        p1x, p1y = P1[i]
        q0x, q0y = Q[j]
        q1x, q1y = Q1[j]
        dpx, dpy = p1x - p0x, p1y - p0y
        dqx, dqy = q1x - q0x, q1y - q0y
        if a1 == 0 and a2 == 0:
            # shared supporting line: record the overlap on both edges
            _record_overlap(extraP, overlapsP, i, p0x, p0y, dpx, dpy, (q0x, q0y), (q1x, q1y), j)
            _record_overlap(extraQ, overlapsQ, j, q0x, q0y, dqx, dqy, (p0x, p0y), (p1x, p1y), i)
        else:
            # endpoint touches: split the edge the endpoint lands on
            if a3 == 0 or a4 == 0:
                _record_touches(extraP, i, p0x, p0y, dpx, dpy, ((q0x, q0y), (q1x, q1y)), (a3, a4))
            if a1 == 0 or a2 == 0:
                _record_touches(extraQ, j, q0x, q0y, dqx, dqy, ((p0x, p0y), (p1x, p1y)), (a1, a2))
    cutsP = _sorted_cuts(ii[c], np.clip(t, 0.0, 1.0), extraP)
    cutsQ = _sorted_cuts(jj[c], np.clip(s, 0.0, 1.0), extraQ)
    return cutsP, cutsQ, overlapsP, overlapsQ


def _sorted_cuts(edge: np.ndarray, t: np.ndarray, extra: List[Tuple[int, float]]):
    # the crossings' (edge, t) arrays joined by the Python path's pairs,
    # sorted by edge and then by t
    if extra:
        more_edge, more_t = zip(*extra)
        edge, t = np.concatenate((edge, more_edge)), np.concatenate((t, more_t))
    order = np.lexsort((t, edge))
    return edge[order], t[order]


def _record_overlap(cuts, overlaps, index, ax, ay, dax, day, b0, b1, other: int) -> None:
    # the part of edge `index`, a = (ax, ay) + t (dax, day), t in [0, 1],
    # covered by the collinear edge b0 b1 of the other polygon
    dd = dax * dax + day * day
    t0 = ((b0[0] - ax) * dax + (b0[1] - ay) * day) / dd
    t1 = ((b1[0] - ax) * dax + (b1[1] - ay) * day) / dd
    lo, hi = (t0, t1) if t0 <= t1 else (t1, t0)
    lo, hi = max(0.0, lo), min(1.0, hi)
    if lo < hi:
        cuts += ((index, lo), (index, hi))
        overlaps.setdefault(index, []).append((lo, hi, other))
    elif lo == hi:
        cuts.append((index, lo))


def _record_touches(cuts, index, ax, ay, dax, day, ends, orients) -> None:
    # the parameters on edge `index`, a = (ax, ay) + t (dax, day), of the
    # other edge's endpoints that lie on its supporting line (orientation 0)
    # within it
    dd = dax * dax + day * day
    for (bx, by), o in zip(ends, orients):
        if o == 0:
            u = (bx - ax) * dax + (by - ay) * day
            if 0.0 <= u <= dd:
                cuts.append((index, u / dd))


def _boundary_pieces_area(
    V: np.ndarray,
    V1: np.ndarray,
    cuts: Tuple[np.ndarray, np.ndarray],
    overlaps: Dict[int, List[Tuple[float, float, int]]],
    W: np.ndarray,
    W1: np.ndarray,
    keep_shared: bool,
) -> float:
    """Green's-theorem contribution of this polygon's boundary to the
    intersection area.  A sub-segment counts when strictly inside the other
    region; a sub-segment on the shared boundary counts only from the first
    polygon (keep_shared=True) and only when co-directed with the other
    boundary, so shared arcs enter exactly once."""
    n = len(V)
    edge, t = cuts
    inner = (1e-14 < t) & (t < 1.0 - 1e-14)
    edge, t = edge[inner], t[inner]
    # a cut within 1e-14 of the last cut kept on its edge is dropped; the
    # rule is sequential, so it runs only on the edges where it drops one
    close = (edge[1:] == edge[:-1]) & ~(t[:-1] + 1e-14 < t[1:])
    if close.any():
        kept = np.ones(len(t), dtype=bool)
        for i in np.unique(edge[1:][close]).tolist():
            last = 0.0
            for k in range(np.searchsorted(edge, i), np.searchsorted(edge, i, "right")):
                if last + 1e-14 < t[k]:
                    last = t[k]
                else:
                    kept[k] = False
        edge, t = edge[kept], t[kept]
    # sub-segments in edge order, each edge split at its kept cuts; cut k
    # ends sub-segment k + edge[k] and starts the next one
    count = np.bincount(edge, minlength=n) + 1
    at = np.arange(len(t)) + edge
    t0, t1 = np.zeros(len(t) + n), np.ones(len(t) + n)
    t0[at + 1] = t
    t1[at] = t
    seg = np.repeat(np.arange(n), count)
    keep = np.zeros(len(seg), dtype=bool)
    decided = np.zeros(len(seg), dtype=bool)
    first = np.cumsum(count) - count
    for i, spans in overlaps.items():
        for k in range(first[i], first[i] + count[i]):
            for lo, hi, j in spans:
                if lo - 1e-12 <= t0[k] and t1[k] <= hi + 1e-12:
                    ax, ay = V[i]
                    bx, by = V1[i]
                    dqx = W1[j, 0] - W[j, 0]
                    dqy = W1[j, 1] - W[j, 1]
                    keep[k] = keep_shared and bool((bx - ax) * dqx + (by - ay) * dqy > 0.0)
                    decided[k] = True
                    break
    ax, ay = V[seg, 0], V[seg, 1]
    dx, dy = V1[seg, 0] - ax, V1[seg, 1] - ay
    # sample an interior point of each remaining sub-segment; resample once
    # where the float sample lands exactly on the other boundary
    todo = np.flatnonzero(~decided)
    for frac in (0.5, 0.618033988749895):
        u = t0[todo] + frac * (t1[todo] - t0[todo])
        inside, on_boundary = _classify_points(ax[todo] + u * dx[todo], ay[todo] + u * dy[todo], W, W1)
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
    P1 = np.roll(P, -1, axis=0)
    Q1 = np.roll(Q, -1, axis=0)
    cutsP, cutsQ, overlapsP, overlapsQ = _collect_params(P, P1, Q, Q1)
    total = _boundary_pieces_area(P, P1, cutsP, overlapsP, Q, Q1, keep_shared=True)
    total += _boundary_pieces_area(Q, Q1, cutsQ, overlapsQ, P, P1, keep_shared=False)
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
