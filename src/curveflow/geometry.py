"""Closed polygonal curves: representation, benchmark generators, and the
discrete geometric functionals (edges, normals, perimeter, area, mesh ratio).

Conventions
-----------
Curves are stored counterclockwise, so the shoelace area is strictly positive.
Edge ``j`` connects vertex ``j`` to vertex ``j+1`` (indices periodic), and its
outward unit normal is the clockwise rotation of its unit tangent.  With this
sign system the discrete curvature of a convex curve is positive.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

__all__ = [
    "PolygonalCurve",
    "edge_vectors",
    "edge_lengths",
    "perimeter",
    "signed_area",
    "mesh_ratio",
    "generate_ellipse",
    "generate_mikula",
    "generate_rectangle",
    "is_simple",
    "write_snapshot",
    "read_snapshot",
]


def _as_vertices(curve) -> np.ndarray:
    """Accept a PolygonalCurve or a raw (N, 2) array of vertices."""
    if isinstance(curve, PolygonalCurve):
        return curve.vertices
    arr = np.asarray(curve, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected an (N, 2) vertex array, got shape {arr.shape}")
    return arr


def _shoelace(vertices: np.ndarray) -> float:
    x = vertices[:, 0]
    y = vertices[:, 1]
    # contiguous rows holding x_{k+1} and y_{k+1}
    nxt = np.empty((2, len(vertices)))
    nxt[:, :-1] = vertices[1:].T
    nxt[:, -1] = vertices[0]
    return 0.5 * float(np.dot(x, nxt[1]) - np.dot(nxt[0], y))


class PolygonalCurve:
    """A closed polygon with N >= 3 vertices, normalized to counterclockwise
    orientation (strictly positive signed area).

    The constructor validates the vertex array (finite entries, no zero-length
    edge) and, if the input is clockwise, reverses the traversal while keeping
    vertex 0 first.  The stored array is read-only; curves behave as values.
    """

    __slots__ = ("_vertices",)

    def __init__(self, vertices) -> None:
        arr = np.array(vertices, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"vertices must form an (N, 2) array, got shape {arr.shape}")
        n = arr.shape[0]
        if n < 3:
            raise ValueError(f"a closed curve needs at least 3 vertices, got {n}")
        if not np.isfinite(arr).all():
            bad = int(np.flatnonzero(~np.isfinite(arr).all(axis=1))[0])
            raise ValueError(f"non-finite coordinates at vertex {bad}")
        _nonzero_edge_lengths(arr)
        area = _shoelace(arr)
        if area == 0.0:
            raise ValueError("curve encloses zero signed area; orientation undefined")
        if area < 0.0:
            # reverse traversal, keeping vertex 0 in place
            arr = np.roll(arr[::-1], 1, axis=0)
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        self._vertices = arr

    @property
    def vertices(self) -> np.ndarray:
        """Read-only (N, 2) float64 array of vertices, counterclockwise."""
        return self._vertices

    def __len__(self) -> int:
        return self._vertices.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PolygonalCurve(n_vertices={len(self)})"


def edge_vectors(curve) -> np.ndarray:
    """Edge vectors h_j = X_{j+1} - X_j as an (N, 2) array."""
    return _forward_difference(_as_vertices(curve))


def _forward_difference(a: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """a_{k+1} - a_k along the first axis, periodic (into ``out`` if given)."""
    d = np.empty(a.shape) if out is None else out
    np.subtract(a[1:], a[:-1], out=d[:-1])
    np.subtract(a[:1], a[-1:], out=d[-1:])
    return d


def edge_lengths(curve) -> np.ndarray:
    """Edge lengths |h_j| as an (N,) array."""
    h = edge_vectors(curve)
    return np.hypot(h[:, 0], h[:, 1])


def _nonzero_edge_lengths(curve) -> np.ndarray:
    """Edge lengths, or ValueError naming the first zero-length edge."""
    lengths = edge_lengths(curve)
    zero = np.flatnonzero(lengths == 0.0)
    if zero.size:
        raise ValueError(f"zero-length edge at index {int(zero[0])}")
    return lengths


def perimeter(curve) -> float:
    """Total edge length of the polygon."""
    return float(edge_lengths(curve).sum())


def signed_area(curve) -> float:
    """Shoelace area; positive for the stored counterclockwise orientation."""
    return _shoelace(_as_vertices(curve))


def mesh_ratio(curve) -> float:
    """Longest edge divided by shortest edge (1 for equidistributed meshes)."""
    lengths = edge_lengths(curve)
    return float(lengths.max() / lengths.min())


def generate_ellipse(a: float, b: float, N: int) -> PolygonalCurve:
    """Ellipse (a cos(2 pi rho), b sin(2 pi rho)) sampled at rho = j/N."""
    if a <= 0 or b <= 0:
        raise ValueError("semi-axes must be positive")
    if N < 3:
        raise ValueError("N must be at least 3")
    rho = 2.0 * np.pi * np.arange(N) / N
    return PolygonalCurve(np.column_stack((a * np.cos(rho), b * np.sin(rho))))


def generate_mikula(N: int) -> PolygonalCurve:
    """Closed curve with highly oscillatory curvature, sampled at rho = j/N.

    Parametrization: x = cos(2 pi rho),
    y = sin(cos(2 pi rho)) + sin(2 pi rho) (0.7 + sin(2 pi rho) sin^2(6 pi rho)).
    """
    if N < 3:
        raise ValueError("N must be at least 3")
    rho = np.arange(N) / N
    s = np.sin(2.0 * np.pi * rho)
    x = np.cos(2.0 * np.pi * rho)
    y = np.sin(x) + s * (0.7 + s * np.sin(6.0 * np.pi * rho) ** 2)
    return PolygonalCurve(np.column_stack((x, y)))


def _allocate_segments(side_lengths: np.ndarray, total: int) -> np.ndarray:
    """Split `total` segments among sides proportionally to length
    (largest-remainder rounding, at least one segment per side)."""
    quota = side_lengths * (total / side_lengths.sum())
    counts = np.floor(quota).astype(int)
    leftover = total - int(counts.sum())
    order = np.argsort(-(quota - counts), kind="stable")
    for idx in order[:leftover]:
        counts[idx] += 1
    while (counts == 0).any():
        counts[int(np.argmax(counts))] -= 1
        counts[int(np.argmin(counts))] += 1
    return counts


def generate_rectangle(width: float, height: float, N: int) -> PolygonalCurve:
    """Axis-aligned rectangle centered at the origin with all four corners as
    vertices; the remaining vertices are spread along the sides proportionally
    to side length, so N divisible by the aspect grid gives mesh ratio 1."""
    if width <= 0 or height <= 0:
        raise ValueError("width and height must be positive")
    if N < 8:
        raise ValueError("N must be at least 8 so every corner is a vertex")
    w2, h2 = 0.5 * width, 0.5 * height
    corners = np.array([(-w2, -h2), (w2, -h2), (w2, h2), (-w2, h2)])
    sides = np.array([width, height, width, height])
    counts = _allocate_segments(sides, N)
    pieces = []
    for i in range(4):
        start = corners[i]
        step = (corners[(i + 1) % 4] - start) / counts[i]
        pieces.append(start + step * np.arange(counts[i])[:, None])
    return PolygonalCurve(np.vstack(pieces))


def _overlapping(lo_a: np.ndarray, hi_a: np.ndarray, lo_b: np.ndarray, hi_b: np.ndarray):
    """Index arrays (i, j) of every pair of closed intervals
    [lo_a[i], hi_a[i]] and [lo_b[j], hi_b[j]] that overlap, each pair once
    and in no particular order.  Sort-and-sweep: two closed intervals overlap
    exactly when b starts inside a, or a starts inside b strictly after b
    starts, and each of these is one sorted range per interval.  O((n + m)
    log(n + m) + K) time and O(n + m + K) memory for K pairs."""

    def starts_inside(lo, hi, starts, side):
        order = np.argsort(starts)
        first = np.searchsorted(starts[order], lo, side)
        count = np.searchsorted(starts[order], hi, "right") - first
        owner = np.repeat(np.arange(len(lo)), count)
        offset = np.arange(int(count.sum())) - np.repeat(np.cumsum(count) - count, count)
        return owner, order[np.repeat(first, count) + offset]

    i1, j1 = starts_inside(lo_a, hi_a, lo_b, "left")
    j2, i2 = starts_inside(lo_b, hi_b, lo_a, "right")
    return np.concatenate((i1, i2)), np.concatenate((j1, j2))


def _box_pairs(lo_a: np.ndarray, hi_a: np.ndarray, lo_b: np.ndarray, hi_b: np.ndarray):
    """Index arrays (i, j) of the pairs of closed axis-aligned boxes
    [lo_a[i], hi_a[i]] and [lo_b[j], hi_b[j]] ((n, 2) and (m, 2) corner
    arrays) that overlap: the x-overlaps of the sweep, filtered by
    y-overlap."""
    i, j = _overlapping(lo_a[:, 0], hi_a[:, 0], lo_b[:, 0], hi_b[:, 0])
    keep = (lo_a[i, 1] <= hi_b[j, 1]) & (lo_b[j, 1] <= hi_a[i, 1])
    return i[keep], j[keep]


def is_simple(curve) -> bool:
    """True if no two non-adjacent edges intersect and no vertex folds back
    onto the previous edge.  Two edges that share a point have overlapping
    closed bounding boxes, so the orientation and on-segment predicates run
    only on the box-overlapping pairs that a sort-and-sweep lists (Shamos &
    Hoey, FOCS 1976): O(N log N + K) time and O(N + K) memory, where K is the
    number of edge pairs whose x-extents overlap, O(N) for smooth curves."""
    v = _as_vertices(curve)
    n = len(v)
    a = v
    b = np.roll(v, -1, axis=0)
    e = b - a
    e_next = np.roll(e, -1, axis=0)
    cross_consec = e[:, 0] * e_next[:, 1] - e[:, 1] * e_next[:, 0]
    dot_consec = (e * e_next).sum(axis=1)
    if bool(((cross_consec == 0.0) & (dot_consec < 0.0)).any()):
        return False

    lo, hi = np.minimum(a, b), np.maximum(a, b)
    i, j = _box_pairs(lo, hi, lo, hi)
    # each unordered pair once, adjacent edges (which share a vertex) dropped;
    # the predicates below are symmetric in (i, j)
    keep = (i < j) & (j != i + 1) & ~((i == 0) & (j == n - 1))
    i, j = i[keep], j[keep]

    ax, ay = a[i, 0], a[i, 1]
    bx, by = b[i, 0], b[i, 1]
    cx, cy = a[j, 0], a[j, 1]
    dx, dy = b[j, 0], b[j, 1]
    ex, ey = e[i, 0], e[i, 1]
    fx, fy = e[j, 0], e[j, 1]
    # d1: side of edge j's line that edge i's start point falls on, etc.
    d1 = fx * (ay - cy) - fy * (ax - cx)
    d2 = fx * (by - cy) - fy * (bx - cx)
    d3 = ex * (cy - ay) - ey * (cx - ax)
    d4 = ex * (dy - ay) - ey * (dx - ax)
    proper = (((d1 > 0) & (d2 < 0)) | ((d1 < 0) & (d2 > 0))) & (
        ((d3 > 0) & (d4 < 0)) | ((d3 < 0) & (d4 > 0))
    )

    def _on_segment(px, py, sx0, sy0, sx1, sy1):
        return (
            (px >= np.minimum(sx0, sx1))
            & (px <= np.maximum(sx0, sx1))
            & (py >= np.minimum(sy0, sy1))
            & (py <= np.maximum(sy0, sy1))
        )

    touch = (
        ((d1 == 0) & _on_segment(ax, ay, cx, cy, dx, dy))
        | ((d2 == 0) & _on_segment(bx, by, cx, cy, dx, dy))
        | ((d3 == 0) & _on_segment(cx, cy, ax, ay, bx, by))
        | ((d4 == 0) & _on_segment(dx, dy, ax, ay, bx, by))
    )
    return not bool((proper | touch).any())


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_snapshot(path_or_file, curve, t: float, kappa=None) -> None:
    """Write a plain-text curve snapshot.

    Format: one header line ``t=<time> N=<count>`` followed by N lines
    ``x y`` or ``x y kappa``; the period-closing vertex is not repeated.
    Seventeen significant digits make the round trip bitwise exact.
    """
    v = _as_vertices(curve)
    if kappa is not None:
        kappa = np.asarray(kappa, dtype=float)
        if kappa.shape != (len(v),):
            raise ValueError("kappa must hold one value per vertex")
    lines = [f"t={_fmt(t)} N={len(v)}"]
    for j in range(len(v)):
        row = f"{_fmt(v[j, 0])} {_fmt(v[j, 1])}"
        if kappa is not None:
            row += f" {_fmt(kappa[j])}"
        lines.append(row)
    _write_text(path_or_file, "\n".join(lines) + "\n")


def _write_text(path_or_file, text: str) -> None:
    """Write text to an open text file, or to a new ASCII file at a path."""
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
    else:
        with open(path_or_file, "w", encoding="ascii") as fh:
            fh.write(text)


def read_snapshot(path_or_file):
    """Read a snapshot file; returns ``(t, curve, kappa_or_None)``.

    If the stored polygon is clockwise the curve is normalized on load and the
    curvature column is reordered consistently.
    """
    if hasattr(path_or_file, "read"):
        text = path_or_file.read()
    else:
        with open(path_or_file, "r", encoding="ascii") as f:
            text = f.read()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty snapshot file")
    header = lines[0].split()
    if len(header) != 2 or not header[0].startswith("t=") or not header[1].startswith("N="):
        raise ValueError(f"malformed snapshot header: {lines[0]!r}")
    t = float(header[0][2:])
    n = int(header[1][2:])
    if len(lines) - 1 != n:
        raise ValueError(f"snapshot declares N={n} but holds {len(lines) - 1} vertex lines")
    rows = [ln.split() for ln in lines[1:]]
    widths = {len(r) for r in rows}
    if widths not in ({2}, {3}):
        raise ValueError("vertex lines must uniformly hold 'x y' or 'x y kappa'")
    data = np.array([[float(c) for c in r] for r in rows])
    vertices = data[:, :2]
    kappa = data[:, 2].copy() if data.shape[1] == 3 else None
    if kappa is not None and _shoelace(vertices) < 0.0:
        kappa = np.roll(kappa[::-1], 1)
    return t, PolygonalCurve(vertices), kappa
