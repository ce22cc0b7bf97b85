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

from fractions import Fraction

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
        _require_finite(arr)
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


def _forward_difference(a: np.ndarray) -> np.ndarray:
    """a_{k+1} - a_k along the first axis, periodic."""
    d = np.empty(a.shape)
    np.subtract(a[1:], a[:-1], out=d[:-1])
    np.subtract(a[:1], a[-1:], out=d[-1:])
    return d


def edge_lengths(curve) -> np.ndarray:
    """Edge lengths |h_j| as an (N,) array."""
    h = edge_vectors(curve)
    return np.hypot(h[:, 0], h[:, 1])


def _require_finite(vertices: np.ndarray) -> None:
    """ValueError naming the first vertex with a non-finite coordinate."""
    finite = np.isfinite(vertices).all(axis=1)
    if not finite.all():
        raise ValueError(f"non-finite coordinates at vertex {int(np.flatnonzero(~finite)[0])}")


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


def _box_pairs(lo_a: np.ndarray, hi_a: np.ndarray, lo_b: np.ndarray, hi_b: np.ndarray, side: str):
    """Index arrays (i, j) of every pair of closed boxes [lo_a[i], hi_a[i]]
    and [lo_b[j], hi_b[j]] ((n, d) and (m, d) corner arrays) where b starts
    inside a on the first axis ([lo, hi], or (lo, hi] with side "right")
    and the two overlap on every later axis, each pair once, in no set
    order.  Of two overlapping boxes the later-starting one starts inside
    the other, so a "left" pass of a against b and a "right" pass of b
    against a list every overlapping pair once.  One sort-and-sweep of b's
    starts: O((n + m) log m + K) time and memory for K first-axis pairs."""
    order = np.argsort(lo_b[:, 0])
    starts = lo_b[:, 0][order]
    first = np.searchsorted(starts, lo_a[:, 0], side)
    count = np.searchsorted(starts, hi_a[:, 0], "right") - first
    # box i of a takes b's sorted starts first[i], ..., first[i] + count[i] - 1
    i = np.repeat(np.arange(len(lo_a)), count)
    j = order[np.arange(int(count.sum())) - np.repeat(np.cumsum(count) - count - first, count)]
    for k in range(1, lo_a.shape[1]):
        keep = (lo_a[:, k][i] <= hi_b[:, k][j]) & (lo_b[:, k][j] <= hi_a[:, k][i])
        i, j = i[keep], j[keep]
    return i, j


_FILTER = 3.33e-16  # relative error bound of the two-product orientation test


def _orient_all(ax, ay, bx, by, cx, cy) -> np.ndarray:
    """Signs of cross(b - a, c - a) over arrays: +1 left turn, -1 right
    turn, 0 collinear.  The float filter decides every entry whose
    determinant clears its error bound; the exact rational test runs only on
    the entries the filter leaves open (Shewchuk, 1997)."""
    detl = (bx - ax) * (cy - ay)
    detr = (by - ay) * (cx - ax)
    det = detl - detr
    err = _FILTER * (np.abs(detl) + np.abs(detr))
    o = (det > err).astype(int) - (det < -err)
    for k in np.flatnonzero((o == 0) & (err != 0.0)):
        x0, y0, x1, y1, x2, y2 = (Fraction(u[k]) for u in (ax, ay, bx, by, cx, cy))
        exact = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
        o[k] = (exact > 0) - (exact < 0)
    return o


def _pair_orientations(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray):
    """`_orient_all` signs of K segment pairs ab, cd ((K, 2) endpoint arrays):
    the sides of line cd that a and b fall on, then of line ab for c and d."""
    (ax, ay), (bx, by), (cx, cy), (dx, dy) = a.T, b.T, c.T, d.T
    return (_orient_all(cx, cy, dx, dy, ax, ay), _orient_all(cx, cy, dx, dy, bx, by),
            _orient_all(ax, ay, bx, by, cx, cy), _orient_all(ax, ay, bx, by, dx, dy))


def is_simple(curve) -> bool:
    """True if no two non-adjacent edges intersect and no vertex folds back
    onto the previous edge.  Every orientation is exact: the float filter
    with a rational fallback that the distance path uses.  Two edges that
    share a point have overlapping closed bounding boxes, so one `_box_pairs`
    pass of the edge boxes against themselves lists each candidate pair once
    (pairs with equal x-starts twice), and `_pair_orientations` runs on the
    non-adjacent ones (Shamos & Hoey, FOCS 1976).  O(N log N + K) time and
    O(N + K) memory, where K, the number of edges whose x-start lies in
    another edge's x-extent, is O(N) for smooth curves."""
    a = _as_vertices(curve)
    n = len(a)
    b = np.roll(a, -1, axis=0)
    c = np.roll(a, -2, axis=0)
    opposed = ((b - a) * (c - b)).sum(axis=1) < 0.0
    if bool((opposed & (_orient_all(*a.T, *b.T, *c.T) == 0)).any()):
        return False

    lo, hi = np.minimum(a, b), np.maximum(a, b)
    i, j = _box_pairs(lo, hi, lo, hi, "left")
    # drop i == j and the adjacent pairs, which share a vertex
    gap = (j - i) % n
    keep = (gap > 1) & (gap < n - 1)
    i, j = i[keep], j[keep]

    ai, bi, aj, bj = a[i], b[i], a[j], b[j]
    o1, o2, o3, o4 = _pair_orientations(ai, bi, aj, bj)
    proper = (o1 * o2 < 0) & (o3 * o4 < 0)

    def within(p, k):
        # inside edge k's closed box, which for a point on its line is on it
        return ((lo[k] <= p) & (p <= hi[k])).all(axis=1)

    touch = ((o1 == 0) & within(ai, j)) | ((o2 == 0) & within(bi, j))
    touch |= ((o3 == 0) & within(aj, i)) | ((o4 == 0) & within(bj, i))
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
    data = np.array(rows, dtype=float)
    vertices = data[:, :2]
    kappa = data[:, 2].copy() if data.shape[1] == 3 else None
    if kappa is not None and _shoelace(vertices) < 0.0:
        kappa = np.roll(kappa[::-1], 1)
    return t, PolygonalCurve(vertices), kappa
