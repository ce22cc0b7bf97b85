"""Polygon representation, generators, predicates and snapshot files."""

import io
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curveflow.geometry import (
    PolygonalCurve,
    _box_pairs,
    edge_lengths,
    edge_vectors,
    generate_ellipse,
    generate_mikula,
    generate_rectangle,
    is_simple,
    mesh_ratio,
    perimeter,
    read_snapshot,
    signed_area,
    write_snapshot,
)

from curveflow.femcore import normal_weights
from curveflow.metrics import _classify_points, manifold_distance

import oracles

rng = np.random.default_rng(20260819)


def wiggly_test_curve(n: int = 17) -> PolygonalCurve:
    # star-convex, so simple by construction, but with uneven edges
    theta = 2.0 * np.pi * np.arange(n) / n
    r = 1.0 + 0.35 * np.sin(3 * theta) + 0.1 * np.cos(7 * theta)
    return PolygonalCurve(np.column_stack((r * np.cos(theta), r * np.sin(theta))))


# ---------------------------------------------------------------------------
# generators


def test_ellipse_four_vertices_hits_axes():
    curve = generate_ellipse(2.0, 1.0, 4)
    expected = np.array([[2.0, 0.0], [0.0, 1.0], [-2.0, 0.0], [0.0, -1.0]])
    assert np.allclose(curve.vertices, expected, atol=1e-15)
    assert np.allclose(edge_lengths(curve), math.sqrt(5.0), rtol=1e-14)


def test_unit_circle_hexagon_has_unit_edges():
    curve = generate_ellipse(1.0, 1.0, 6)
    assert np.allclose(edge_lengths(curve), 1.0, rtol=1e-12)
    assert signed_area(curve) == pytest.approx(6 * math.sqrt(3.0) / 4.0, rel=1e-12)


def test_ellipse_matches_loop_functionals():
    curve = generate_ellipse(2.0, 1.0, 31)
    assert perimeter(curve) == pytest.approx(oracles.loop_perimeter(curve.vertices), rel=1e-13)
    assert signed_area(curve) == pytest.approx(oracles.loop_shoelace(curve.vertices), rel=1e-13)


def test_rectangle_four_by_one_ten_vertices():
    curve = generate_rectangle(4.0, 1.0, 10)
    assert len(curve) == 10
    assert perimeter(curve) == pytest.approx(10.0, rel=1e-14)
    assert signed_area(curve) == pytest.approx(4.0, rel=1e-14)
    assert mesh_ratio(curve) == pytest.approx(1.0, rel=1e-14)


def test_rectangle_corners_are_vertices_exactly():
    curve = generate_rectangle(4.0, 1.0, 26)
    for corner in [(-2.0, -0.5), (2.0, -0.5), (2.0, 0.5), (-2.0, 0.5)]:
        assert any(np.array_equal(v, corner) for v in curve.vertices)


def test_unit_square_eight_vertices_equidistributed():
    curve = generate_rectangle(1.0, 1.0, 8)
    assert np.allclose(edge_lengths(curve), 0.5, rtol=1e-15)
    assert mesh_ratio(curve) == 1.0


def test_rectangle_160_vertices_equidistributed():
    curve = generate_rectangle(4.0, 1.0, 160)
    assert mesh_ratio(curve) == pytest.approx(1.0, abs=1e-12)


def test_rectangle_uneven_split_mesh_ratio():
    # 9 vertices on a unit square: one side gets 3 segments, the rest 2
    curve = generate_rectangle(1.0, 1.0, 9)
    lengths = edge_lengths(curve)
    assert len(curve) == 9
    assert mesh_ratio(curve) == pytest.approx(1.5, rel=1e-12)
    assert lengths.sum() == pytest.approx(4.0, rel=1e-14)


def test_oscillatory_curve_hand_values():
    # parametrized points at rho = 0 and rho = 1/4, evaluated by hand
    curve = generate_mikula(8)
    v = curve.vertices
    assert v[0] == pytest.approx((1.0, math.sin(1.0)), abs=1e-15)
    assert v[2, 0] == pytest.approx(0.0, abs=1e-15)
    # y(1/4) = sin(0) + 1 * (0.7 + 1 * sin(3*pi/2)^2) = 1.7
    assert v[2, 1] == pytest.approx(1.7, abs=1e-14)


def test_oscillatory_curve_is_simple_and_ccw():
    curve = generate_mikula(200)
    assert signed_area(curve) > 0
    assert is_simple(curve)
    # natural orientation is already counterclockwise, so vertex order is kept
    assert curve.vertices[0] == pytest.approx((1.0, math.sin(1.0)), abs=1e-15)


def test_generator_validation():
    with pytest.raises(ValueError):
        generate_ellipse(0.0, 1.0, 8)
    with pytest.raises(ValueError):
        generate_ellipse(2.0, 1.0, 2)
    with pytest.raises(ValueError):
        generate_mikula(2)
    with pytest.raises(ValueError):
        generate_rectangle(4.0, 1.0, 7)
    with pytest.raises(ValueError):
        generate_rectangle(-1.0, 1.0, 12)


# ---------------------------------------------------------------------------
# curve construction and basic functionals


def test_clockwise_input_is_reversed_keeping_vertex0():
    square_cw = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
    curve = PolygonalCurve(square_cw)
    assert signed_area(curve) > 0
    expected = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert np.array_equal(curve.vertices, expected)


def test_vertices_are_read_only():
    curve = generate_ellipse(1.0, 1.0, 5)
    with pytest.raises(ValueError):
        curve.vertices[0, 0] = 99.0


def test_constructor_validation():
    with pytest.raises(ValueError):
        PolygonalCurve([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        PolygonalCurve(np.zeros((4, 3)))
    with pytest.raises(ValueError):
        PolygonalCurve([[0.0, 0.0], [1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ValueError, match="zero-length edge at index 0"):
        PolygonalCurve([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        # collinear: zero enclosed area
        PolygonalCurve([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])


def test_edge_quantities_against_loops():
    curve = wiggly_test_curve()
    v = curve.vertices
    n = len(v)
    vectors, lengths = edge_vectors(curve), edge_lengths(curve)
    for j in range(n):
        vec = v[(j + 1) % n] - v[j]
        assert np.array_equal(vectors[j], vec)
        assert lengths[j] == pytest.approx(math.hypot(*vec), rel=1e-15)
    assert np.array_equal(edge_vectors(curve), np.roll(v, -1, axis=0) - v)


def test_outward_normals_point_outward_on_square():
    curve = generate_rectangle(2.0, 2.0, 8)
    omega = normal_weights(curve)
    # moving a vertex along its lumped normal weight must increase its radius
    assert ((curve.vertices * omega).sum(axis=1) > 0).all()


def test_length_weighted_normals_telescope_to_zero():
    # sum_k omega_k = sum_j |h_j| n_j, the closed polygon's telescoping sum
    curve = wiggly_test_curve()
    assert np.abs(normal_weights(curve).sum(axis=0)).max() < 1e-12


def test_raw_array_input_accepted():
    v = generate_ellipse(1.0, 2.0, 9).vertices
    assert perimeter(v) == perimeter(PolygonalCurve(v))
    assert signed_area(v) == pytest.approx(oracles.loop_shoelace(v), rel=1e-14)


# ---------------------------------------------------------------------------
# simplicity predicate


def test_is_simple_accepts_square_and_ellipse():
    assert is_simple(generate_rectangle(1.0, 1.0, 12))
    assert is_simple(generate_ellipse(2.0, 1.0, 40))


def test_is_simple_rejects_bowtie():
    bowtie = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    assert not is_simple(bowtie)


def test_is_simple_rejects_vertex_on_far_edge():
    # fifth vertex sits exactly on the bottom edge
    poly = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    assert not is_simple(poly)


def test_is_simple_rejects_fold_back():
    # consecutive edges anti-parallel: the boundary retraces itself
    poly = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    assert not is_simple(poly)


def test_is_simple_accepts_vertex_rounded_off_a_far_edge():
    # vertex 3 is v0 + t (v1 - v0) rounded, strictly left of edge 0-1; float
    # orientations called it a touch, and the distance refused the curve
    v = np.array(
        [
            [0.4810504304369479, 0.49552305507899924],
            [-0.25608449114897586, 1.338675999647002],
            [-0.9877560498683843, 0.3966265746445991],
            [-0.0031908666526250795, 1.049410089279034],
            [-0.20906583398318973, -1.3831122164469738],
            [0.011229450748757062, -0.58590483412755],
        ]
    )
    assert is_simple(v) is True
    assert manifold_distance(v, v) == 0.0


# integer-lattice polygons (touching vertices, collinear overlaps, fold-backs,
# repeated vertices), random star polygons, stars with one vertex pulled
# across the curve, and stars with one vertex moved onto the rounded point of
# an edge it does not end, which float orientations misjudge
lattice_polygons = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=3, max_size=9).map(
    lambda pts: np.array(pts, dtype=float)
)


@st.composite
def star_polygons(draw, pulled=False):
    n = draw(st.integers(3, 40))
    radii = np.array(draw(st.lists(st.floats(0.2, 2.0), min_size=n, max_size=n)))
    jitter = np.array(draw(st.lists(st.floats(0.0, 0.9), min_size=n, max_size=n)))
    theta = 2.0 * np.pi * (np.arange(n) + jitter) / n
    v = np.column_stack((radii * np.cos(theta), radii * np.sin(theta)))
    if pulled:
        k = draw(st.integers(0, n - 1))
        v[k] *= -draw(st.floats(0.1, 3.0))
    return v


@st.composite
def stars_with_a_vertex_on_an_edge(draw):
    v = draw(star_polygons())
    n = len(v)
    m = draw(st.integers(0, n - 1))
    k = (m + 1 + draw(st.integers(0, n - 3))) % n
    v[m] = v[k] + draw(st.floats(0.1, 0.9)) * (v[(k + 1) % n] - v[k])
    return v


any_polygon = st.one_of(
    lattice_polygons, star_polygons(), star_polygons(pulled=True), stars_with_a_vertex_on_an_edge()
)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(any_polygon)
def test_is_simple_matches_all_pairs_oracle(v):
    assert is_simple(v) == oracles.all_pairs_is_simple(v)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(any_polygon, st.lists(st.tuples(st.floats(-2.5, 4.5), st.floats(-2.5, 4.5)), max_size=20))
def test_point_classification_matches_per_point_oracle(W, extra):
    W1 = np.roll(W, -1, axis=0)
    # vertices, edge midpoints and the half-integer lattice hit the boundary
    grid = np.mgrid[-1:5.5:0.5, -1:5.5:0.5].reshape(2, -1).T
    pts = np.vstack([W, 0.5 * (W + W1), grid, np.array(extra, dtype=float).reshape(-1, 2)])
    inside, on_boundary = _classify_points(pts[:, 0], pts[:, 1], W, W1)
    got = [None if on else bool(ins) for ins, on in zip(inside, on_boundary)]
    assert got == [oracles.strict_inside(x, y, W, W1) for x, y in pts]


@st.composite
def grid_boxes(draw, d):
    # corners on a 5-point grid: zero-width boxes, equal starts and shared
    # extents are common, as on the sides of a rectangle
    n = draw(st.integers(0, 12))
    corners = draw(st.lists(st.integers(0, 4), min_size=2 * n * d, max_size=2 * n * d))
    u = np.array(corners, dtype=float).reshape(2, n, d)
    return u.min(axis=0), u.max(axis=0)


def all_pairs_box_pairs(lo_a, hi_a, lo_b, hi_b, first_axis):
    # every (i, j) whose extents on axis 0 pass first_axis(lo_a, hi_a, lo_b,
    # hi_b) and whose boxes overlap on every later axis, by a loop
    return Counter(
        (i, j)
        for i in range(len(lo_a))
        for j in range(len(lo_b))
        if first_axis(lo_a[i, 0], hi_a[i, 0], lo_b[j, 0], hi_b[j, 0])
        and all(lo_a[i, k] <= hi_b[j, k] and lo_b[j, k] <= hi_a[i, k] for k in range(1, lo_a.shape[1]))
    )


STARTS_INSIDE = {
    "left": lambda lo_a, hi_a, lo_b, hi_b: lo_a <= lo_b <= hi_a,
    "right": lambda lo_a, hi_a, lo_b, hi_b: lo_a < lo_b <= hi_a,
}


def overlap(lo_a, hi_a, lo_b, hi_b):
    return lo_a <= hi_b and lo_b <= hi_a


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data(), st.sampled_from((1, 2)), st.sampled_from(("left", "right")), st.booleans())
def test_box_pairs_match_all_pairs_loop(data, d, side, against_itself):
    lo_a, hi_a = data.draw(grid_boxes(d))
    lo_b, hi_b = (lo_a, hi_a) if against_itself else data.draw(grid_boxes(d))
    i, j = _box_pairs(lo_a, hi_a, lo_b, hi_b, side)
    assert Counter(zip(i.tolist(), j.tolist())) == all_pairs_box_pairs(lo_a, hi_a, lo_b, hi_b, STARTS_INSIDE[side])
    # with a pass of b against a on the other side, every overlapping pair
    # is listed exactly once
    j2, i2 = _box_pairs(lo_b, hi_b, lo_a, hi_a, "right" if side == "left" else "left")
    both = Counter(zip(i.tolist() + i2.tolist(), j.tolist() + j2.tolist()))
    assert both == all_pairs_box_pairs(lo_a, hi_a, lo_b, hi_b, overlap)


# ---------------------------------------------------------------------------
# snapshot files


def test_snapshot_round_trip_is_bitwise():
    curve = generate_mikula(23)
    kappa = rng.standard_normal(23)
    buf = io.StringIO()
    write_snapshot(buf, curve, t=1.0 / 3.0, kappa=kappa)
    t, back, kappa_back = read_snapshot(io.StringIO(buf.getvalue()))
    assert t == 1.0 / 3.0
    assert np.array_equal(back.vertices, curve.vertices)
    assert np.array_equal(kappa_back, kappa)


def test_snapshot_file_round_trip(tmp_path):
    path = tmp_path / "snap.txt"
    curve = generate_ellipse(2.0, 1.0, 11)
    write_snapshot(path, curve, t=0.25)
    t, back, kappa = read_snapshot(path)
    assert t == 0.25
    assert kappa is None
    assert np.array_equal(back.vertices, curve.vertices)


def test_snapshot_header_format():
    buf = io.StringIO()
    write_snapshot(buf, generate_ellipse(1.0, 1.0, 4), t=0.125)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t=0.125 N=4"
    assert len(lines) == 5


def test_snapshot_clockwise_file_normalized_with_kappa():
    square_cw = [[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]]
    kappa = [10.0, 11.0, 12.0, 13.0]
    text = "t=0 N=4\n" + "\n".join(f"{x} {y} {k}" for (x, y), k in zip(square_cw, kappa)) + "\n"
    t, curve, kappa_back = read_snapshot(io.StringIO(text))
    assert signed_area(curve) > 0
    assert np.array_equal(curve.vertices, [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    # curvature follows the same reindexing as the vertices
    assert np.array_equal(kappa_back, [10.0, 13.0, 12.0, 11.0])


def test_snapshot_parse_is_bitwise_float_of_each_token():
    # 17 significant digits of negatives, -0.0, subnormals and exponents
    # near both ends of the range, in the vertex and the curvature columns
    gen = np.random.default_rng(7)
    v = generate_ellipse(2.0, 1.0, 12).vertices.copy()
    v[0, 1], v[3, 0], v[6, 1] = 5e-324, -0.0, -2.2250738585072014e-308
    extremes = [-0.0, 5e-324, -2.2250738585072009e-308, 1e-300, -3e300, -1.7976931348623157e308]
    kappa = np.concatenate((extremes, gen.standard_normal(6) * 10.0 ** gen.integers(-300, 300, 6)))
    text = "t=0.1 N=12\n" + "".join(f"{x:.17g} {y:.17g} {k:.17g}\n" for (x, y), k in zip(v, kappa))
    expect = np.array([[float(tok) for tok in line.split()] for line in text.splitlines()[1:]])
    _, curve, kappa_back = read_snapshot(io.StringIO(text))
    assert curve.vertices.tobytes() == np.ascontiguousarray(expect[:, :2]).tobytes()
    assert kappa_back.tobytes() == expect[:, 2].tobytes() == kappa.tobytes()


def test_snapshot_malformed_inputs():
    with pytest.raises(ValueError, match="^empty snapshot file$"):
        read_snapshot(io.StringIO(""))
    with pytest.raises(ValueError, match="^malformed snapshot header: 'time=0 N=3'$"):
        read_snapshot(io.StringIO("time=0 N=3\n0 0\n1 0\n0 1\n"))
    with pytest.raises(ValueError, match="^snapshot declares N=4 but holds 3 vertex lines$"):
        read_snapshot(io.StringIO("t=0 N=4\n0 0\n1 0\n0 1\n"))
    with pytest.raises(ValueError, match="^vertex lines must uniformly hold 'x y' or 'x y kappa'$"):
        read_snapshot(io.StringIO("t=0 N=3\n0 0\n1 0 5.0\n0 1\n"))
    with pytest.raises(ValueError, match="^could not convert string to float: '1,0'$"):
        read_snapshot(io.StringIO("t=0 N=3\n0 0\n1,0 0\n0 1\n"))
    with pytest.raises(ValueError):
        write_snapshot(io.StringIO(), generate_ellipse(1.0, 1.0, 5), t=0.0, kappa=np.zeros(4))
