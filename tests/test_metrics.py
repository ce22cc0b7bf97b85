"""Tests for run diagnostics, convergence tables and region-based distances."""

import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curveflow.geometry import (
    PolygonalCurve,
    generate_ellipse,
    generate_mikula,
    generate_rectangle,
    signed_area,
)
from curveflow.metrics import (
    DIAGNOSTICS_HEADER,
    EOC_HEADER,
    ConvergenceRow,
    DiagnosticsRow,
    DiagnosticsSeries,
    _collect_params,
    convergence_rows,
    manifold_distance,
    polygon_intersection_area,
    write_diagnostics_csv,
    write_eoc_csv,
)

from oracles import mc_intersection_area


def unit_square(x0: float = 0.0, y0: float = 0.0) -> np.ndarray:
    return np.array(
        [[x0, y0], [x0 + 1.0, y0], [x0 + 1.0, y0 + 1.0], [x0, y0 + 1.0]]
    )


# ---------------------------------------------------------------------------
# intersection area


def test_identical_unit_squares_intersect_fully():
    assert polygon_intersection_area(unit_square(), unit_square()) == pytest.approx(
        1.0, abs=1e-14
    )


def test_half_offset_unit_squares():
    inter = polygon_intersection_area(unit_square(), unit_square(0.5, 0.0))
    assert inter == pytest.approx(0.5, abs=1e-14)


def test_quarter_offset_unit_squares():
    inter = polygon_intersection_area(unit_square(), unit_square(0.5, 0.5))
    assert inter == pytest.approx(0.25, abs=1e-14)


def test_disjoint_squares_intersect_in_nothing():
    assert polygon_intersection_area(unit_square(), unit_square(3.0, 0.0)) == 0.0


def test_self_intersection_equals_enclosed_area():
    curve = generate_mikula(48)
    assert polygon_intersection_area(curve, curve) == pytest.approx(
        signed_area(curve), abs=1e-12
    )


def test_translated_triangles_hand_value():
    t1 = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    t2 = t1 + np.array([1.0, 0.0])
    assert polygon_intersection_area(t1, t2) == pytest.approx(0.5, abs=1e-13)
    assert manifold_distance(t1, t2) == pytest.approx(3.0, abs=1e-13)


def test_contained_curve_intersects_in_its_own_area():
    inner = generate_ellipse(1.0, 0.5, 33)
    outer = generate_ellipse(2.0, 2.0, 64)
    inter = polygon_intersection_area(inner, outer)
    assert inter == pytest.approx(signed_area(inner), abs=1e-12)
    assert inter <= min(signed_area(inner), signed_area(outer))


def test_nested_rectangles_intersection_is_monotone():
    outer = generate_rectangle(4.0, 2.0, 24)
    small = generate_rectangle(0.8, 0.4, 12)
    big = generate_rectangle(2.0, 1.0, 12)
    inter_small = polygon_intersection_area(outer, small)
    inter_big = polygon_intersection_area(outer, big)
    assert inter_small == pytest.approx(0.32, abs=1e-13)
    assert inter_big == pytest.approx(2.0, abs=1e-13)
    assert inter_small <= inter_big <= signed_area(outer)


def test_u_shape_against_bar_sums_both_components():
    # The bar crosses both arms of the U, so the intersection has two
    # rectangular components of area 1 each.
    u_shape = np.array(
        [
            [0.0, 0.0],
            [3.0, 0.0],
            [3.0, 3.0],
            [2.0, 3.0],
            [2.0, 1.0],
            [1.0, 1.0],
            [1.0, 3.0],
            [0.0, 3.0],
        ]
    )
    bar = np.array([[-0.5, 1.5], [3.5, 1.5], [3.5, 2.5], [-0.5, 2.5]])
    assert polygon_intersection_area(u_shape, bar) == pytest.approx(2.0, abs=1e-12)
    assert manifold_distance(u_shape, bar) == pytest.approx(7.0, abs=1e-12)


def test_shared_edge_and_shared_vertex_do_not_error():
    assert polygon_intersection_area(unit_square(), unit_square(1.0, 0.0)) == pytest.approx(
        0.0, abs=1e-12
    )
    assert polygon_intersection_area(unit_square(), unit_square(1.0, 1.0)) == pytest.approx(
        0.0, abs=1e-12
    )
    assert manifold_distance(unit_square(), unit_square(1.0, 0.0)) == pytest.approx(
        2.0, abs=1e-12
    )


def test_vertex_touching_an_edge_from_outside():
    square = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
    spike = np.array([[1.0, 2.0], [2.0, 3.0], [0.0, 3.0]])
    assert polygon_intersection_area(square, spike) == pytest.approx(0.0, abs=1e-12)


def test_vertex_poking_through_an_edge():
    square = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
    wedge = np.array([[1.0, 1.5], [2.5, 3.0], [-0.5, 3.0]])
    assert polygon_intersection_area(square, wedge) == pytest.approx(0.25, abs=1e-12)


def test_partially_collinear_boundaries():
    a = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
    b = a + np.array([1.0, 0.0])
    assert polygon_intersection_area(a, b) == pytest.approx(2.0, abs=1e-12)
    assert manifold_distance(a, b) == pytest.approx(4.0, abs=1e-12)


def test_split_parameters_of_a_touch_and_an_overlap():
    # the cut parameters and overlap intervals of each edge, on both sides
    # of the pair and in either argument order: a triangle whose apex
    # touches the middle of the square's bottom edge (the end of two of its
    # edges), and a shelf whose top edge runs back along the right half of
    # that edge, covering [2/3, 1] of its own length
    def per_edge(P, Q):
        # the flat (edge, t) cuts and the overlap dicts as one list per edge
        cutsP, cutsQ, overlapsP, overlapsQ = _collect_params(P, np.roll(P, -1, axis=0), Q, np.roll(Q, -1, axis=0))
        cuts = [[t[edge == k].tolist() for k in range(len(v))] for v, (edge, t) in ((P, cutsP), (Q, cutsQ))]
        overlaps = [[spans.get(k, []) for k in range(len(v))] for v, spans in ((P, overlapsP), (Q, overlapsQ))]
        return (*cuts, *overlaps)

    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    apex = np.array([[0.5, 0.0], [0.25, -1.0], [0.75, -1.0]])
    touched = [[0.5, 0.5], [], [], []]
    assert per_edge(apex, square) == ([[], [], []], touched, [[], [], []], [[], [], [], []])
    assert per_edge(square, apex) == (touched, [[], [], []], [[], [], [], []], [[], [], []])
    shelf = np.array([[0.5, -1.0], [2.0, -1.0], [2.0, 0.0], [0.5, 0.0]])
    _, _, overlaps_square, overlaps_shelf = per_edge(square, shelf)
    assert overlaps_square == [[(0.5, 1.0, 2)], [], [], []]
    assert overlaps_shelf == [[], [], [(1.5 / 2.25, 1.0, 0)], []]


def test_concave_pair_agrees_with_monte_carlo():
    a = generate_mikula(48)
    b = PolygonalCurve(a.vertices + np.array([0.3, -0.2]))
    inter = polygon_intersection_area(a, b)
    estimate, sigma = mc_intersection_area(a.vertices, b.vertices, 400_000, seed=5150)
    assert abs(inter - estimate) <= 4.0 * sigma + 1e-12


def test_offset_ellipses_agree_with_monte_carlo():
    a = generate_ellipse(1.0, 0.7, 80)
    b = PolygonalCurve(a.vertices + np.array([0.6, 0.25]))
    inter = polygon_intersection_area(a, b)
    estimate, sigma = mc_intersection_area(a.vertices, b.vertices, 400_000, seed=5151)
    assert abs(inter - estimate) <= 4.0 * sigma + 1e-12


def test_intersection_rejects_bad_curves():
    crossed = np.array([[0.0, 0.0], [4.0, 0.0], [1.0, 2.0], [3.0, 2.0]])
    with pytest.raises(ValueError, match="self-intersecting"):
        polygon_intersection_area(crossed, unit_square())
    clockwise = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="positively oriented"):
        polygon_intersection_area(unit_square(), clockwise)


def test_repeated_vertex_is_named_as_a_zero_length_edge():
    repeated = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    for measure in (polygon_intersection_area, manifold_distance):
        with pytest.raises(ValueError, match="zero-length edge at index 1"):
            measure(repeated, unit_square(0.5))


# ---------------------------------------------------------------------------
# manifold distance


def test_non_finite_vertex_is_named_in_either_argument():
    # a NaN vertex once passed the orientation and simplicity checks and
    # gave a distance of 0; an inf one overflowed in the exact arithmetic
    e = generate_ellipse(2.0, 1.0, 50).vertices
    for value in (math.nan, math.inf, -math.inf):
        f = e.copy()
        f[3, 0] = value
        for measure in (polygon_intersection_area, manifold_distance):
            for args in ((e, f), (f, e)):
                with pytest.raises(ValueError, match="non-finite coordinates at vertex 3"):
                    measure(*args)


def test_distance_to_self_is_zero():
    curve = generate_mikula(64)
    assert manifold_distance(curve, curve) <= 1e-12


def test_half_offset_unit_squares_distance_is_one():
    assert manifold_distance(unit_square(), unit_square(0.5, 0.0)) == pytest.approx(
        1.0, abs=1e-14
    )


def test_disjoint_unit_squares_distance_is_two():
    assert manifold_distance(unit_square(), unit_square(5.0, 1.0)) == pytest.approx(
        2.0, abs=1e-14
    )


def test_nested_rectangles_distance_is_area_gap():
    outer = generate_rectangle(4.0, 2.0, 20)
    inner = generate_rectangle(1.0, 1.0, 8)
    assert manifold_distance(outer, inner) == pytest.approx(7.0, abs=1e-13)


def test_relabelled_start_vertex_is_the_same_region():
    curve = generate_mikula(32)
    rolled = np.roll(curve.vertices, 7, axis=0)
    assert manifold_distance(curve.vertices, rolled) <= 1e-12


def test_distance_is_bitwise_symmetric():
    a = generate_mikula(40)
    b = generate_ellipse(1.3, 0.8, 56)
    assert manifold_distance(a, b) == manifold_distance(b, a)


def test_distance_is_translation_invariant():
    a = generate_mikula(40)
    b = generate_ellipse(1.3, 0.8, 56)
    base = manifold_distance(a, b)
    shift = np.array([17.25, -4.5])
    shifted = manifold_distance(
        PolygonalCurve(a.vertices + shift), PolygonalCurve(b.vertices + shift)
    )
    assert shifted == pytest.approx(base, abs=1e-12)


def test_distance_never_negative_for_identical_inputs():
    square = unit_square(0.25, 0.25)
    assert manifold_distance(square, square.copy()) >= 0.0


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(10, 400), st.integers(0, 2**32 - 1))
def test_distance_of_identical_curves_is_exactly_zero(n, seed):
    # the shoelace areas and the intersection's Green sum round differently,
    # so identical inputs must not go through |A| + |B| - 2 |A n B|
    gen = np.random.default_rng(seed)
    theta = 2.0 * np.pi * (np.arange(n) + gen.uniform(0.0, 0.9, n)) / n
    r = gen.uniform(0.2, 2.0, n)
    v = np.column_stack((r * np.cos(theta), r * np.sin(theta)))
    assert manifold_distance(v, v.copy()) == 0.0


def star(n: int, harmonic: int, amplitude: float, phase: float, scale: float = 1.0) -> PolygonalCurve:
    theta = 2.0 * np.pi * np.arange(n) / n
    r = scale * (1.0 + amplitude * np.cos(harmonic * theta + phase))
    return PolygonalCurve(np.column_stack((r * np.cos(theta), r * np.sin(theta))))


@pytest.mark.parametrize("kind", ["crossing", "nested"])
def test_distance_memory_stays_linear_at_n5000(kind):
    # an all-pairs candidate search holds N x N arrays, about 1.1 GB here
    if kind == "crossing":
        a, b = star(5000, 12, 0.2, 0.0), star(5000, 12, 0.2, 0.9)
    else:
        a, b = star(5000, 5, 0.25, 0.3), star(5000, 5, 0.25, 0.3, scale=0.8)
    tracemalloc.start()
    try:
        d = manifold_distance(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
    if kind == "crossing":
        assert 0.0 < d < signed_area(a) + signed_area(b)
    else:
        assert d == pytest.approx((1.0 - 0.8**2) * signed_area(a), rel=1e-9)


def regular_polygon(n: int, radius: float, rotation: float) -> np.ndarray:
    theta = rotation + 2.0 * np.pi * np.arange(n) / n
    return np.column_stack((radius * np.cos(theta), radius * np.sin(theta)))


def pinned_pairs():
    phase = np.random.default_rng(2024).uniform(0.0, 2.0 * np.pi, 3)
    a, b, c = star(300, 12, 0.2, phase[0]), star(500, 12, 0.2, phase[1]), star(700, 12, 0.2, phase[2])
    big = 2.0 * unit_square()
    e = generate_ellipse(2.0, 1.0, 200).vertices
    m = generate_mikula(32).vertices
    # three crossings of one edge, 0.6e-14 apart: the middle cut is dropped
    # and the third kept, as it lies over 1e-14 from the first
    d = 0.6e-14
    zigzag = [(0.5, -1.0), (0.5, 0.5), (0.5 + d, 0.5), (0.5 + d, -1.0), (0.5 + 2 * d, -1.0), (0.5 + 2 * d, 0.5), (0.9, 0.5), (0.9, -2.0)]
    return {
        "stars-ab": (a, b),
        "stars-ba": (b, a),
        "stars-ac": (a, c),
        "stars-ca": (c, a),
        "nested": (star(400, 5, 0.25, 0.7), star(400, 5, 0.25, 0.7, scale=0.8)),
        "rotated-400-gons": (regular_polygon(400, 1.3, 0.2), regular_polygon(400, 1.3, 0.2 + np.pi / 400)),
        "rotated-7-gons": (regular_polygon(7, 1.0, 0.0), regular_polygon(7, 1.0, np.pi / 7)),
        "shared-edge": (unit_square(), unit_square(1.0, 0.0)),
        "touching-vertex": (big, np.array([[1.0, 2.0], [2.0, 3.0], [0.0, 3.0]])),
        "partial-collinear-overlap": (big, big + np.array([1.0, 0.0])),
        "two-splits-within-1e-14": (unit_square(), np.array([[0.5, -2e-15], [2.5, 2.0], [-1.5, 2.0]])),
        "three-splits-0.6e-14-apart": (unit_square(0.3, 0.7), PolygonalCurve(np.array(zigzag) + [0.3, 0.7])),
        "ellipse-and-1e-16-noise": (e, e + 1e-16 * np.random.default_rng(1).standard_normal(e.shape)),
        "relabelled-start-vertex": (m, np.roll(m, 7, axis=0)),
    }


# float.hex of each distance, taken from the scalar per-pair and per-edge
# loops that the array passes replaced.  The "splits" pairs take the
# sequential cut rule; the noisy ellipse and the relabelled curve the exact
# orientation fallback; the shared-edge, touching and overlap pairs the
# Python path of zero orientations
PINNED_DISTANCES = {
    "stars-ab": "0x1.95207575f4a50p+0",
    "stars-ba": "0x1.95207575f4a50p+0",
    "stars-ac": "0x1.74d98a45880a0p+0",
    "stars-ca": "0x1.74d98a45880a0p+0",
    "nested": "0x1.2a896b8c4bfb4p+0",
    "rotated-400-gons": "0x1.5766eb7440000p-13",
    "rotated-7-gons": "0x1.23f3193e4e260p-2",
    "shared-edge": "0x1.0000000000000p+1",
    "touching-vertex": "0x1.4000000000000p+2",
    "partial-collinear-overlap": "0x1.0000000000000p+2",
    "two-splits-within-1e-14": "0x1.c000000000000p+1",
    "three-splits-0.6e-14-apart": "0x1.6666666666648p+0",
    "ellipse-and-1e-16-noise": "0x1.b033d9e028d80p-3",
    "relabelled-start-vertex": "0x1.0000000000000p-49",
}


@pytest.mark.parametrize("name", sorted(PINNED_DISTANCES))
def test_distance_is_bitwise_pinned(name):
    a, b = pinned_pairs()[name]
    assert manifold_distance(a, b).hex() == PINNED_DISTANCES[name]


# ---------------------------------------------------------------------------
# convergence orders


def test_eoc_first_row_has_no_order():
    rows = convergence_rows([(0.5, 0.1, 0.5)])
    assert len(rows) == 1
    assert rows[0].order is None
    assert rows[0].h == 0.1


def test_eoc_exact_second_order_halving():
    rows = convergence_rows([(0.5, 0.1, 0.5), (0.25, 0.05, 0.125)])
    assert rows[0].order is None
    assert rows[1].order == pytest.approx(2.0, abs=1e-15)


def test_eoc_published_second_order_pair():
    rows = convergence_rows([(1.0 / 200.0, 1.0 / 40.0, 2.28e-2), (1.0 / 400.0, 1.0 / 80.0, 5.75e-3)])
    assert rows[1].order == pytest.approx(1.9874, abs=5e-4)


def test_eoc_published_third_order_pair():
    rows = convergence_rows([(1.0 / 500.0, 1.0 / 125.0, 2.21e-3), (1.0 / 720.0, 1.0 / 216.0, 6.94e-4)])
    assert rows[1].order == pytest.approx(3.1765, abs=1e-3)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_eoc_recovers_synthetic_rates(p):
    taus = [0.2, 0.1, 0.05, 0.025]
    rows = convergence_rows([(tau, tau, 3.0 * tau**p) for tau in taus])
    for row in rows[1:]:
        assert row.order == pytest.approx(float(p), abs=1e-10)


def test_eoc_keeps_mesh_column_when_given():
    rows = convergence_rows([(0.5, 0.1, 0.5), (0.25, 0.05, 0.125)])
    assert rows[0].h == 0.1
    assert rows[1].h == 0.05
    assert rows[1].order == pytest.approx(2.0, abs=1e-15)


# ---------------------------------------------------------------------------
# CSV writers


def test_eoc_csv_golden():
    # no order for the first row, nor where the error is not positive
    rows = convergence_rows([(0.5, 0.25, 0.5), (0.25, 0.125, 0.125), (0.125, 0.0625, 0.0)])
    buf = io.StringIO()
    write_eoc_csv(rows, buf)
    assert buf.getvalue() == "tau,h,error,order\n0.5,0.25,0.5,\n0.25,0.125,0.125,2.0\n0.125,0.0625,0.0,\n"


def test_eoc_csv_with_mesh_column_golden():
    rows = convergence_rows([(0.5, 0.1, 0.5), (0.25, 0.05, 0.125)])
    buf = io.StringIO()
    write_eoc_csv(rows, buf)
    assert buf.getvalue() == "tau,h,error,order\n0.5,0.1,0.5,\n0.25,0.05,0.125,2.0\n"


def test_eoc_header_constant():
    assert EOC_HEADER == "tau,h,error,order"


def test_diagnostics_csv_golden():
    series = DiagnosticsSeries(
        rows=[
            DiagnosticsRow(
                t=0.0,
                L_norm=1.0,
                dA=0.0,
                lam=0.0,
                eta=0.0,
                psi=1.5,
                newton_iters=0,
                deltaL=0.0,
                mode="SP",
            ),
            DiagnosticsRow(
                t=0.25,
                L_norm=0.96875,
                dA=-0.0078125,
                lam=2.5,
                eta=-0.5,
                psi=1.25,
                newton_iters=3,
                deltaL=-0.125,
                mode="AP",
            ),
        ]
    )
    buf = io.StringIO()
    write_diagnostics_csv(series, buf)
    assert buf.getvalue() == (
        "t,L_norm,dA,lambda,eta,psi,newton_iters,deltaL,mode\n"
        "0.0,1.0,0.0,0.0,0.0,1.5,0,0.0,SP\n"
        "0.25,0.96875,-0.0078125,2.5,-0.5,1.25,3,-0.125,AP\n"
    )


def test_diagnostics_header_constant():
    assert DIAGNOSTICS_HEADER == "t,L_norm,dA,lambda,eta,psi,newton_iters,deltaL,mode"


def test_csv_writers_accept_paths(tmp_path):
    rows = convergence_rows([(0.5, 0.1, 0.5), (0.25, 0.05, 0.125)])
    target = tmp_path / "orders.csv"
    write_eoc_csv(rows, str(target))
    assert target.read_text(encoding="ascii").startswith("tau,h,error,order\n")

    series = DiagnosticsSeries(rows=[])
    target2 = tmp_path / "diag.csv"
    write_diagnostics_csv(series, str(target2))
    assert target2.read_text(encoding="ascii") == DIAGNOSTICS_HEADER + "\n"


def test_convergence_row_is_frozen():
    row = ConvergenceRow(tau=0.5, h=0.1, error=0.5, order=None)
    with pytest.raises(AttributeError):
        row.error = 1.0
