"""Acceptance battery for the package's headline claims.

One test per claim; each prints a single ``[PASS]``/``[FAIL]`` line with the
measured numbers before asserting, so the scoreboard is visible with::

    pytest tests/test_acceptance.py -v -s

Convergence ladders and benchmark evolutions dominate the runtime (several
minutes on one core).  Every claim is checked with a measure that can see it:
the variant's order loss is measured as its same-level distance to sp-bdf2
(test 5), and the benchmarks run long enough for the slowest circle mode to
decay below the 5% curvature-spread bound (test 10).
"""

from fractions import Fraction

import numpy as np
import pytest

from curveflow.femcore import (
    Anchor,
    NewtonIterate,
    ReferenceGeometry,
    SchemeContext,
    assemble_newton_blocks,
    lumped_masses,
)
from curveflow.geometry import PolygonalCurve, perimeter, signed_area
from curveflow.linalg import assemble_system, solve_bordered
from curveflow.metrics import eoc, manifold_distance, polygon_intersection_area
from curveflow.schemes import SchemeConfig, bdf_coefficients, run

from oracles import dense_from_blocks, mc_intersection_area, random_blocks

# refinement ladders: (tau, N) levels along tau = 0.05 h and tau = 0.05 h^(2/3)
LADDER_SECOND = [(1 / 800, 40), (1 / 1600, 80), (1 / 3200, 160), (1 / 6400, 320)]
LADDER_THIRD = [(1 / 500, 125), (1 / 720, 216), (1 / 980, 343), (1 / 1280, 512)]
LADDER_EULER = [(1 / 256, 16), (1 / 1024, 32), (1 / 4096, 64)]  # tau = h^2


def report(ok: bool, label: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}", flush=True)


def run_ladder(scheme: str, levels, T: float = 0.25):
    """Run one refinement ladder; errors are manifold distances between
    consecutive terminal curves, orders from the library's EOC rule."""
    results = []
    for tau, n in levels:
        config = SchemeConfig(scheme=scheme, N=n, tau=tau, T=T, gamma=0.0)
        result = run(config)
        assert result.ok, f"{scheme} tau={tau} N={n}: {result.failure}"
        results.append(result)
    curves = [r.state.history[-1].curve for r in results]
    errors = [manifold_distance(a, b) for a, b in zip(curves, curves[1:])]
    rows = eoc([(levels[j][0], errors[j]) for j in range(len(errors))])
    orders = [row.order for row in rows[1:]]
    return results, errors, orders


def fmt(values) -> str:
    return "[" + ", ".join(f"{v:.4g}" for v in values) + "]"


# ---------------------------------------------------------------------------
# shared expensive runs


@pytest.fixture(scope="module")
def ellipse_runs():
    """Pure runs (mode switching off) of all five schemes on the stock
    ellipse: N=160, tau=1/640, T=0.8."""
    out = {}
    for scheme in ("sp-euler", "sp-cn", "sp-bdf2", "ap-bdf2", "pd-bdf2"):
        config = SchemeConfig(scheme=scheme, N=160, tau=1 / 640, T=0.8, gamma=0.0)
        result = run(config)
        assert result.ok, f"{scheme}: {result.failure}"
        out[scheme] = (config, result)
    return out


@pytest.fixture(scope="module")
def spbdf2_ladder():
    return run_ladder("sp-bdf2", LADDER_SECOND)


@pytest.fixture(scope="module")
def variant_ladder():
    return run_ladder("sp-bdf2-variant", LADDER_SECOND)


# ---------------------------------------------------------------------------
# the battery


def test_01_area_preservation(ellipse_runs):
    schemes = ("sp-euler", "sp-cn", "sp-bdf2", "ap-bdf2")
    worst = {
        scheme: max(abs(row.dA) for row in ellipse_runs[scheme][1].series.rows)
        for scheme in schemes
    }
    ok = all(v <= 1e-9 for v in worst.values())
    report(
        ok,
        "1 area preservation",
        "max |A-A0|/A0 = " + ", ".join(f"{s} {v:.2e}" for s, v in worst.items()),
    )
    for scheme, value in worst.items():
        assert value <= 1e-9, f"{scheme}: relative area drift {value:.3e}"


def test_02_perimeter_monotonicity(ellipse_runs):
    worst_rise = {}
    strict_early = {}
    for scheme, (config, result) in ellipse_runs.items():
        L0 = perimeter(config.make_initial_curve())
        rows = result.series.rows
        rises = [(b.L_norm - a.L_norm) * L0 for a, b in zip(rows, rows[1:])]
        worst_rise[scheme] = max(rises)
        strict_early[scheme] = all(
            b.L_norm < a.L_norm for a, b in zip(rows, rows[1:]) if b.t <= 0.4
        )
    ok = all(v <= 1e-8 for v in worst_rise.values()) and all(strict_early.values())
    report(
        ok,
        "2 perimeter monotonicity",
        "max step increase = "
        + ", ".join(f"{s} {v:.2e}" for s, v in worst_rise.items())
        + f"; strictly decreasing on [0,0.4]: {all(strict_early.values())}",
    )
    for scheme, value in worst_rise.items():
        assert value <= 1e-8, f"{scheme}: perimeter rose by {value:.3e} in one step"
    for scheme, strict in strict_early.items():
        assert strict, f"{scheme}: perimeter not strictly decreasing before t=0.4"


def test_03_second_order_convergence_pd_bdf2():
    _, errors, orders = run_ladder("pd-bdf2", LADDER_SECOND)
    anchor = 2.28e-2
    ratio = errors[0] / anchor
    ok = all(1.85 <= o <= 2.15 for o in orders) and 0.5 <= ratio <= 2.0
    report(
        ok,
        "3 pd-bdf2 second order",
        f"errors {fmt(errors)}, orders {fmt(orders)}, "
        f"first-pair error/{anchor:.2e} = {ratio:.2f}",
    )
    for order in orders:
        assert 1.85 <= order <= 2.15, f"order {order:.4f} outside [1.85, 2.15]"
    assert 0.5 <= ratio <= 2.0, f"first-pair error {errors[0]:.4e} vs {anchor:.2e}"


def test_04_higher_order_convergence_ap_schemes():
    _, errors2, orders2 = run_ladder("ap-bdf2", LADDER_SECOND)
    _, errors3, orders3 = run_ladder("ap-bdf3", LADDER_THIRD)
    ok = all(1.85 <= o <= 2.15 for o in orders2) and all(2.9 <= o <= 3.4 for o in orders3)
    report(
        ok,
        "4 ap-bdf2/ap-bdf3 orders",
        f"ap-bdf2 orders {fmt(orders2)}, ap-bdf3 errors {fmt(errors3)} orders {fmt(orders3)}",
    )
    for order in orders2:
        assert 1.85 <= order <= 2.15, f"ap-bdf2 order {order:.4f} outside [1.85, 2.15]"
    for order in orders3:
        assert 2.9 <= order <= 3.4, f"ap-bdf3 order {order:.4f} outside [2.9, 3.4]"


def test_05_variant_order_degradation(spbdf2_ladder, variant_ladder):
    sp_results, _, sp_orders = spbdf2_ladder
    variant_results, _, ladder_orders = variant_ladder
    # The variant's error is its first-order part plus the O(h^2) + O(tau^2)
    # part it shares with sp-bdf2.  Consecutive-level differences along
    # tau = 0.05 h are dominated by the shared part (they read ~1.93 for both
    # schemes), so the first-order part is measured on its own: the distance
    # between the two schemes' terminal curves at the same (tau, N) level,
    # where the shared part cancels.  At fixed N the ladder is no cure: the
    # tau-dependent tangential redistribution stalls every scheme's
    # consecutive differences near 2.5e-3.
    gaps = [
        manifold_distance(a.state.history[-1].curve, b.state.history[-1].curve)
        for a, b in zip(sp_results, variant_results)
    ]
    rows = eoc([(level[0], gap) for level, gap in zip(LADDER_SECOND, gaps)])
    variant_orders = [row.order for row in rows[1:]]
    ok = all(o >= 1.85 for o in sp_orders) and all(0.5 <= o <= 1.5 for o in variant_orders)
    report(
        ok,
        "5 variant degradation",
        f"sp-bdf2 orders {fmt(sp_orders)} (need >= 1.85), "
        f"variant-vs-sp-bdf2 gaps {fmt(gaps)} orders {fmt(variant_orders)} (need <= 1.5); "
        f"variant ladder orders {fmt(ladder_orders)}",
    )
    for order in sp_orders:
        assert order >= 1.85, f"sp-bdf2 order {order:.4f} below 1.85"
    for order in variant_orders:
        assert order <= 1.5, f"variant order {order:.4f} above 1.5"
        # the gap still closes: the variant converges, only at reduced order
        assert order >= 0.5, f"variant-vs-sp-bdf2 gap order {order:.4f} below 0.5"


def test_06_first_order_convergence_sp_euler():
    _, errors, orders = run_ladder("sp-euler", LADDER_EULER)
    ok = len(orders) == 1 and 0.8 <= orders[0] <= 1.2
    report(ok, "6 sp-euler first order", f"errors {fmt(errors)}, order {orders[0]:.4f}")
    assert 0.8 <= orders[0] <= 1.2


def test_07_threshold_switch_behavior():
    config = SchemeConfig(scheme="sp-bdf2", N=160, tau=1 / 640, T=0.8)  # gamma = 50 tau
    result = run(config)
    assert result.ok, result.failure
    rows = result.series.rows
    t_star = result.switch_time
    assert t_star is not None, "no mode switch happened"
    idx = next(i for i, row in enumerate(rows) if row.t == t_star)
    pre = [rows[i].newton_iters for i in range(idx - 4, idx + 1)]
    post = [row.newton_iters for row in rows[idx + 1 :]]
    pre_mean = sum(pre) / len(pre)
    post_mean = sum(post) / len(post)
    psi_star, psi_final = rows[idx].psi, rows[-1].psi
    ok = (
        0.4 <= t_star <= 0.8
        and post_mean < pre_mean
        and psi_final <= psi_star
        and not result.forced_switch
    )
    report(
        ok,
        "7 switch behavior",
        f"t*={t_star}, Newton mean pre-5 {pre_mean:.2f} -> post {post_mean:.2f}, "
        f"mesh ratio {psi_star:.4f} -> {psi_final:.4f}",
    )
    assert 0.4 <= t_star <= 0.8
    assert post_mean < pre_mean
    assert psi_final <= psi_star


def test_08_multiplier_refinement(spbdf2_ladder):
    results, _, _ = spbdf2_ladder
    lams = [abs(r.series.rows[-1].lam) for r in results]
    etas = [abs(r.series.rows[-1].eta) for r in results]
    lam_ratio = lams[-2] / lams[-1]
    eta_ratio = etas[-2] / etas[-1]
    ok = lam_ratio >= 3.0 and eta_ratio >= 3.0
    report(
        ok,
        "8 multiplier refinement",
        f"|lambda| by level {fmt(lams)}, |eta| {fmt(etas)}; "
        f"finest-pair ratios {lam_ratio:.2f}, {eta_ratio:.2f}",
    )
    assert lam_ratio >= 3.0
    assert eta_ratio >= 3.0


def wiggly_curve(rng: np.random.Generator, n: int, radius: float = 1.0) -> PolygonalCurve:
    rho = np.arange(n) / n
    k1 = int(rng.integers(2, 5))
    k2 = int(rng.integers(5, 9))
    p1, p2 = rng.uniform(0.0, 2.0 * np.pi, size=2)
    wob = float(rng.uniform(0.05, 0.3))
    r = radius * (
        1.0
        + wob * np.sin(2.0 * np.pi * k1 * rho + p1)
        + 0.5 * wob * np.sin(2.0 * np.pi * k2 * rho + p2)
    )
    ang = 2.0 * np.pi * rho
    return PolygonalCurve(np.column_stack([r * np.cos(ang), r * np.sin(ang)]))


def test_09_property_battery(ellipse_runs):
    rng = np.random.default_rng(724)

    # first variations against central finite differences, 1e-6 relative
    fd_worst = 0.0
    for _ in range(5):
        curve = wiggly_curve(rng, int(rng.integers(17, 40)))
        direction = rng.standard_normal(curve.vertices.shape)
        eps = 1e-6
        # the border rows Newton uses at this iterate: the perimeter row is
        # dL0 / tau times the gradient of L, the area row the gradient of A
        v, tau, dL0 = curve.vertices, 1e-3, 1.5
        ctx = SchemeContext(delta0=1.0, xhist=np.zeros_like(v), anchor=Anchor(v), dL0=dL0)
        rows = assemble_newton_blocks(ctx, ReferenceGeometry(v), NewtonIterate(v, np.zeros(len(v)), 0.0, 0.0), tau).rows
        gradients = (rows[0, : 2 * len(v)] * (tau / dL0), rows[-1, : 2 * len(v)])
        for functional, gradient in zip((perimeter, signed_area), gradients):
            plus = functional(PolygonalCurve(v + eps * direction))
            minus = functional(PolygonalCurve(v - eps * direction))
            fd = (plus - minus) / (2.0 * eps)
            exact = float(gradient @ direction.ravel())
            fd_worst = max(fd_worst, abs(exact - fd) / max(1.0, abs(exact)))
    fd_ok = fd_worst <= 1e-6

    # multistep coefficient identities, exact in rational arithmetic
    bdf_ok = True
    for k in range(1, 7):
        delta = bdf_coefficients(k)
        bdf_ok &= sum(delta, Fraction(0)) == 0
        bdf_ok &= sum(i * d for i, d in enumerate(delta)) == Fraction(-1)

    # lumped-product Cauchy-Schwarz on 1000 random nodal fields
    curve = wiggly_curve(rng, 33)
    mass = lumped_masses(curve)
    cs_ok = True
    for _ in range(1000):
        u = rng.standard_normal((33, 2))
        w = rng.standard_normal((33, 2))
        lhs = float(mass @ (u * w).sum(1)) ** 2
        rhs = float(mass @ (u * u).sum(1)) * float(mass @ (w * w).sum(1))
        cs_ok &= lhs <= rhs * (1.0 + 1e-12)

    # polygon intersection against the Monte Carlo oracle, 20 random pairs
    mc_worst = 0.0
    for _ in range(20):
        a = wiggly_curve(rng, int(rng.integers(24, 64)), radius=float(rng.uniform(0.8, 2.0)))
        b = wiggly_curve(rng, int(rng.integers(24, 64)), radius=float(rng.uniform(0.8, 2.0)))
        b = PolygonalCurve(b.vertices + rng.uniform(-0.8, 0.8, size=2))
        exact = polygon_intersection_area(a, b)
        estimate, sigma = mc_intersection_area(
            a.vertices, b.vertices, 200_000, seed=int(rng.integers(1 << 30))
        )
        mc_worst = max(mc_worst, abs(exact - estimate) / sigma)
    mc_ok = mc_worst <= 3.0

    # large-sample check on a pair produced by an actual evolution
    config, result = ellipse_runs["sp-bdf2"]
    initial = config.make_initial_curve()
    evolved = result.state.history[-1].curve
    exact = polygon_intersection_area(initial, evolved)
    estimate, sigma = mc_intersection_area(
        initial.vertices, evolved.vertices, 10_000_000, seed=602214076
    )
    mc_big = abs(exact - estimate) / sigma
    mc_big_ok = mc_big <= 3.0

    # bordered solver against a dense oracle on 120 random systems, N = 3, 4, 8
    solver_worst = 0.0
    flavors = ("both", "lam", "eta", "none")
    for i in range(120):
        blocks = random_blocks(rng, n=(3, 4, 8)[(i // 4) % 3], flavor=flavors[i % 4])
        dense_m, dense_rhs = dense_from_blocks(blocks)
        expected = np.linalg.solve(dense_m, dense_rhs)
        got = solve_bordered(assemble_system(blocks))
        solver_worst = max(
            solver_worst,
            np.abs(got - expected).max() / max(1.0, np.abs(expected).max()),
        )
    solver_ok = solver_worst <= 1e-9

    ok = fd_ok and bdf_ok and cs_ok and mc_ok and mc_big_ok and solver_ok
    report(
        ok,
        "9 property battery",
        f"FD rel {fd_worst:.2e}; BDF identities exact: {bdf_ok}; "
        f"Cauchy-Schwarz 1000 fields: {cs_ok}; MC worst {mc_worst:.2f} sigma "
        f"(20 pairs), evolved-pair {mc_big:.2f} sigma (1e7 samples); "
        f"bordered-vs-dense max rel {solver_worst:.2e}",
    )
    assert fd_ok
    assert bdf_ok
    assert cs_ok
    assert mc_ok
    assert mc_big_ok
    assert solver_ok


def test_10_benchmarks_reach_near_circular_equilibria():
    # Final times are set by the physics, not the solver: linearized curve
    # diffusion damps the slowest circle mode (k = 2) at rate 12 / R^4 with
    # R = sqrt(A0 / pi), i.e. 24.5 for mikula and 7.4 for the 4 x 1
    # rectangle, so a correct solver crosses a 5% curvature spread only near
    # t = 0.19 and t = 0.70.  T = 0.25 and T = 0.8 end a factor of about 4
    # and 2 below the bound.
    spreads = {}
    switch_times = {}
    forced = {}
    for label, config in (
        (
            "mikula",
            SchemeConfig(scheme="sp-bdf2", shape="mikula", N=160, tau=1 / 6400, T=0.25),
        ),
        (
            "rectangle",
            SchemeConfig(scheme="sp-bdf2", shape="rectangle", N=160, tau=1 / 6400, T=0.8),
        ),
    ):
        result = run(config)
        assert result.ok, f"{label}: {result.failure}"
        kappa = result.state.history[-1].kappa
        spreads[label] = (kappa.max() - kappa.min()) / kappa.mean()
        switch_times[label] = result.switch_time
        forced[label] = result.forced_switch
    took_sp_steps = all(t is not None and t > 0 for t in switch_times.values())
    ok = all(v <= 0.05 for v in spreads.values()) and took_sp_steps and not any(forced.values())
    report(
        ok,
        "10 benchmark equilibria",
        "curvature spread (max-min)/mean = "
        + ", ".join(f"{k} {v:.4f}" for k, v in spreads.items())
        + "; switch to AP at t = "
        + ", ".join(f"{k} {t:.4f}" for k, t in switch_times.items()),
    )
    for label, value in spreads.items():
        assert value <= 0.05, f"{label}: curvature spread {value:.4f} above 0.05"
    # the modified run takes SP steps before it switches to AP
    for label, t in switch_times.items():
        assert t is not None and t > 0, f"{label}: switch to AP at t={t}"
    # the SP phase ends by the threshold rule, not by a forced switch
    for label, was_forced in forced.items():
        assert not was_forced, f"{label}: forced switch to AP at t={switch_times[label]}"
