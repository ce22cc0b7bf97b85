"""Time-stepping schemes: BDF coefficients, configuration validation, step
roots against an independent solver, invariants, startup and the
threshold-switch run loop."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from curveflow.femcore import initial_curvature
from curveflow.geometry import PolygonalCurve, generate_ellipse, generate_mikula
import curveflow.linalg
import curveflow.schemes
from curveflow.femcore import NewtonIterate
from curveflow.linalg import EquilibriumDegeneracyError
from curveflow.schemes import (
    SCHEMES,
    SPECS,
    NewtonDivergenceError,
    SchemeConfig,
    SchemeError,
    bdf_coefficients,
    newton_outer,
    run,
    startup,
    step,
)

import oracles

rng = np.random.default_rng(9127)


# ---------------------------------------------------------------------------
# BDF coefficients


def test_bdf_coefficients_textbook_values():
    assert bdf_coefficients(1) == (Fraction(1), Fraction(-1))
    assert bdf_coefficients(2) == (Fraction(3, 2), Fraction(-2), Fraction(1, 2))
    assert bdf_coefficients(3) == (Fraction(11, 6), Fraction(-3), Fraction(3, 2), Fraction(-1, 3))
    assert bdf_coefficients(4) == (
        Fraction(25, 12),
        Fraction(-4),
        Fraction(3),
        Fraction(-4, 3),
        Fraction(1, 4),
    )


def test_bdf_coefficients_consistency_identities():
    # sum delta_i = 0 (constants are stationary) and sum i*delta_i = -1
    # (exact derivative of linear functions), both as exact rationals
    for k in range(1, 7):
        delta = bdf_coefficients(k)
        assert sum(delta) == 0
        assert sum(i * d for i, d in enumerate(delta)) == -1


def test_bdf_coefficients_order_range():
    with pytest.raises(ValueError):
        bdf_coefficients(0)
    with pytest.raises(ValueError):
        bdf_coefficients(7)
    # a bad order raises on every call; a good one is cached
    with pytest.raises(ValueError):
        bdf_coefficients(0)
    assert bdf_coefficients(3) is bdf_coefficients(3)


def test_scheme_kind():
    assert SPECS["sp-euler"].kind == "SP"
    assert SPECS["pd-bdf2"].kind == "PD"
    assert SPECS["ap-bdf4"].kind == "AP"
    # the PD Euler step starts and predicts pd-bdf2 but is no scheme of its own
    with pytest.raises(ValueError) as info:
        SchemeConfig(scheme="pd-euler", N=8, tau=0.01, T=0.01)
    assert str(info.value) == (
        "unknown scheme 'pd-euler' (expected one of sp-euler, sp-cn, sp-bdf2, "
        "sp-bdf2-variant, pd-bdf2, ap-bdf1, ap-bdf2, ap-bdf3, ap-bdf4)"
    )


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    good = dict(scheme="sp-euler", N=16, tau=0.01, T=0.1)
    SchemeConfig(**good)
    with pytest.raises(ValueError):
        SchemeConfig(**{**good, "scheme": "upwind"})
    with pytest.raises(ValueError):
        SchemeConfig(**{**good, "shape": "triangle"})
    with pytest.raises(ValueError):
        SchemeConfig(**{**good, "N": 2})
    with pytest.raises(ValueError):
        SchemeConfig(**{**good, "tau": -0.01})
    with pytest.raises(ValueError):
        SchemeConfig(**{**good, "T": 0.035})  # T / tau = 3.5
    with pytest.raises(ValueError):
        SchemeConfig(**{**good, "gamma": -1.0})
    with pytest.raises(ValueError):
        SchemeConfig(**{**good, "max_newton": 0})
    # a non-integral N or max_newton, inf and nan included, is a ValueError that names it
    for name, value in (("N", math.inf), ("N", math.nan), ("max_newton", math.inf), ("max_newton", 2.5)):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            SchemeConfig(**{**good, name: value})
    with pytest.raises(ValueError, match="T/tau must be a positive integer, got inf"):
        SchemeConfig(**{**good, "scheme": "sp-bdf2", "tau": 1e-320, "T": 0.8})  # T / tau overflows
    # integral floats are accepted, and stored as the integers they are
    cfg = SchemeConfig(**{**good, "N": 16.0, "max_newton": 50.0})
    assert type(cfg.N) is int and type(cfg.max_newton) is int
    assert (cfg.N, cfg.max_newton) == (16, 50)
    result = run(SchemeConfig("sp-bdf2", 48, 1 / 200, 0.01, max_newton=50.0))
    assert result.ok, result.failure


def test_config_derived_values():
    cfg = SchemeConfig(scheme="ap-bdf3", N=27, tau=0.02, T=0.1)
    assert cfg.n_steps == 5
    assert SPECS[cfg.scheme].kind == "AP"
    assert SPECS[cfg.scheme].order == 3
    assert cfg.gamma_value == pytest.approx(50 * 0.02)
    assert SchemeConfig(scheme="sp-cn", N=8, tau=0.01, T=0.02, gamma=0.0).gamma_value == 0.0


def test_config_initial_curve_override():
    curve = generate_ellipse(1.0, 1.0, 12)
    cfg = SchemeConfig(scheme="sp-euler", N=12, tau=0.01, T=0.01, shape="whatever-ignored", initial_curve=curve)
    assert cfg.make_initial_curve() is curve


# ---------------------------------------------------------------------------
# one-step roots against an independent root finder
#
# The production path solves the implicit step with its own Newton iteration
# on hand-assembled Jacobians; the oracle solves the same equations (written
# out with plain loops) with scipy's hybrd on finite differences.  Both must
# land on the same root.

TAU = 0.002
N8 = 8


def fresh_state(scheme):
    cfg = SchemeConfig(scheme=scheme, N=N8, tau=TAU, T=4 * TAU, tol=1e-12, gamma=0.0)
    return cfg, startup(cfg)


def assert_same_root(entry, sol):
    assert np.abs(entry.curve.vertices - sol["X"]).max() < 1e-7
    assert np.abs(entry.kappa - sol["kappa"]).max() < 1e-7
    # multipliers are O(1) on this coarse mesh and a little more sensitive
    assert abs(entry.lam - sol["lam"]) < 1e-5
    assert abs(entry.eta - sol["eta"]) < 1e-5


def test_euler_steps_match_oracle():
    v0 = generate_ellipse(2.0, 1.0, N8).vertices
    a0 = oracles.loop_shoelace(v0)
    for scheme, flavor in (("sp-euler", "sp"), ("pd-bdf2", "pd"), ("ap-bdf1", "ap")):
        cfg, state = fresh_state(scheme)
        state = step(state, cfg)  # pd-bdf2's first step is one pd-euler step
        entry = state.history[-1]
        sol = oracles.oracle_euler_step(v0, TAU, flavor, A0=a0)
        assert_same_root(entry, sol)


def test_crank_nicolson_step_matches_oracle():
    cfg, state = fresh_state("sp-cn")
    v0 = state.history[-1].curve.vertices
    kappa0 = state.history[-1].kappa
    state = step(state, cfg)
    sol = oracles.oracle_cn_step(v0, kappa0, 0.0, 0.0, TAU, oracles.loop_shoelace(v0))
    # the scheme stores the midpoint multipliers, the means of the oracle's
    # end values with level 0's zeros
    assert_same_root(state.history[-1], dict(sol, lam=0.5 * (sol["lam"] + 0.0), eta=0.5 * (sol["eta"] + 0.0)))


def test_bdf2_steps_match_oracle():
    for scheme, flavor, variant in (
        ("sp-bdf2", "sp", False),
        ("sp-bdf2-variant", "sp", True),
        ("pd-bdf2", "pd", False),
        ("ap-bdf2", "ap", False),
    ):
        cfg, state = fresh_state(scheme)
        state = step(state, cfg)  # the first step, of the lower Euler scheme
        v0 = state.history[-2].curve.vertices
        v1 = state.history[-1].curve.vertices
        state = step(state, cfg)
        sol = oracles.oracle_bdf2_step(v1, v0, TAU, flavor, A0=oracles.loop_shoelace(v0), variant=variant)
        assert_same_root(state.history[-1], sol)


@pytest.mark.parametrize("scheme, k", [("ap-bdf3", 3), ("ap-bdf4", 4)])
def test_high_order_ap_step_matches_oracle(scheme, k):
    # from the substepped startup levels; the oracle takes its reference from
    # its own recursive order-(k-1) step.  The default tol: at 1e-12 the
    # ap-bdf4 startup's innermost substeps (sigma ~ 4e-6) stall on the eta
    # update's rounding floor (last update 7e-12)
    cfg = SchemeConfig(scheme=scheme, N=N8, tau=TAU, T=4 * TAU, gamma=0.0)
    state = startup(cfg)
    levels = [np.array(e.curve.vertices) for e in state.history]
    assert len(levels) == k
    state = step(state, cfg)
    sol = oracles.oracle_ap_step(levels, TAU, k, A0=oracles.loop_shoelace(levels[0]))
    assert_same_root(state.history[-1], sol)


def test_tiny_steps_move_tangentially_only():
    # The curvature equation forces the mesh into its compatible distribution
    # on the very first step, a tau-independent tangential adjustment, so raw
    # displacement does not shrink with tau.  What the velocity law controls
    # is motion along the reference normals: that must stay small while the
    # total motion stays visibly larger.
    from curveflow.femcore import normal_weights

    v0 = generate_ellipse(2.0, 1.0, 16).vertices
    om0 = normal_weights(v0)
    for scheme in ("sp-euler", "sp-cn", "sp-bdf2", "sp-bdf2-variant", "pd-bdf2", "ap-bdf1", "ap-bdf2"):
        cfg = SchemeConfig(scheme=scheme, N=16, tau=1e-6, T=4e-6, tol=1e-8, gamma=0.0)
        result = run(cfg)
        assert result.ok, f"{scheme}: {result.failure}"
        v = result.state.history[-1].curve.vertices
        total = np.abs(v - v0).max()
        normal = np.abs((om0 * (v - v0)).sum(axis=1)).max()
        assert normal < 2e-3, f"{scheme}: normal motion {normal:.2e}"
        assert total > 5e-3, f"{scheme}: expected a tangential mesh adjustment, moved {total:.2e}"


def test_high_order_ap_schemes_run_with_substepped_startup():
    # startup substepping scales like tau^(-1/(k-1)), so use moderate steps;
    # the tangential motion redistributes the mesh toward equal edge lengths
    from curveflow.geometry import mesh_ratio

    psi0 = mesh_ratio(generate_ellipse(2.0, 1.0, 16))
    for scheme, tau in (("ap-bdf3", 1e-4), ("ap-bdf4", 1e-3)):
        cfg = SchemeConfig(scheme=scheme, N=16, tau=tau, T=4 * tau, gamma=0.0)
        result = run(cfg)
        assert result.ok, f"{scheme}: {result.failure}"
        assert all(abs(r.dA) < 1e-9 for r in result.series.rows)
        assert result.series.rows[-1].psi < psi0
        assert 0.9 < result.series.rows[-1].L_norm < 1.005


# ---------------------------------------------------------------------------
# invariants on short runs


def test_sp_euler_preserves_area_and_shrinks_perimeter_stepwise():
    cfg = SchemeConfig(scheme="sp-euler", N=32, tau=1e-3, T=5e-3, gamma=0.0)
    state = startup(cfg)
    a0, l_prev = state.A0, state.L0
    for _ in range(5):
        state = step(state, cfg)
        entry = state.history[-1]
        assert abs(entry.A - a0) < 1e-9 * abs(a0)
        assert entry.L <= l_prev + 1e-9
        l_prev = entry.L


def test_pd_bdf2_shrinks_perimeter_but_drifts_area():
    cfg = SchemeConfig(scheme="pd-bdf2", N=32, tau=1e-3, T=0.05, gamma=0.0)
    result = run(cfg)
    assert result.ok
    last = result.series.rows[-1]
    assert last.L_norm < 1.0
    assert 1e-12 < abs(last.dA) < 1e-3  # no area law: drift is small but real
    assert all(r.eta == 0.0 for r in result.series.rows)


def test_ap_bdf2_preserves_area_but_not_perimeter_law():
    cfg = SchemeConfig(scheme="ap-bdf2", N=32, tau=1e-3, T=0.05, gamma=0.0)
    result = run(cfg)
    assert result.ok
    assert all(abs(r.dA) < 1e-9 for r in result.series.rows)
    assert all(r.lam == 0.0 for r in result.series.rows)
    assert result.series.rows[-1].L_norm < 1.0


def test_regular_polygon_is_ap_equilibrium():
    # (X0, 1/(R cos(pi/N)), eta=0) solves the area-preserving step exactly,
    # so the discrete circle must not move
    cfg = SchemeConfig(scheme="ap-bdf1", N=64, tau=0.01, T=0.1, shape="ellipse", a=1.0, b=1.0, gamma=0.0)
    result = run(cfg)
    assert result.ok
    v0 = generate_ellipse(1.0, 1.0, 64).vertices
    assert np.abs(result.state.history[-1].curve.vertices - v0).max() < 1e-8
    assert all(abs(r.eta) < 1e-8 for r in result.series.rows)


def test_translation_equivariance():
    base = generate_mikula(24)
    shifted = type(base)(base.vertices + np.array([1.7, -0.4]))
    kw = dict(scheme="sp-euler", N=24, tau=1e-3, T=3e-3, gamma=0.0)
    r1 = run(SchemeConfig(initial_curve=base, **kw))
    r2 = run(SchemeConfig(initial_curve=shifted, **kw))
    assert r1.ok and r2.ok
    delta = r2.state.history[-1].curve.vertices - r1.state.history[-1].curve.vertices
    assert np.abs(delta - np.array([1.7, -0.4])).max() < 5e-9


def test_runs_are_deterministic():
    cfg = SchemeConfig(scheme="sp-bdf2", N=24, tau=1e-3, T=5e-3, gamma=0.0)
    va = run(cfg).state.history[-1].curve.vertices
    vb = run(cfg).state.history[-1].curve.vertices
    assert np.array_equal(va, vb)


def test_oscillatory_curve_run_completes():
    # strong curvature spikes: each step is one Newton run, whose core holds
    # lam M of its start iterate; the run must still conserve area and
    # dissipate length
    cfg = SchemeConfig(scheme="sp-euler", N=64, tau=1e-3, T=5e-3, shape="mikula", gamma=0.0)
    result = run(cfg)
    assert result.ok
    rows = result.series.rows
    assert abs(rows[-1].dA) < 1e-9
    assert rows[-1].L_norm < 1.0


def _assert_step_conserves_area(cfg):
    state = startup(cfg)
    assert state.step_index == 0
    new = step(state, cfg).history[-1]
    assert abs(new.A - state.A0) / abs(state.A0) < 1e-9


def test_sp_cn_first_step_on_mikula():
    # this step diverged while Q's diagonal followed lam: sp-cn's reference,
    # a step at tau / 2, put it out of reach of the old continuation in tau
    _assert_step_conserves_area(SchemeConfig(scheme="sp-cn", N=64, tau=1e-3, T=5e-3, shape="mikula", gamma=0.0))


def test_sp_euler_first_step_on_mikula_at_large_tau():
    # this step diverged while Q's diagonal followed lam, whose iterates
    # (443, 287, 346, 316, ...) landed among the generalized eigenvalues of
    # (S, M), directly and at every stage of the old continuation in tau
    _assert_step_conserves_area(SchemeConfig(scheme="sp-euler", N=160, tau=0.05, T=0.05, shape="mikula", gamma=0.0))


def test_sp_cn_on_mikula_runs_without_a_forced_switch():
    # with Q's diagonal following lam, this run failed at its first step
    cfg = SchemeConfig(scheme="sp-cn", N=160, tau=1 / 6400, T=0.03, shape="mikula")
    result = run(cfg)
    assert result.ok, result.failure
    assert not result.forced_switch
    assert len(result.series.rows) == cfg.n_steps + 1
    assert all(abs(r.dA) < 1e-9 for r in result.series.rows)


def test_sp_cn_multipliers_keep_their_sign_on_mikula():
    # the stored multipliers are the midpoint values, which act in the step;
    # end values, averaged with level 0's zeros, alternate in sign from step
    # to step (lam 5.02, -3.24, 3.80, -3.28, 3.47) and never damp
    cfg = SchemeConfig(scheme="sp-cn", N=64, tau=1e-3, T=5e-3, shape="mikula", gamma=0.0)
    result = run(cfg)
    assert result.ok, result.failure
    rows = result.series.rows[1:]
    assert len(rows) == 5
    for name in ("lam", "eta"):
        signs = {np.sign(getattr(r, name)) for r in rows}
        assert len(signs) == 1 and 0.0 not in signs, (name, [getattr(r, name) for r in rows])


def test_ap_bdf4_on_mikula_completes():
    # the innermost startup substeps (sigma = 1e-6) solve for eta through an
    # area row whose rounding must not stall Newton above tol
    cfg = SchemeConfig(scheme="ap-bdf4", N=64, tau=1e-3, T=5e-3, shape="mikula", gamma=0.0)
    result = run(cfg)
    assert result.ok, result.failure
    assert len(result.series.rows) == 6
    assert all(abs(r.dA) < 1e-9 for r in result.series.rows)


@pytest.mark.parametrize("shape", ["ellipse", "mikula"])
def test_every_newton_root_meets_the_template_to_tol(monkeypatch, shape):
    # every root a run accepts (corrector, reference step, startup substep)
    # is measured by the loop oracle of the step template, not by the
    # solver's blocks.  The exits leave the root within tol of the exact one
    # in every unknown (the next update, which measures that distance, is
    # below tol), and a residual row is its Jacobian row times that
    # distance: |F_i| <= tol |J_i|_1.  1e-13 of the row's term sum allows
    # for the rounding of the terms at a floating-point root.
    runs, roots = [], []
    assemble, newton = curveflow.schemes.assemble_newton_blocks, curveflow.schemes.newton_outer

    def capture_run(ctx, ref, it, tau, previous=None):
        if previous is None:
            runs.append((ctx, ref.vertices, tau))
        return assemble(ctx, ref, it, tau, previous)

    def capture_root(*args, **kwargs):
        it, iters = newton(*args, **kwargs)
        roots.append((*runs[-1], it))
        return it, iters

    monkeypatch.setattr(curveflow.schemes, "assemble_newton_blocks", capture_run)
    monkeypatch.setattr(curveflow.schemes, "newton_outer", capture_root)
    for scheme in SCHEMES:
        cfg = SchemeConfig(scheme=scheme, N=16, tau=0.01, T=0.04, shape=shape, gamma=0.0)
        result = run(cfg)
        assert result.ok, f"{scheme}: {result.failure}"
        assert len(roots) >= cfg.n_steps
        for ctx, vref, tau, it in roots:
            value, size = oracles.template_residual(ctx, vref, it, tau)
            bound = cfg.tol * oracles.template_jacobian_row_norms(ctx, vref, it, tau) + 1e-13 * size
            assert np.all(np.abs(value) <= bound), f"{scheme}: worst |F_i| / bound {np.max(np.abs(value) / bound):.3g}"
        roots.clear()


def _cos_amplitude(v, k):
    # the cos k theta Fourier coefficient of r(theta), by the trapezoid rule
    # over the vertices' polar angles (the mesh moves tangentially)
    theta = np.arctan2(v[:, 1], v[:, 0])
    order = np.argsort(theta)
    theta, f = theta[order], (np.hypot(v[:, 0], v[:, 1]) * np.cos(k * theta))[order]
    dtheta = np.diff(np.append(theta, theta[0] + 2.0 * np.pi))
    return float(((f + np.roll(f, -1)) * dtheta).sum()) / (2.0 * np.pi)


_MODE_CASES = [
    (scheme, k, T)
    for scheme in ("sp-bdf2", "ap-bdf2", "ap-bdf3", "sp-cn", "sp-bdf2-variant", "pd-bdf2", "ap-bdf4", "sp-euler", "ap-bdf1")
    for k, T in ((2, 0.05), (3, 0.01))
    # ap-bdf4's startup at tau = 5e-5 stalls: its eta updates stay near 1e-9
    if (scheme, k) != ("ap-bdf4", 3)
]


@pytest.mark.parametrize("scheme, k, T", _MODE_CASES)
def test_circle_mode_decays_at_the_linear_rate(scheme, k, T):
    # r = 1 + eps cos k theta under curve diffusion: the mode decays like
    # exp(-k^2 (k^2 - 1) t) to first order in eps (Mullins 1957; Elliott &
    # Garcke 1997).  The amplitude is measured here from the vertices alone.
    # The linearised mode decays at rate mu; a backward Euler step (a scheme
    # with no lower one) damps it by exactly 1 / (1 + mu tau), which leaves
    # the spatial and O(eps) errors that the bound covers, not the O(tau) one.
    n, eps, steps = 256, 1e-3, 200
    theta = 2.0 * np.pi * np.arange(n) / n
    v0 = (1.0 + eps * np.cos(k * theta))[:, None] * np.column_stack((np.cos(theta), np.sin(theta)))
    cfg = SchemeConfig(scheme=scheme, N=n, tau=T / steps, T=T, gamma=0.0, initial_curve=PolygonalCurve(v0))
    result = run(cfg)
    assert result.ok, result.failure
    ratio = _cos_amplitude(result.state.history[-1].curve.vertices, k) / _cos_amplitude(v0, k)
    mu = k * k * (k * k - 1)
    expected = (1.0 + mu * cfg.tau) ** -steps if SPECS[scheme].lower is None else math.exp(-mu * T)
    assert abs(ratio / expected - 1.0) <= 3e-3, f"amplitude ratio {ratio:.6f}, linear theory {expected:.6f}"


# ---------------------------------------------------------------------------
# startup


def test_two_level_startup_shapes():
    # the startup's level 0 and the first step, of the lower scheme
    cfg = SchemeConfig(scheme="sp-bdf2", N=16, tau=0.01, T=0.05, gamma=0.0)
    state = step(startup(cfg), cfg)
    assert state.step_index == 1
    assert len(state.history) == 2
    assert [entry.newton_iters > 0 for entry in state.history] == [False, True]
    assert np.array_equal(state.history[0].curve.vertices, cfg.make_initial_curve().vertices)


def test_substepped_startup_covers_history():
    cfg = SchemeConfig(scheme="ap-bdf3", N=16, tau=0.01, T=0.05, gamma=0.0)
    state = startup(cfg)
    assert state.step_index == 2
    assert len(state.history) == 3
    assert [entry.newton_iters > 0 for entry in state.history] == [False, True, True]
    # area conservation holds through every substepped level
    for entry in state.history:
        assert abs(entry.A - state.A0) < 1e-9
    cfg4 = SchemeConfig(scheme="ap-bdf4", N=16, tau=0.01, T=0.05, gamma=0.0)
    state4 = startup(cfg4)
    assert state4.step_index == 3
    assert len(state4.history) == 4


@pytest.mark.parametrize("scheme, lower", [("sp-bdf2", "sp-euler"), ("pd-bdf2", "pd-euler"), ("ap-bdf2", "ap-bdf1")])
def test_two_level_scheme_starts_from_level_0_and_steps_with_its_lower(scheme, lower):
    # startup holds level 0 alone; the run's first level is the step of the
    # lower scheme from it, bit for bit, and so is its diagnostics row
    cfg = SchemeConfig(scheme=scheme, N=16, tau=0.01, T=0.01, gamma=0.0)
    state0 = startup(cfg)
    assert state0.step_index == 0 and len(state0.history) == 1
    want = step(state0, cfg, lower).history[-1]
    result = run(cfg)
    assert result.ok, result.failure
    got = result.state.history[-1]
    assert np.array_equal(got.curve.vertices, want.curve.vertices)
    assert np.array_equal(got.kappa, want.kappa)
    assert got[2:] == want[2:]  # lam, eta, L, A, newton_iters, mode
    row = result.series.rows[1]
    assert (row.L_norm, row.lam, row.eta, row.newton_iters) == (want.L / state0.L0, want.lam, want.eta, want.newton_iters)
    assert row.deltaL == (want.L - state0.history[0].L) / cfg.tau


@pytest.mark.parametrize("scheme, lower", [("sp-bdf2", "sp-euler"), ("ap-bdf3", "ap-bdf1")])
def test_step_from_too_few_levels_is_the_lower_schemes_step(scheme, lower):
    # from level 0 alone the step climbs down the family to a one-level scheme
    cfg = SchemeConfig(scheme=scheme, N=24, tau=0.01, T=0.05, gamma=0.0)
    state0 = startup(replace(cfg, scheme=lower))
    assert len(state0.history) == 1
    got = step(state0, cfg).history[-1]
    want = step(state0, cfg, lower).history[-1]
    assert np.array_equal(got.curve.vertices, want.curve.vertices)
    assert np.array_equal(got.kappa, want.kappa)
    assert got[2:] == want[2:]  # lam, eta, L, A, newton_iters, mode


@pytest.mark.parametrize("scheme, n_sub", [("ap-bdf3", 10), ("ap-bdf4", 5)])
def test_substepped_startup_rows_count_their_substeps(scheme, n_sub):
    # n_sub = ceil(tau^(-1/(k-1))) at tau = 0.01; row j of the run reports
    # the Newton iterations of the substeps that fill (j-1) tau .. j tau, as
    # a run of the lower scheme at tau / n_sub reports them
    k, tau = SPECS[scheme].order, 0.01
    rows = run(SchemeConfig(scheme=scheme, N=16, tau=tau, T=5 * tau, gamma=0.0)).series.rows
    sub = run(SchemeConfig(scheme=SPECS[scheme].lower, N=16, tau=tau / n_sub, T=(k - 1) * tau, gamma=0.0))
    assert sub.ok, sub.failure
    sub_iters = [row.newton_iters for row in sub.series.rows]
    assert len(sub_iters) == (k - 1) * n_sub + 1
    expected = [sum(sub_iters[(j - 1) * n_sub + 1 : j * n_sub + 1]) for j in range(1, k)]
    assert [row.newton_iters for row in rows[1:k]] == expected
    assert [row.mode for row in rows[1:k]] == ["AP"] * (k - 1)


@pytest.mark.parametrize("scheme, n_steps", [("ap-bdf3", 1), ("ap-bdf4", 1), ("ap-bdf4", 2)])
def test_run_shorter_than_its_startup_ends_at_T(scheme, n_steps):
    # the substepped startup stops at T, with the levels of a longer run
    tau = 0.01
    cfg = SchemeConfig(scheme=scheme, N=16, tau=tau, T=n_steps * tau, gamma=0.0)
    result = run(cfg, [cfg.T])
    assert result.ok, result.failure
    assert [row.t for row in result.series.rows] == [m * tau for m in range(n_steps + 1)]
    assert result.state.step_index == n_steps
    longer = run(replace(cfg, T=5 * tau), [cfg.T])
    assert result.series.rows == longer.series.rows[: n_steps + 1]
    assert [snap.t for snap in result.snapshots] == [snap.t for snap in longer.snapshots] == [cfg.T]
    assert np.array_equal(result.state.history[-1].curve.vertices, longer.snapshots[0].curve.vertices)


# ---------------------------------------------------------------------------
# run loop, degeneracy handling, mode switching


def test_circle_under_sp_without_threshold_fails_degenerate():
    # constant curvature makes the two multiplier borders parallel
    cfg = SchemeConfig(scheme="sp-euler", N=32, tau=0.01, T=0.05, a=1.0, b=1.0, gamma=0.0)
    result = run(cfg)
    assert not result.ok
    assert isinstance(result.failure, EquilibriumDegeneracyError)
    assert result.switch_time is None


def test_circle_under_sp_with_threshold_switches_and_survives():
    cfg = SchemeConfig(scheme="sp-euler", N=32, tau=0.01, T=0.05, a=1.0, b=1.0)  # gamma -> 50 tau
    result = run(cfg)
    assert result.ok
    assert result.forced_switch
    assert result.switch_time == 0.0
    assert result.series.rows[-1].mode == "AP"
    v0 = generate_ellipse(1.0, 1.0, 32).vertices
    assert np.abs(result.state.history[-1].curve.vertices - v0).max() < 1e-7


def test_forced_switch_at_startup_keeps_row_zero_sp():
    # sp-bdf2's startup step (sp-euler) degenerates on the circle, so the run
    # starts over with ap-bdf2; row 0 keeps the configured scheme's mode
    cfg = SchemeConfig(scheme="sp-bdf2", N=32, tau=0.01, T=0.05, a=1.0, b=1.0)
    result = run(cfg)
    assert result.ok, result.failure
    assert result.forced_switch and result.switch_time == 0.0
    assert [r.mode for r in result.series.rows] == ["SP"] + ["AP"] * 5


@pytest.mark.parametrize("tau", [1 / 6400, 1 / 640])
def test_sp_startup_on_mikula_is_not_degenerate(tau):
    # far from equilibrium (curvature spread > 1) the two conservation laws
    # are independent; the perimeter row's 1/tau scale must not make the
    # Euler startup step look degenerate
    cfg = SchemeConfig(scheme="sp-bdf2", shape="mikula", N=160, tau=tau, T=2 * tau, gamma=0.0)
    kappa0 = initial_curvature(cfg.make_initial_curve())
    assert (kappa0.max() - kappa0.min()) / kappa0.mean() > 1.0
    state = step(startup(cfg), cfg)
    assert state.step_index == 1
    assert state.history[1].mode == "SP"


def test_huge_threshold_switches_on_first_report():
    cfg = SchemeConfig(scheme="sp-bdf2", N=24, tau=1e-3, T=5e-3, gamma=1e9)
    result = run(cfg)
    assert result.ok
    assert not result.forced_switch
    assert result.switch_time == pytest.approx(1e-3)
    modes = [r.mode for r in result.series.rows]
    assert modes[0] == "SP" and modes[1] == "SP"  # t=0 row and the startup step
    assert set(modes[2:]) == {"AP"}


def test_gamma_zero_never_switches():
    cfg = SchemeConfig(scheme="sp-bdf2", N=24, tau=1e-3, T=5e-3, gamma=0.0)
    result = run(cfg)
    assert result.ok
    assert result.switch_time is None
    assert set(r.mode for r in result.series.rows) == {"SP"}


def test_ap_partner_table_is_consistent():
    partners = {name: spec.partner for name, spec in SPECS.items() if spec.partner}
    assert set(partners) == {name for name in SCHEMES if SPECS[name].kind == "SP"}
    for ap_scheme in partners.values():
        assert ap_scheme in SCHEMES
        assert SPECS[ap_scheme].kind == "AP"


def test_scheme_table_rows_are_consistent():
    assert SCHEMES == (
        "sp-euler", "sp-cn", "sp-bdf2", "sp-bdf2-variant", "pd-bdf2",
        "ap-bdf1", "ap-bdf2", "ap-bdf3", "ap-bdf4",
    )  # fmt: skip
    for name, spec in SPECS.items():
        # the reference and the climb from too few levels reach down the
        # family one order at a time, ending at an Euler step
        if spec.lower is not None:
            lower = SPECS[spec.lower]
            assert lower.kind == spec.kind and not lower.cn, name
            assert lower.order == max(1, spec.order - 1), name


def test_every_solve_runs_inside_newton_outer(monkeypatch):
    # the traced benchmark wraps these module-level names; a predictor,
    # reference or startup path that bypassed them would go unmeasured
    counts = {"solves": 0, "outside": 0, "startup": 0, "newton_depth": 0}
    solve, newton, start = curveflow.schemes.solve_bordered, curveflow.schemes.newton_outer, curveflow.schemes.startup

    def counting_solve(system, *, blocks):
        counts["solves"] += 1
        counts["outside"] += counts["newton_depth"] == 0
        return solve(system, blocks=blocks)

    def counting_newton(*args, **kwargs):
        counts["newton_depth"] += 1
        try:
            return newton(*args, **kwargs)
        finally:
            counts["newton_depth"] -= 1

    def counting_startup(config):
        counts["startup"] += 1
        return start(config)

    monkeypatch.setattr(curveflow.schemes, "solve_bordered", counting_solve)
    monkeypatch.setattr(curveflow.schemes, "newton_outer", counting_newton)
    monkeypatch.setattr(curveflow.schemes, "startup", counting_startup)
    for scheme in ("sp-cn", "sp-bdf2", "pd-bdf2", "ap-bdf3"):
        # two steps after the startup levels
        n_steps = SPECS[scheme].order + 1
        result = run(SchemeConfig(scheme=scheme, N=16, tau=0.01, T=0.01 * n_steps, gamma=0.0))
        assert result.ok, f"{scheme}: {result.failure}"
        assert len(result.series.rows) == n_steps + 1
    assert counts["solves"] > 0
    assert counts["outside"] == 0
    # one startup per run, plus the nested startup of ap-bdf3's substeps
    assert counts["startup"] == 5


@pytest.mark.parametrize("scheme", ["ap-bdf3", "sp-bdf2", "pd-bdf2"])
def test_core_factorizations_per_newton_run(monkeypatch, scheme):
    # the core, with lam M of the start iterate on Q's diagonal, is fixed
    # through a Newton run: every family builds one system per run, factored
    # once.  Each bordered solve makes one banded solve, of the rhs and the
    # lam column when there is one; the eta column is fixed through the run
    # and is solved once, in one more single-column banded solve
    counts = {"factor": 0, "newton": 0, "banded": 0, "columns": 0}
    assemblies, solves = [], []
    factor, banded = curveflow.linalg.dgbtrf, curveflow.linalg.dgbtrs
    solve, newton, assemble = curveflow.schemes.solve_bordered, curveflow.schemes.newton_outer, curveflow.schemes.assemble_system

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def banded_solve(band, kl, ku, b, *args, **kwargs):
        counts["columns"] += b.shape[1]
        return banded(band, kl, ku, b, *args, **kwargs)

    def recorded(blocks):
        assemblies.append(blocks.a2 is not None)
        return assemble(blocks)

    def recorded_solve(system, *, blocks):
        solves.append(blocks.a1 is not None)
        return solve(system, blocks=blocks)

    monkeypatch.setattr(curveflow.linalg, "dgbtrf", counted("factor", factor))
    monkeypatch.setattr(curveflow.linalg, "dgbtrs", counted("banded", banded_solve))
    monkeypatch.setattr(curveflow.schemes, "solve_bordered", recorded_solve)
    monkeypatch.setattr(curveflow.schemes, "newton_outer", counted("newton", newton))
    monkeypatch.setattr(curveflow.schemes, "assemble_system", recorded)
    result = run(SchemeConfig(scheme=scheme, N=24, tau=0.01, T=0.05, gamma=0.0))
    assert result.ok, result.failure
    assert len(solves) > counts["newton"] > 0
    assert counts["factor"] == counts["newton"] == len(assemblies)
    eta_runs = sum(assemblies)
    assert eta_runs == (counts["newton"] if scheme != "pd-bdf2" else 0)
    assert counts["banded"] == len(solves) + eta_runs
    assert counts["columns"] == sum(1 + lam for lam in solves) + eta_runs


def test_non_finite_update_is_divergence_not_convergence(monkeypatch):
    # a NaN curvature update next to a tiny position update: Python's max
    # would drop the NaN and report convergence.  The message names the
    # first non-finite component, lam or eta by the borders present.
    n = 6
    start = NewtonIterate(np.zeros((n, 2)), np.zeros(n), 0.0, 0.0)
    cases = [("both", 2 * n + 3, "curvature"), ("both", 1, "position"), ("both", 3 * n, "lam"), ("both", 3 * n + 1, "eta"), ("eta", 3 * n, "eta")]
    for flavor, index, name in cases:
        blocks = oracles.random_blocks(rng, n=n, flavor=flavor)
        step = np.zeros(3 * n + len(blocks.rows))
        step[: 2 * n] = 1e-14
        step[index:] = np.inf
        step[index] = np.nan
        monkeypatch.setattr(curveflow.schemes, "solve_bordered", lambda system, *, blocks: step)
        with pytest.raises(NewtonDivergenceError, match=f"non-finite {name} update at Newton iteration 1") as info:
            newton_outer(lambda it, previous: blocks, start, tol=1e-10, max_newton=5)
        assert info.value.last_norm == math.inf


def _newton_on_update_norms(monkeypatch, norms, tol, lam_update=0.0):
    # newton_outer on solves whose updates have the given norms, one a call,
    # and move lam by lam_update; returns the iterations or raises
    # NewtonDivergenceError once the norms run out
    n = 6
    blocks = oracles.random_blocks(rng, n=n, flavor="both")
    updates = iter(norms)

    def solve(system, *, blocks):
        z = np.zeros(3 * n + 2)
        z[0] = next(updates)
        z[3 * n] = lam_update
        return z

    monkeypatch.setattr(curveflow.schemes, "solve_bordered", solve)
    start = NewtonIterate(np.zeros((n, 2)), np.zeros(n), 0.0, 0.0)
    it, iterations = newton_outer(lambda it, previous: blocks, start, tol=tol, max_newton=len(norms))
    assert it.X[0, 0] == pytest.approx(sum(norms[:iterations]))
    return iterations


@pytest.mark.parametrize(
    "norms, stop",
    [
        ([1e-2, 1e-6], 2),  # theta = 1e-4, theta |Delta| = 1e-10 <= tol
        ([1e-2, 1e-4, 1e-8], 3),  # theta |Delta| = 1e-6 misses tol at 2
        ([1.5e-9, 1.2e-9, 0.9e-9], 3),  # theta = 0.8 >= 1/2: no estimate, plain exit
        ([1e-8, 1e-12], 2),  # iteration 1 has no estimate, whatever its update
        ([0.5e-9], 1),  # the plain exit also serves iteration 1
    ],
)
def test_newton_stops_on_the_contraction_estimate(monkeypatch, norms, stop):
    assert _newton_on_update_norms(monkeypatch, norms, tol=1e-9) == stop


def test_newton_takes_no_contraction_exit_once_lam_moves(monkeypatch):
    # the core holds lam M of the start, so once lam has moved the
    # contraction is linear and theta_k no longer bounds the next update
    assert _newton_on_update_norms(monkeypatch, [1e-2, 1e-6, 1e-12], tol=1e-9, lam_update=1e-13) == 3


def test_newton_without_contraction_runs_to_tol(monkeypatch):
    # theta >= 1/2 at every update: only |Delta| <= tol ends the run
    norms = [1e-3 * 0.6**k for k in range(60)]
    stop = next(k for k, v in enumerate(norms, start=1) if v <= 1e-9)
    assert _newton_on_update_norms(monkeypatch, norms, tol=1e-9) == stop
    with pytest.raises(NewtonDivergenceError):
        _newton_on_update_norms(monkeypatch, norms[: stop - 1], tol=1e-9)


@pytest.mark.parametrize("scheme", ["sp-bdf2", "pd-bdf2", "ap-bdf3", "sp-euler", "sp-cn"])
def test_corrector_start(monkeypatch, scheme):
    # a corrector whose reference is one step of the lower scheme starts at
    # that step's root (for sp-cn, the Euler step at tau / 2, near its
    # midpoint unknowns); an Euler step starts at the newest level
    cfg = SchemeConfig(scheme=scheme, N=24, tau=0.01, T=0.05, gamma=0.0)
    state = step(startup(cfg), cfg)  # a BDF2 scheme's second level
    calls = []
    newton = curveflow.schemes.newton_outer

    def recording(model, start, tol, max_newton):
        result = newton(model, start, tol, max_newton)
        calls.append((start, result[0]))
        return result

    monkeypatch.setattr(curveflow.schemes, "newton_outer", recording)
    step(state, cfg)
    start = calls[-1][0]
    last = state.history[-1]
    kind = SPECS[scheme].kind
    if SPECS[scheme].lower is not None:
        expected = calls[-2][1]  # the reference step's root
        assert not np.array_equal(start.X, last.curve.vertices)
    else:
        expected = NewtonIterate(last.curve.vertices, last.kappa, last.lam * (kind != "AP"), last.eta * (kind != "PD"))
    assert np.array_equal(start.X, expected.X) and np.array_equal(start.kappa, expected.kappa)
    assert (start.lam, start.eta) == (expected.lam, expected.eta)
    # a multiplier that is not an unknown stays pinned to 0
    if kind == "AP":
        assert start.lam == 0.0
    if kind == "PD":
        assert start.eta == 0.0


def test_failure_is_captured_not_raised():
    cfg = SchemeConfig(scheme="sp-euler", N=32, tau=0.01, T=0.05, shape="mikula", max_newton=1, gamma=0.0)
    result = run(cfg)
    assert not result.ok
    assert isinstance(result.failure, (NewtonDivergenceError, SchemeError))
    assert len(result.series.rows) >= 1  # at least the t=0 row survives
    if isinstance(result.failure, NewtonDivergenceError):
        assert result.failure.last_norm > 0


def test_failed_startup_keeps_the_snapshot_of_its_row():
    # a run that fails inside the startup keeps row 0, and with it the t=0
    # snapshot, as a run that fails in its first step does
    T = 0.05
    cfg = SchemeConfig(scheme="ap-bdf3", N=32, tau=0.01, T=T, shape="mikula", max_newton=1, gamma=0.0)
    result = run(cfg, snapshot_times=[0.0, T / 2, T])
    assert isinstance(result.failure, NewtonDivergenceError)
    assert len(result.series.rows) == 1
    assert [s.t for s in result.snapshots] == [0.0]
    assert np.array_equal(result.snapshots[0].curve.vertices, cfg.make_initial_curve().vertices)


def test_snapshot_times_round_to_grid():
    cfg = SchemeConfig(scheme="sp-euler", N=16, tau=0.025, T=0.2, gamma=0.0)
    result = run(cfg, snapshot_times=[0.0, 0.1001, 99.0, -3.0])
    assert result.ok
    times = [s.t for s in result.snapshots]
    assert times == [0.0, pytest.approx(0.1), pytest.approx(0.2)]
    for snap in result.snapshots:
        assert snap.kappa.shape == (16,)
    assert np.array_equal(result.snapshots[0].curve.vertices, cfg.make_initial_curve().vertices)


def test_diagnostics_rows_one_per_level():
    cfg = SchemeConfig(scheme="sp-bdf2", N=16, tau=0.01, T=0.05, gamma=0.0)
    result = run(cfg)
    assert result.ok
    rows = result.series.rows
    assert len(rows) == 6  # t = 0 .. 0.05
    assert rows[0].t == 0.0 and rows[0].newton_iters == 0
    assert rows[0].L_norm == 1.0 and rows[0].dA == 0.0
    assert [r.t for r in rows] == pytest.approx([0.01 * j for j in range(6)])
    assert all(r.newton_iters >= 1 for r in rows[1:])
