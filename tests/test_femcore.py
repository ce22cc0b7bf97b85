"""Finite element building blocks: lumped products, stiffness, gradients,
discrete curvature, and the Newton template's residual/Jacobian."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from curveflow.femcore import (
    Anchor,
    NewtonIterate,
    ReferenceGeometry,
    SchemeContext,
    assemble_newton_blocks,
    initial_curvature,
    lumped_masses,
    normal_weights,
    stiffness_stencil,
)
from curveflow.geometry import edge_vectors, generate_ellipse, generate_mikula, generate_rectangle, signed_area

import oracles

rng = np.random.default_rng(414243)


def wiggly(n: int = 13) -> np.ndarray:
    theta = 2.0 * np.pi * np.arange(n) / n
    r = 1.0 + 0.3 * np.sin(2 * theta) + 0.15 * np.cos(5 * theta)
    return np.column_stack((r * np.cos(theta), r * np.sin(theta)))


def test_lumped_masses_match_loops():
    v = wiggly()
    assert np.allclose(lumped_masses(v), oracles.loop_masses(v), rtol=1e-14)


def test_normal_weights_match_loops():
    v = wiggly()
    assert np.allclose(normal_weights(v), oracles.loop_omegas(v), rtol=1e-14)


def test_normal_weights_are_area_gradient():
    # the shoelace area is quadratic, so central differences are exact
    v = wiggly()
    omega = normal_weights(v)
    for k in range(len(v)):
        for comp in range(2):
            D = np.zeros_like(v)
            D[k, comp] = 1.0
            fd = oracles.central_difference(oracles.loop_shoelace, v, D, eps=1e-5)
            assert omega[k, comp] == pytest.approx(fd, abs=1e-9)


def test_stiffness_matrix_matches_loop_apply():
    v = wiggly()
    S = oracles.stiffness_matrix(v)
    u = rng.standard_normal(len(v))
    assert np.allclose(S @ u, oracles.loop_stiffness_apply(v, u), rtol=1e-13, atol=1e-13)
    w = rng.standard_normal((len(v), 2))
    assert np.allclose(S @ w, oracles.loop_stiffness_apply(v, w), rtol=1e-13, atol=1e-13)


def test_stiffness_matrix_symmetric_with_constant_kernel():
    v = wiggly()
    S = oracles.stiffness_matrix(v)
    assert abs(S - S.T).max() == 0.0
    assert np.abs(S @ np.ones(len(v))).max() < 1e-13


def test_lumped_inner_is_composite_trapezoid():
    v = wiggly()
    u = rng.standard_normal(len(v))
    w = rng.standard_normal(len(v))
    expected = 0.0
    n = len(v)
    for j in range(n):
        ell = math.dist(v[j], v[(j + 1) % n])
        expected += 0.5 * ell * (u[j] * w[j] + u[(j + 1) % n] * w[(j + 1) % n])
    assert float(lumped_masses(v) @ (u * w)) == pytest.approx(expected, rel=1e-13)


def test_lumped_inner_cauchy_schwarz():
    v = wiggly(11)
    for _ in range(200):
        u = rng.standard_normal(11)
        w = rng.standard_normal(11)
        mass = lumped_masses(v)
        lhs = float(mass @ (u * w)) ** 2
        rhs = float(mass @ (u * u)) * float(mass @ (w * w))
        assert lhs <= rhs * (1.0 + 1e-12)


def test_discrete_curvature_of_regular_polygon():
    # least-squares curvature of a regular N-gon with circumradius R is
    # exactly 1 / (R cos(pi / N)) at every vertex
    for n, radius in ((6, 1.0), (40, 2.5), (129, 0.4)):
        curve = generate_ellipse(radius, radius, n)
        expected = 1.0 / (radius * math.cos(math.pi / n))
        assert np.allclose(initial_curvature(curve), expected, rtol=1e-12)


def test_discrete_curvature_sign_convention():
    # convex curves have positive curvature in this sign system
    assert (initial_curvature(generate_ellipse(2.0, 1.0, 50)) > 0).all()
    # the oscillatory benchmark has genuinely mixed signs
    kappa = initial_curvature(generate_mikula(200))
    assert (kappa > 0).any() and (kappa < 0).any()


def test_discrete_curvature_degenerate_spike():
    # vertex 1's neighbors coincide, so its normal weight vanishes
    spike = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [-1.0, 0.0]])
    with pytest.raises(ValueError):
        initial_curvature(spike)


def _star(n: int, seed: int) -> np.ndarray:
    # a random star-shaped polygon with unequal angular steps
    gen = np.random.default_rng(seed)
    theta = np.sort(gen.uniform(0.0, 2.0 * np.pi, n))
    r = 1.0 + 0.3 * gen.uniform(-1.0, 1.0, n)
    return np.column_stack((r * np.cos(theta), r * np.sin(theta)))


def test_initial_curvature_is_bitwise_the_sparse_product():
    # the curvature sums (S X)_k in a sparse product's order, so every stored
    # initial curvature is exactly the one the sparse product gave
    curves = [wiggly(3), wiggly(4), wiggly(5), wiggly()]
    curves += [generate_ellipse(2.0, 1.0, n).vertices for n in (3, 16, 160, 512)]
    curves += [generate_mikula(n).vertices for n in (16, 64, 160, 512)]
    curves += [generate_rectangle(4.0, 1.0, n).vertices for n in (8, 40, 160, 512)]
    curves += [_star(n, seed) for seed, n in enumerate((7, 50, 300))]
    for v in curves:
        omega = normal_weights(v)
        expected = (omega * (oracles.stiffness_matrix(v) @ v)).sum(axis=1) / (omega * omega).sum(axis=1)
        assert np.array_equal(initial_curvature(v), expected), len(v)


def test_reference_geometry_consistency():
    v = wiggly()
    ref = ReferenceGeometry(v)
    assert ref.n == len(v)
    assert np.array_equal(ref.mass, lumped_masses(v))
    assert np.array_equal(ref.omega, normal_weights(v))
    assert ref.perimeter == pytest.approx(oracles.loop_perimeter(v), rel=1e-14)
    assert np.array_equal(ref.weights, 1.0 / ref.lengths)
    assert np.array_equal(ref.stencil, stiffness_stencil(ref.weights))
    S = oracles.stiffness_matrix(v).toarray()
    for k in range(len(v)):
        assert list(ref.stencil[k]) == [S[k, k - 1], S[k, k], S[k, (k + 1) % len(v)]]


def test_slice_arithmetic_is_bitwise_the_roll_formula():
    # the per-iteration helpers shift by slicing; they must reproduce the
    # periodic np.roll expressions bit for bit
    curves = (wiggly(3), wiggly(), generate_mikula(160).vertices, generate_rectangle(4.0, 1.0, 160).vertices)
    for v in curves:
        h = np.roll(v, -1, axis=0) - v
        assert np.array_equal(edge_vectors(v), h)
        x, y = v[:, 0], v[:, 1]
        assert signed_area(v) == 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))
        ell = np.hypot(h[:, 0], h[:, 1])
        assert np.array_equal(lumped_masses(v), 0.5 * (ell + np.roll(ell, 1)))
        ln = np.column_stack((h[:, 1], -h[:, 0]))
        assert np.array_equal(normal_weights(v), 0.5 * (ln + np.roll(ln, 1, axis=0)))
        u = h / ell[:, None]
        # the perimeter row of the Newton blocks at tau = dL0 = 1 is grad L
        ctx = SchemeContext(delta0=1.0, xhist=np.zeros_like(v), anchor=Anchor(v))
        blocks = assemble_newton_blocks(ctx, ReferenceGeometry(v), NewtonIterate(v, np.zeros(len(v)), 0.0, 0.0), 1.0)
        assert np.array_equal(blocks.rows[0, : 2 * len(v)].reshape(-1, 2), np.roll(u, 1, axis=0) - u)
        w = 1.0 / ell
        stencil = stiffness_stencil(w)
        assert np.array_equal(stencil[:, 0], -np.roll(w, 1))
        assert np.array_equal(stencil[:, 1], w + np.roll(w, 1))
        assert np.array_equal(stencil[:, 2], -w)


def test_reference_geometry_rejects_zero_edge():
    with pytest.raises(ValueError, match="zero-length edge at index 0"):
        ReferenceGeometry(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="zero-length edge at index 3"):
        ReferenceGeometry(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# Newton template: the assembled blocks are the exact Jacobian of the residual


def context_cases(vm, tau):
    n = len(vm)
    Lm = oracles.loop_perimeter(vm)
    A0 = oracles.loop_shoelace(vm)
    kap_prev = initial_curvature(vm)
    anchor = Anchor(vm)
    euler = SchemeContext(delta0=1.0, xhist=-vm, anchor=anchor, A0=A0)
    averaged = SchemeContext(
        delta0=1.0,
        xhist=-vm,
        anchor=anchor,
        averaged=NewtonIterate(vm, kap_prev, 0.1, -0.04),
        dL0=1.0,
        Lhist=-Lm,
        A0=A0,
    )
    two_step = SchemeContext(
        delta0=1.5,
        xhist=-2.0 * vm + 0.5 * (vm + 0.01),
        anchor=anchor,
        dL0=1.5,
        Lhist=-2.0 * Lm + 0.5 * (Lm - 0.03),
        use_area=False,
    )
    area_only = SchemeContext(
        delta0=1.5, xhist=-2.0 * vm + 0.5 * (vm + 0.01), anchor=anchor, use_perimeter=False, A0=A0
    )
    return [euler, averaged, two_step, area_only]


def residual(ctx, ref, it, tau):
    # the residual of the step equations: curvature rows (interleaved),
    # velocity rows, then the laws present
    return -assemble_newton_blocks(ctx, ref, it, tau).rhs


def unpack_for(ctx, z, n):
    X = z[: 2 * n].reshape(n, 2)
    kappa = z[2 * n : 3 * n]
    pos = 3 * n
    lam = eta = 0.0
    if ctx.use_perimeter:
        lam = float(z[pos])
        pos += 1
    if ctx.use_area:
        eta = float(z[pos])
    return NewtonIterate(X=X, kappa=kappa, lam=lam, eta=eta)


def test_newton_blocks_are_exact_jacobian():
    vm = wiggly(7)
    tau = 0.01
    ref = ReferenceGeometry(vm)
    n = 7
    for ctx in context_cases(vm, tau):
        nb = ctx.use_perimeter + ctx.use_area
        z0 = np.concatenate(
            [
                (vm + 0.01 * rng.standard_normal((n, 2))).ravel(),
                initial_curvature(vm) + 0.1 * rng.standard_normal(n),
                0.3 * rng.standard_normal(nb),
            ]
        )
        blocks = assemble_newton_blocks(ctx, ref, unpack_for(ctx, z0, n), tau)
        J, rhs = oracles.dense_from_blocks(blocks)
        dim = 3 * n + nb
        # the dense rows list the velocity rows first, the residual lists
        # the curvature rows first
        order = np.r_[n : 3 * n, :n, 3 * n : dim]
        J, rhs = J[order], rhs[order]

        def res_of(z):
            return residual(ctx, ref, unpack_for(ctx, z, n), tau)

        fd = np.empty((dim, dim))
        eps = 1e-7
        for j in range(dim):
            step = np.zeros(dim)
            step[j] = eps
            fd[:, j] = (res_of(z0 + step) - res_of(z0 - step)) / (2.0 * eps)
        scale = 1.0 + np.abs(J).max()
        assert np.abs(J - fd).max() <= 1e-6 * scale
        # rhs is the negated residual at the iterate
        assert np.allclose(rhs, -res_of(z0), rtol=1e-13, atol=1e-13)


def test_velocity_row_scaling_makes_core_self_adjoint():
    # the tau * alpha / delta0 scaling of the velocity rows is chosen so that
    # the Jacobian's velocity/position block is the transpose of the
    # curvature/kappa block; check it on a finite-difference Jacobian, which
    # knows nothing about how the blocks are assembled
    vm = wiggly(6)
    n = 6
    tau = 0.02
    ref = ReferenceGeometry(vm)
    ctx = SchemeContext(delta0=1.0, xhist=-vm, anchor=Anchor(vm), A0=oracles.loop_shoelace(vm))
    z0 = np.concatenate([vm.ravel(), initial_curvature(vm), [0.1, -0.2]])

    def res_of(z):
        return residual(ctx, ref, unpack_for(ctx, z, n), tau)

    eps = 1e-7
    dim = 3 * n + 2
    fd = np.empty((3 * n, dim))
    for j in range(dim):
        step = np.zeros(dim)
        step[j] = eps
        fd[:, j] = ((res_of(z0 + step) - res_of(z0 - step)) / (2.0 * eps))[: 3 * n]
    vel_pos = fd[2 * n : 3 * n, : 2 * n]
    curv_kap = fd[: 2 * n, 2 * n : 3 * n]
    assert np.abs(vel_pos - curv_kap.T).max() < 1e-7
    # and the curvature/position block is a symmetric (scaled) stiffness
    R = fd[: 2 * n, : 2 * n]
    assert np.abs(R - R.T).max() < 1e-7


def conservation_rows(Y, X, A0, Lhist):
    # tau = 1 and kappa = 0 leave the perimeter row dL0 (L(X) - L(Y)) + (L(Y) + Lhist)
    ctx = SchemeContext(delta0=1.0, xhist=-Y, anchor=Anchor(Y), Lhist=Lhist, A0=A0)
    res = residual(ctx, ReferenceGeometry(Y), NewtonIterate(X, np.zeros(len(X)), 0.0, 0.0), 1.0)
    return float(res[-2]), float(res[-1])


def exact_area(V):
    x = [Fraction(float(c)) for c in V[:, 0]]
    y = [Fraction(float(c)) for c in V[:, 1]]
    return sum(x[k] * y[k - len(x) + 1] - x[k - len(x) + 1] * y[k] for k in range(len(x))) / 2


def precise_perimeter(V):
    with localcontext() as ctx:
        ctx.prec = 60
        total = Decimal(0)
        for k in range(len(V)):
            dx = Decimal(float(V[(k + 1) % len(V), 0])) - Decimal(float(V[k, 0]))
            dy = Decimal(float(V[(k + 1) % len(V), 1])) - Decimal(float(V[k, 1]))
            total += (dx * dx + dy * dy).sqrt()
        return total


def test_conservation_rows_are_increments_from_the_anchor():
    for n in (3, 9, 40):
        Y = wiggly(n)
        # at X = Y the increments vanish exactly
        A0 = 0.37
        area_row = conservation_rows(Y, Y.copy(), A0, 0.0)[1]
        assert area_row == Anchor(Y).A - A0
        for size in (1e-1, 1e-4, 1e-9):
            X = Y + size * rng.standard_normal(Y.shape)
            # the rows are the perimeter and area of X
            per_row, area_row = conservation_rows(Y, X, 0.0, 0.0)
            assert abs(per_row - oracles.loop_perimeter(X)) <= 1e-13
            assert abs(area_row - oracles.loop_shoelace(X)) <= 1e-13
            # with the anchor's own values subtracted exactly, what is left is
            # the increment, whose rounding error scales with |X - Y|
            anchor = Anchor(Y)
            per_row, area_row = conservation_rows(Y, X, anchor.A, -anchor.L)
            scale = np.abs(X - Y).max()
            assert abs(Fraction(area_row) - (exact_area(X) - exact_area(Y))) <= 1e-14 * scale
            assert abs(Decimal(per_row) - (precise_perimeter(X) - precise_perimeter(Y))) <= Decimal(1e-14 * scale)
