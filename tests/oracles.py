"""Independent reference implementations used as oracles by the test suite.

Everything here is written from first principles: geometry by explicit
loops, areas by Monte Carlo sampling, the implicit step equations solved
with a generic library root finder on finite-difference Jacobians.  None of
it shares code with the package beyond the plain container of a Newton
step's blocks, so agreement is evidence of correctness rather than a
tautology.  The one exception is `stiffness_matrix`, which takes the
package's stencil so that products with it can be compared bit for bit.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Optional

import numpy as np
import scipy.optimize
import scipy.sparse

from curveflow.femcore import NewtonBlocks, stiffness_stencil
from curveflow.geometry import edge_lengths


# ---------------------------------------------------------------------------
# polygon geometry by explicit loops


def loop_perimeter(V: np.ndarray) -> float:
    n = len(V)
    total = 0.0
    for j in range(n):
        total += math.dist(V[j], V[(j + 1) % n])
    return total


def loop_shoelace(V: np.ndarray) -> float:
    n = len(V)
    twice = 0.0
    for j in range(n):
        k = (j + 1) % n
        twice += V[j, 0] * V[k, 1] - V[k, 0] * V[j, 1]
    return 0.5 * twice


def loop_masses(V: np.ndarray) -> np.ndarray:
    n = len(V)
    out = np.empty(n)
    for k in range(n):
        back = math.dist(V[k - 1], V[k])
        fwd = math.dist(V[k], V[(k + 1) % n])
        out[k] = 0.5 * (back + fwd)
    return out


def loop_omegas(V: np.ndarray) -> np.ndarray:
    # lumped outward normal weights: gradient of the shoelace area
    n = len(V)
    out = np.empty((n, 2))
    for k in range(n):
        nxt, prv = V[(k + 1) % n], V[k - 1]
        out[k] = (0.5 * (nxt[1] - prv[1]), 0.5 * (prv[0] - nxt[0]))
    return out


def loop_stiffness_apply(Vref: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(S u)_k = (u_k - u_{k-1}) / |h_{k-1}| + (u_k - u_{k+1}) / |h_k| with
    edge lengths taken from the reference polygon."""
    n = len(Vref)
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    for k in range(n):
        back = math.dist(Vref[k - 1], Vref[k])
        fwd = math.dist(Vref[k], Vref[(k + 1) % n])
        out[k] = (u[k] - u[k - 1]) / back + (u[k] - u[(k + 1) % n]) / fwd
    return out


def loop_curvature(V: np.ndarray) -> np.ndarray:
    # least-squares nodal curvature, only used to seed the root finder
    om = loop_omegas(V)
    SX = loop_stiffness_apply(V, V)
    return (om * SX).sum(axis=1) / (om * om).sum(axis=1)


def stiffness_matrix(V: np.ndarray) -> scipy.sparse.csr_matrix:
    """The package's periodic stiffness stencil on the edge weights 1 / |h_j|
    as a CSR matrix, whose product sums each row over its columns in
    ascending order."""
    st = stiffness_stencil(1.0 / edge_lengths(V))
    n = len(st)
    rows = np.concatenate((np.arange(n), np.arange(n), np.arange(n)))
    cols = np.concatenate((np.arange(n), (np.arange(n) + 1) % n, (np.arange(n) - 1) % n))
    data = np.concatenate((st[:, 1], st[:, 2], st[:, 0]))
    return scipy.sparse.csr_matrix((data, (rows, cols)), shape=(n, n))


def central_difference(f, V: np.ndarray, D: np.ndarray, eps: float = 1e-6) -> float:
    return (f(V + eps * D) - f(V - eps * D)) / (2.0 * eps)


# ---------------------------------------------------------------------------
# Monte Carlo area of a polygon intersection


def points_in_polygon(pts: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Even-odd ray casting along +x.  The samples are sorted by y once; an
    edge toggles exactly the samples in its half-open band
    min(y0, y1) <= y < max(y0, y1), one contiguous slice of the sorted
    samples."""
    order = np.argsort(pts[:, 1])
    x, y = pts[order, 0], pts[order, 1]
    inside = np.zeros(len(pts), dtype=bool)
    n = len(V)
    for j in range(n):
        x0, y0 = V[j]
        x1, y1 = V[(j + 1) % n]
        band = slice(*np.searchsorted(y, (min(y0, y1), max(y0, y1)), "left"))
        xi = x0 + (y[band] - y0) * (x1 - x0) / (y1 - y0)
        inside[band] ^= x[band] < xi
    out = np.empty_like(inside)
    out[order] = inside
    return out


def mc_intersection_area(A: np.ndarray, B: np.ndarray, n_samples: int, seed: int):
    """Monte Carlo |interior(A) cap interior(B)|; returns (estimate, sigma)."""
    lo = np.maximum(A.min(axis=0), B.min(axis=0))
    hi = np.minimum(A.max(axis=0), B.max(axis=0))
    if (hi <= lo).any():
        return 0.0, 0.0
    box = float(np.prod(hi - lo))
    rng = np.random.default_rng(seed)
    hits = 0
    remaining = n_samples
    while remaining:
        chunk = min(250_000, remaining)
        remaining -= chunk
        pts = rng.uniform(lo, hi, size=(chunk, 2))
        hits += int((points_in_polygon(pts, A) & points_in_polygon(pts, B)).sum())
    p = hits / n_samples
    sigma = box * math.sqrt(max(p * (1.0 - p), 1e-300) / n_samples)
    return box * p, sigma


# ---------------------------------------------------------------------------
# all-pairs simplicity test and per-point winding test
#
# The library lists candidate edge pairs by a sort-and-sweep and classifies
# sample points in one batch; these are the all-pairs and one-point versions
# it replaced, kept as references.  Both decide every orientation with
# `_orientation`: by its own float bound, and exactly in rationals where the
# bound leaves it open, so agreement also checks the library's orientation
# filter.


def _orientation(ax, ay, bx, by, cx, cy) -> np.ndarray:
    """Signs of cross(b - a, c - a) over broadcast arrays: the float sign
    where the determinant clears its error bound, the sign of the rational
    determinant elsewhere."""
    ax, ay, bx, by, cx, cy = np.broadcast_arrays(ax, ay, bx, by, cx, cy)
    detl = (bx - ax) * (cy - ay)
    detr = (by - ay) * (cx - ax)
    det = detl - detr
    sign = np.sign(det).astype(int)
    # 4 eps bounds the rounding of the differences, the two products and
    # their difference
    for idx in zip(*np.nonzero(np.abs(det) <= 4.0 * np.finfo(float).eps * (np.abs(detl) + np.abs(detr)))):
        x0, y0, x1, y1, x2, y2 = (Fraction(float(u[idx])) for u in (ax, ay, bx, by, cx, cy))
        exact = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
        sign[idx] = (exact > 0) - (exact < 0)
    return sign


def all_pairs_is_simple(v: np.ndarray) -> bool:
    """True if no two non-adjacent edges intersect and no vertex folds back
    onto the previous edge, by the dense N x N test of every edge pair with
    exact orientations."""
    v = np.asarray(v, dtype=float)
    n = len(v)
    a = v
    b = np.roll(v, -1, axis=0)
    c = np.roll(v, -2, axis=0)
    # a fold-back: a, b, c collinear and the edges a b and b c opposed
    turn = _orientation(a[:, 0], a[:, 1], b[:, 0], b[:, 1], c[:, 0], c[:, 1])
    dot_consec = ((b - a) * (c - b)).sum(axis=1)
    if bool(((turn == 0) & (dot_consec < 0.0)).any()):
        return False

    ax, ay = a[:, 0], a[:, 1]
    bx, by = b[:, 0], b[:, 1]
    # d1[i,j]: side of edge j's line that edge i's start point falls on, etc.
    d1 = _orientation(ax[None, :], ay[None, :], bx[None, :], by[None, :], ax[:, None], ay[:, None])
    d2 = _orientation(ax[None, :], ay[None, :], bx[None, :], by[None, :], bx[:, None], by[:, None])
    d3 = _orientation(ax[:, None], ay[:, None], bx[:, None], by[:, None], ax[None, :], ay[None, :])
    d4 = _orientation(ax[:, None], ay[:, None], bx[:, None], by[:, None], bx[None, :], by[None, :])
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
        ((d1 == 0) & _on_segment(ax[:, None], ay[:, None], ax[None, :], ay[None, :], bx[None, :], by[None, :]))
        | ((d2 == 0) & _on_segment(bx[:, None], by[:, None], ax[None, :], ay[None, :], bx[None, :], by[None, :]))
        | ((d3 == 0) & _on_segment(ax[None, :], ay[None, :], ax[:, None], ay[:, None], bx[:, None], by[:, None]))
        | ((d4 == 0) & _on_segment(bx[None, :], by[None, :], ax[:, None], ay[:, None], bx[:, None], by[:, None]))
    )

    idx = np.arange(n)
    nonadjacent = np.ones((n, n), dtype=bool)
    nonadjacent[idx, idx] = False
    nonadjacent[idx, (idx + 1) % n] = False
    nonadjacent[(idx + 1) % n, idx] = False
    return not bool(((proper | touch) & nonadjacent).any())


def strict_inside(x: float, y: float, W: np.ndarray, W1: np.ndarray) -> Optional[bool]:
    """Winding-number test of one point against a closed polygon.  Returns
    True/False for strictly inside/outside and None when the point lies
    exactly on the boundary."""
    wx0, wy0 = W[:, 0], W[:, 1]
    wx1, wy1 = W1[:, 0], W1[:, 1]
    flat = (wy0 == y) & (wy1 == y)
    if flat.any():
        for idx in np.flatnonzero(flat):
            if min(wx0[idx], wx1[idx]) <= x <= max(wx0[idx], wx1[idx]):
                return None
    up = (wy0 <= y) & (wy1 > y)
    dn = (wy1 <= y) & (wy0 > y)
    cand = up | dn
    if not cand.any():
        return False
    turn = _orientation(wx0[cand], wy0[cand], wx1[cand], wy1[cand], x, y)
    if (turn == 0).any():
        return None
    wn = int(np.count_nonzero(up[cand] & (turn > 0))) - int(np.count_nonzero(dn[cand] & (turn < 0)))
    return wn != 0


# ---------------------------------------------------------------------------
# implicit time steps solved with a generic root finder
#
# Unknown layout: X (2N, row-major pairs), kappa (N), then lam and/or eta.
# The equations are spelled out directly; all reference quantities come from
# the loop implementations above.


def _solve(resid, z0: np.ndarray) -> np.ndarray:
    sol = scipy.optimize.root(resid, z0, method="hybr", tol=1e-13)
    final = np.abs(resid(sol.x)).max()
    if not sol.success and final > 1e-10:
        raise RuntimeError(f"oracle root finder failed: {sol.message} (|r|={final:.2e})")
    return sol.x


def _unpack(z: np.ndarray, n: int, has_lam: bool, has_eta: bool) -> Dict[str, object]:
    out = {"X": z[: 2 * n].reshape(n, 2), "kappa": z[2 * n : 3 * n]}
    pos = 3 * n
    out["lam"] = float(z[pos]) if has_lam else 0.0
    pos += has_lam
    out["eta"] = float(z[pos]) if has_eta else 0.0
    return out


def oracle_euler_step(Vm: np.ndarray, tau: float, flavor: str, A0: Optional[float] = None):
    """One backward-Euler step; flavor 'sp' keeps both scalar laws, 'pd' only
    the perimeter law, 'ap' only the area law.  Reference geometry is the
    current curve."""
    n = len(Vm)
    ref = Vm
    m, om = loop_masses(ref), loop_omegas(ref)
    Lm = loop_perimeter(Vm)
    A0 = loop_shoelace(Vm) if A0 is None else A0
    has_lam = flavor in ("sp", "pd")
    has_eta = flavor in ("sp", "ap")

    def resid(z):
        it = _unpack(z, n, has_lam, has_eta)
        X, kap = it["X"], it["kappa"]
        Sk = loop_stiffness_apply(ref, kap)
        SX = loop_stiffness_apply(ref, X)
        rows = []
        for k in range(n):
            rows.append(om[k] @ (X[k] - Vm[k]) + tau * (Sk[k] - it["lam"] * m[k] * kap[k] - it["eta"] * m[k]))
        for k in range(n):
            rows.extend(kap[k] * om[k] - SX[k])
        if has_lam:
            # perimeter law, scaled by tau to keep the rows comparably sized
            rows.append((loop_perimeter(X) - Lm) + tau * (kap @ Sk))
        if has_eta:
            rows.append(loop_shoelace(X) - A0)
        return np.array(rows)

    z0 = np.concatenate([Vm.ravel(), loop_curvature(Vm), np.zeros(has_lam + has_eta)])
    return _unpack(_solve(resid, z0), n, has_lam, has_eta)


def oracle_cn_step(Vm: np.ndarray, kappam: np.ndarray, lamm: float, etam: float, tau: float, A0: float):
    """One Crank-Nicolson step, solved for the end level: the unknowns enter
    every equation averaged with the previous level, and the laws hold on
    the end level; reference geometry is a half-step Euler predictor.
    Returns the end level's curve, curvature and multipliers.  The scheme
    solves for the midpoint level instead and stores the end level's curve
    and curvature with the midpoint multipliers 1/2 (lam_end + lam_prev) and
    1/2 (eta_end + eta_prev), the ones that act in the velocity rows."""
    n = len(Vm)
    ref = oracle_euler_step(Vm, 0.5 * tau, "sp", A0=A0)["X"]
    m, om = loop_masses(ref), loop_omegas(ref)
    Lm = loop_perimeter(Vm)

    def resid(z):
        it = _unpack(z, n, True, True)
        X = it["X"]
        kmid = 0.5 * (it["kappa"] + kappam)
        lmid = 0.5 * (it["lam"] + lamm)
        emid = 0.5 * (it["eta"] + etam)
        Xmid = 0.5 * (X + Vm)
        Sk = loop_stiffness_apply(ref, kmid)
        SX = loop_stiffness_apply(ref, Xmid)
        rows = []
        for k in range(n):
            rows.append(om[k] @ (X[k] - Vm[k]) + tau * (Sk[k] - lmid * m[k] * kmid[k] - emid * m[k]))
        for k in range(n):
            rows.extend(kmid[k] * om[k] - SX[k])
        rows.append((loop_perimeter(X) - Lm) + tau * (kmid @ Sk))
        rows.append(loop_shoelace(X) - A0)
        return np.array(rows)

    z0 = np.concatenate([Vm.ravel(), kappam, [lamm, etam]])
    return _unpack(_solve(resid, z0), n, True, True)


def oracle_bdf2_step(Vm: np.ndarray, Vm1: np.ndarray, tau: float, flavor: str, A0: float, variant: bool = False):
    """One BDF2 step from levels (m-1, m); the reference geometry is a full
    Euler predictor step of the same flavor.  ``variant`` switches the
    perimeter law to the first-order backward difference."""
    n = len(Vm)
    ref = oracle_euler_step(Vm, tau, flavor, A0=A0)["X"]
    m, om = loop_masses(ref), loop_omegas(ref)
    Lm, Lm1 = loop_perimeter(Vm), loop_perimeter(Vm1)
    has_lam = flavor in ("sp", "pd")
    has_eta = flavor in ("sp", "ap")

    def resid(z):
        it = _unpack(z, n, has_lam, has_eta)
        X, kap = it["X"], it["kappa"]
        Sk = loop_stiffness_apply(ref, kap)
        SX = loop_stiffness_apply(ref, X)
        rows = []
        for k in range(n):
            dt = 1.5 * X[k] - 2.0 * Vm[k] + 0.5 * Vm1[k]
            rows.append(om[k] @ dt + tau * (Sk[k] - it["lam"] * m[k] * kap[k] - it["eta"] * m[k]))
        for k in range(n):
            rows.extend(kap[k] * om[k] - SX[k])
        if has_lam:
            if variant:
                dL = loop_perimeter(X) - Lm
            else:
                dL = 1.5 * loop_perimeter(X) - 2.0 * Lm + 0.5 * Lm1
            rows.append(dL + tau * (kap @ Sk))
        if has_eta:
            rows.append(loop_shoelace(X) - A0)
        return np.array(rows)

    z0 = np.concatenate([ref.ravel(), loop_curvature(ref), np.zeros(has_lam + has_eta)])
    return _unpack(_solve(resid, z0), n, has_lam, has_eta)


# BDF coefficients (delta_0, ..., delta_k) as printed in textbooks
BDF = {
    1: (1.0, -1.0),
    2: (1.5, -2.0, 0.5),
    3: (11 / 6, -3.0, 1.5, -1 / 3),
    4: (25 / 12, -4.0, 3.0, -4 / 3, 0.25),
}


def oracle_ap_step(levels, tau: float, k: int, A0: float):
    """One order-k BDF step of the area-preserving formulation from the
    newest k of ``levels`` (vertex arrays, oldest first): area law only, no
    perimeter law.  The reference geometry is the curve of the order-(k-1)
    oracle step from the same levels, or the newest level when k = 1."""
    Vm = levels[-1]
    n = len(Vm)
    ref = Vm if k == 1 else oracle_ap_step(levels, tau, k - 1, A0)["X"]
    m, om = loop_masses(ref), loop_omegas(ref)
    delta = BDF[k]

    def resid(z):
        it = _unpack(z, n, False, True)
        X, kap = it["X"], it["kappa"]
        Sk = loop_stiffness_apply(ref, kap)
        SX = loop_stiffness_apply(ref, X)
        rows = []
        for j in range(n):
            dt = delta[0] * X[j]
            for i in range(1, k + 1):
                dt = dt + delta[i] * levels[-i][j]
            rows.append(om[j] @ dt + tau * (Sk[j] - it["eta"] * m[j]))
        for j in range(n):
            rows.extend(kap[j] * om[j] - SX[j])
        rows.append(loop_shoelace(X) - A0)
        return np.array(rows)

    z0 = np.concatenate([ref.ravel(), loop_curvature(ref), [0.0]])
    return _unpack(_solve(resid, z0), n, False, True)


def _end_level(ctx, X: np.ndarray) -> np.ndarray:
    # the level the laws hold on: Y + end (X - Y), vertex by vertex, with
    # the anchor Y; a Crank-Nicolson step solves for its midpoint level X
    # (end = 2), so its laws act on the level twice as far from Y
    Y = ctx.anchor
    return np.array([[Y[k, c] + ctx.end * (X[k, c] - Y[k, c]) for c in range(2)] for k in range(len(X))])


def template_residual(ctx, Vref: np.ndarray, it, tau: float):
    """The residual of femcore's step template (the SchemeContext equations,
    velocity rows scaled by tau / delta0) at the iterate, by loops over the
    vertices, in the order curvature rows (interleaved), velocity rows,
    perimeter law?, area law?.  The curvature and velocity rows take the
    iterate itself, the laws its end level Z (see _end_level).  The
    perimeter law uses the perimeter of Z itself, not its increment from
    the anchor.  Returns (value, size): size is the sum of the absolute
    values of each row's terms, the scale at which rounding enters."""
    n = len(Vref)
    m, om = loop_masses(Vref), loop_omegas(Vref)
    w = [1.0 / math.dist(Vref[k], Vref[(k + 1) % n]) for k in range(n)]
    X, kap, lam, eta = it
    Z = _end_level(ctx, X)

    def stiffness_terms(u, k):
        # the four terms of (S u)_k
        return [w[k - 1] * u[k], -w[k - 1] * u[k - 1], w[k] * u[k], -w[k] * u[(k + 1) % n]]

    rows = []
    for k in range(n):
        for c in range(2):
            rows.append([kap[k] * om[k, c]] + [-t[c] for t in stiffness_terms(X, k)])
    s_time, s_flux = 1.0 / ctx.delta0, tau / ctx.delta0
    for k in range(n):
        terms = [s_time * om[k, c] * ctx.delta0 * X[k, c] for c in range(2)]
        terms += [s_time * om[k, c] * ctx.xhist[k, c] for c in range(2)]
        terms += [s_flux * t for t in stiffness_terms(kap, k)]
        terms += [-s_flux * lam * m[k] * kap[k], -s_flux * eta * m[k]]
        rows.append(terms)
    if ctx.use_perimeter:
        terms = [ctx.dL0 * loop_perimeter(Z) / tau, ctx.Lhist / tau]
        rows.append(terms + [kap[k] * t for k in range(n) for t in stiffness_terms(kap, k)])
    if ctx.use_area:
        cross = [0.5 * Z[k, 0] * Z[(k + 1) % n, 1] for k in range(n)]
        cross += [-0.5 * Z[(k + 1) % n, 0] * Z[k, 1] for k in range(n)]
        rows.append(cross + [-ctx.A0])
    value = np.array([math.fsum(terms) for terms in rows])
    size = np.array([math.fsum(abs(t) for t in terms) for terms in rows])
    return value, size


def template_jacobian_row_norms(ctx, Vref: np.ndarray, it, tau: float) -> np.ndarray:
    """Upper bounds of the 1-norms of the rows of template_residual's
    Jacobian with respect to (X, kappa, lam?, eta?) at the iterate, in its
    row order: |J_i . d| <= norms[i] |d|_inf for every direction d.  Each
    row's derivatives are written out from the template's equations, and
    terms that fall on the same unknown are bounded by the triangle
    inequality.  The laws' position gradients are taken at the end level Z
    and carry the chain factor end = dZ / dX."""
    n = len(Vref)
    m, om = loop_masses(Vref), loop_omegas(Vref)
    w = [1.0 / math.dist(Vref[k], Vref[(k + 1) % n]) for k in range(n)]
    kap, lam = it.kappa, it.lam
    Z = _end_level(ctx, it.X)
    s_flux = tau / ctx.delta0
    norms = []
    for k in range(n):
        # kappa omega - S X, on kappa_k and on X_{k-1}, X_k, X_{k+1}
        for c in range(2):
            norms.append(abs(om[k, c]) + 2.0 * (w[k - 1] + w[k]))
    for k in range(n):
        # on X_k (weight omega_k), on kappa_{k-1}, kappa_k, kappa_{k+1}
        # (stiffness and lam m_k), on lam (m_k kappa) and on eta (m_k)
        row = abs(om[k, 0]) + abs(om[k, 1]) + s_flux * (2.0 * (w[k - 1] + w[k]) + abs(lam) * m[k])
        row += s_flux * m[k] * (abs(kap[k]) * ctx.use_perimeter + ctx.use_area)
        norms.append(row)
    if ctx.use_perimeter:
        # dL0 L(Z) / tau: each edge's unit tangent on its two ends; and the
        # gradient 2 S kappa of kappa^T S kappa
        tangents = sum(2.0 * (abs(a) + abs(b)) / math.hypot(a, b) for a, b in np.roll(Z, -1, axis=0) - Z)
        norms.append(ctx.end * ctx.dL0 * tangents / tau + 2.0 * float(np.abs(loop_stiffness_apply(Vref, kap)).sum()))
    if ctx.use_area:
        # the shoelace gradient at Z_k is ((Z_{k+1} - Z_{k-1})_y, (Z_{k-1} - Z_{k+1})_x) / 2
        norms.append(ctx.end * 0.5 * float(np.abs(np.roll(Z, -1, axis=0) - np.roll(Z, 1, axis=0)).sum()))
    return np.array(norms)


# ---------------------------------------------------------------------------
# dense bordered systems


def dense_from_blocks(blocks: NewtonBlocks):
    """Assemble the full dense Newton matrix and right-hand side entry by
    entry from the block fields.  Rows: velocity k, then curvature (k, c) at
    n + 2k + c, then the border rows (perimeter law, area law); columns:
    position (k, c) at 2k + c, curvature k at 2n + k, then lam and eta; zero
    corner.  P[k] sits on (x_k, y_k) in velocity row k and, transposed, on
    kappa_k in the curvature rows of vertex k; Q[k] and R[k] hold the
    coefficients of vertices k-1, k, k+1 (periodic).  blocks.rhs lists the
    curvature rows (interleaved) before the velocity rows."""
    n = len(blocks.P)
    nb = len(blocks.rows)
    dim = 3 * n + nb
    M = np.zeros((dim, dim))
    rhs = np.zeros(dim)
    for k in range(n):
        rhs[k] = blocks.rhs[2 * n + k]
        for c in range(2):
            M[k, 2 * k + c] += blocks.P[k, c]
            M[n + 2 * k + c, 2 * n + k] += blocks.P[k, c]
            rhs[n + 2 * k + c] = blocks.rhs[2 * k + c]
        for s, j in enumerate(((k - 1) % n, k, (k + 1) % n)):
            M[k, 2 * n + j] += blocks.Q[k, s]
            for c in range(2):
                M[n + 2 * k + c, 2 * j + c] += blocks.R[k, s]
    col = 3 * n
    for a in (blocks.a1, blocks.a2):
        if a is not None:
            for k in range(n):
                M[k, col] = a[k]
            col += 1
    for r in range(nb):
        for j in range(3 * n):
            M[3 * n + r, j] = blocks.rows[r, j]
        rhs[3 * n + r] = blocks.rhs[3 * n + r]
    return M, rhs


def solve_bordered_dense(blocks: NewtonBlocks) -> np.ndarray:
    """Solve the Newton system as one dense matrix; refuses cores larger
    than 3 * 64."""
    m = 3 * len(blocks.P)
    if m > 192:
        raise ValueError(f"dense solve limited to cores of size <= 192, got {m}")
    M, rhs = dense_from_blocks(blocks)
    return np.linalg.solve(M, rhs)


def residual_norm(blocks: NewtonBlocks, z: np.ndarray) -> float:
    """Max-norm residual ||M z - rhs||_inf of the dense Newton system."""
    M, rhs = dense_from_blocks(blocks)
    return float(np.abs(M @ z - rhs).max())


def random_blocks(rng: np.random.Generator, n: int = 8, flavor: str = "both") -> NewtonBlocks:
    """Random blocks with the bordered layout, a random value on every
    structural nonzero of the core (the entries Q[0, 0], R[0, 0], Q[-1, 2]
    and R[-1, 2] that close the curve included) and of the border rows (the
    area row has no curvature part); flavor picks which borders exist
    ('lam', 'eta', 'both')."""
    if flavor not in ("lam", "eta", "both"):
        raise ValueError(f"unknown border flavor {flavor!r}")
    with_lam = flavor in ("lam", "both")
    with_eta = flavor in ("eta", "both")
    P = rng.standard_normal((n, 2))
    Q = rng.standard_normal((n, 3))
    R = rng.standard_normal((n, 3))
    a1 = rng.standard_normal(n) if with_lam else None
    a2 = rng.standard_normal(n) if with_eta else None
    rows = np.zeros((with_lam + with_eta, 3 * n))
    if with_lam:
        rows[0, : 2 * n] = rng.standard_normal(2 * n)
        rows[0, 2 * n :] = rng.standard_normal(n)
    if with_eta:
        rows[-1, : 2 * n] = rng.standard_normal(2 * n)
    velocity = rng.standard_normal(n)
    curvature = rng.standard_normal(2 * n)
    laws = [float(rng.standard_normal()) for _ in range(len(rows))]
    rhs = np.concatenate((curvature, velocity, laws))
    return NewtonBlocks(P=P, Q=Q, R=R, a1=a1, a2=a2, rows=rows, rhs=rhs)


def svd_schur_step(BZ: np.ndarray, bound: np.ndarray, tail: np.ndarray):
    """The multiplier step of a bordered solve by NumPy's SVD: from BZ =
    border_rows @ [g, Y], the cancellation bound |border_rows| |Y| and the
    border rows' rhs entries, equilibrate S = -border_rows Y by the bound
    (largest entry 1 in every row, then every column; an all-zero row or
    column keeps scale 1), and solve S mu = tail - border_rows g through the
    SVD.  Returns (singular values of the equilibrated S, mu)."""
    schur, h = -BZ[:, 1:], tail - BZ[:, 0]
    row = np.array([1.0 / v if v > 0.0 else 1.0 for v in bound.max(axis=1)])
    col = np.array([1.0 / v if v > 0.0 else 1.0 for v in (row[:, None] * bound).max(axis=0)])
    U, sing, Vt = np.linalg.svd(row[:, None] * schur * col)
    with np.errstate(divide="ignore", invalid="ignore"):
        mu = col * (Vt.T @ ((U.T @ (row * h)) / sing))
    return sing, mu
