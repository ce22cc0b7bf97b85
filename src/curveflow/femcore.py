"""Piecewise-linear finite element machinery on a closed reference polygon.

Nodal scalar fields are plain ``(N,)`` float arrays, vector fields are
``(N, 2)`` arrays; for the Newton system vector unknowns are flattened to the
interleaved layout ``(x_0, y_0, x_1, y_1, ...)`` (a C-order ravel).

The Newton linearization of every time-stepping scheme in this package fits a
single template.  With the new curve ``X``, curvature ``kappa`` and the
multipliers ``lam`` (perimeter law) and ``eta`` (area law) as unknowns, and a
frozen reference polygon supplying the lumped masses ``m``, lumped normal
weights ``omega`` and the periodic tridiagonal stiffness ``S``, the residual
rows are, in this order,

* curvature row (two per vertex, interleaved),
* velocity row (one per vertex, scaled by ``tau * alpha / delta0`` so that the
  position block of its Jacobian equals the transpose of the curvature
  equation's kappa block),
* optionally a perimeter row and an area row, whose gradients are evaluated
  exactly on the current iterate's polygon.

The unknowns are ordered alike: positions (interleaved), curvatures, then the
multipliers present.

``SchemeContext`` carries the per-scheme coefficients of the template.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .geometry import _as_vertices, _forward_difference, _nonzero_edge_lengths, _shoelace, edge_lengths, edge_vectors

__all__ = [
    "lumped_masses",
    "normal_weights",
    "stiffness_stencil",
    "initial_curvature",
    "ReferenceGeometry",
    "Anchor",
    "SchemeContext",
    "NewtonIterate",
    "NewtonBlocks",
    "assemble_newton_blocks",
]


def lumped_masses(curve) -> np.ndarray:
    """Vertex masses m_k = (|h_{k-1}| + |h_k|) / 2 of the lumped inner product."""
    return _sum_with_previous(edge_lengths(curve), 0.5)


def _sum_with_previous(a: np.ndarray, scale: float) -> np.ndarray:
    # scale * (a_k + a_{k-1}) along the first axis, periodic
    out = np.empty(a.shape)
    np.add(a[1:], a[:-1], out=out[1:])
    np.add(a[:1], a[-1:], out=out[:1])
    out *= scale
    return out


def normal_weights(curve) -> np.ndarray:
    """Lumped outward normal weights.

    omega_k = (|h_{k-1}| n_{k-1} + |h_k| n_k) / 2
            = ((y_{k+1} - y_{k-1}) / 2, (x_{k-1} - x_{k+1}) / 2),
    which is exactly the gradient of the shoelace area at vertex k.
    """
    return _normal_weights(edge_vectors(curve))


def _normal_weights(h: np.ndarray) -> np.ndarray:
    # normal_weights from the edge vectors h
    ln = np.column_stack((h[:, 1], -h[:, 0]))  # |h_j| n_j without normalizing
    return _sum_with_previous(ln, 0.5)


def stiffness_stencil(weights: np.ndarray) -> np.ndarray:
    """Rows of the periodic tridiagonal stiffness matrix from the edge weights
    w_j = 1 / |h_j|: an (N, 3) array whose row k holds the coefficients of
    u_{k-1}, u_k and u_{k+1} in (S u)_k = -w_{k-1} u_{k-1} + (w_{k-1} + w_k) u_k
    - w_k u_{k+1}."""
    st = np.empty((len(weights), 3))
    st[0, 0] = -weights[-1]
    st[1:, 0] = -weights[:-1]
    st[:, 1] = _sum_with_previous(weights, 1.0)
    st[:, 2] = -weights
    return st


def stiffness_apply(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(S u)_k = w_{k-1} (u_k - u_{k-1}) - w_k (u_{k+1} - u_k) for a nodal
    scalar (N,) or vector (N, 2) field, as the difference of edge fluxes."""
    flux = _forward_difference(u)
    flux *= weights if u.ndim == 1 else weights[:, None]
    out = np.empty(flux.shape)
    np.subtract(flux[:-1], flux[1:], out=out[1:])
    np.subtract(flux[-1:], flux[:1], out=out[:1])
    return out


def perimeter_gradient(curve) -> np.ndarray:
    """Exact gradient of the perimeter: grad L_k = u_{k-1} - u_k with unit
    tangents u_j = h_j / |h_j|."""
    h = edge_vectors(curve)
    return _perimeter_gradient(h, np.hypot(h[:, 0], h[:, 1]))


def _perimeter_gradient(h: np.ndarray, hlen: np.ndarray) -> np.ndarray:
    # perimeter_gradient from the edge vectors h and their lengths hlen
    u = h / hlen[:, None]
    grad = np.empty(u.shape)
    np.subtract(u[:-1], u[1:], out=grad[1:])
    np.subtract(u[-1:], u[:1], out=grad[:1])
    return grad


def initial_curvature(curve) -> np.ndarray:
    """Least-squares nodal curvature of a polygon.

    The overdetermined system kappa_k omega_k = (S X)_k (two equations per
    vertex, one unknown) decouples vertex by vertex; the normal equations give
    kappa_k = omega_k . (S X)_k / |omega_k|^2.
    """
    vertices = _as_vertices(curve)
    omega = normal_weights(vertices)
    st = stiffness_stencil(1.0 / edge_lengths(vertices))
    # (S X)_k summed from 0 over row k's columns in ascending order (the
    # order of a sparse product), which keeps the curvature of every stored
    # curve bitwise the same; the wrap rows 0 and N-1 need their own order
    left, right = np.roll(vertices, 1, axis=0), np.roll(vertices, -1, axis=0)
    v = 0.0 + st[:, :1] * left + st[:, 1:2] * vertices + st[:, 2:] * right
    v[0] = 0.0 + st[0, 1] * vertices[0] + st[0, 2] * vertices[1] + st[0, 0] * vertices[-1]
    v[-1] = 0.0 + st[-1, 2] * vertices[0] + st[-1, 0] * vertices[-2] + st[-1, 1] * vertices[-1]
    wsq = (omega * omega).sum(axis=1)
    floor = (1e-13 * lumped_masses(vertices)) ** 2
    if (wsq <= floor).any():
        bad = int(np.flatnonzero(wsq <= floor)[0])
        raise ValueError(f"degenerate normal weight at vertex {bad}")
    return (omega * v).sum(axis=1) / wsq


class ReferenceGeometry:
    """Frozen reference polygon with the quantities every Newton assembly
    reuses: lumped masses, normal weights, the edge weights 1 / |h_j| and the
    stiffness stencil built from them."""

    __slots__ = ("vertices", "lengths", "mass", "omega", "weights", "stencil", "perimeter")

    def __init__(self, curve) -> None:
        v = _as_vertices(curve)
        self.vertices = np.array(v, dtype=float)
        self.lengths = _nonzero_edge_lengths(self.vertices)
        self.mass = _sum_with_previous(self.lengths, 0.5)
        self.omega = normal_weights(self.vertices)
        self.weights = 1.0 / self.lengths
        self.stencil = stiffness_stencil(self.weights)
        self.perimeter = float(self.lengths.sum())

    @property
    def n(self) -> int:
        return len(self.lengths)


class Anchor:
    """The polygon Y the conservation rows are written against, with its edge
    vectors g, edge lengths |g|, shoelace area A and perimeter L."""

    __slots__ = ("Y", "g", "glen", "A", "L")

    def __init__(self, curve) -> None:
        self.Y = _as_vertices(curve)
        self.g = edge_vectors(self.Y)
        self.glen = np.hypot(self.g[:, 0], self.g[:, 1])
        self.A = _shoelace(self.Y)
        self.L = float(self.glen.sum())


class NewtonIterate(NamedTuple):
    """Current Newton iterate; lam/eta stay 0 when not unknowns."""

    X: np.ndarray
    kappa: np.ndarray
    lam: float
    eta: float


@dataclass(frozen=True)
class SchemeContext:
    """Per-scheme coefficients of the implicit step template.

    The equations solved for (X, kappa, lam, eta) are

      curvature: kappa_eff omega_ref - S_ref X_eff = 0             (per component)
      velocity:  omega_ref . (delta0 X + xhist) / tau
                 + S_ref kappa_eff - lam_eff m kappa_eff - eta_eff m = 0
      perimeter: (dL0 (L(X) - L(Y)) + (dL0 L(Y) + Lhist)) / tau
                 + kappa_eff^T S_ref kappa_eff = 0
      area:      (A(Y) - A0) + 1/2 sum_k [d_k x X_{k+1} + Y_k x d_{k+1}] = 0

    with the effective unknowns (X_eff, kappa_eff, lam_eff, eta_eff) equal to
    the iterate's own values, or, for an averaged (Crank-Nicolson) scheme,
    which sets ``averaged`` to the previous level, to the iterate's mean with
    that level: kappa_eff = 1/2 kappa + 1/2 kappa_prev and likewise for the
    others.  ``alpha`` is the iterate's weight in the effective unknowns.
    Multistep schemes put the history combination into xhist and Lhist.  Rows
    3 and 4 are present only when the corresponding multiplier is an unknown.
    Y is the anchor (the newest accepted level), d = X - Y, and L(X) - L(Y) =
    sum_j (h_j - g_j).(h_j + g_j) / (|h_j| + |g_j|) over the edges h of X, g
    of Y and h - g of d.
    """

    delta0: float
    xhist: np.ndarray
    anchor: Anchor
    averaged: Optional[NewtonIterate] = None
    use_perimeter: bool = True
    dL0: float = 1.0
    Lhist: float = 0.0
    use_area: bool = True
    A0: float = 0.0

    @property
    def alpha(self) -> float:
        return 1.0 if self.averaged is None else 0.5


@dataclass
class NewtonBlocks:
    """Blocks of one Newton step's bordered linear system.

    The core couples each vertex only to itself and its two neighbours, so
    its blocks are stored per vertex.  P (N, 2) is the velocity-row position
    block: velocity row k holds P[k] on (x_k, y_k), and by the row scaling
    the curvature rows (k, x) and (k, y) hold P[k, 0] and P[k, 1] on kappa_k
    (the kappa block is exactly P^T).  Q (N, 3) is the periodic tridiagonal
    curvature block of the velocity rows (stiffness scaled by the tau
    conventions): row k holds Q[k] on kappa_{k-1}, kappa_k, kappa_{k+1}.
    R (N, 3) is the position block of the curvature rows, the same for both
    components: row (k, c) holds R[k] on component c of X_{k-1}, X_k,
    X_{k+1}.  Indices are periodic.  Border columns a1 (lam) and a2 (eta)
    live in the velocity rows.  rows (nb, 3N) holds the border rows, the
    linearized perimeter law and then the area law, over the positions
    (interleaved) and the curvatures; their gradients are evaluated exactly
    on the iterate's polygon, and the area law has no curvature part.  rhs
    (3N + nb) is the negated residual, the right-hand side of the Newton
    direction solve, in the equation order of the module docstring.  An
    absent multiplier leaves its column None and has no row.  Without the
    perimeter multiplier, P, Q, R and a2 do not depend on the iterate:
    lam_eff M is Q's only iterate term, and lam is then not an unknown.
    """

    P: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    a1: Optional[np.ndarray]
    a2: Optional[np.ndarray]
    rows: np.ndarray
    rhs: np.ndarray


def _effective(ctx: SchemeContext, it: NewtonIterate) -> NewtonIterate:
    # the iterate, or its mean with the averaged level field by field
    if ctx.averaged is None:
        return it
    return NewtonIterate(*(0.5 * v + 0.5 * u for v, u in zip(it, ctx.averaged)))


def _residual(ctx, ref, it, tau, eff, Skap, h, hlen) -> np.ndarray:
    # the residual of the step equations in the module docstring's order, with
    # the velocity rows scaled by tau * alpha / delta0 (pure row scaling; same
    # root), given the iterate's _effective values, S_ref kappa_eff and the
    # iterate's edges, which assemble_newton_blocks shares with the borders
    s_flux = tau * ctx.alpha / ctx.delta0
    s_time = ctx.alpha / ctx.delta0
    r1 = s_time * ((ctx.delta0 * it.X + ctx.xhist) * ref.omega).sum(axis=1) + s_flux * (
        Skap - eff.lam * ref.mass * eff.kappa - eff.eta * ref.mass
    )
    r2 = (eff.kappa[:, None] * ref.omega - stiffness_apply(ref.weights, eff.X)).ravel()
    parts = [r2, r1]
    a = ctx.anchor
    d = it.X - a.Y
    if ctx.use_perimeter:
        dh = _forward_difference(d)
        dL = float(((dh * (h + a.g)).sum(axis=1) / (hlen + a.glen)).sum())
        r3 = (ctx.dL0 * dL + (ctx.dL0 * a.L + ctx.Lhist)) / tau + float(eff.kappa @ Skap)
        parts.append(np.array([r3]))
    if ctx.use_area:
        Xn, dn = (np.concatenate((v[1:], v[:1])) for v in (it.X, d))
        cross = d[:, 0] * Xn[:, 1] - d[:, 1] * Xn[:, 0] + a.Y[:, 0] * dn[:, 1] - a.Y[:, 1] * dn[:, 0]
        parts.append(np.array([(a.A - ctx.A0) + 0.5 * float(cross.sum())]))
    return np.concatenate(parts)


def assemble_newton_blocks(
    ctx: SchemeContext,
    ref: ReferenceGeometry,
    it: NewtonIterate,
    tau: float,
    previous: Optional[NewtonBlocks] = None,
) -> NewtonBlocks:
    """Exact Jacobian blocks and negated residual of the step equations at
    the iterate (the quadratic multiplier-times-curvature update product is
    the only dropped term, as the Newton direction requires).

    ``previous`` is the result of an earlier iteration of the same Newton run
    (same ctx, ref and tau).  The blocks that do not depend on the iterate,
    P, R, Q's off-diagonals and a2, are then taken over from it, and only
    Q's diagonal, a1, the border rows and the residual are computed."""
    n = ref.n
    eff = _effective(ctx, it)
    s_core = tau * ctx.alpha / ctx.delta0 * ctx.alpha
    Skap = stiffness_apply(ref.weights, eff.kappa)
    # the iterate's edge vectors (for either conservation row) and their
    # lengths (for the perimeter row), shared by the rows and their gradients
    h = edge_vectors(it.X) if ctx.use_perimeter or ctx.use_area else None
    hlen = np.hypot(h[:, 0], h[:, 1]) if ctx.use_perimeter else None

    if previous is None:
        P = ctx.alpha * ref.omega
        Q = s_core * ref.stencil
        R = (-ctx.alpha) * ref.stencil
        a2 = (-s_core) * ref.mass if ctx.use_area else None
    else:
        P, Q, R, a2 = previous.P, previous.Q.copy(), previous.R, previous.a2
    # only Q's diagonal, -lam_eff M, and the borders depend on the iterate
    Q[:, 1] = (ref.stencil[:, 1] - eff.lam * ref.mass) * s_core
    a1 = (-s_core) * (ref.mass * eff.kappa) if ctx.use_perimeter else None

    rows = np.zeros((ctx.use_perimeter + ctx.use_area, 3 * n))
    if ctx.use_perimeter:
        rows[0, : 2 * n] = (ctx.dL0 / tau) * _perimeter_gradient(h, hlen).ravel()
        rows[0, 2 * n :] = 2.0 * ctx.alpha * Skap
    if ctx.use_area:
        rows[-1, : 2 * n] = _normal_weights(h).ravel()
    rhs = -_residual(ctx, ref, it, tau, eff, Skap, h, hlen)
    return NewtonBlocks(P=P, Q=Q, R=R, a1=a1, a2=a2, rows=rows, rhs=rhs)
