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

from dataclasses import dataclass, field
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
    h = edge_vectors(curve)
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


def _previous_minus(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    # a_{k-1} - a_k along the first axis, periodic, into out
    np.subtract(a[:-1], a[1:], out=out[1:])
    np.subtract(a[-1:], a[:1], out=out[:1])
    return out


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


# the area row at vertex k is ((h_k + h_{k-1})_y, -(h_k + h_{k-1})_x) / 2
_AREA_ROW_SCALE = np.array([0.5, -0.5])


class _RunBuffers:
    """What one Newton run (same ctx, ref and tau) computes once: the
    residual terms that do not depend on the iterate, and scratch arrays
    that every iteration overwrites."""

    def __init__(self, ctx: SchemeContext, ref: ReferenceGeometry, tau: float) -> None:
        n = ref.n
        self.s_flux = tau * ctx.alpha / ctx.delta0
        # the velocity rows' history term and mass factor
        self.hist = ctx.alpha / ctx.delta0 * (ctx.xhist * ref.omega).sum(axis=1)
        self.flux_mass = self.s_flux * ref.mass
        self.Yn = np.concatenate((ctx.anchor.Y[1:], ctx.anchor.Y[:1]))  # Y_{k+1}
        self.law = ctx.dL0 * ctx.anchor.L + ctx.Lhist
        # half the averaged level, the constant half of the effective unknowns
        self.half = None if ctx.averaged is None else NewtonIterate(*(0.5 * u for u in ctx.averaged))
        self.Xn, self.h, self.d, self.dn, self.dh, self.flux, self.t2, self.e2, self.Xe = np.empty((9, n, 2))
        self.hlen, self.fk, self.Skap, self.t1, self.e1, self.ke = np.empty((6, n))


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

    These arrays are the buffers of one Newton run: a later iteration's
    `assemble_newton_blocks` overwrites Q's diagonal, a1, rows and rhs in
    place.  ``work`` holds the run's other buffers; it is None for blocks
    built by hand, which cannot serve as ``previous``.
    """

    P: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    a1: Optional[np.ndarray]
    a2: Optional[np.ndarray]
    rows: np.ndarray
    rhs: np.ndarray
    work: Optional[_RunBuffers] = field(default=None, repr=False, compare=False)


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

    Without ``previous`` the call allocates the run's buffers: the blocks
    that do not depend on the iterate (P, R, Q's off-diagonals and a2), the
    arrays that do, and the scratch and iterate-independent residual terms
    of ``work``.  ``previous`` is the result of an earlier iteration of the
    same Newton run (same ctx, ref and tau): the call then writes Q's
    diagonal, a1, the border rows and the rhs into its arrays and returns
    it, so nothing is allocated and the earlier blocks are gone.  Both ways
    compute the same bits."""
    n = ref.n
    s_core = tau * ctx.alpha / ctx.delta0 * ctx.alpha
    if previous is None:
        nb = ctx.use_perimeter + ctx.use_area
        previous = NewtonBlocks(
            P=ctx.alpha * ref.omega,
            Q=s_core * ref.stencil,
            R=(-ctx.alpha) * ref.stencil,
            a1=np.empty(n) if ctx.use_perimeter else None,
            a2=(-s_core) * ref.mass if ctx.use_area else None,
            rows=np.zeros((nb, 3 * n)),
            rhs=np.empty(3 * n + nb),
            work=_RunBuffers(ctx, ref, tau),
        )
    blocks, w, a, X = previous, previous.work, ctx.anchor, it.X
    # the iterate's next vertices X_{k+1} and edges h
    w.Xn[:-1] = X[1:]
    w.Xn[-1] = X[0]
    h = np.subtract(w.Xn, X, out=w.h)
    # the effective unknowns and the edge fluxes of X_eff
    if w.half is None:
        kap, lam, eta = it.kappa, it.lam, it.eta
        flux = np.multiply(h, ref.weights[:, None], out=w.flux)
    else:
        kap = np.multiply(it.kappa, 0.5, out=w.ke)
        kap += w.half.kappa
        lam, eta = 0.5 * it.lam + w.half.lam, 0.5 * it.eta + w.half.eta
        Xe = np.multiply(X, 0.5, out=w.Xe)
        Xe += w.half.X
        flux = _forward_difference(Xe, out=w.flux)
        flux *= ref.weights[:, None]
    # negated curvature rows: S_ref X_eff - kappa_eff omega_ref
    curvature_rhs = _previous_minus(flux, blocks.rhs[: 2 * n].reshape(n, 2))
    curvature_rhs -= np.multiply(kap[:, None], ref.omega, out=w.t2)
    kappa_flux = _forward_difference(kap, out=w.fk)
    kappa_flux *= ref.weights
    Skap = _previous_minus(kappa_flux, w.Skap)

    # Q's diagonal, -lam_eff M, and the borders depend on the iterate
    Qd = np.multiply(ref.mass, lam, out=blocks.Q[:, 1])
    np.subtract(ref.stencil[:, 1], Qd, out=Qd)
    Qd *= s_core
    if ctx.use_perimeter:
        np.multiply(ref.mass, kap, out=blocks.a1)
        blocks.a1 *= -s_core
        hlen = np.hypot(h[:, 0], h[:, 1], out=w.hlen)
        grad = _previous_minus(np.divide(h, hlen[:, None], out=w.t2), blocks.rows[0, : 2 * n].reshape(n, 2))
        grad *= ctx.dL0 / tau
        np.multiply(Skap, 2.0 * ctx.alpha, out=blocks.rows[0, 2 * n :])
    if ctx.use_area:
        np.add(h[1:], h[:-1], out=w.t2[1:])
        np.add(h[:1], h[-1:], out=w.t2[:1])
        np.multiply(w.t2[:, ::-1], _AREA_ROW_SCALE, out=blocks.rows[-1, : 2 * n].reshape(n, 2))

    # negated velocity rows: (lam_eff kappa_eff + eta_eff) s_flux m
    # - s_flux S_ref kappa_eff - s_time (xhist . omega) - P . X
    velocity_rhs = np.multiply(kap, lam, out=blocks.rhs[2 * n : 3 * n])
    velocity_rhs += eta
    velocity_rhs *= w.flux_mass
    velocity_rhs -= np.multiply(Skap, w.s_flux, out=w.t1)
    velocity_rhs -= w.hist
    PX = np.multiply(blocks.P, X, out=w.t2)
    velocity_rhs -= PX[:, 0]
    velocity_rhs -= PX[:, 1]

    # the laws, as increments from the anchor: d = X - Y and its edges
    d = np.subtract(X, a.Y, out=w.d)
    dn = np.subtract(w.Xn, w.Yn, out=w.dn)
    if ctx.use_perimeter:
        t = np.add(h, a.g, out=w.t2)
        t *= np.subtract(dn, d, out=w.dh)
        per_edge = np.add(t[:, 0], t[:, 1], out=w.t1)
        per_edge /= np.add(hlen, a.glen, out=w.e1)
        dL = float(per_edge.sum())
        blocks.rhs[3 * n] = -((ctx.dL0 * dL + w.law) / tau + float(kap @ Skap))
    if ctx.use_area:
        # cross = d_k x X_{k+1} + Y_k x d_{k+1}
        c = np.multiply(d, w.Xn[:, ::-1], out=w.t2)
        e = np.multiply(a.Y, dn[:, ::-1], out=w.e2)
        cross = np.subtract(c[:, 0], c[:, 1], out=w.t1)
        cross += e[:, 0]
        cross -= e[:, 1]
        blocks.rhs[-1] = -((a.A - ctx.A0) + 0.5 * float(cross.sum()))
    return blocks
