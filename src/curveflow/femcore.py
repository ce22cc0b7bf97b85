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
* velocity row (one per vertex, scaled by ``tau / delta0`` so that the
  position block of its Jacobian equals the transpose of the curvature
  equation's kappa block),
* optionally a perimeter row and an area row, taken on the step's end level
  (see SchemeContext), with gradients evaluated exactly on its polygon.

The unknowns are ordered alike: positions (interleaved), curvatures, then the
multipliers present.

``SchemeContext`` carries the per-scheme coefficients of the template,
``NewtonRun`` what is fixed through one Newton run on it (the held -lam M on
Q's diagonal included), and ``assemble_newton_blocks`` the rest at an iterate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .geometry import _as_vertices, _forward_difference, _nonzero_edge_lengths, _shoelace, edge_vectors

__all__ = [
    "normal_weights",
    "stiffness_stencil",
    "initial_curvature",
    "ReferenceGeometry",
    "SchemeContext",
    "NewtonIterate",
    "NewtonRun",
    "NewtonBlocks",
    "assemble_newton_blocks",
    "area_law_coefficients",
]


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
    kappa_k = omega_k . (S X)_k / |omega_k|^2.  A zero-length edge raises
    the ValueError of ReferenceGeometry, which names the edge.
    """
    ref = ReferenceGeometry(curve)
    vertices, omega, st = ref.vertices, ref.omega, ref.stencil
    # (S X)_k summed from 0 over row k's columns in ascending order (the
    # order of a sparse product), which keeps the curvature of every stored
    # curve bitwise the same; the wrap rows 0 and N-1 need their own order
    left, right = np.roll(vertices, 1, axis=0), np.roll(vertices, -1, axis=0)
    v = 0.0 + st[:, :1] * left + st[:, 1:2] * vertices + st[:, 2:] * right
    v[0] = 0.0 + st[0, 1] * vertices[0] + st[0, 2] * vertices[1] + st[0, 0] * vertices[-1]
    v[-1] = 0.0 + st[-1, 2] * vertices[0] + st[-1, 0] * vertices[-2] + st[-1, 1] * vertices[-1]
    wsq = (omega * omega).sum(axis=1)
    floor = (1e-13 * ref.mass) ** 2
    if (wsq <= floor).any():
        bad = int(np.flatnonzero(wsq <= floor)[0])
        raise ValueError(f"degenerate normal weight at vertex {bad}")
    return (omega * v).sum(axis=1) / wsq


class ReferenceGeometry:
    """Frozen reference polygon with the quantities every Newton assembly
    reuses: lumped masses, normal weights, the edge weights 1 / |h_j| and the
    stiffness stencil built from them."""

    __slots__ = ("vertices", "lengths", "mass", "omega", "weights", "stencil")

    def __init__(self, curve) -> None:
        v = _as_vertices(curve)
        self.vertices = np.array(v, dtype=float)
        self.lengths = _nonzero_edge_lengths(self.vertices)
        self.mass = _sum_with_previous(self.lengths, 0.5)
        self.omega = normal_weights(self.vertices)
        self.weights = 1.0 / self.lengths
        self.stencil = stiffness_stencil(self.weights)

    @property
    def n(self) -> int:
        return len(self.lengths)


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

      curvature: kappa omega_ref - S_ref X = 0                     (per component)
      velocity:  omega_ref . (delta0 X + xhist) / tau
                 + S_ref kappa - lam m kappa - eta m = 0
      perimeter: (dL0 (L(Z) - L(Y)) + (dL0 L(Y) + Lhist)) / tau
                 + kappa^T S_ref kappa = 0
      area:      (A(Y) - A0) + 1/2 sum_k [d_k x Z_{k+1} + Y_k x d_{k+1}] = 0

    Multistep schemes put the history combination into xhist and Lhist.  Rows
    3 and 4 are present only when the corresponding multiplier is an unknown.
    Y is the anchor, the (N, 2) vertices of the newest accepted level.  The
    laws hold on the end level Z = end_level(Y, X) = Y + end (X - Y): X itself
    for end = 1, and for Crank-Nicolson, which solves for its midpoint level,
    end = 2.  d = Z - Y, and L(Z) - L(Y) = sum_j (h_j - g_j).(h_j + g_j) /
    (|h_j| + |g_j|) over the edges h of Z, g of Y and h - g of d.
    """

    delta0: float
    xhist: np.ndarray
    anchor: np.ndarray
    end: float = 1.0
    use_perimeter: bool = True
    dL0: float = 1.0
    Lhist: float = 0.0
    use_area: bool = True
    A0: float = 0.0

    def end_level(self, start: np.ndarray, iterate: np.ndarray) -> np.ndarray:
        """start + end (iterate - start), the level a step reaches whose unknowns sit 1 / end of the way."""
        return start + self.end * (iterate - start)


class NewtonRun:
    """What is fixed through one Newton run of the step equations of ``ctx``
    on the reference ``ref`` at step tau: the blocks every iteration
    shares, P, R, the eta column a2 and Q with -lam M held on its diagonal
    (the simplified Newton method; a scheme's run takes lam from its start),
    and the residual terms that do not depend on the iterate: the anchor Y
    with its Y_{k+1}, g and |g|, the laws' constant parts and the area row's
    scale, and the velocity rows' history term and mass factor."""

    def __init__(self, ctx: SchemeContext, ref: ReferenceGeometry, tau: float, lam: float) -> None:
        self.ctx, self.ref, self.tau = ctx, ref, tau
        self.s_flux = tau / ctx.delta0
        # the velocity rows' history term and mass factor
        self.hist = 1.0 / ctx.delta0 * (ctx.xhist * ref.omega).sum(axis=1)
        self.flux_mass = self.s_flux * ref.mass
        self.P = ref.omega
        self.R = -ref.stencil
        self.Q = self.s_flux * ref.stencil
        self.Q[:, 1] = (ref.stencil[:, 1] - ref.mass * lam) * self.s_flux
        self.a2 = -self.flux_mass if ctx.use_area else None
        Y = self.Y = ctx.anchor
        self.Yn = np.concatenate((Y[1:], Y[:1]))  # Y_{k+1}
        self.g = edge_vectors(Y)
        self.glen = np.hypot(self.g[:, 0], self.g[:, 1])
        # the perimeter law's dL0 L(Y) + Lhist and the area law's A(Y) - A0
        self.law = ctx.dL0 * float(self.glen.sum()) + ctx.Lhist
        self.area = _shoelace(Y) - ctx.A0
        # the area row at vertex k is end ((h_k + h_{k-1})_y, -(h_k + h_{k-1})_x) / 2
        self.area_scale = ctx.end * np.array([0.5, -0.5])


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
    on the end level's polygon, and the area law has no curvature part.  rhs
    (3N + nb) is the negated residual, the right-hand side of the Newton
    direction solve, in the equation order of the module docstring.  An
    absent multiplier leaves its column None and has no row.  Q's only
    iterate term, -lam M on its diagonal, is held at the lam of the
    NewtonRun the blocks are assembled on: P, Q, R and a2 are that run's
    arrays, and a1, rows and rhs the iteration's own.
    """

    P: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    a1: Optional[np.ndarray]
    a2: Optional[np.ndarray]
    rows: np.ndarray
    rhs: np.ndarray


def assemble_newton_blocks(run: NewtonRun, it: NewtonIterate) -> NewtonBlocks:
    """Jacobian blocks and negated residual of the step equations of
    ``run`` at the iterate (the quadratic multiplier-times-curvature update
    product is the only dropped term, as the Newton direction requires).

    Every call returns new blocks with new a1, border rows and rhs, beside
    the run's P, Q, R and a2, and writes into nothing it shares.  So Q
    holds the run's lam (the simplified Newton method), and every other
    array has the bits of a call at this iterate on a run at its lam."""
    ctx, ref, tau = run.ctx, run.ref, run.tau
    n = ref.n
    X, kap, lam, eta = it
    # the iterate's next vertices X_{k+1}, edges h and edge fluxes
    Xn = np.concatenate((X[1:], X[:1]))
    h = Xn - X
    flux = h * ref.weights[:, None]
    nb = ctx.use_perimeter + ctx.use_area
    rhs = np.empty(3 * n + nb)
    rows = np.zeros((nb, 3 * n))
    # negated curvature rows: S_ref X - kappa omega_ref
    curvature_rhs = _previous_minus(flux, rhs[: 2 * n].reshape(n, 2))
    curvature_rhs -= kap[:, None] * ref.omega
    kappa_flux = _forward_difference(kap)
    kappa_flux *= ref.weights
    Skap = _previous_minus(kappa_flux, np.empty(n))

    # the laws hold on the end level Z, with its next vertices Zn and its
    # edges h; for end = 1, Z is the iterate
    Z, Zn = X, Xn
    if ctx.end != 1.0:
        Z = ctx.end_level(run.Y, X)
        Zn = np.concatenate((Z[1:], Z[:1]))
        h = Zn - Z
    a1 = None
    if ctx.use_perimeter:
        a1 = ref.mass * kap
        a1 *= -run.s_flux
        hlen = np.hypot(h[:, 0], h[:, 1])
        grad = _previous_minus(h / hlen[:, None], rows[0, : 2 * n].reshape(n, 2))
        grad *= ctx.end * ctx.dL0 / tau
        np.multiply(Skap, 2.0, out=rows[0, 2 * n :])
    if ctx.use_area:
        # h_k + h_{k-1} with its components swapped, then scaled
        area_row = rows[-1, : 2 * n].reshape(n, 2)
        np.add(h[1:, ::-1], h[:-1, ::-1], out=area_row[1:])
        np.add(h[:1, ::-1], h[-1:, ::-1], out=area_row[:1])
        area_row *= run.area_scale

    # negated velocity rows: (lam kappa + eta) s_flux m - s_flux S_ref kappa
    # - (xhist . omega) / delta0 - P . X
    velocity_rhs = np.multiply(kap, lam, out=rhs[2 * n : 3 * n])
    velocity_rhs += eta
    velocity_rhs *= run.flux_mass
    velocity_rhs -= Skap * run.s_flux
    velocity_rhs -= run.hist
    PX = run.P * X
    velocity_rhs -= PX[:, 0]
    velocity_rhs -= PX[:, 1]

    # the laws, as increments from the anchor: d = Z - Y and its edges
    d = Z - run.Y
    dn = Zn - run.Yn
    if ctx.use_perimeter:
        t = h + run.g
        t *= dn - d
        per_edge = t[:, 0] + t[:, 1]
        per_edge /= hlen + run.glen
        dL = float(per_edge.sum())
        rhs[3 * n] = -((ctx.dL0 * dL + run.law) / tau + float(kap @ Skap))
    if ctx.use_area:
        rhs[-1] = -_area_residual(run, d, dn, Zn)
    return NewtonBlocks(run.P, run.Q, run.R, a1, run.a2, rows, rhs)


def _area_residual(run: NewtonRun, d: np.ndarray, dn: np.ndarray, Zn: np.ndarray) -> float:
    # the area law (A(Y) - A0) + 1/2 sum_k [d_k x Z_{k+1} + Y_k x d_{k+1}]
    # on the end level Z = Y + d, with Z_{k+1} and d_{k+1}
    c = d * Zn[:, ::-1]
    e = run.Y * dn[:, ::-1]
    cross = c[:, 0] - c[:, 1]
    cross += e[:, 0]
    cross -= e[:, 1]
    return run.area + 0.5 * float(cross.sum())


def area_law_coefficients(run: NewtonRun, X: np.ndarray, v: np.ndarray) -> Tuple[float, float, float]:
    """(c0, c1, c2) of the area law of ``run`` on the line of
    iterates X - s v: its residual there is exactly c0 + c1 s + c2 s^2, as
    the shoelace area is quadratic.  With the end level Z of X and w = end v
    (Z moves by -s w), c0 is the residual at X, in the increment form of
    the area row; c1 = -grad A(Z) . w, where grad A(Z)_k is
    ((Z_{k+1} - Z_{k-1})_y, -(Z_{k+1} - Z_{k-1})_x) / 2; and c2 is the
    shoelace area of w."""
    end, Y = run.ctx.end, run.Y
    Z, w = X, v
    if end != 1.0:
        Z, w = Y + end * (X - Y), end * v
    Zn = np.concatenate((Z[1:], Z[:1]))
    c0 = _area_residual(run, Z - Y, Zn - run.Yn, Zn)
    t = Zn - np.concatenate((Z[-1:], Z[:-1]))  # Z_{k+1} - Z_{k-1}
    c1 = -0.5 * (float(np.dot(w[:, 0], t[:, 1])) - float(np.dot(w[:, 1], t[:, 0])))
    return c0, c1, _shoelace(w)
