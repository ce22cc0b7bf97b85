"""Direct solver for the bordered systems produced by the Newton
linearization.

The systems have a 3N x 3N core

    [ P  Q  ]   rows: velocity (N), curvature (2N)
    [ R  P^T]   cols: position (2N, interleaved), curvature (N)

bordered by up to two dense columns (the multipliers) and the matching dense
rows (the linearized conservation laws).  Every block of the core couples a
vertex only to itself and its two neighbours.  Ordering the unknowns per
vertex as (x_k, y_k, kappa_k) and the equations as (curvature x, curvature y,
velocity) turns the core into a band matrix with three sub- and three
superdiagonals, plus six wrap entries in the corners that close the curve
(vertex 0 against vertex N-1).  The band is factored with LAPACK's banded LU,
the wrap entries are folded in by a rank-6 Woodbury correction, and the
multipliers come from the small Schur complement, whose singularity is
detected explicitly because it carries the geometric degeneracy of an
equilibrium (constant curvature makes the two border columns parallel).

The first solve of a system stores its factor on it (`CoreFactor`: the band
LU, the wrap correction and the core solves of the border columns).  A
system assembled with ``reuse=`` starts from an earlier system of the same
Newton run.  Without the perimeter multiplier (AP steps, AP predictors and
their continuation stages) it takes the core, the border columns and the
factor over, so its solve is one banded solve for the new right-hand side.
With it, only Q's diagonal and the lam column change between iterates: they
are written into a copy of the earlier band and border columns, and the
system gets a fresh factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .femcore import NewtonBlocks

__all__ = [
    "SolverError",
    "SingularCoreError",
    "EquilibriumDegeneracyError",
    "PeriodicBandCore",
    "CoreFactor",
    "BorderedSystem",
    "assemble_system",
    "solve_bordered",
]


class SolverError(Exception):
    """Base class for linear solver failures."""


class SingularCoreError(SolverError):
    """The core block could not be factored."""


class EquilibriumDegeneracyError(SolverError):
    """The multiplier Schur complement is (numerically) singular.

    For the two-multiplier schemes this happens exactly when the curvature
    iterate is constant, i.e. at a discrete equilibrium, where the perimeter
    and area constraints cease to be independent.  The verdict is taken on
    the row- and column-equilibrated Schur complement, so it is invariant
    under rescaling a border row (e.g. the 1/tau of the perimeter law) or a
    border column.
    """


# sub- and superdiagonals of the core in per-vertex order: a vertex's
# equations reach at most the same component of a neighbouring vertex
KL = KU = 3
_DIAG = KL + KU  # LAPACK band storage: A[i, j] sits at band[_DIAG + i - j, j]


@dataclass
class PeriodicBandCore:
    """The 3N x 3N core in per-vertex order: its band part in LAPACK band
    storage (2 KL + KU + 1 rows, the first KL of them workspace for the
    factorization), and the six wrap entries outside the band.  They
    are A[c, 3N - 3 + c] (vertex 0's equations on vertex N-1) and
    A[3N - 3 + c, c] (vertex N-1's on vertex 0), c = 0, 1, 2, in that
    order."""

    band: np.ndarray
    wrap: np.ndarray

    @property
    def shape(self):
        m = self.band.shape[1]
        return (m, m)


@dataclass
class CoreFactor:
    """What the first solve of a system keeps for later systems with the same
    core and border columns: the band LU of the band part B with its pivots,
    B^{-1} W and the 6 x 6 capacitance I + V^T B^{-1} W of the wrap correction
    (see _solve_core), and B^{-1} times the border columns, before the wrap
    correction."""

    lu: np.ndarray
    piv: np.ndarray
    bw: np.ndarray  # (3N, 6)
    capacitance: np.ndarray  # (6, 6)
    border_solves: np.ndarray  # (3N, nb)


@dataclass
class BorderedSystem:
    """Core plus dense borders, rows and unknowns in per-vertex order: rhs
    holds the equations (curvature x, curvature y, velocity) of each vertex,
    then perimeter?, area?; unknowns are (x_k, y_k, kappa_k) per vertex, then
    lam?, eta?.  nb in {0, 1, 2} counts the borders actually present.  factor
    is None until the first solve, which stores it."""

    core: PeriodicBandCore
    border_cols: Optional[np.ndarray]  # (3N, nb)
    border_rows: Optional[np.ndarray]  # (nb, 3N)
    rhs: np.ndarray  # (3N + nb,)
    nb: int
    factor: Optional[CoreFactor] = None


def _per_vertex(pair: np.ndarray, single: np.ndarray) -> np.ndarray:
    # an interleaved (2N,) position or curvature-row part and an (N,)
    # curvature or velocity-row part, merged into per-vertex order (3N,)
    n = len(single)
    out = np.empty((n, 3))
    out[:, :2] = pair.reshape(n, 2)
    out[:, 2] = single
    return out.ravel()


def _core(blocks: NewtonBlocks) -> PeriodicBandCore:
    P, Q, R = blocks.P, blocks.Q, blocks.R
    n = len(P)
    # Fortran order, as LAPACK takes it; band3[k, c, r] = band[r, 3k + c]
    # is the band row r of the column of unknown c at vertex k
    band = np.zeros((2 * KL + KU + 1, 3 * n), order="F")
    band3 = band.T.reshape(n, 3, -1)
    # i - j = 0: the diagonals of R and Q
    band3[:, :2, _DIAG] = R[:, 1:2]
    band3[:, 2, _DIAG] = Q[:, 1]
    # i - j = -3 (row 3(k-1) + c, column 3k + c): row k-1's coefficient of vertex k
    band3[1:, :2, _DIAG - 3] = R[:-1, 2:3]
    band3[1:, 2, _DIAG - 3] = Q[:-1, 2]
    # i - j = +3 (row 3(k+1) + c, column 3k + c): row k+1's coefficient of vertex k
    band3[:-1, :2, _DIAG + 3] = R[1:, 0:1]
    band3[:-1, 2, _DIAG + 3] = Q[1:, 0]
    # i - j = +2, +1: P in the velocity row, columns x_k and y_k
    band3[:, 0, _DIAG + 2] = P[:, 0]
    band3[:, 1, _DIAG + 1] = P[:, 1]
    # i - j = -2, -1: P^T in the curvature rows, column kappa_k
    band3[:, 2, _DIAG - 2] = P[:, 0]
    band3[:, 2, _DIAG - 1] = P[:, 1]
    wrap = np.array([R[0, 0], R[0, 0], Q[0, 0], R[-1, 2], R[-1, 2], Q[-1, 2]])
    return PeriodicBandCore(band=band, wrap=wrap)


def assemble_system(blocks: NewtonBlocks, reuse: Optional[BorderedSystem] = None) -> BorderedSystem:
    """Pack Newton blocks into one bordered system in per-vertex order.

    Border order is always lam before eta, in both the extra columns and the
    extra rows; schemes with a single multiplier get nb = 1.

    ``reuse`` is an earlier system of the same Newton run, whose blocks
    differ from ``blocks`` at most in Q's diagonal, a1, the border rows and
    the rhs (see NewtonBlocks).  Without the perimeter multiplier the new
    system takes over its core, border columns and factor.  With it, the new
    system copies its band and border columns, writes Q's diagonal and a1
    into them, and gets a fresh factor.  The border rows and the rhs are
    always built from ``blocks``.
    """
    n = len(blocks.P)
    nb = (blocks.a1 is not None) + (blocks.a2 is not None)
    rows = []
    tail = []
    if blocks.b1 is not None:
        rows.append(_per_vertex(blocks.b1, blocks.b2))
        tail.append(blocks.f1)
    if blocks.c is not None:
        rows.append(_per_vertex(blocks.c, np.zeros(n)))
        tail.append(blocks.f2)
    if len(rows) != nb:
        raise ValueError(f"{nb} border columns but {len(rows)} border rows")
    border_rows = np.vstack(rows) if nb else None
    rhs = np.concatenate((_per_vertex(blocks.F2, blocks.F1), np.array(tail)))
    if reuse is not None and blocks.a1 is None:
        return BorderedSystem(reuse.core, reuse.border_cols, border_rows, rhs, nb, reuse.factor)
    if reuse is not None:
        # Q's diagonal sits at the kappa column of each vertex, a1 in column 0
        band = reuse.core.band.copy(order="F")
        band[_DIAG, 2::3] = blocks.Q[:, 1]
        border_cols = reuse.border_cols.copy()
        border_cols[2::3, 0] = blocks.a1
        return BorderedSystem(PeriodicBandCore(band, reuse.core.wrap), border_cols, border_rows, rhs, nb)
    zeros = np.zeros(2 * n)
    cols = [_per_vertex(zeros, a) for a in (blocks.a1, blocks.a2) if a is not None]
    border_cols = np.column_stack(cols) if nb else None
    return BorderedSystem(core=_core(blocks), border_cols=border_cols, border_rows=border_rows, rhs=rhs, nb=nb)


def _wrap_rows(m: int) -> np.ndarray:
    # the rows of the six wrap entries
    return np.array([0, 1, 2, m - 3, m - 2, m - 1])


def _wrap_cols(m: int) -> np.ndarray:
    # the columns of the six wrap entries
    return np.array([m - 3, m - 2, m - 1, 0, 1, 2])


def _band_solve(lu: np.ndarray, piv: np.ndarray, cols: np.ndarray) -> np.ndarray:
    sol, info = dgbtrs(lu, KL, KU, cols, piv)
    if info != 0:
        raise ValueError(f"dgbtrs rejected argument {-info}")
    return sol


def _factor(system: BorderedSystem) -> Tuple[CoreFactor, np.ndarray]:
    """The system's factor, and B^{-1} [rhs, border_cols]: one banded LU of the band part B, then one banded solve
    for the rhs, the border columns and the unit columns of the six wrap
    rows together."""
    core = system.core
    m, k = core.shape[0], 1 + system.nb
    lu, piv, info = dgbtrf(core.band, KL, KU)
    if info > 0:
        raise SingularCoreError(f"core factorization failed: zero pivot in column {info - 1}")
    if info < 0:
        raise ValueError(f"dgbtrf rejected argument {-info}")
    stacked = np.zeros((m, k + 6), order="F")
    stacked[:, 0] = system.rhs[:m]
    if system.nb:
        stacked[:, 1:k] = system.border_cols
    stacked[_wrap_rows(m), k + np.arange(6)] = 1.0
    sol = _band_solve(lu, piv, stacked)
    bw = sol[:, k:] * core.wrap
    factor = CoreFactor(lu=lu, piv=piv, bw=bw, capacitance=np.eye(6) + bw[_wrap_cols(m)], border_solves=sol[:, 1:k])
    return factor, sol[:, :k]


def _solve_core(system: BorderedSystem) -> np.ndarray:
    """core^{-1} [rhs, border_cols] as an (m, 1 + nb) array.  The first call
    factors the core and stores the factor on the system; later calls (and
    systems assembled with ``reuse=``) make one banded solve for the rhs.
    Then the Woodbury correction for the wrap entries: A = B + W V^T, with
    W's columns the wrap values at their rows and V's the unit vectors of
    their columns.  It is applied to the rhs and the border columns together,
    as one (m, 6) x (6, 1 + nb) product, so that a reused factor gives bitwise
    the result of a fresh one (BLAS rounds a product with one column
    differently from one with more)."""
    m = system.core.shape[0]
    if system.factor is None:
        system.factor, z = _factor(system)
    else:
        z = np.empty((m, 1 + system.nb), order="F")
        z[:, 0] = _band_solve(system.factor.lu, system.factor.piv, system.rhs[:m])
        z[:, 1:] = system.factor.border_solves
    f = system.factor
    try:
        correction = np.linalg.solve(f.capacitance, z[_wrap_cols(m)])
    except np.linalg.LinAlgError as exc:
        raise SingularCoreError(f"core is singular through its wrap entries: {exc}") from exc
    return z - f.bw @ correction


def solve_bordered(system: BorderedSystem) -> np.ndarray:
    """Solve via block elimination: factor the core, eliminate it from the
    border rows, solve the nb x nb Schur complement for the multipliers,
    back-substitute.  Returns the full unknown vector (3N + nb,).

    The factor of the core and the core solves of the border columns are
    made by the first solve of a system and stored on it; a system assembled
    with ``reuse=`` starts with them, so its solve costs one banded solve
    for the rhs.  The result is bitwise the same either way.

    The Schur complement is row- and column-equilibrated by its cancellation
    bound before the singular-value test and the multiplier solve, so the
    degeneracy verdict is scale-invariant: multiplying a border row (with its
    rhs entry) or a border column by any positive factor changes neither the
    verdict nor, beyond rounding, the solution."""
    m = system.core.shape[0]
    both = _solve_core(system)
    if system.nb == 0:
        return _in_block_order(both[:, 0], np.empty(m))

    g, Y = both[:, 0], both[:, 1:]
    schur = 0.0 - system.border_rows @ Y  # not unary minus: an exact 0 stays +0.0
    h = system.rhs[m:] - system.border_rows @ g

    # The cancellation bound |border_rows| |Y| is the size each
    # Schur entry would have without cancellation.  After scaling it to a
    # largest entry of 1 in every row and column, a singular value below
    # 1e-13 is rounding noise relative to the entries it came from, whatever
    # factor (such as the perimeter row's 1/tau) a border carried.
    bound = np.abs(system.border_rows) @ np.abs(Y)
    row_scale = _reciprocal(bound.max(axis=1))
    col_scale = _reciprocal((row_scale[:, None] * bound).max(axis=0))
    equilibrated = row_scale[:, None] * schur * col_scale
    if system.nb == 1:
        sing = np.abs(equilibrated[0])  # a 1 x 1 matrix is its own SVD up to signs
    else:
        U, sing, Vt = np.linalg.svd(equilibrated)
    if sing[-1] <= 1e-13:
        raise EquilibriumDegeneracyError(
            f"multiplier Schur complement is singular (equilibrated singular values {sing})"
        )
    scaled = row_scale * h
    # the sign flips of a 1 x 1 SVD are exact, so scaled / s is bitwise its solve
    mu = col_scale * (scaled / equilibrated[0] if system.nb == 1 else Vt.T @ ((U.T @ scaled) / sing))
    out = np.empty(m + system.nb)
    out[m:] = mu
    return _in_block_order(g - Y @ mu, out)


def _in_block_order(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    # per-vertex (x_k, y_k, kappa_k) -> [position (2N, interleaved), curvature (N)],
    # written to the head of out
    z3 = z.reshape(-1, 3)
    n = len(z3)
    out[: 2 * n].reshape(n, 2)[:] = z3[:, :2]
    out[2 * n : 3 * n] = z3[:, 2]
    return out


def _reciprocal(values: np.ndarray) -> np.ndarray:
    # 1 / values, with 1 where a value is 0 (an all-zero border row or column
    # stays zero and is then flagged by the singular-value test)
    return 1.0 / np.where(values > 0.0, values, 1.0)
