"""Direct solver for the bordered systems produced by the Newton
linearization.

The systems have a 3N x 3N core

    [ R  P^T]   rows: curvature (2N, interleaved), velocity (N)
    [ P  Q  ]   cols: position (2N, interleaved), curvature (N)

bordered by up to two dense columns (the multipliers) and the matching dense
rows (the linearized conservation laws).  Every block of the core couples a
vertex only to itself and its two neighbours, vertex 0 and vertex N-1
included.  The solver orders the vertices folded, 0, N-1, 1, N-2, ...:
vertex k sits at slot 2k for k <= (N-1)/2 and at slot 2(N-1-k)+1 otherwise,
so every neighbouring pair, the pair that closes the curve included, is at
most two slots apart.  With the unknowns of a slot ordered (x_k, y_k,
kappa_k) and its equations (curvature x, curvature y, velocity), the core is
one plain band matrix with six sub- and six superdiagonals.  It is factored
with LAPACK's banded LU, and the multipliers come from the small Schur
complement, whose singularity is detected explicitly because it carries the
geometric degeneracy of an equilibrium (constant curvature makes the two
border columns parallel).

The first solve of a system stores its factor on it (`CoreFactor`: the band
LU and the core solves of the border columns).  A system assembled with
``reuse=`` starts from an earlier system of the same Newton run.  Without
the perimeter multiplier (AP steps, AP predictors and their continuation
stages) it takes the core, the border columns and the factor over, so its
solve is one banded solve for the new right-hand side.  With it, only Q's
diagonal and the lam column change between iterates: they are written into
a copy of the earlier band and border columns, and the system gets a fresh
factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

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


# sub- and superdiagonals of the folded core: neighbours are at most two
# slots of three unknowns apart, and an equation reaches only the same
# component of a neighbour
KL = KU = 6
_LDAB = 2 * KL + KU + 1  # band rows; the first KL are workspace for the LU
_DIAG = KL + KU  # LAPACK band storage: A[i, j] sits at band[_DIAG + i - j, j]


@dataclass(frozen=True)
class _Fold:
    """Where the values of an N-vertex system go in folded order.

    vertex[s] is the vertex at slot s.  scatter (N, 13) holds the flat
    positions in band storage (column-major, _LDAB rows per column) of the
    row np.concatenate((P, P, Q, R, R), axis=1)[k] of vertex k's core
    values: P on (x_k, y_k) in its velocity row, P^T on kappa_k in its two
    curvature rows, Q on kappa_{k-1}, kappa_k, kappa_{k+1} in its velocity
    row, R on x and then on y of vertices k-1, k, k+1 in its curvature
    rows.  gather[i] is the block-order index of folded index i, for
    equations (curvature rows interleaved, then velocity rows, the order of
    NewtonBlocks.rhs) and for unknowns (positions interleaved, then
    curvatures, the order of the columns of NewtonBlocks.rows) alike;
    inverse[j] is the folded index of block-order index j."""

    vertex: np.ndarray
    scatter: np.ndarray
    gather: np.ndarray
    inverse: np.ndarray


@lru_cache(maxsize=16)
def _fold(n: int) -> _Fold:
    k = np.arange(n)
    slot = np.where(k <= (n - 1) // 2, 2 * k, 2 * (n - 1 - k) + 1)
    s = 3 * slot  # the first row and column of vertex k
    sm, sp = np.roll(s, 1), np.roll(s, -1)  # those of vertices k-1 and k+1
    v = s + 2  # velocity row, and column of kappa_k
    rows = [v, v, s, s + 1, v, v, v, s, s, s, s + 1, s + 1, s + 1]
    cols = [s, s + 1, v, v, sm + 2, v, sp + 2, sm, s, sp, sm + 1, s + 1, sp + 1]
    rows, cols = np.column_stack(rows), np.column_stack(cols)
    gather = np.empty((n, 3), dtype=np.intp)
    gather[slot, :2] = 2 * k[:, None] + np.arange(2)
    gather[slot, 2] = 2 * n + k
    gather = gather.ravel()
    fold = _Fold(
        vertex=np.argsort(slot),
        scatter=cols * _LDAB + _DIAG + rows - cols,
        gather=gather,
        inverse=np.argsort(gather),
    )
    for array in vars(fold).values():
        array.setflags(write=False)  # shared by every system of this N
    return fold


@dataclass
class PeriodicBandCore:
    """The 3N x 3N core in folded order, in LAPACK band storage:
    2 KL + KU + 1 rows, the first KL of them workspace for the
    factorization, and one column per unknown."""

    band: np.ndarray

    @property
    def shape(self):
        m = self.band.shape[1]
        return (m, m)


@dataclass
class CoreFactor:
    """What the first solve of a system keeps for later systems with the same
    core and border columns: the band LU of the core with its pivots, and
    the core solves of the border columns."""

    lu: np.ndarray
    piv: np.ndarray
    border_solves: np.ndarray  # (3N, nb)


@dataclass
class BorderedSystem:
    """Core plus dense borders, rows and unknowns in folded order: rhs holds
    the equations (curvature x, curvature y, velocity) of each slot's
    vertex, then perimeter?, area?; unknowns are (x_k, y_k, kappa_k) per
    slot, then lam?, eta?.  nb in {0, 1, 2} counts the borders actually
    present.  factor is None until the first solve, which stores it."""

    core: PeriodicBandCore
    border_cols: Optional[np.ndarray]  # (3N, nb)
    border_rows: np.ndarray  # (nb, 3N)
    rhs: np.ndarray  # (3N + nb,)
    nb: int
    factor: Optional[CoreFactor] = None


def assemble_system(blocks: NewtonBlocks, reuse: Optional[BorderedSystem] = None) -> BorderedSystem:
    """Pack Newton blocks into one bordered system in folded order.

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
    m = 3 * n
    fold = _fold(n)
    nb = len(blocks.rows)
    rhs = np.concatenate((blocks.rhs[fold.gather], blocks.rhs[m:]))
    border_rows = blocks.rows[:, fold.gather]
    if reuse is not None and blocks.a1 is None:
        return BorderedSystem(reuse.core, reuse.border_cols, border_rows, rhs, nb, reuse.factor)
    if reuse is not None:
        # Q's diagonal is the sixth of each vertex's core values; a1 is column 0
        flat = reuse.core.band.T.flatten()
        flat[fold.scatter[:, 5]] = blocks.Q[:, 1]
        border_cols = reuse.border_cols.copy(order="F")
        border_cols[2::3, 0] = blocks.a1[fold.vertex]
    else:
        flat = np.zeros(m * _LDAB)
        flat[fold.scatter] = np.concatenate((blocks.P, blocks.P, blocks.Q, blocks.R, blocks.R), axis=1)
        border_cols = None
        if nb:
            # the multiplier columns live in the velocity rows
            border_cols = np.zeros((m, nb), order="F")
            for j, a in enumerate(a for a in (blocks.a1, blocks.a2) if a is not None):
                border_cols[2::3, j] = a[fold.vertex]
    # band storage in Fortran order, as LAPACK takes it
    core = PeriodicBandCore(flat.reshape(m, _LDAB).T)
    return BorderedSystem(core, border_cols, border_rows, rhs, nb)


def _band_solve(lu: np.ndarray, piv: np.ndarray, cols: np.ndarray) -> np.ndarray:
    sol, info = dgbtrs(lu, KL, KU, cols, piv)
    if info != 0:
        raise ValueError(f"dgbtrs rejected argument {-info}")
    return sol


def _solve_core(system: BorderedSystem) -> np.ndarray:
    """core^{-1} [rhs, border_cols] as an (m, 1 + nb) array.  The first call
    factors the core with one banded LU and solves for the rhs and the border
    columns together in one banded solve, and stores the factor on the
    system.  Later calls (and systems assembled with ``reuse=``) make one
    banded solve for the rhs; LAPACK treats each right-hand side column on
    its own, so the result is bitwise the fresh one."""
    m = system.core.shape[0]
    k = 1 + system.nb
    if system.factor is not None:
        z = np.empty((m, k), order="F")
        z[:, 0] = _band_solve(system.factor.lu, system.factor.piv, system.rhs[:m])
        z[:, 1:] = system.factor.border_solves
        return z
    lu, piv, info = dgbtrf(system.core.band, KL, KU)
    if info > 0:
        raise SingularCoreError(f"core factorization failed: zero pivot in column {info - 1}")
    if info < 0:
        raise ValueError(f"dgbtrf rejected argument {-info}")
    stacked = np.empty((m, k), order="F")
    stacked[:, 0] = system.rhs[:m]
    if system.nb:
        stacked[:, 1:] = system.border_cols
    z = _band_solve(lu, piv, stacked)
    system.factor = CoreFactor(lu=lu, piv=piv, border_solves=z[:, 1:])
    return z


def solve_bordered(system: BorderedSystem) -> np.ndarray:
    """Solve via block elimination: factor the folded band core, eliminate
    it from the border rows, solve the nb x nb Schur complement for the
    multipliers, back-substitute.  Returns the full unknown vector (3N + nb,)
    in block order: positions (interleaved), curvatures, then lam?, eta?.

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
    inverse = _fold(m // 3).inverse
    both = _solve_core(system)
    if system.nb == 0:
        return both[inverse, 0]

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
    out[:m] = (g - Y @ mu)[inverse]
    out[m:] = mu
    return out


def _reciprocal(values: np.ndarray) -> np.ndarray:
    # 1 / values, with 1 where a value is 0 (an all-zero border row or column
    # stays zero and is then flagged by the singular-value test)
    return 1.0 / np.where(values > 0.0, values, 1.0)
