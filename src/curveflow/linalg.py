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

A Newton run allocates one `BorderedSystem`, in its first iteration, and
every later iteration writes into it (`assemble_system` with ``reuse=``).
Without the perimeter multiplier (AP steps, AP predictors and their
continuation stages) the core and the border columns stay the same, so a run
factors once and later iterations make one banded solve for the new
right-hand side.  With it, only Q's diagonal and the lam column change
between iterates, and each iterate is factored afresh.  The multipliers come
from a 1 x 1 or 2 x 2 Schur step in Python floats, with closed-form singular
values for the degeneracy verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
class BorderedSystem:
    """Core plus dense borders, rows and unknowns in folded order: rhs holds
    the equations (curvature x, curvature y, velocity) of each slot's
    vertex, then perimeter?, area?; unknowns are (x_k, y_k, kappa_k) per
    slot, then lam?, eta?.  nb in {0, 1, 2} counts the borders actually
    present, lam before eta in both the columns and the rows.

    The arrays are the buffers of one Newton run.  ``stack`` (3N, 1 + nb),
    Fortran order, is [rhs, border columns] as the banded solve takes them
    and overwrites them with their core solves.  ``piv`` is None until the
    core is factored: stack[:, 1:] then holds the border columns, which live
    in the velocity rows.  While it is set, ``work_band`` holds the band LU
    of the core and stack[:, 1:] the core solves of the border columns."""

    core: PeriodicBandCore
    border_rows: np.ndarray  # (nb, 3N)
    rhs: np.ndarray  # (3N + nb,)
    stack: np.ndarray = field(repr=False)
    work_band: np.ndarray = field(repr=False)
    nb: int
    piv: Optional[np.ndarray] = field(default=None, repr=False)


def assemble_system(blocks: NewtonBlocks, reuse: Optional[BorderedSystem] = None) -> BorderedSystem:
    """Pack Newton blocks into one bordered system in folded order.

    ``reuse`` is the system of an earlier iteration of the same Newton run,
    whose blocks differ from ``blocks`` at most in Q's diagonal, a1, the
    border rows and the rhs (see NewtonBlocks).  The call then gathers the
    rhs and the border rows into its arrays and returns it, and allocates
    nothing.  Without the perimeter multiplier it keeps its core and
    factor; with it, Q's diagonal is written into its band and the factor
    is dropped.  Whenever the core is not factored, the border columns are
    written into the stack.
    """
    n = len(blocks.P)
    m = 3 * n
    fold = _fold(n)
    nb = len(blocks.rows)
    if reuse is None:
        flat = np.zeros(m * _LDAB)
        flat[fold.scatter] = np.concatenate((blocks.P, blocks.P, blocks.Q, blocks.R, blocks.R), axis=1)
        # band storage in Fortran order, as LAPACK takes it
        core = PeriodicBandCore(flat.reshape(m, _LDAB).T)
        reuse = BorderedSystem(
            core,
            border_rows=np.empty((nb, m)),
            rhs=np.empty(m + nb),
            stack=np.empty((m, 1 + nb), order="F"),
            work_band=np.empty((_LDAB, m), order="F"),
            nb=nb,
        )
    elif blocks.a1 is not None:
        # Q's diagonal is the sixth of each vertex's core values
        reuse.core.band.T.reshape(-1)[fold.scatter[:, 5]] = blocks.Q[:, 1]
        reuse.piv = None
    if reuse.piv is None:
        reuse.stack[:, 1:] = 0.0
        for j, a in enumerate(a for a in (blocks.a1, blocks.a2) if a is not None):
            np.take(a, fold.vertex, out=reuse.stack[2::3, 1 + j])
    np.take(blocks.rows, fold.gather, axis=1, out=reuse.border_rows)
    np.take(blocks.rhs, fold.gather, out=reuse.rhs[:m])
    reuse.rhs[m:] = blocks.rhs[m:]
    return reuse


def _solve_core(system: BorderedSystem) -> np.ndarray:
    """The stack, with the core solve of the rhs in column 0.  An unfactored
    core is factored, from a copy of the band, and the rhs and the border
    columns are solved together in one banded solve; a factored one takes
    one banded solve for the rhs.  LAPACK treats each right-hand side
    column on its own, so the result is bitwise the same either way."""
    m = system.core.shape[0]
    z = system.stack
    z[:, 0] = system.rhs[:m]
    cols = z[:, :1]
    if system.piv is None:
        # work_band is Fortran-ordered, so dgbtrf factors it in place
        np.copyto(system.work_band, system.core.band)
        _, piv, info = dgbtrf(system.work_band, KL, KU, overwrite_ab=1)
        if info > 0:
            raise SingularCoreError(f"core factorization failed: zero pivot in column {info - 1}")
        if info < 0:
            raise ValueError(f"dgbtrf rejected argument {-info}")
        system.piv = piv
        cols = z
    # cols is Fortran-ordered, so dgbtrs overwrites it (any other layout
    # would be copied, the solution lost)
    _, info = dgbtrs(system.work_band, KL, KU, cols, system.piv, overwrite_b=1)
    if info != 0:
        raise ValueError(f"dgbtrs rejected argument {-info}")
    return z


def solve_bordered(system: BorderedSystem) -> np.ndarray:
    """Solve via block elimination: factor the folded band core, eliminate
    it from the border rows, solve the nb x nb Schur complement for the
    multipliers, back-substitute.  Returns the full unknown vector (3N + nb,)
    in block order: positions (interleaved), curvatures, then lam?, eta?.

    The solve writes the system's stack, and its work_band and piv when it
    factors (see BorderedSystem); everything else it only reads.  A later
    solve of a factored system is bitwise the first.

    The Schur step (see _multipliers) runs in Python floats from one
    border_rows @ [g, Y] product and one |border_rows| |Y| product.  It is
    row- and column-equilibrated by its cancellation bound before the
    degeneracy test and the multiplier solve, so the verdict is
    scale-invariant: multiplying a border row (with its rhs entry) or a
    border column by any positive factor changes neither the verdict nor,
    beyond rounding, the solution.  The verdict compares the smallest
    singular value of the equilibrated 1 x 1 or 2 x 2 matrix, in closed
    form, with 1e-13."""
    m = system.core.shape[0]
    inverse = _fold(m // 3).inverse
    z = _solve_core(system)
    out = np.empty(m + system.nb)
    if system.nb == 0:
        np.take(z[:, 0], inverse, out=out)
        return out
    B = system.border_rows
    mu = _multipliers(B @ z, np.abs(B) @ np.abs(z[:, 1:]), system.rhs[m:])
    # g - Y mu, with g the core solve of the rhs and Y those of the columns
    np.take(z @ np.array((1.0, *(-x for x in mu))), inverse, out=out[:m])
    out[m:] = mu
    return out


def _multipliers(BZ: np.ndarray, bound: np.ndarray, tail: np.ndarray) -> tuple:
    """The multipliers mu of the Schur step, in Python floats, from BZ =
    border_rows @ [g, Y] (nb x (1 + nb)), the cancellation bound
    |border_rows| |Y| (nb x nb) and the border rows' rhs entries.

    The Schur complement is S = -border_rows Y and the multipliers solve
    S mu = rhs_tail - border_rows g.  The bound is the size each entry of S
    would have without cancellation.  After scaling it to a largest entry of
    1 in every row and then every column, a singular value of the scaled S
    below 1e-13 is rounding noise relative to the entries it came from,
    whatever factor (such as the perimeter row's 1/tau) a border carried,
    and raises EquilibriumDegeneracyError.  A 1 x 1 matrix is its own
    singular value; a 2 x 2 one [[a, b], [c, d]] has sigma_max =
    (|(a + d, c - b)| + |(a - d, c + b)|) / 2 and sigma_min = |ad - bc| /
    sigma_max in closed form, and is solved by its adjugate."""
    BZ, bound = BZ.tolist(), bound.tolist()
    if len(BZ) == 1:
        (bg, by), ((b,),) = BZ[0], bound
        r = _reciprocal(b)
        c = _reciprocal(r * b)
        e = r * (0.0 - by) * c
        if abs(e) <= 1e-13:
            raise EquilibriumDegeneracyError(
                f"multiplier Schur complement is singular (equilibrated singular values [{abs(e):.8g}])"
            )
        return (c * (r * (tail[0] - bg) / e),)
    (g0, s00, s01), (g1, s10, s11) = BZ
    (b00, b01), (b10, b11) = bound
    r0, r1 = _reciprocal(max(b00, b01)), _reciprocal(max(b10, b11))
    c0, c1 = _reciprocal(max(r0 * b00, r1 * b10)), _reciprocal(max(r0 * b01, r1 * b11))
    # the equilibrated S = [[a, b], [c, d]], S = -border_rows Y
    a, b = r0 * (0.0 - s00) * c0, r0 * (0.0 - s01) * c1
    c, d = r1 * (0.0 - s10) * c0, r1 * (0.0 - s11) * c1
    det = a * d - b * c
    s_max = 0.5 * (math.hypot(a + d, c - b) + math.hypot(a - d, c + b))
    # a NaN stays NaN and passes the test, so that Newton reports a non-finite update
    s_min = abs(det) / s_max if s_max != 0.0 else 0.0
    if s_min <= 1e-13:
        raise EquilibriumDegeneracyError(
            f"multiplier Schur complement is singular (equilibrated singular values [{s_max:.8g} {s_min:.8g}])"
        )
    h0, h1 = r0 * (tail[0] - g0), r1 * (tail[1] - g1)
    return (c0 * ((d * h0 - b * h1) / det), c1 * ((a * h1 - c * h0) / det))


def _reciprocal(value: float) -> float:
    # 1 / value, with 1 where the value is 0 (an all-zero border row or
    # column stays zero and is then flagged by the singular-value test)
    return 1.0 / value if value > 0.0 else 1.0
