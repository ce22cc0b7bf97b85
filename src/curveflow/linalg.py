"""Direct solver for the bordered systems produced by the Newton
linearization.

The systems have a 3N x 3N core

    [ R  P^T]   rows: curvature (2N, interleaved), velocity (N)
    [ P  Q  ]   cols: position (2N, interleaved), curvature (N)

bordered by one or two dense columns (the multipliers) and the matching dense
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

A Newton run builds one `BorderedSystem`, in its first iteration: the
factored core, which is fixed through the run (Q's diagonal holds the lam M
of its `femcore.NewtonRun`), and the solve of the eta column,
which is fixed too (an AP run also moves along it, see eta_core_solve).
Each iteration passes its own `NewtonBlocks` to the solve, which gathers
their rhs, border rows and lam column into folded order and makes one
banded solve, of the rhs and the lam column together.
The multipliers come from a 1 x 1 or 2 x 2 Schur step in Python floats, with
closed-form singular values for the degeneracy verdict.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .femcore import NewtonBlocks

__all__ = [
    "SolverError",
    "SingularCoreError",
    "EquilibriumDegeneracyError",
    "BorderedSystem",
    "assemble_system",
    "solve_bordered",
    "eta_core_solve",
]


def _band_lu_routines():
    """dgbtrf and dgbtrs from scipy's f2py LAPACK extension _flapack, loaded
    on its own: importing scipy.linalg.lapack runs scipy.linalg's package
    init, which imports numpy.f2py and more, about half of the CLI's cold
    start.  find_spec("scipy") locates scipy without importing it."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        raise ImportError("curveflow.linalg needs scipy, which was not found")
    dirs = [os.path.join(path, "linalg") for path in scipy.submodule_search_locations]
    spec = importlib.machinery.PathFinder.find_spec("_flapack", dirs)
    if spec is None:
        raise ImportError(f"scipy's LAPACK extension _flapack was not found in {dirs}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.dgbtrf, module.dgbtrs


dgbtrf, dgbtrs = _band_lu_routines()


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
class BorderedSystem:
    """The factored core of one Newton run.  In folded order the equations
    of a slot's vertex are (curvature x, curvature y, velocity), then
    perimeter?, area?; its unknowns are (x_k, y_k, kappa_k), then lam?,
    eta?.  nb in {1, 2} counts the borders present, lam before eta in both
    the columns and the rows.

    ``core`` (3N, 2 KL + KU + 1) is the band LU of the run's core in folded
    order, one row per unknown (the transpose of dgbtrf's Fortran-ordered
    band); its Q holds the lam M of the run's NewtonRun on the diagonal.
    The core, its pivots ``piv`` and the eta column are fixed through the
    run.
    ``stack`` (3N, 1 + nb), Fortran order, holds the core solves [g, Y] of
    the rhs and the border columns: the eta column's is taken when the
    system is built, and each solve gathers the rhs and a1 of the blocks it
    is given into the leading columns and overwrites them with theirs."""

    core: np.ndarray = field(repr=False)
    stack: np.ndarray = field(repr=False)
    piv: np.ndarray = field(repr=False)
    nb: int


def assemble_system(blocks: NewtonBlocks) -> BorderedSystem:
    """Build the factored bordered system of the Newton run that starts with
    ``blocks``, once per run: scatter the core into its band in folded
    order, factor it in place and solve the eta column, so a singular core
    raises SingularCoreError before any system exists.  The system keeps no
    blocks: each solve is given those of its iteration."""
    n = len(blocks.P)
    m = 3 * n
    fold = _fold(n)
    nb = len(blocks.rows)
    flat = np.zeros(m * _LDAB)
    flat[fold.scatter] = np.concatenate((blocks.P, blocks.P, blocks.Q, blocks.R, blocks.R), axis=1)
    # band storage in Fortran order, as LAPACK takes it, factored in place
    band, piv, info = dgbtrf(flat.reshape(m, _LDAB).T, KL, KU, overwrite_ab=1)
    if info > 0:
        raise SingularCoreError(f"core factorization failed: zero pivot in column {info - 1}")
    if info < 0:
        raise ValueError(f"dgbtrf rejected argument {-info}")
    system = BorderedSystem(band.T, stack=np.zeros((m, 1 + nb), order="F"), piv=piv, nb=nb)
    if blocks.a2 is not None:
        # the eta column lives in the velocity rows
        np.take(blocks.a2, fold.vertex, out=system.stack[2::3, nb])
        _band_solve(system, system.stack[:, nb:])
    return system


def eta_core_solve(system: BorderedSystem) -> np.ndarray:
    """The core solve of the eta column that the assembly took, in block
    order: positions (interleaved), then curvatures.  Only for a system
    whose blocks carry an eta column."""
    return system.stack[:, -1][_fold(system.core.shape[0] // 3).inverse]


def _band_solve(system: BorderedSystem, cols: np.ndarray) -> None:
    # cols, Fortran-ordered columns of the stack, overwritten by dgbtrs with
    # their core solves (any other layout would be copied, the solution lost)
    _, info = dgbtrs(system.core.T, KL, KU, cols, system.piv, overwrite_b=1)
    if info != 0:
        raise ValueError(f"dgbtrs rejected argument {-info}")


def solve_bordered(system: BorderedSystem, *, blocks: NewtonBlocks) -> np.ndarray:
    """Solve via block elimination: solve the factored core for the rhs and
    the border columns, eliminate it from the border rows, solve the nb x nb
    Schur complement for the multipliers, back-substitute.  Returns the full
    unknown vector (3N + nb,) in block order: positions (interleaved),
    curvatures, then lam?, eta?.

    ``blocks`` are those of an iteration of the run the system was built
    for.  They are keyword-only because the benchmark's tracer passes a
    traced call's positional arguments to a hook that takes the system alone.

    The rhs and a1 are gathered from the blocks into the stack's leading
    columns and solved together in one banded solve, beside the eta
    column's solve the assembly took (see BorderedSystem); the border rows
    are gathered into folded order.  LAPACK treats each right-hand side
    column on its own, so a later solve of the same blocks is bitwise the
    first.

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
    fold = _fold(m // 3)
    z = system.stack
    np.take(blocks.rhs, fold.gather, out=z[:, 0])
    if blocks.a1 is not None:
        z[:, 1] = 0.0
        np.take(blocks.a1, fold.vertex, out=z[2::3, 1])
    _band_solve(system, z[:, : 1 + (blocks.a1 is not None)])
    out = np.empty(m + system.nb)
    B = np.take(blocks.rows, fold.gather, axis=1)
    mu = _multipliers(B @ z, np.abs(B) @ np.abs(z[:, 1:]), blocks.rhs[m:])
    # g - Y mu, with g the core solve of the rhs and Y those of the columns
    np.take(z @ np.array((1.0, *(-x for x in mu))), fold.inverse, out=out[:m])
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
