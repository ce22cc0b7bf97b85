"""Bordered banded solver against a dense oracle, plus its failure modes."""

import importlib.machinery
import importlib.util
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg.lapack import dgbtrf, dgbtrs

import curveflow.linalg
import curveflow.schemes

from curveflow.femcore import (
    NewtonBlocks,
    NewtonIterate,
    NewtonRun,
    ReferenceGeometry,
    SchemeContext,
    assemble_newton_blocks,
    initial_curvature,
)
from curveflow.linalg import (
    EquilibriumDegeneracyError,
    SingularCoreError,
    SolverError,
    _multipliers,
    assemble_system,
    solve_bordered,
)
from curveflow.schemes import NewtonDivergenceError, SchemeConfig, newton_outer, run

import oracles

rng = np.random.default_rng(77010)


def _solve(blocks):
    # the solve of blocks under a system built from them
    return solve_bordered(assemble_system(blocks), blocks=blocks)


def test_solver_matches_dense_oracle():
    # the fold 0, N-1, 1, N-2, ... ends differently for odd and even N (the
    # last slot holds vertex (N-1)/2 or N/2), and at N = 3 every vertex
    # neighbours every other
    flavors = ["lam", "eta", "both"]
    for trial in range(168):
        n = 3 + (trial // 3) % 7
        blocks = oracles.random_blocks(rng, n=n, flavor=flavors[trial % 3])
        x = _solve(blocks)
        M, rhs = oracles.dense_from_blocks(blocks)
        expected = np.linalg.solve(M, rhs)
        scale = np.abs(expected).max()
        assert np.abs(x - expected).max() <= 1e-9 * max(1.0, scale)


def _folded_permutations(n):
    # dense_from_blocks's row and column of folded index 3 slot(k) + c, with
    # the fold's slot rule written out on its own: vertex k at slot 2k for
    # k <= (N-1)/2, else at 2(N-1-k)+1
    rows = np.empty(3 * n, dtype=int)
    cols = np.empty(3 * n, dtype=int)
    for k in range(n):
        slot = 2 * k if k <= (n - 1) // 2 else 2 * (n - 1 - k) + 1
        for c in range(2):
            rows[3 * slot + c] = n + 2 * k + c  # curvature row (k, c)
            cols[3 * slot + c] = 2 * k + c  # position (k, c)
        rows[3 * slot + 2] = k  # velocity row k
        cols[3 * slot + 2] = 2 * n + k  # kappa_k
    return rows, cols


def test_folded_core_is_a_band_of_width_six():
    # every structural nonzero of the folded core lies within six diagonals,
    # and the band, border rows, border columns and rhs reach LAPACK and the
    # Schur step as exactly the dense system's entries at their folded
    # places: the band as LAPACK's LU of the expected band, the eta column,
    # the rhs and the lam column as their core solves under that LU, the
    # border rows through the multipliers they give
    for n in range(3, 65):
        blocks = oracles.random_blocks(rng, n=n, flavor="both")
        M, rhs = oracles.dense_from_blocks(blocks)
        m = 3 * n
        rows, cols = _folded_permutations(n)
        core = M[np.ix_(rows, cols)]
        i, j = np.nonzero(core)
        assert len(i) == 13 * n and np.abs(i - j).max() <= 6
        expected = np.zeros((19, m), order="F")
        expected[12 + i - j, j] = core[i, j]
        lu, piv, info = dgbtrf(expected, 6, 6)
        eta, _ = dgbtrs(lu, 6, 6, M[rows, m + 1], piv)
        assert info == 0
        g, _ = dgbtrs(lu, 6, 6, np.column_stack((rhs[rows], M[rows, m])), piv)
        system = assemble_system(blocks)
        assert np.array_equal(system.core.T, lu), n
        assert np.array_equal(system.piv, piv)
        assert np.array_equal(system.stack[:, 2], eta)
        x = solve_bordered(system, blocks=blocks)
        assert np.array_equal(system.stack[:, :2], g)
        B = np.ascontiguousarray(M[m:][:, cols])  # row-major, as gathered, so the products round alike
        assert np.array_equal(x[m:], _multipliers(B @ system.stack, np.abs(B) @ np.abs(system.stack[:, 1:]), rhs[m:]))


# curveflow.linalg loads scipy's _flapack extension on its own, and a later
# import of scipy.linalg initialises a second copy of it
LAPACK_TWICE = """\
import sys
import curveflow.linalg
import scipy.linalg
sys.path.insert(0, sys.argv[1])
import test_linalg
assert curveflow.linalg.dgbtrf is not scipy.linalg.lapack.dgbtrf
assert sys.modules["_flapack"] is not sys.modules["scipy.linalg._flapack"]
test_linalg.test_folded_core_is_a_band_of_width_six()
"""


def test_band_lu_agrees_with_scipy_linalg_loaded_after_it():
    # a fresh interpreter, so that curveflow loads the extension first; the
    # band test then checks LU, pivots and solves for array_equal with those
    # of scipy.linalg.lapack
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(curveflow.linalg.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", LAPACK_TWICE, tests],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("missing", ["scipy", "_flapack"])
def test_band_lu_loader_names_what_it_did_not_find(monkeypatch, missing):
    finder = importlib.util if missing == "scipy" else importlib.machinery.PathFinder
    monkeypatch.setattr(finder, "find_spec", lambda *args, **kwargs: None)
    with pytest.raises(ImportError, match=missing):
        curveflow.linalg._band_lu_routines()


def test_two_border_solve_at_large_n_keeps_memory_to_the_band():
    # at N = 8192 the band, factored in place, is 19 x 3N doubles (3.7 MB);
    # everything else is a few vectors of length 3N and the fold's index
    # arrays, so 16 MB leaves room for those, and any (3N, 3N) array fails it
    n = 8192
    blocks = oracles.random_blocks(rng, n=n, flavor="both")
    tracemalloc.start()
    try:
        x = _solve(blocks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(x)) and len(x) == 3 * n + 2
    assert peak < 16e6


def test_residual_norm_at_solution_and_away():
    blocks = oracles.random_blocks(rng, n=8, flavor="both")
    x = _solve(blocks)
    assert oracles.residual_norm(blocks, x) < 1e-9
    y = x.copy()
    y[0] += 1.0
    assert oracles.residual_norm(blocks, y) > 1e-3


def test_one_border_system_keeps_its_band_in_lapack_layout():
    blocks = oracles.random_blocks(rng, n=8, flavor="eta")
    system = assemble_system(blocks)
    assert system.nb == 1
    # the factored band, one row per unknown; its transpose is LAPACK's
    # Fortran-ordered band storage, which dgbtrs reads without a copy
    assert system.core.shape == (24, 19)
    assert system.core.T.flags.f_contiguous
    x = solve_bordered(system, blocks=blocks)
    assert len(x) == 25
    assert oracles.residual_norm(blocks, x) < 1e-10


@pytest.mark.parametrize("rows", [(True, True), (True, False), (False, True)])
def test_relabelled_start_vertex_rolls_the_newton_direction(rows):
    # Moving the start vertex moves which vertices the fold places next to
    # each other and which pair closes the curve between slots 0 and 1, so
    # agreement at N = 160 (above the dense oracle's size cap) checks the
    # folded band on a real Newton system.
    n = 160
    theta = 2.0 * np.pi * np.arange(n) / n
    r = 1.0 + 0.2 * np.sin(3 * theta) + 0.1 * np.cos(7 * theta)
    vm = np.column_stack((r * np.cos(theta), r * np.sin(theta)))
    kappa = initial_curvature(vm) + 0.05 * rng.standard_normal(n)
    shift_x = 1e-3 * rng.standard_normal((n, 2))
    use_perimeter, use_area = rows

    def direction(s):
        v = np.roll(vm, s, axis=0)
        ctx = SchemeContext(
            delta0=1.0,
            xhist=-v,
            anchor=v,
            use_perimeter=use_perimeter,
            Lhist=-oracles.loop_perimeter(v),
            use_area=use_area,
            A0=oracles.loop_shoelace(v),
        )
        it = NewtonIterate(v + np.roll(shift_x, s, axis=0), np.roll(kappa, s), 0.3, -0.2)
        z = _solve(assemble_newton_blocks(NewtonRun(ctx, ReferenceGeometry(v), 1e-3, it.lam), it))
        # back to the labels of s = 0
        dX = np.roll(z[: 2 * n].reshape(n, 2), -s, axis=0)
        dk = np.roll(z[2 * n : 3 * n], -s)
        return np.concatenate((dX.ravel(), dk, z[3 * n :]))

    reference = direction(0)
    for s in (1, 37, 159):
        assert np.abs(direction(s) - reference).max() <= 1e-12 * np.abs(reference).max()


def test_parallel_border_rows_raise_degeneracy():
    # make the two linearized conservation laws identical: the Schur
    # complement is then exactly singular
    blocks = oracles.random_blocks(rng, n=8, flavor="both")
    blocks = NewtonBlocks(
        P=blocks.P,
        Q=blocks.Q,
        R=blocks.R,
        a1=blocks.a1,
        a2=blocks.a2,
        rows=blocks.rows[[1, 1]],
        rhs=blocks.rhs,
    )
    with pytest.raises(EquilibriumDegeneracyError):
        _solve(blocks)


def test_parallel_border_columns_raise_degeneracy():
    # constant-curvature situation: the lam column is a multiple of the eta
    # column, so the multipliers are not identifiable
    base = oracles.random_blocks(rng, n=8, flavor="both")
    blocks = NewtonBlocks(
        P=base.P,
        Q=base.Q,
        R=base.R,
        a1=2.5 * base.a2,
        a2=base.a2,
        rows=base.rows,
        rhs=base.rhs,
    )
    with pytest.raises(EquilibriumDegeneracyError):
        _solve(blocks)


def _scale_border(blocks, row: str, factor: float):
    # multiply one linearized conservation law (border row and rhs entry);
    # the perimeter law is the first border row, the area law the last
    j = 0 if row == "perimeter" else len(blocks.rows) - 1
    rows, rhs = blocks.rows.copy(), blocks.rhs.copy()
    rows[j] *= factor
    rhs[3 * len(blocks.P) + j] *= factor
    return replace(blocks, rows=rows, rhs=rhs)


@pytest.mark.parametrize("row", ["perimeter", "area"])
@pytest.mark.parametrize("factor", [1e14, 1e-14])
def test_scaled_border_row_keeps_solution_and_verdict(row, factor):
    # the perimeter row carries a 1/tau factor the area row does not: how a
    # conservation law is scaled must not decide the degeneracy verdict, with
    # the other law present or not (the one-border Schur step has its own
    # closed form)
    for flavor in ("both", {"perimeter": "lam", "area": "eta"}[row]):
        for _ in range(20):
            blocks = oracles.random_blocks(rng, n=8, flavor=flavor)
            reference = _solve(blocks)
            scaled = _solve(_scale_border(blocks, row, factor))
            assert np.abs(scaled - reference).max() <= 1e-9 * max(1.0, np.abs(reference).max())


def _core_solve_of_eta_column(blocks):
    # core^{-1} (a2 in the velocity rows), in block order, by the dense oracle
    M, _ = oracles.dense_from_blocks(blocks)
    m = 3 * len(blocks.a2)
    return np.linalg.solve(M[:m, :m], M[:m, m])


def _with_area_row(blocks, c):
    # the one-border blocks with c on the positions as their area row
    rows = np.zeros_like(blocks.rows)
    rows[0, : len(c)] = c
    return replace(blocks, rows=rows)


@pytest.mark.parametrize("factor", [1.0, 1e14, 1e-14])
def test_lone_area_border_verdict(factor):
    # with one border the Schur complement is the number s = -c . core^{-1} a2:
    # an area row that is zero, or orthogonal to core^{-1} a2, is degenerate
    # at any scale, and a generic one is not
    for _ in range(10):
        blocks = oracles.random_blocks(rng, n=8, flavor="eta")
        y = _core_solve_of_eta_column(blocks)[:16]  # the area row has no kappa part
        v = rng.standard_normal(16)
        annihilating = v - (v @ y) / (y @ y) * y
        for c in (np.zeros(16), annihilating):
            with pytest.raises(EquilibriumDegeneracyError):
                _solve(_scale_border(_with_area_row(blocks, c), "area", factor))
        x = _solve(_scale_border(_with_area_row(blocks, v), "area", factor))
        assert oracles.residual_norm(_with_area_row(blocks, v), x) <= 1e-9 * max(1.0, np.abs(x).max())


def _later_inputs(blocks, other):
    # the blocks of a later Newton iteration: other's a1, border rows and
    # rhs on the core and eta column of blocks
    return replace(blocks, a1=other.a1, rows=other.rows, rhs=other.rhs)


@pytest.mark.parametrize("flavor", ["lam", "eta", "both"])
def test_stored_factor_gives_bitwise_the_fresh_solve(flavor):
    # every solve of a system gathers its inputs from the blocks it is given
    # and goes through the stored factor: a second solve, and a solve of the
    # first blocks after one of later blocks, have the same bits as a fresh
    # one, and the solve in between is a fresh one of the later blocks
    for n in (3, 4, 8, 50):
        blocks = oracles.random_blocks(rng, n=n, flavor=flavor)
        system = assemble_system(blocks)
        fresh = solve_bordered(system, blocks=blocks)
        assert np.array_equal(solve_bordered(system, blocks=blocks), fresh)
        later = _later_inputs(blocks, oracles.random_blocks(rng, n=n, flavor=flavor))
        assert np.array_equal(solve_bordered(system, blocks=later), _solve(later))
        assert np.array_equal(solve_bordered(system, blocks=blocks), fresh)


@pytest.mark.parametrize("flavor", ["lam", "eta", "both"])
def test_stack_holds_the_border_columns_or_their_core_solves(flavor):
    # after a solve, stack[:, 1:] holds the core solves of the border
    # columns; a later iteration's blocks bring a new a1, which their solve
    # solves, and the eta column's solve stays
    for n in range(3, 10):
        m = 3 * n
        rows, cols = _folded_permutations(n)
        blocks = oracles.random_blocks(rng, n=n, flavor=flavor)
        system = assemble_system(blocks)
        solve_bordered(system, blocks=blocks)
        M, _ = oracles.dense_from_blocks(blocks)
        expected = np.linalg.solve(M[np.ix_(rows, cols)], M[rows, m:])
        assert np.abs(system.stack[:, 1:] - expected).max() <= 1e-12 * np.abs(expected).max()
        solves = system.stack[:, 1:].copy()
        later = _later_inputs(blocks, oracles.random_blocks(rng, n=n, flavor=flavor))
        piv = system.piv
        solve_bordered(system, blocks=later)
        assert system.piv is piv
        if later.a1 is None:
            # an AP iterate: only the border rows and the rhs change
            assert np.array_equal(system.stack[:, 1:], solves)
        else:
            # with the perimeter multiplier, a1 changes too; the core does not
            M, _ = oracles.dense_from_blocks(later)
            expected = np.linalg.solve(M[np.ix_(rows, cols)], M[rows, m:])
            assert np.abs(system.stack[:, 1:] - expected).max() <= 1e-12 * np.abs(expected).max()
            if later.a2 is not None:
                assert np.array_equal(system.stack[:, 2], solves[:, 1])  # the eta column's solve, bitwise


def _same_bits(got, value):
    return (got is None and value is None) or np.array_equal(got, value)


def _check_blocks_built_from_an_earlier_iterate(ctx, ref, first, later, tau):
    # a later iterate of a run that starts at ``first`` gets new a1, border
    # rows and rhs, and shares the run's core blocks and eta column with the
    # earlier blocks, which keep their bits.  The blocks, and their solve
    # under the run's system without a new assembly, are bitwise those of a
    # fresh run at the start's lam at the later iterate
    newton_run = NewtonRun(ctx, ref, tau, first.lam)
    earlier = assemble_newton_blocks(newton_run, first)
    saved = [None if a is None else a.copy() for a in (earlier.a1, earlier.rows, earlier.rhs)]
    system = assemble_system(earlier)
    solve_bordered(system, blocks=earlier)
    piv = system.piv
    blocks = assemble_newton_blocks(newton_run, later)
    fresh_blocks = assemble_newton_blocks(NewtonRun(ctx, ref, tau, first.lam), later)
    for name in ("P", "Q", "R", "a1", "a2", "rows", "rhs"):
        assert _same_bits(getattr(blocks, name), getattr(fresh_blocks, name)), name
    assert all(_same_bits(a, b) for a, b in zip((earlier.a1, earlier.rows, earlier.rhs), saved))
    for name in ("P", "Q", "R", "a2"):
        assert getattr(blocks, name) is getattr(earlier, name) is getattr(newton_run, name), name
    if first.lam != later.lam:
        # lam M of the later iterate is not on the held diagonal
        assert not np.array_equal(NewtonRun(ctx, ref, tau, later.lam).Q, newton_run.Q)
    fresh = assemble_system(fresh_blocks)
    assert np.array_equal(solve_bordered(system, blocks=blocks), solve_bordered(fresh, blocks=fresh_blocks))
    assert np.array_equal(system.stack, fresh.stack)
    assert np.array_equal(system.core.T, fresh.core.T)
    assert system.piv is piv
    # the velocity rows sum their terms in another order than the loops:
    # the whole residual agrees with the loop oracle to 1e-13 of its terms
    value, size = oracles.template_residual(ctx, ref.vertices, later, tau)
    assert np.all(np.abs(-fresh_blocks.rhs - value) <= 1e-13 * size)


# SP (ids as when use_area was the only parameter), PD, and AP, whose lam
# stays 0 and whose later iterate no scheme's run reaches: an AP run meets
# its area law in closed form after its first solve
@pytest.mark.parametrize(
    "use_perimeter, use_area",
    [pytest.param(True, True, id="True"), pytest.param(True, False, id="False"), pytest.param(False, True, id="ap")],
)
def test_blocks_built_from_an_earlier_iterate_are_bitwise_the_fresh_ones(use_perimeter, use_area):
    n = 40
    theta = 2.0 * np.pi * np.arange(n) / n
    v = np.column_stack((2.0 * np.cos(theta), np.sin(theta)))
    ctx = SchemeContext(
        delta0=1.5, xhist=-1.5 * v, anchor=v, use_perimeter=use_perimeter, use_area=use_area, A0=oracles.loop_shoelace(v)
    )
    lam_first, lam_later = (0.1, -0.4) if use_perimeter else (0.0, 0.0)
    first = NewtonIterate(v, initial_curvature(v), lam_first, 0.0)
    X = v + 1e-3 * rng.standard_normal((n, 2))
    later = NewtonIterate(X, first.kappa + 0.1 * rng.standard_normal(n), lam_later, 0.3 * use_area)
    _check_blocks_built_from_an_earlier_iterate(ctx, ReferenceGeometry(v), first, later, 1e-3)


def _captured_runs(scheme, monkeypatch):
    # (NewtonRun, iterates) of every Newton run of a short run on mikula,
    # in the order the runs start
    runs = {}

    def capture(newton_run, it):
        runs.setdefault(newton_run, []).append(NewtonIterate(it.X.copy(), it.kappa.copy(), it.lam, it.eta))
        return assemble_newton_blocks(newton_run, it)

    monkeypatch.setattr(curveflow.schemes, "assemble_newton_blocks", capture)
    result = run(SchemeConfig(scheme=scheme, N=24, tau=1e-3, T=3e-3, gamma=0.0, shape="mikula"))
    assert result.ok, result.failure
    return list(runs.items())


@pytest.mark.parametrize("scheme", ["sp-bdf2", "pd-bdf2", "sp-cn"])
def test_blocks_of_captured_iterates_are_bitwise_the_fresh_ones(scheme, monkeypatch):
    # the first two iterates of the last Newton run of a short run of each
    # family that iterates: SP, PD, and SP with Crank-Nicolson's midpoint step
    newton_run, iterates = _captured_runs(scheme, monkeypatch)[-1]
    ctx = newton_run.ctx
    assert len(iterates) >= 2 and (ctx.end == 2.0) == (scheme == "sp-cn")
    _check_blocks_built_from_an_earlier_iterate(ctx, newton_run.ref, iterates[0], iterates[1], newton_run.tau)


def test_ap_newton_runs_assemble_once(monkeypatch):
    # an AP run meets its area law in closed form after its first solve, so
    # it has no second iterate to assemble
    runs = _captured_runs("ap-bdf2", monkeypatch)
    assert len(runs) == 5  # three correctors, the first an ap-bdf1 step, and two ap-bdf1 references
    assert all(len(iterates) == 1 for _, iterates in runs)


def test_newton_run_at_large_n_keeps_memory_to_its_buffers(monkeypatch):
    # a Newton run allocates its NewtonRun, its one band and its solve
    # stack once, and each iteration its own a1, border rows, rhs and the
    # temporaries that build them: the run and six SP iterations at N = 8192
    # peak at 9.9 MB.  One band is 19 x 3N doubles (3.7 MB), and 12.5 MB
    # leaves no room for a second, such as a copy of the band to factor
    # (14.5 MB)
    n = 8192
    theta = 2.0 * np.pi * np.arange(n) / n
    v = np.column_stack((2.0 * np.cos(theta), np.sin(theta)))
    ctx = SchemeContext(delta0=1.0, xhist=-v, anchor=v, Lhist=-oracles.loop_perimeter(v), A0=oracles.loop_shoelace(v))
    ref = ReferenceGeometry(v)
    start = NewtonIterate(v.copy(), initial_curvature(v), 0.0, 0.0)
    runs = []

    def assemble(newton_run, it):
        runs.append(newton_run)
        return assemble_newton_blocks(newton_run, it)

    monkeypatch.setattr(curveflow.schemes, "assemble_newton_blocks", assemble)
    tracemalloc.start()
    try:
        newton_run = NewtonRun(ctx, ref, 1e-3, start.lam)
        with pytest.raises(NewtonDivergenceError):
            newton_outer(newton_run, start, tol=0.0, max_newton=6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert runs == [newton_run] * 6
    assert peak < 12.5e6


def _rotation(angle):
    return np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])


def _schur_cases(kind):
    # (BZ, bound, tail, column factors) of two-border Schur steps; see
    # linalg._multipliers.  "near-parallel" cases are equilibrated already
    # (a bound of ones scales nothing) and have singular values 1 and s, on
    # both sides of the 1e-13 verdict and two of them within 10% of it, so
    # that a wrong sigma_max flips verdicts; "scaled" ones are the other two
    # kinds with one border row and one border column scaled by 1e+-14
    if kind == "random":
        for _ in range(200):
            B, z = rng.standard_normal((2, 30)), rng.standard_normal((30, 3))
            yield B @ z, np.abs(B) @ np.abs(z[:, 1:]), rng.standard_normal(2), np.ones(2)
    elif kind == "near-parallel":
        for s in (2e-14, 0.9e-13, 1.1e-13, 5e-13):
            for _ in range(50):
                E = _rotation(rng.uniform(0.0, 7.0)) @ np.diag([1.0, s]) @ _rotation(rng.uniform(0.0, 7.0))
                yield np.column_stack((rng.standard_normal(2), -E)), np.ones((2, 2)), rng.standard_normal(2), np.ones(2)
    else:
        for base in ("random", "near-parallel"):
            for BZ, bound, tail, col in _schur_cases(base):
                i, j = rng.integers(2, size=2)
                row_factor, col_factor = 10.0 ** rng.choice([-14, 14], size=2)
                BZ, bound, tail, col = BZ.copy(), bound.copy(), tail.copy(), col.copy()
                BZ[i] *= row_factor
                bound[i] *= row_factor
                tail[i] *= row_factor
                BZ[:, 1 + j] *= col_factor
                bound[:, j] *= col_factor
                col[j] = col_factor
                yield BZ, bound, tail, col


@pytest.mark.parametrize("kind", ["random", "near-parallel", "scaled"])
def test_scalar_schur_step_matches_the_svd(kind):
    # the closed-form 2 x 2 verdict and adjugate solve against NumPy's SVD:
    # the same verdict, and multipliers (with a column's scale undone) that
    # agree to 1e-12 relative, or to 1e-14 times the condition number where
    # that is larger: two backward-stable solves of a 2 x 2 system with
    # condition number c differ by about c times the unit roundoff
    verdicts = set()
    for BZ, bound, tail, col in _schur_cases(kind):
        sing, expected = oracles.svd_schur_step(BZ, bound, tail)
        verdicts.add(bool(sing[-1] <= 1e-13))
        if sing[-1] <= 1e-13:
            with pytest.raises(EquilibriumDegeneracyError):
                _multipliers(BZ, bound, tail)
            continue
        got = col * np.array(_multipliers(BZ, bound, tail))
        expected = col * expected
        tol = max(1e-12, 1e-14 * sing[0] / sing[-1])
        assert np.abs(got - expected).max() <= tol * np.abs(expected).max()
    assert verdicts == ({False} if kind == "random" else {False, True})


@pytest.mark.parametrize("flavor", ["lam", "eta", "both"])
def test_non_finite_border_row_is_no_degeneracy_verdict(flavor):
    # a NaN in a border row makes the solution non-finite, which Newton
    # reports as divergence; it is not an equilibrium, which would switch
    # an SP run to its AP partner
    blocks = oracles.random_blocks(rng, n=8, flavor=flavor)
    blocks.rows[0, 3] = np.nan
    assert not np.isfinite(_solve(blocks)).all()


def test_scaled_border_column_rescales_only_its_multiplier():
    # rescaling a multiplier column rescales that multiplier and nothing else
    blocks = oracles.random_blocks(rng, n=8, flavor="both")
    reference = _solve(blocks)
    scaled = _solve(replace(blocks, a1=1e14 * blocks.a1))
    assert np.abs(scaled[:-2] - reference[:-2]).max() <= 1e-9 * max(1.0, np.abs(reference).max())
    assert scaled[-2] * 1e14 == pytest.approx(reference[-2], rel=1e-9)
    assert scaled[-1] == pytest.approx(reference[-1], rel=1e-9)


def test_scaled_parallel_borders_still_raise_degeneracy():
    # a genuinely rank-deficient border stays flagged however it is scaled
    base = oracles.random_blocks(rng, n=8, flavor="both")
    parallel_rows = replace(base, rows=base.rows[[1, 1]])
    parallel_cols = replace(base, a1=2.5 * base.a2)
    for blocks in (parallel_rows, parallel_cols):
        for factor in (1e-14, 1.0, 1e14):
            with pytest.raises(EquilibriumDegeneracyError):
                _solve(_scale_border(blocks, "perimeter", factor))


def test_singular_core_raises():
    base = oracles.random_blocks(rng, n=8, flavor="eta")
    blocks = NewtonBlocks(
        P=base.P,
        Q=base.Q,
        R=np.zeros((8, 3)),
        a1=None,
        a2=base.a2,
        rows=base.rows,
        rhs=base.rhs,
    )
    # the core is factored when the system is built
    with pytest.raises(SingularCoreError):
        assemble_system(blocks)


def test_solver_errors_share_base_class():
    assert issubclass(SingularCoreError, SolverError)
    assert issubclass(EquilibriumDegeneracyError, SolverError)


def test_dense_fallback_size_guard():
    blocks = oracles.random_blocks(rng, n=65, flavor="both")
    with pytest.raises(ValueError):
        oracles.solve_bordered_dense(blocks)
