"""Implicit time-stepping schemes for curve diffusion of closed planar curves.

Each scheme advances a polygonal curve and its nodal curvature by solving one
nonlinear system per step with Newton's method.  The conservation structure
built into the step varies by family:

* SP (structure preserving): both the perimeter dissipation law and exact
  area conservation are step equations, with multipliers lam and eta as extra
  unknowns (two borders in the linear algebra).
* PD (perimeter decreasing): only the perimeter law, multiplier lam.
* AP (area preserving): only the area law, multiplier eta; BDF orders 1 to 4.

The driver `run` also implements the equilibrium modification: an SP run
monitors the perimeter decrement per step and, once its magnitude falls below
the threshold gamma, permanently sets lam = 0, drops the perimeter equation
and continues with the matching AP scheme.  The AP step stays solvable at the
discrete equilibrium, where constant curvature makes the two conservation
laws linearly dependent and the SP step degenerate.

Every scheme is one row of the table SPECS, and the one function `step`
builds the step of any row.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .femcore import (
    NewtonBlocks,
    NewtonIterate,
    ReferenceGeometry,
    SchemeContext,
    assemble_newton_blocks,
    initial_curvature,
)
from .geometry import (
    PolygonalCurve,
    _shoelace,
    generate_ellipse,
    generate_mikula,
    generate_rectangle,
    mesh_ratio,
    perimeter,
    signed_area,
)
from .linalg import EquilibriumDegeneracyError, SolverError, assemble_system, solve_bordered
from .metrics import DiagnosticsRow, DiagnosticsSeries

__all__ = [
    "SCHEMES",
    "SHAPES",
    "SPECS",
    "SchemeSpec",
    "SchemeError",
    "NewtonDivergenceError",
    "HistoryEntry",
    "SchemeState",
    "SchemeConfig",
    "Snapshot",
    "RunResult",
    "bdf_coefficients",
    "newton_outer",
    "step",
    "startup",
    "run",
]


@dataclass(frozen=True)
class SchemeSpec:
    """One row of the scheme table: everything that tells one scheme's step,
    startup and mode switch apart from another's.

    * ``kind``: SP, PD or AP; fixes which constraint rows (perimeter, area)
      and multipliers the step carries.
    * ``order``: BDF order of the time rule, which is also the number of
      history levels a step needs; ``cn`` makes it the Crank-Nicolson step
      (one level), which solves for its midpoint level (see `step`).
    * ``lower``: the same family one order lower (for SP and PD the Euler
      step, for AP-k the AP-(k-1) step), or None for an Euler step.  It fixes
      the reference polygon (see `step`), the step taken from a state with
      fewer levels than ``order``, and with it the startup (see `startup`).
    * ``partner``: the AP scheme an SP run switches to at equilibrium.
    * ``one_step_perimeter``: the perimeter row uses the one-step backward
      difference instead of the scheme's own BDF combination.
    """

    kind: str
    order: int
    lower: Optional[str] = None
    partner: Optional[str] = None
    cn: bool = False
    one_step_perimeter: bool = False


SPECS = {
    "sp-euler": SchemeSpec("SP", 1, partner="ap-bdf1"),
    "sp-cn": SchemeSpec("SP", 1, "sp-euler", "ap-bdf2", cn=True),
    "sp-bdf2": SchemeSpec("SP", 2, "sp-euler", "ap-bdf2"),
    "sp-bdf2-variant": SchemeSpec("SP", 2, "sp-euler", "ap-bdf2", one_step_perimeter=True),
    "pd-euler": SchemeSpec("PD", 1),
    "pd-bdf2": SchemeSpec("PD", 2, "pd-euler"),
    "ap-bdf1": SchemeSpec("AP", 1),
    "ap-bdf2": SchemeSpec("AP", 2, "ap-bdf1"),
    "ap-bdf3": SchemeSpec("AP", 3, "ap-bdf2"),
    "ap-bdf4": SchemeSpec("AP", 4, "ap-bdf3"),
}

# pd-euler only starts and predicts pd-bdf2; it is not offered as a scheme
SCHEMES = tuple(name for name in SPECS if name != "pd-euler")

# each start shape's generator and the SchemeConfig fields it takes before N
SHAPES = {
    "ellipse": (generate_ellipse, ("a", "b")),
    "mikula": (generate_mikula, ()),
    "rectangle": (generate_rectangle, ("width", "height")),
}


class SchemeError(Exception):
    """A time step could not be completed."""


class NewtonDivergenceError(SchemeError):
    """Newton iteration exhausted max_newton without meeting the tolerance."""

    def __init__(self, message: str, last_norm: float) -> None:
        super().__init__(message)
        self.last_norm = last_norm


@lru_cache(maxsize=None)
def bdf_coefficients(k: int) -> Tuple[Fraction, ...]:
    """Coefficients (delta_0, ..., delta_k) of the order-k backward
    differentiation formula, from the generating polynomial
    sum_{l=1..k} (1 - z)^l / l, exact as fractions; their sum is exactly 0.
    Cached: every call with the same order returns the same tuple."""
    if not 1 <= k <= 6:
        raise ValueError(f"BDF order must be in 1..6, got {k}")
    coeffs = [Fraction(0)] * (k + 1)
    for ell in range(1, k + 1):
        for i in range(ell + 1):
            coeffs[i] += Fraction((-1) ** i * math.comb(ell, i), ell)
    return tuple(coeffs)


class HistoryEntry(NamedTuple):
    """One accepted time level: the curve with its curvature, multipliers,
    perimeter and signed area, the corrector's Newton iterations that
    produced it (for a substepped startup level, summed over its tau
    interval; 0 at level 0) and the mode of the scheme that produced it."""

    curve: PolygonalCurve
    kappa: np.ndarray
    lam: float
    eta: float
    L: float
    A: float
    newton_iters: int
    mode: str  # "SP" | "AP" | "PD"


@dataclass
class SchemeState:
    """Rolling state of a run: ring of recent time levels plus run constants.

    ``history[-1]`` is the newest level; ``step_index`` counts completed steps
    so the newest level sits at time ``step_index * tau``.
    """

    history: deque
    step_index: int
    tau: float
    A0: float
    L0: float


@dataclass(frozen=True)
class SchemeConfig:
    """Validated parameters of one simulation run.

    gamma = None selects the default modification threshold 50 * tau;
    gamma = 0 disables mode switching entirely.  ``shape`` names a row of
    SHAPES, whose generator reads the fields that row lists (a, b or width,
    height) and N; ``initial_curve`` overrides the named generator shape.
    """

    scheme: str
    N: int
    tau: float
    T: float
    tol: float = 1e-10
    gamma: Optional[float] = None
    max_newton: int = 100
    shape: str = "ellipse"
    a: float = 2.0
    b: float = 1.0
    width: float = 4.0
    height: float = 1.0
    initial_curve: Optional[PolygonalCurve] = None

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme '{self.scheme}' (expected one of {', '.join(SCHEMES)})")
        if self.initial_curve is None and self.shape not in SHAPES:
            raise ValueError(f"unknown shape '{self.shape}' (expected one of {', '.join(SHAPES)})")
        if not math.isfinite(self.N) or int(self.N) != self.N or self.N < 3:
            raise ValueError(f"N must be an integer >= 3, got {self.N}")
        for name in ("tau", "T", "tol"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite, got {v}")
        ratio = self.T / self.tau
        if not math.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ValueError(f"T/tau must be a positive integer, got {ratio}")
        if self.gamma is not None and not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if not math.isfinite(self.max_newton) or int(self.max_newton) != self.max_newton or self.max_newton < 1:
            raise ValueError(f"max_newton must be a positive integer, got {self.max_newton}")
        # an integral float such as 50.0 is accepted, and stored as an int
        for name in ("N", "max_newton"):
            object.__setattr__(self, name, int(getattr(self, name)))
        # the generator's own checks of N and the shape parameters
        self.make_initial_curve()

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.tau))

    @property
    def gamma_value(self) -> float:
        return 50.0 * self.tau if self.gamma is None else self.gamma

    def make_initial_curve(self) -> PolygonalCurve:
        if self.initial_curve is not None:
            return self.initial_curve
        generate, params = SHAPES[self.shape]
        return generate(*(getattr(self, name) for name in params), self.N)


def newton_outer(
    model: Callable[[NewtonIterate, Optional[NewtonBlocks]], NewtonBlocks],
    start: NewtonIterate,
    tol: float,
    max_newton: int,
) -> Tuple[NewtonIterate, int]:
    """Newton iteration on the blocks supplied by ``model``.

    Applies full updates Delta_k and stops after the first update k that
    meets either exit, with the norm |Delta| = max(|dX|_inf, |dkappa|_inf,
    |dlam|, |deta|):

    * |Delta_k| <= tol (even a start that is already a root costs one
      linear solve);
    * k >= 2 and the contraction estimate theta_k = |Delta_k| / |Delta_{k-1}|
      satisfies theta_k < 1/2 and theta_k |Delta_k| <= tol, while lam still
      equals the start's.  For a contracting iteration theta_k |Delta_k|
      estimates the size of the next update, so the solve that would only
      show it below tol is skipped (Deuflhard, Newton Methods for Nonlinear
      Problems, 2004, ch. 2).  That needs Newton's quadratic contraction:
      once lam moves, the held lam M (below) makes it linear, and an
      early theta_k can understate the later ones.

    Returns (iterate, iterations).  A non-finite update component raises
    NewtonDivergenceError at once, with last_norm = inf.

    ``model(it, previous)`` gives new blocks at ``it``; ``previous`` is the
    blocks of the run's last iteration, or None in the first.  The first
    iteration builds the run's system from its blocks; each later one has
    the model build its blocks from ``previous`` (by passing it on to
    assemble_newton_blocks), sharing the core blocks, and hands them to the
    system's solve.  The core, with lam M of the start iterate on Q's
    diagonal, is factored once, when the system is built: a simplified
    Newton method with an exact residual.  Each iteration then makes one
    banded solve, of its rhs and lam column, under that factor.
    """
    it = start
    norm = math.inf
    blocks = system = None
    for iteration in range(1, max_newton + 1):
        blocks = model(it, blocks)
        if system is None:
            system = assemble_system(blocks)
        z = solve_bordered(system, blocks=blocks)
        previous_norm, norm = norm, float(np.abs(z).max())
        n = blocks.P.shape[0]
        if not math.isfinite(norm):
            # the first non-finite component, in the order of the unknowns
            bad = int(np.flatnonzero(~np.isfinite(z))[0])
            if bad < 3 * n:
                name = "position" if bad < 2 * n else "curvature"
            else:
                name = "lam" if bad == 3 * n and blocks.a1 is not None else "eta"
            raise NewtonDivergenceError(f"non-finite {name} update at Newton iteration {iteration}", last_norm=math.inf)
        dlam = float(z[3 * n]) if blocks.a1 is not None else 0.0
        deta = float(z[-1]) if blocks.a2 is not None else 0.0
        it = NewtonIterate(it.X + z[: 2 * n].reshape(n, 2), it.kappa + z[2 * n : 3 * n], it.lam + dlam, it.eta + deta)
        if norm <= tol:
            return it, iteration
        theta = norm / previous_norm  # 0 in the first iteration, which has no estimate
        if iteration >= 2 and theta < 0.5 and theta * norm <= tol and it.lam == start.lam:
            return it, iteration
    raise NewtonDivergenceError(
        f"Newton did not reach tol={tol} within {max_newton} iterations (last update {norm:.3e})",
        last_norm=norm,
    )


def _start_iterate(level: HistoryEntry, ctx: SchemeContext) -> NewtonIterate:
    # a time level, with multipliers that are not unknowns pinned to 0
    return NewtonIterate(
        np.array(level.curve.vertices),
        np.array(level.kappa),
        level.lam if ctx.use_perimeter else 0.0,
        level.eta if ctx.use_area else 0.0,
    )


def _wrap_accepted(X: np.ndarray, step_index: int) -> PolygonalCurve:
    if _shoelace(np.asarray(X, dtype=float)) <= 0.0:
        raise SchemeError(f"orientation lost at step {step_index}")
    return PolygonalCurve(X)


def _level(curve: PolygonalCurve, kappa: np.ndarray, lam: float, eta: float, iters: int, mode: str) -> HistoryEntry:
    # a time level, with the perimeter and signed area of its curve
    return HistoryEntry(curve, kappa, lam, eta, perimeter(curve), signed_area(curve), iters, mode)


def _accept(state: SchemeState, it: NewtonIterate, iters: int, mode: str) -> SchemeState:
    curve = _wrap_accepted(it.X, state.step_index + 1)
    history = deque(state.history, maxlen=state.history.maxlen)
    history.append(_level(curve, np.array(it.kappa), it.lam, it.eta, iters, mode))
    return replace(state, history=history, step_index=state.step_index + 1)


def _history_sum(coeffs: Sequence[float], levels: Sequence, value: Callable):
    # sum_{i >= 1} coeffs[i] * value(levels[-i]), newest level first
    total = coeffs[1] * value(levels[-1])
    for i in range(2, len(coeffs)):
        total = total + coeffs[i] * value(levels[-i])
    return total


def step(state: SchemeState, config: SchemeConfig, scheme: Optional[str] = None) -> SchemeState:
    """One step of ``scheme`` (default: the configured scheme) from the
    newest history levels, built from the scheme's row of SPECS.

    While the state holds fewer levels than the scheme's order, the step is
    that of the ``lower`` scheme instead, one order at a time; this is how a
    two-level run starts, and how the AP partner starts after a forced
    switch.  The BDF coefficients of ``order`` combine the stored curves in
    the velocity law and the stored perimeters in the perimeter law (the
    variant's perimeter law uses the one-step difference).  Crank-Nicolson
    solves for its midpoint level: an Euler step at tau / 2 whose laws hold
    on the end level (see SchemeContext), which it stores with the midpoint
    multipliers.  The reference polygon is the newest curve for an Euler
    step (no ``lower``), and otherwise the curve of one step of ``lower`` at
    the same tau (tau / 2 for Crank-Nicolson), solved to the same
    tolerance; that step's Newton iterations are not counted in the new
    level's ``newton_iters``.  Newton starts at the reference step's root,
    or at the newest level for an Euler step, and makes one Newton run (see
    newton_outer).  Returns the state with the new level appended.
    """
    spec = SPECS[scheme or config.scheme]
    while spec.order > len(state.history):
        spec = SPECS[spec.lower]
    last = state.history[-1]
    end = 2.0 if spec.cn else 1.0
    tau = state.tau / end
    delta = [float(c) for c in bdf_coefficients(spec.order)]
    dL = [float(c) for c in bdf_coefficients(1)] if spec.one_step_perimeter else delta
    ctx = SchemeContext(
        delta0=delta[0],
        xhist=_history_sum(delta, state.history, lambda e: e.curve.vertices),
        anchor=last.curve.vertices,
        end=end,
        use_perimeter=spec.kind != "AP",
        dL0=dL[0] / end,
        Lhist=_history_sum(dL, state.history, lambda e: e.L) / end,
        use_area=spec.kind != "PD",
        A0=state.A0,
    )
    start = last if spec.lower is None else step(replace(state, tau=tau), config, spec.lower).history[-1]
    ref = ReferenceGeometry(start.curve)

    def model(it: NewtonIterate, previous: Optional[NewtonBlocks]) -> NewtonBlocks:
        return assemble_newton_blocks(ctx, ref, it, tau, previous)

    it, iters = newton_outer(model, _start_iterate(start, ctx), config.tol, config.max_newton)
    if spec.cn:
        # the end level, by the expression of the laws' Z, with the midpoint multipliers
        it = it._replace(X=ctx.end_level(ctx.anchor, it.X), kappa=ctx.end_level(last.kappa, it.kappa))
    return _accept(state, it, iters, spec.kind)


def _initial_state(config: SchemeConfig) -> SchemeState:
    curve0 = config.make_initial_curve()
    entry0 = _level(curve0, initial_curvature(curve0), 0.0, 0.0, 0, SPECS[config.scheme].kind)
    return SchemeState(
        history=deque([entry0], maxlen=5),
        step_index=0,
        tau=config.tau,
        A0=entry0.A,
        L0=entry0.L,
    )


def _substepped_startup(config: SchemeConfig, spec: SchemeSpec) -> SchemeState:
    """History for an order-k AP run: one `run` of the order (k-1) scheme
    over [0, min(k-1, n_steps) tau] at substep sigma = tau / n_sub, n_sub =
    ceil(tau^(-1/(k-1))), so the startup error sigma^(k-1) <= tau^k.  Its
    snapshots at 0, tau, ... become the history levels, with the
    multipliers and mode of their rows; a level's newton_iters sums the
    rows of its tau interval.  A failed sub-run raises its failure."""
    k, tau = spec.order, config.tau
    n_sub = max(1, math.ceil(tau ** (-1.0 / (k - 1)) - 1e-12))
    sub_cfg = replace(config, scheme=spec.lower, tau=tau / n_sub, T=min(k - 1, config.n_steps) * tau, gamma=0.0)
    sub = run(sub_cfg, [j * tau for j in range(k)])
    if sub.failure is not None:
        raise sub.failure
    levels = []
    for j, snap in enumerate(sub.snapshots):
        m = j * n_sub  # the row of level j, which ends its tau interval
        row = sub.series.rows[m]
        iters = sum(r.newton_iters for r in sub.series.rows[max(0, m - n_sub + 1) : m + 1])
        levels.append(_level(snap.curve, snap.kappa, row.lam, row.eta, iters, row.mode))
    return SchemeState(
        history=deque(levels, maxlen=5),
        step_index=len(levels) - 1,
        tau=tau,
        A0=levels[0].A,
        L0=levels[0].L,
    )


def startup(config: SchemeConfig) -> SchemeState:
    """Initial SchemeState of a run.

    Level 0 uses the generated curve with least-squares curvature and zero
    multipliers; it is the whole start of a one- or two-level scheme, whose
    first `step` is that of its lower-order relative.  Order 3 and 4 AP
    schemes fill their history by substepping with the next-lower order (see
    _substepped_startup).
    """
    spec = SPECS[config.scheme]
    if spec.order > 2:
        return _substepped_startup(config, spec)
    return _initial_state(config)


class Snapshot(NamedTuple):
    """A captured time level: the exact grid time, curve and curvature."""

    t: float
    curve: PolygonalCurve
    kappa: np.ndarray


@dataclass
class RunResult:
    """Outcome of a full run.  On a step failure the exception is stored in
    ``failure`` and the series/snapshots keep everything completed before it."""

    series: DiagnosticsSeries
    snapshots: List[Snapshot]
    state: Optional[SchemeState]
    switch_time: Optional[float]
    forced_switch: bool
    failure: Optional[Exception]

    @property
    def ok(self) -> bool:
        return self.failure is None


def _diag_row(m: int, prev: HistoryEntry, entry: HistoryEntry, state: SchemeState) -> DiagnosticsRow:
    # the row of level m from levels m - 1 and m (at level 0, prev is entry)
    return DiagnosticsRow(
        t=m * state.tau,
        L_norm=entry.L / state.L0,
        dA=(entry.A - state.A0) / state.A0,
        lam=entry.lam,
        eta=entry.eta,
        psi=mesh_ratio(entry.curve),
        newton_iters=entry.newton_iters,
        deltaL=(entry.L - prev.L) / state.tau,
        mode=entry.mode,
    )


def run(config: SchemeConfig, snapshot_times: Sequence[float] = ()) -> RunResult:
    """Advance the configured scheme from 0 to T, with the modification
    algorithm active for SP schemes when gamma > 0.

    The SP phase ends by the threshold rule (a level m >= 1 with
    |deltaL| <= gamma) or, as a forced switch that retries the step (the
    first one included) with the AP partner, by an EquilibriumDegeneracyError;
    any other failure, also one in a substepped startup, ends the run.

    Snapshot times are rounded to the nearest completed step; the recorded t
    is the actual grid time.  Numerical failures do not raise: the partial
    series, snapshots and state are returned with ``failure`` set.
    """
    tau = config.tau
    n_steps = config.n_steps
    # clamped before rounding: a finite t over a tiny tau can overflow to inf
    snap_set = {int(round(min(n_steps, max(0.0, t / tau)))) for t in snapshot_times}
    spec = SPECS[config.scheme]
    gamma = config.gamma_value
    switching = spec.kind == "SP" and gamma > 0

    rows: List[DiagnosticsRow] = []
    snapshots: List[Snapshot] = []
    switched = False
    switch_time: Optional[float] = None
    forced = False

    def record(m: int, prev: HistoryEntry, entry: HistoryEntry) -> None:
        # the row, snapshot and threshold test of level m
        nonlocal switched, switch_time
        rows.append(_diag_row(m, prev, entry, state))
        if m in snap_set:
            snapshots.append(Snapshot(m * tau, entry.curve, np.array(entry.kappa)))
        if m > 0 and switching and not switched and abs(rows[-1].deltaL) <= gamma:
            switched, switch_time = True, m * tau

    failure: Optional[Exception] = None
    try:
        state = startup(config)
    except (SchemeError, SolverError) as exc:
        # only a substepped (AP) startup solves anything, and it never switches
        state = _initial_state(config)
        failure = exc

    levels = list(state.history)
    for m, entry in enumerate(levels):
        record(m, levels[m - 1] if m else entry, entry)

    while failure is None and state.step_index < n_steps:
        last = state.history[-1]
        try:
            state = step(state, config, spec.partner if switched else None)
        except (SchemeError, SolverError) as exc:
            if isinstance(exc, EquilibriumDegeneracyError) and not switched and switching:
                # the SP system degenerated at equilibrium: switch and retry
                switched, forced = True, True
                switch_time = state.step_index * tau
                continue
            failure = exc
            break
        record(state.step_index, last, state.history[-1])

    return RunResult(DiagnosticsSeries(rows=rows), snapshots, state, switch_time, forced, failure)

