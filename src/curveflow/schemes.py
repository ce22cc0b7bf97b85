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
    NewtonIterate,
    NewtonRun,
    ReferenceGeometry,
    SchemeContext,
    area_law_coefficients,
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
from .linalg import EquilibriumDegeneracyError, SolverError, assemble_system, eta_core_solve, solve_bordered
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
    """A Newton run found no root: it exhausted max_newton without meeting
    the tolerance, took a non-finite update, or (AP) met an area law with
    no real root on its eta line."""

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


def newton_outer(run: NewtonRun, start: NewtonIterate, tol: float, max_newton: int) -> Tuple[NewtonIterate, int]:
    """Newton iteration on the step equations of ``run``.

    A run whose blocks carry no lam column (AP) ends after its first
    iteration, whatever tol and max_newton are.  Its rows other than the
    area law are linear in (X, kappa, eta), with the exact Jacobian (lam is
    0), so the first update meets them, and so does every point of the line
    (X, kappa) - s y, eta + s, with y the eta column's core solve.  On that
    line the area law's residual is exactly c0 + c1 s + c2 s^2 (see
    area_law_coefficients), and the run returns its root nearest 0,
    s = c0 / q with q = -(c1 + sign(c1) sqrt(c1^2 - 4 c0 c2)) / 2, in place
    of a Newton iteration on that reduced scalar equation (Deuflhard, Newton
    Methods for Nonlinear Problems, 2004, ch. 2).  A negative or NaN
    discriminant, or a law constant and nonzero on the line, raises
    NewtonDivergenceError naming the area law.

    Otherwise (SP, PD) it applies full updates Delta_k and stops after the
    first update k with |Delta_k| <= tol, in the norm |Delta| =
    max(|dX|_inf, |dkappa|_inf, |dlam|, |deta|); even a start that is
    already a root costs one linear solve.

    Returns (iterate, iterations).  A non-finite update component raises
    NewtonDivergenceError at once, with last_norm = inf.

    Each iteration assembles its blocks on ``run`` (assemble_newton_blocks),
    and the first builds the run's system from them.  The core, with the
    run's lam M on Q's diagonal, is factored once, when the system is
    built: a simplified Newton method with an exact residual.  Each
    iteration then makes one banded solve, of its rhs and lam column, under
    that factor.
    """
    it = start
    norm = math.inf
    system = None
    for iteration in range(1, max_newton + 1):
        blocks = assemble_newton_blocks(run, it)
        if system is None:
            system = assemble_system(blocks)
        z = solve_bordered(system, blocks=blocks)
        norm = float(np.abs(z).max())
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
        if blocks.a1 is None:
            # AP: the linear rows hold on the line (X, kappa) - s y, eta + s,
            # with y the eta column's core solve; the area law's root nearest 0
            y = eta_core_solve(system)
            yX = y[: 2 * n].reshape(n, 2)
            c0, c1, c2 = area_law_coefficients(run, it.X, yX)
            disc = c1 * c1 - 4.0 * c0 * c2
            q = -0.5 * (c1 + math.copysign(math.sqrt(max(disc, 0.0)), c1))
            # a NaN discriminant fails the test too; q = 0 leaves r = c0 constant
            if not disc >= 0.0 or (q == 0.0 and c0 != 0.0):
                message = f"the area law has no real root on the eta line (discriminant {disc:.3e})"
                raise NewtonDivergenceError(message, last_norm=norm)
            s = c0 / q if q != 0.0 else 0.0
            return NewtonIterate(it.X - s * yX, it.kappa - s * y[2 * n :], it.lam, it.eta + s), iteration
        if norm <= tol:
            return it, iteration
    raise NewtonDivergenceError(
        f"Newton did not reach tol={tol} within {max_newton} iterations (last update {norm:.3e})",
        last_norm=norm,
    )


def _oriented_area(X: np.ndarray, step_index: int) -> float:
    # the signed area of a root's curve, which must stay counterclockwise
    area = _shoelace(X)
    if area <= 0.0:
        raise SchemeError(f"orientation lost at step {step_index}")
    return area


def _history_sum(coeffs: Sequence[float], levels: Sequence, value: Callable):
    # sum_{i >= 1} coeffs[i] * value(levels[-i]), newest level first
    total = coeffs[1] * value(levels[-1])
    for i in range(2, len(coeffs)):
        total = total + coeffs[i] * value(levels[-i])
    return total


def _root(state: SchemeState, config: SchemeConfig, spec: SchemeSpec, tau: float) -> Tuple[NewtonIterate, int]:
    # the Newton root and iterations of one step of spec onto a level tau
    # after the newest of state (see step); a reference step's root is
    # checked for orientation and serves the corrector, never stored
    last = state.history[-1]
    end = 2.0 if spec.cn else 1.0
    tau /= end
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
    if spec.lower is None:
        start = NewtonIterate(last.curve.vertices, last.kappa, last.lam, last.eta)
    else:
        start = _root(state, config, SPECS[spec.lower], tau)[0]
        _oriented_area(start.X, state.step_index + 1)
    # a multiplier that is not an unknown starts pinned to 0
    start = start._replace(lam=start.lam if ctx.use_perimeter else 0.0, eta=start.eta if ctx.use_area else 0.0)
    newton_run = NewtonRun(ctx, ReferenceGeometry(start.X), tau, start.lam)
    it, iters = newton_outer(newton_run, start, config.tol, config.max_newton)
    if spec.cn:
        # the end level, by the expression of the laws' Z, with the midpoint multipliers
        it = it._replace(X=ctx.end_level(ctx.anchor, it.X), kappa=ctx.end_level(last.kappa, it.kappa))
    return it, iters


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
    step (no ``lower``), and otherwise the root of one step of ``lower`` at
    the same tau (tau / 2 for Crank-Nicolson), solved to the same
    tolerance; that root is never stored as a level, and its Newton
    iterations are not counted in the new level's ``newton_iters``.  Newton
    starts at the reference step's root, or at the newest level for an
    Euler step, with a multiplier that is not an unknown pinned to 0, and
    makes one Newton run (see newton_outer).  A root whose curve is not
    counterclockwise, a reference step's included, raises SchemeError.
    Returns the state with the new level appended.
    """
    spec = SPECS[scheme or config.scheme]
    while spec.order > len(state.history):
        spec = SPECS[spec.lower]
    it, iters = _root(state, config, spec, state.tau)
    area = _oriented_area(it.X, state.step_index + 1)
    curve = PolygonalCurve(it.X)
    history = deque(state.history, maxlen=state.history.maxlen)
    history.append(HistoryEntry(curve, it.kappa, it.lam, it.eta, perimeter(curve), area, iters, spec.kind))
    return replace(state, history=history, step_index=state.step_index + 1)


def _initial_state(config: SchemeConfig) -> SchemeState:
    curve0 = config.make_initial_curve()
    kind = SPECS[config.scheme].kind
    entry0 = HistoryEntry(curve0, initial_curvature(curve0), 0.0, 0.0, perimeter(curve0), signed_area(curve0), 0, kind)
    return SchemeState(
        history=deque([entry0], maxlen=5),
        step_index=0,
        tau=config.tau,
        A0=entry0.A,
        L0=entry0.L,
    )


def startup(config: SchemeConfig) -> SchemeState:
    """Initial SchemeState of a run.

    Level 0 uses the generated curve with least-squares curvature and zero
    multipliers; it is the whole start of a one- or two-level scheme, whose
    first `step` is that of its lower-order relative.  An order-k AP scheme
    with k > 2 fills its history by stepping the order (k-1) scheme over
    [0, min(k-1, n_steps) tau] at substep sigma = tau / n_sub, n_sub =
    ceil(tau^(-1/(k-1))), so the startup error sigma^(k-1) <= tau^k.  Every
    n_sub-th substep level becomes a history level, whose newton_iters sums
    the substeps of its tau interval.  A failed substep raises its failure.
    """
    spec = SPECS[config.scheme]
    if spec.order <= 2:
        return _initial_state(config)
    k, tau = spec.order, config.tau
    n_sub = max(1, math.ceil(tau ** (-1.0 / (k - 1)) - 1e-12))
    sub_cfg = replace(config, scheme=spec.lower, tau=tau / n_sub, T=min(k - 1, config.n_steps) * tau, gamma=0.0)
    sub = startup(sub_cfg)
    substeps = list(sub.history)
    while sub.step_index < sub_cfg.n_steps:
        sub = step(sub, sub_cfg)
        substeps.append(sub.history[-1])
    levels = [
        substeps[m]._replace(newton_iters=sum(e.newton_iters for e in substeps[max(0, m - n_sub + 1) : m + 1]))
        for m in range(0, len(substeps), n_sub)
    ]
    return replace(sub, history=deque(levels, maxlen=5), step_index=len(levels) - 1, tau=tau)


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

